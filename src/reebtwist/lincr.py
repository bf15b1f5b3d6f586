"""Kernel analysis of the linearized holomorphic-curve operator at the
explicit plane.

After projecting out the directions normal to the plane (which obey a
plain Cauchy-Riemann system), the linearization reduces to a first
order equation for a C^2-valued field W on the punctured plane:

    dW/drho + (i/rho) dW/dpsi = (F(rho)/rho) * Re(W_2) * (h1, -h2),

with F = (h1' h2'' - h2' h1'') / detH evaluated along r(rho).  Inside
the exact quadratic core F vanishes, so W is holomorphic there; along
the asymptotic end the coefficients converge, with
H2 := -h2 * F -> h2''(r0) < 0 setting the decay rates.

The angular Fourier modes +/-k of the second component close into a
4-real-dimensional system (the mode system); the first component is
driven by it.  Kernel elements are counted per mode by shooting: bases
of solutions regular at the puncture and admissible at infinity are
propagated to a midpoint and their span intersected.  The expected
outcome for every shipped profile is three mode-0 directions (two
constants plus one decaying branch) and two mode-(-1) directions (the
1/z translation pair): five in total, matching the Fredholm index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate
from scipy.linalg import subspace_angles

from .plane import PlaneSolution
from .profiles import BindingProfile

__all__ = [
    "LinCRError",
    "WEquation",
    "ModeSystem",
    "KernelReport",
    "assemble_W_equation",
    "s_basis",
    "w_equation_residual",
    "full_system_residual",
    "mode_system",
    "phase_plane_eigen",
    "cone_invariance_check",
    "kernel_dimension",
    "a_norm_report",
    "sz_inequality_check",
    "random_truncated_field",
    "weight_exponent",
]


class LinCRError(ValueError):
    pass


# DOP853 tolerances of every shooting and phase-plane integration
ODE_RTOL = 1e-11
ODE_ATOL = 1e-13


# ----------------------------------------------------------------------
# the reduced equation and its coefficients
# ----------------------------------------------------------------------

@dataclass
class WEquation:
    """Coefficient data of the reduced equation along the plane.

    ``H2``/``G1`` are the second/first-component coupling factors -h2*F
    and h1*F at radius rho, and ``a_norm`` the sup of the
    pointwise operator norm |F|*sqrt(h1^2+h2^2) of the zeroth-order
    term.  ``H2_inf`` = h2''(r0) is the recorded limit (nonzero: the
    profiles do not flatten at r0).
    """

    bp: BindingProfile
    sol: PlaneSolution
    H2_inf: float
    G1_inf: float
    a_norm: float
    back_substitution_residual: float = 0.0

    def r_of_rho(self, rho: float) -> float:
        return self.sol.r_of_rho(rho)

    def _F_at_r(self, r: float) -> float:
        if r <= 0.0:
            return 0.0
        b = self.bp
        return (b.h1.d1(r) * b.h2.d2(r) - b.h2.d1(r) * b.h1.d2(r)) / b.detH(r)

    def H2(self, rho: float) -> float:
        r = self.sol.r_of_rho(rho)
        return -self.bp.h2(r) * self._F_at_r(r)

    def G1(self, rho: float) -> float:
        r = self.sol.r_of_rho(rho)
        return self.bp.h1(r) * self._F_at_r(r)

    @property
    def spectral_gap(self) -> float:
        # smallest decay rate among the asymptotic directions: |H2_inf|
        # from the mode-0 branch, 1 from the 1/z pair (mode-|k| rates
        # |lambda_-| = sqrt(H2^2/4 + k^2) - H2/2 all exceed it)
        return min(abs(self.H2_inf), 1.0)

    def default_delta(self) -> float:
        return 0.5 * self.spectral_gap


def assemble_W_equation(bp: BindingProfile, sol: PlaneSolution,
                        n_check: int = 1000, tol: float = 1e-8) -> WEquation:
    """Build the coefficient data and verify it by back-substituting the
    rotation-invariant explicit kernel elements into the original
    4-field system (residual <= tol on an n_check grid)."""
    for rho in np.geomspace(1e-4, math.exp(sol.x_max), 64):
        r = sol.r_of_rho(float(rho))
        if r > 0 and abs(bp.detH(r)) < 1e-14:
            raise LinCRError(f"detH vanishes along the plane at rho = {rho:.3e}")
    r0 = bp.r0
    F_inf = (bp.h1.d1(r0) * bp.h2.d2(r0) - bp.h2.d1(r0) * bp.h1.d2(r0)) / bp.detH(r0)
    we = WEquation(bp=bp, sol=sol,
                   H2_inf=-bp.h2(r0) * F_inf,
                   G1_inf=bp.h1(r0) * F_inf,
                   a_norm=0.0)
    rhos = np.geomspace(1e-3, math.exp(sol.x_max), 4000)
    a_norm = 0.0
    for rho in rhos:
        r = sol.r_of_rho(float(rho))
        a_norm = max(a_norm, abs(we._F_at_r(r))
                     * math.hypot(bp.h1(r), bp.h2(r)))
    we.a_norm = a_norm

    # back-substitution check of the psi-independent explicit elements
    worst = 0.0
    for name in ("const_re", "translation"):
        Wf = s_basis(we, name)
        for rho in np.geomspace(1e-2, math.exp(0.9 * sol.x_max), n_check):
            res = full_system_residual(we, Wf, float(rho), 0.37)
            worst = max(worst, res)
    if worst > tol:
        raise LinCRError(f"back-substitution residual {worst:.2e} > {tol:.1e}")
    we.back_substitution_residual = worst
    return we


# ----------------------------------------------------------------------
# explicit kernel elements and residual evaluators
# ----------------------------------------------------------------------

def s_basis(we: WEquation, name: str):
    """Explicit solutions as callables rho, psi -> (W, dW/drho, dW/dpsi).

    Names: const_re, const_im (dilation/rotation of the domain),
    trans_re, trans_im (the 1/z translation pair), translation (the
    symplectization shift (-h1'/detH, h2'/detH)).
    """
    bp = we.bp

    if name == "const_re":
        def f(rho, psi):
            return (np.array([1.0, 0.0], complex),
                    np.zeros(2, complex), np.zeros(2, complex))
        return f
    if name == "const_im":
        def f(rho, psi):
            return (np.array([1j, 0.0], complex),
                    np.zeros(2, complex), np.zeros(2, complex))
        return f
    if name in ("trans_re", "trans_im"):
        a = 1.0 if name == "trans_re" else 1j

        def f(rho, psi):
            e = np.exp(-1j * psi)
            W = np.array([a * e / rho, 0.0], complex)
            dr = np.array([-a * e / rho ** 2, 0.0], complex)
            dp = np.array([-1j * a * e / rho, 0.0], complex)
            return W, dr, dp
        return f
    if name == "translation":
        def f(rho, psi):
            r = we.sol.r_of_rho(rho)
            det = bp.detH(r)
            W = np.array([-bp.h1.d1(r) / det, bp.h2.d1(r) / det], complex)
            F = we._F_at_r(r)
            drdrho = bp.h2.d1(r) / rho
            dr = drdrho * np.array([bp.h1(r) * F / det, -bp.h2(r) * F / det],
                                   complex)
            return W, dr, np.zeros(2, complex)
        return f
    raise LinCRError(f"unknown basis element {name!r}")


def w_equation_residual(we: WEquation, Wf, rho: float, psi: float) -> float:
    """Residual of the reduced equation at (rho, psi) for a field with
    known derivatives."""
    W, dWr, dWp = Wf(rho, psi)
    r = we.sol.r_of_rho(rho)
    F = we._F_at_r(r)
    rhs = (F / rho) * W[1].real * np.array([we.bp.h1(r), -we.bp.h2(r)], complex)
    return float(np.max(np.abs(dWr + (1j / rho) * dWp - rhs)))


def full_system_residual(we: WEquation, Wf, rho: float, psi: float,
                         h_rel: float = 1e-6) -> float:
    """Residual of the original 4-field system for a W-field.

    The original variables are Y = Im W (angle and geodesic components)
    and Z = H * Re W (radial and symplectization components); their
    rho-derivatives are assembled from the field's derivatives and the
    profile chain rule, so the check is free of finite differencing.
    """
    bp = we.bp
    W, dWr, dWp = Wf(rho, psi)
    r = we.sol.r_of_rho(rho)
    h1, h2 = bp.h1(r), bp.h2(r)
    h1d, h2d = bp.h1.d1(r), bp.h2.d1(r)
    h1dd, h2dd = bp.h1.d2(r), bp.h2.d2(r)
    det = bp.detH(r)
    drdrho = h2d / rho

    xi_phi, xi_par = W[0].imag, W[1].imag
    xi_r = h2d * W[0].real + h1d * W[1].real
    xi_t = h2 * W[0].real + h1 * W[1].real

    d_xi_phi = dWr[0].imag
    d_xi_par = dWr[1].imag
    d_xi_r = (h2dd * drdrho * W[0].real + h2d * dWr[0].real
              + h1dd * drdrho * W[1].real + h1d * dWr[1].real)
    d_xi_t = (h2d * drdrho * W[0].real + h2 * dWr[0].real
              + h1d * drdrho * W[1].real + h1 * dWr[1].real)

    p_xi_phi = dWp[0].imag
    p_xi_par = dWp[1].imag
    p_xi_r = h2d * dWp[0].real + h1d * dWp[1].real
    p_xi_t = h2 * dWp[0].real + h1 * dWp[1].real

    e1 = d_xi_phi + (h1 / det) * p_xi_r / rho - (h1d / det) * p_xi_t / rho
    e2 = d_xi_par - (h2 / det) * p_xi_r / rho + (h2d / det) * p_xi_t / rho
    e3 = d_xi_r - (h2d / rho) * p_xi_phi - (h1d / rho) * p_xi_par \
        - (h2dd / rho) * xi_r
    e4 = d_xi_t - (h2 / rho) * p_xi_phi - (h1 / rho) * p_xi_par \
        - (h2d / rho) * xi_r
    return max(abs(e1), abs(e2), abs(e3), abs(e4))


# ----------------------------------------------------------------------
# mode systems and the phase plane
# ----------------------------------------------------------------------

@dataclass
class ModeSystem:
    """Angular-mode reduction of the second component.

    State X = (Re u, Re v, Im u, Im v) with u the mode-k amplitude and
    v the conjugated mode-(-k) amplitude; rho X' applies M2 to each of
    the two real halves, which are decoupled and identical:

        M2 = [[k + H2/2, H2/2], [H2/2, -k + H2/2]].

    A similarity by [[1,1],[1,-1]] carries M2 to [[H2, k], [k, 0]], the
    phase-plane form in the variables (Re c, Im d).
    """

    k: int
    delta: float
    we: WEquation

    def m2(self, rho: float) -> np.ndarray:
        H2 = self.we.H2(rho)
        return np.array([[self.k + H2 / 2.0, H2 / 2.0],
                         [H2 / 2.0, -self.k + H2 / 2.0]])


def mode_system(we: WEquation, k: int, delta: float | None = None) -> ModeSystem:
    if delta is None:
        delta = we.default_delta()
    if not (0.0 < delta < we.spectral_gap):
        raise LinCRError(f"delta = {delta} not inside the spectral gap "
                         f"(0, {we.spectral_gap})")
    return ModeSystem(k=k, delta=delta, we=we)


def phase_plane_eigen(we: WEquation, rho: float) -> dict:
    """Eigen-structure of [[H2, 1], [1, 0]] at the given radius:
    expanding/contracting values H2/2 +- sqrt(H2^2/4 + 1) with
    eigenvectors (1, -H2/2 +- sqrt(H2^2/4 + 1))."""
    if rho <= 0.0:
        raise LinCRError("rho must be positive")
    H2 = we.H2(rho)
    root = math.sqrt(H2 * H2 / 4.0 + 1.0)
    lam_plus = H2 / 2.0 + root
    lam_minus = H2 / 2.0 - root
    return {
        "H2": H2,
        "expanding": lam_plus,
        "contracting": lam_minus,
        "vec_expanding": np.array([1.0, -H2 / 2.0 + root]),
        "vec_contracting": np.array([1.0, -H2 / 2.0 - root]),
    }


def cone_invariance_check(we: WEquation, rho_span: tuple,
                          starts: list | np.ndarray,
                          n_steps: int = 2000) -> dict:
    """Integrate the phase-plane system v' = (1/rho)[[H2,1],[1,0]] v
    from first-quadrant starts over rho_span.

    Certifies that trajectories stay in the (closed) first quadrant and
    reports two growth measures per start: the diagonal component
    <v, (1,1)> ratio (exactly the expanding-eigendirection ratio while
    the coefficients are in the holomorphic core) and the norm ratio.
    """
    lo, hi = rho_span
    if not (0.0 < lo < hi):
        raise LinCRError("need 0 < rho_lo < rho_hi")
    xs = (math.log(lo), math.log(hi))
    results = []
    for v0 in starts:
        v0 = np.asarray(v0, float)
        if v0[0] <= 0.0 or v0[1] <= 0.0:
            raise LinCRError("starts must lie in the open first quadrant")

        def rhs(x, v):
            H2 = we.H2(math.exp(x))
            return [H2 * v[0] + v[1], v[0]]

        out = integrate.solve_ivp(rhs, xs, v0, method="DOP853",
                                  rtol=ODE_RTOL, atol=ODE_ATOL,
                                  dense_output=True)
        if not out.success:
            raise LinCRError(f"phase-plane integration failed: {out.message}")
        sample = out.sol(np.linspace(xs[0], xs[1], n_steps))
        min_component = float(sample.min())
        v1 = out.y[:, -1]
        results.append({
            "start": v0.tolist(),
            "min_component": min_component,
            "stayed_in_quadrant": min_component >= -1e-12,
            "growth_diagonal": float((v1[0] + v1[1]) / (v0[0] + v0[1])),
            "growth_norm": float(np.linalg.norm(v1) / np.linalg.norm(v0)),
        })
    return {
        "rho_span": (float(lo), float(hi)),
        "all_stayed": all(r["stayed_in_quadrant"] for r in results),
        "min_growth_diagonal": min(r["growth_diagonal"] for r in results),
        "min_component": min(r["min_component"] for r in results),
        "per_start": results,
    }


# ----------------------------------------------------------------------
# shooting
# ----------------------------------------------------------------------
# Block |k| couples the four complex amplitudes
#   (w1p, w1m, w2p, w2m) = (modes +k/-k of W_1, modes +k/-k of W_2)
# through chi = (w2p + conj(w2m))/2, the mode-k amplitude of Re W_2:
#   w1p' = +k w1p + G1 chi,   w1m' = -k w1m + G1 conj(chi),
#   w2p' = +k w2p + H2 chi,   w2m' = -k w2m + H2 conj(chi)
# (derivatives in x = log rho).  Real state: [Re, Im] of each slot.

_SLOTS = ("w1p", "w1m", "w2p", "w2m")


@functools.lru_cache(maxsize=None)
def _block_parts(k: int):
    """Constant matrices (K, P, Q) of the block-|k| system
    A = K + G1*P + H2*Q, built once per block and read-only.  Block 0
    is 4-dimensional, state (Re w1, Im w1, Re w2, Im w2), and only
    Re w2 couples."""
    if k == 0:
        K, P, Q = np.zeros((3, 4, 4))
        P[0, 2] = 1.0
        Q[2, 2] = 1.0
    else:
        K = np.diag(k * np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0]))
        # Re chi = (Re w2p + Re w2m)/2, Im chi = (Im w2p - Im w2m)/2;
        # the rows of a +k slot take chi, those of a -k slot conj(chi)
        re_chi = np.array([0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.5, 0.0])
        im_chi = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0, -0.5])
        takes = np.array([re_chi, im_chi, re_chi, -im_chi])
        P, Q = np.zeros((2, 8, 8))
        P[:4] = takes
        Q[4:] = takes
    for M in (K, P, Q):
        M.setflags(write=False)
    return K, P, Q


def _block_matrix(k: int, G1: float, H2: float) -> np.ndarray:
    K, P, Q = _block_parts(k)
    return K + G1 * P + H2 * Q


def _coefficients(bp: BindingProfile, r: float):
    """(G1, H2, h2') at plane radius r > 0, from one evaluation of each
    profile value and derivative."""
    h1, h2 = bp.h1.value(r), bp.h2.value(r)
    h1d, h2d = bp.h1.d1(r), bp.h2.d1(r)
    F = (h1d * bp.h2.d2(r) - h2d * bp.h1.d2(r)) / (h1 * h2d - h2 * h1d)
    return h1 * F, -h2 * F, h2d


def _propagate(we: WEquation, k: int, Y: np.ndarray, x_from: float,
               x_to: float) -> np.ndarray:
    """Propagate the columns of Y under the block-|k| system from x_from
    to x_to in one solve_ivp.

    The plane radius rides along as a last state component
    (dr/dx = h2'(r)), anchored at x_from on the plane solution, so the
    right-hand side never consults the plane interpolant."""
    bp = we.bp
    dim, ncols = Y.shape
    n = dim * ncols

    def rhs(_x, y):
        G1, H2, h2d = _coefficients(bp, y[n])
        dy = np.empty(n + 1)
        dy[:n] = (_block_matrix(k, G1, H2) @ y[:n].reshape(dim, ncols)).ravel()
        dy[n] = h2d
        return dy

    y0 = np.append(Y.ravel(), we.r_of_rho(math.exp(x_from)))
    out = integrate.solve_ivp(rhs, (x_from, x_to), y0, method="DOP853",
                              rtol=ODE_RTOL, atol=ODE_ATOL)
    if not out.success:
        raise LinCRError(f"mode {k} shooting failed on "
                         f"[{x_from:.2f}, {x_to:.2f}]")
    return out.y[:n, -1].reshape(dim, ncols)


def _integrate_basis(we: WEquation, k: int, basis: np.ndarray,
                     x_from: float, x_to: float, chunk: float = 1.0,
                     renormalize: bool = True):
    """Propagate the columns of ``basis`` under the block system from
    x_from to x_to, with QR renormalization after every chunk when
    ``renormalize`` (then only the spanned subspace is meaningful)."""
    Y = np.linalg.qr(basis)[0] if renormalize else basis
    n_chunk = max(1, int(math.ceil(abs(x_to - x_from) / chunk)))
    edges = np.linspace(x_from, x_to, n_chunk + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        Y = _propagate(we, k, Y, float(a), float(b))
        if renormalize:
            Y = np.linalg.qr(Y)[0]
    return Y


def _inner_basis(block: int, x_a: float) -> np.ndarray:
    """Directions regular at the puncture, initialized in the core where
    the equation is exactly holomorphic.

    First-component modes z^k for k >= -1 are regular sections (the
    1/z pair realizes the domain translations); second-component modes
    z^k only for k >= 0 (a 1/z term there is a genuine singularity of
    the radial/symplectization fields)."""
    if block == 0:
        return np.eye(4)
    cols = []
    scale_p = math.exp(min(block * x_a, 50.0))
    scale_m = math.exp(max(-block * x_a, -50.0))
    def unit(slot, re_im, scl):
        v = np.zeros(8)
        v[2 * _SLOTS.index(slot) + re_im] = scl
        return v
    cols += [unit("w1p", 0, scale_p), unit("w1p", 1, scale_p)]
    if block == 1:
        cols += [unit("w1m", 0, scale_m), unit("w1m", 1, scale_m)]
    cols += [unit("w2p", 0, scale_p), unit("w2p", 1, scale_p)]
    return np.array(cols).T


def _outer_basis(we: WEquation, block: int, delta: float) -> np.ndarray:
    """Directions admissible at infinity: the stable eigenspace of the
    limiting system (decay rate >= delta), plus, for mode 0, the two
    constant first-component directions (the asymptotic shift and
    rotation allowances)."""
    lam, vec = np.linalg.eig(_block_matrix(block, we.G1_inf, we.H2_inf))
    cols = []
    for j in range(len(lam)):
        if lam[j].real <= -delta:
            cols.append(vec[:, j].real)
            if np.max(np.abs(vec[:, j].imag)) > 1e-12:
                cols.append(vec[:, j].imag)
    if block == 0:
        e = np.zeros(4)
        e[0] = 1.0
        cols.append(e.copy())
        e = np.zeros(4)
        e[1] = 1.0
        cols.append(e)
    M = np.array(cols).T
    Q, R = np.linalg.qr(M)
    keep = np.abs(np.diag(R)) > 1e-10 * max(1.0, np.abs(np.diag(R)).max())
    return Q[:, keep]


@dataclass
class KernelReport:
    per_mode: dict
    total: int
    non_decaying_bounded: int
    delta: float
    spectral_gap: float
    angles: dict = field(default_factory=dict)       # block -> principal angles
    conditioning: dict = field(default_factory=dict)  # block -> angle gap


def kernel_dimension(we: WEquation, delta: float | None = None,
                     k_max: int = 5, n: int = 2,
                     angle_tol: float = 1e-6) -> KernelReport:
    """Count admissible kernel directions per angular mode by two-sided
    shooting and subspace matching.

    For each block |k| the regular-at-0 basis is propagated outward and
    the admissible-at-infinity basis inward to a common midpoint; the
    kernel dimension of the block is the number of principal angles
    between the two spans below angle_tol.  Counts are attributed to
    signed modes by the dominant slot of the matched directions.
    ``non_decaying_bounded`` counts the bounded non-decaying solutions
    tangent to the orbit family: the constant geodesic component plus
    the 2(n-2) holomorphic constants of the normal block.
    """
    if delta is None:
        delta = we.default_delta()
    if not (0.0 < delta < we.spectral_gap):
        raise LinCRError(f"delta = {delta} outside the spectral gap "
                         f"(0, {we.spectral_gap:.4f})")
    x_a = we.sol.x_core - 1.0
    x_b = we.sol.x_max
    x_mid = min(2.0, 0.5 * x_b)

    per_mode = {k: 0 for k in range(-k_max, k_max + 1)}
    angles_all = {}
    conditioning = {}
    for block in range(0, k_max + 1):
        U0 = _inner_basis(block, x_a)
        V0 = _outer_basis(we, block, delta)
        U = _integrate_basis(we, block, U0, x_a, x_mid)
        V = _integrate_basis(we, block, V0, x_b, x_mid)
        ang = subspace_angles(U, V)
        ang = np.sort(ang)
        dim_state = U.shape[0]
        # guaranteed overlap from dimension counting alone
        forced = max(0, U.shape[1] + V.shape[1] - dim_state)
        matched = int(np.sum(ang < angle_tol))
        angles_all[block] = ang.tolist()
        rest = ang[matched:]
        conditioning[block] = float(rest[0]) if len(rest) else float("nan")
        if matched < forced:
            raise LinCRError(
                f"block {block}: angle tolerance rejected a forced "
                f"intersection; angles {ang[:4]}")
        if matched and len(rest) and rest[0] < 100 * angle_tol:
            raise LinCRError(
                f"block {block}: ambiguous rank decision near the angle "
                f"tolerance: {ang[:matched + 1]}; refine and retry")
        if block == 0:
            per_mode[0] = matched
        elif matched:
            # attribute matched directions by dominant slot
            Ua, sv, Vt = np.linalg.svd(U.T @ V)
            for j in range(matched):
                w = U @ Ua[:, j]
                masses = [np.linalg.norm(w[0:2]), np.linalg.norm(w[2:4]),
                          np.linalg.norm(w[4:8])]
                slot = int(np.argmax(masses))
                if slot == 0:
                    per_mode[block] += 1
                elif slot == 1:
                    per_mode[-block] += 1
                else:
                    # second-component pair: attribute to +block
                    per_mode[block] += 1
    total = sum(per_mode.values())
    non_dec = _verify_non_decaying(we, n)
    return KernelReport(per_mode=per_mode, total=total,
                        non_decaying_bounded=non_dec, delta=delta,
                        spectral_gap=we.spectral_gap,
                        angles=angles_all, conditioning=conditioning)


def _verify_non_decaying(we: WEquation, n: int) -> int:
    """Bounded non-decaying directions: the constant geodesic component
    (0, i) of the reduced system plus 2(n-2) holomorphic constants of
    the normal block.  The (0, i) direction is integrated to confirm it
    stays constant (exactly bounded, exactly non-decaying)."""
    y0 = np.array([[0.0], [0.0], [0.0], [1.0]])
    Y = _integrate_basis(we, 0, y0, we.sol.x_core, we.sol.x_max, chunk=4.0)
    # direction must be preserved (the imaginary part of w2 is constant)
    if abs(abs(Y[3, 0]) - 1.0) > 1e-8:
        raise LinCRError("constant geodesic direction failed to persist")
    return 1 + 2 * (n - 2)


def a_norm_report(we: WEquation) -> dict:
    """Sup of the zeroth-order coefficient norm and the smallness flag
    used by the mode-exclusion inequality."""
    return {"a_norm": we.a_norm, "below_2": bool(we.a_norm < 2.0)}


def mode_shooting_table(we: WEquation, k_max: int = 5, n_samples: int = 25):
    """Growth profiles of the regular-at-0 basis directions per block:
    rows (block, direction, rho, log10_norm).  The directions of a block
    are propagated together as the columns of one matrix, each column
    rescaled to unit norm at every sample (only the slope of the
    log-norm is meaningful)."""
    x_a = we.sol.x_core - 1.0
    x_b = we.sol.x_max
    xs = np.linspace(x_a, x_b, n_samples)
    rows = []
    labels0 = ("w1_re", "w1_im", "w2_re", "w2_im")
    labels = ("w1p_re", "w1p_im", "w1m_re", "w1m_im", "w2p_re", "w2p_im")
    for block in range(0, k_max + 1):
        basis = _inner_basis(block, x_a)
        names = labels0 if block == 0 else labels[:basis.shape[1]]
        Y = basis / np.linalg.norm(basis, axis=0)
        logn = [np.zeros(basis.shape[1])]
        for a, b in zip(xs[:-1], xs[1:]):
            Y = _propagate(we, block, Y, float(a), float(b))
            nrm = np.linalg.norm(Y, axis=0)
            logn.append(logn[-1] + np.log10(np.maximum(nrm, 1e-300)))
            Y = Y / nrm
        for j, name in enumerate(names):
            rows += [[block, name, math.exp(x), float(lg[j])]
                     for x, lg in zip(xs, logn)]
    return ["block", "direction", "rho", "log10_norm"], rows


# ----------------------------------------------------------------------
# the averaged-derivative inequality
# ----------------------------------------------------------------------

def weight_exponent(rho, delta: float, rho_0: float, rho_inf: float):
    """Smooth-step exponent w(rho): 2 below rho_0, delta above rho_inf."""
    if rho <= rho_0:
        return 2.0
    if rho >= rho_inf:
        return delta
    u = (rho - rho_0) / (rho_inf - rho_0)
    s = u * u * (3.0 - 2.0 * u)
    return 2.0 + (delta - 2.0) * s


def random_truncated_field(rng, modes, n_rho: int = 48, n_psi: int = 64,
                           rho_range=(0.5, 30.0)):
    """A C^2-valued field on a cylinder patch with angular content only
    in the prescribed modes, with smooth random radial amplitudes."""
    rhos = np.geomspace(*rho_range, n_rho)
    psis = np.linspace(0.0, 2.0 * math.pi, n_psi, endpoint=False)
    vals = np.zeros((n_rho, n_psi, 2), complex)
    xs = np.log(rhos)
    for k in modes:
        for comp in range(2):
            c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            amp = (c[0] + c[1] * np.sin(xs / 3.0) + c[2] * np.cos(xs / 2.0))
            vals[:, :, comp] += np.outer(amp, np.exp(1j * k * psis))
    return rhos, psis, vals


def sz_inequality_check(fields, delta: float = 0.5, rho_0: float = 1.0,
                        rho_inf: float = 10.0) -> dict:
    """Check 2 ||W~|| <= ||dW~/dpsi|| in the weighted norm for each
    field, W~ being the field with angular modes -1, 0, 1 removed.

    Angular integrals are spectral (FFT); the radial measure is
    exp(w(rho) * rho) d rho with the smooth-step weight exponent.
    Fields whose truncation vanishes pass vacuously.
    """
    ratios = []
    vacuous = 0
    for rhos, psis, vals in fields:
        n_rho, n_psi, _ = vals.shape
        hat = np.fft.fft(vals, axis=1)
        freqs = np.fft.fftfreq(n_psi, d=1.0 / n_psi).astype(int)
        kill = np.isin(freqs, (-1, 0, 1))
        hat[:, kill, :] = 0.0
        # Parseval per radius: sum |hat|^2 / n_psi^2 * n_psi
        norm2_psi = np.sum(np.abs(hat) ** 2, axis=(1, 2)) / n_psi
        dpsi_hat = hat * (1j * freqs)[None, :, None]
        dnorm2_psi = np.sum(np.abs(dpsi_hat) ** 2, axis=(1, 2)) / n_psi
        wgt = np.array([math.exp(weight_exponent(r, delta, rho_0, rho_inf) * r)
                        for r in rhos])
        # normalize against overflow: only the ratio matters
        wgt = wgt / wgt.max()
        num = np.trapezoid(dnorm2_psi * wgt, rhos)
        den = np.trapezoid(norm2_psi * wgt, rhos)
        if den <= 1e-300:
            vacuous += 1
            continue
        ratios.append(math.sqrt(num / den))
    return {
        "n_fields": len(fields),
        "n_vacuous": vacuous,
        "min_ratio": min(ratios) if ratios else float("inf"),
        "passed": all(r >= 2.0 - 1e-9 for r in ratios),
    }

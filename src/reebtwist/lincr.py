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
propagated to a midpoint and their span intersected.  All blocks share
the coefficients G1(r), H2(r), so every block is propagated in one
stacked linear system, with the plane radius r carried in the state:
one solve_ivp per unit step in x and QR per block between steps
(continuous orthogonalization, as in Humpherys & Zumbrun, Physica D
220, 2006).  The expected
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
from .profiles import BindingProfile, piecewise

__all__ = [
    "LinCRError",
    "WEquation",
    "KernelReport",
    "assemble_W_equation",
    "s_basis",
    "w_equation_residual",
    "full_system_residual",
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
    profiles do not flatten at r0).  ``back_substitution_residual`` is
    the largest residual of the explicit elements const_re and
    translation in the original 4-field system (the CLI gates it).
    ``H2`` and ``G1`` take a float or an ndarray of radii.
    """

    bp: BindingProfile
    sol: PlaneSolution
    H2_inf: float
    G1_inf: float
    a_norm: float
    back_substitution_residual: float = 0.0

    def H2(self, rho):
        F, _, h2, _ = _coefficients(self.bp, self.sol.r_of_rho(rho))
        return -h2 * F

    def G1(self, rho):
        F, h1, _, _ = _coefficients(self.bp, self.sol.r_of_rho(rho))
        return h1 * F

    @property
    def spectral_gap(self) -> float:
        # smallest decay rate among the asymptotic directions: |H2_inf|
        # from the mode-0 branch, 1 from the 1/z pair (mode-|k| rates
        # |lambda_-| = sqrt(H2^2/4 + k^2) - H2/2 all exceed it)
        return min(abs(self.H2_inf), 1.0)

    def default_delta(self) -> float:
        return 0.5 * self.spectral_gap


def assemble_W_equation(bp: BindingProfile, sol: PlaneSolution,
                        n_check: int = 1000) -> WEquation:
    """Build the coefficient data and the residual of back-substituting
    the rotation-invariant explicit kernel elements into the original
    4-field system on an n_check grid (reported, gated by the caller).
    Each check is one array evaluation over its grid."""
    rhos = np.geomspace(1e-4, math.exp(sol.x_max), 64)
    r = sol.r_of_rho(rhos)
    vanish = (r > 0.0) & (np.abs(bp.detH(r)) < 1e-14)
    if vanish.any():
        raise LinCRError("detH vanishes along the plane at rho = "
                         f"{rhos[np.argmax(vanish)]:.3e}")
    F_inf, h1_inf, h2_inf, _ = _coefficients(bp, bp.r0)
    F, h1, h2, _ = _coefficients(
        bp, sol.r_of_rho(np.geomspace(1e-3, math.exp(sol.x_max), 4000)))
    we = WEquation(bp=bp, sol=sol,
                   H2_inf=-h2_inf * F_inf,
                   G1_inf=h1_inf * F_inf,
                   a_norm=float(np.max(np.abs(F) * np.hypot(h1, h2))))
    # back-substitution check of the psi-independent explicit elements
    rhos = np.geomspace(1e-2, math.exp(0.9 * sol.x_max), n_check)
    we.back_substitution_residual = max(
        float(np.max(full_system_residual(we, s_basis(we, name), rhos, 0.37)))
        for name in ("const_re", "translation"))
    return we


# ----------------------------------------------------------------------
# explicit kernel elements and residual evaluators
# ----------------------------------------------------------------------

def _pair(rho, first, second=0.0) -> np.ndarray:
    """The C^2 value (first, second) at every rho: shape (2,) for a
    float rho, (2,) + rho.shape for an array."""
    out = np.zeros((2,) + np.shape(rho), complex)
    out[0], out[1] = first, second
    return out


def s_basis(we: WEquation, name: str):
    """Explicit solutions as callables rho, psi -> (W, dW/drho, dW/dpsi),
    each of shape (2,) for a float rho and (2,) + rho.shape for an array.

    Names: const_re, const_im (dilation/rotation of the domain),
    trans_re, trans_im (the 1/z translation pair), translation (the
    symplectization shift (-h1'/detH, h2'/detH)).
    """
    bp = we.bp

    if name in ("const_re", "const_im"):
        a = 1.0 if name == "const_re" else 1j

        def f(rho, psi):
            return _pair(rho, a), _pair(rho, 0.0), _pair(rho, 0.0)
        return f
    if name in ("trans_re", "trans_im"):
        a = 1.0 if name == "trans_re" else 1j

        def f(rho, psi):
            e = np.exp(-1j * psi)
            return (_pair(rho, a * e / rho), _pair(rho, -a * e / rho ** 2),
                    _pair(rho, -1j * a * e / rho))
        return f
    if name == "translation":
        def f(rho, psi):
            r = we.sol.r_of_rho(rho)
            det = bp.detH(r)
            W = _pair(rho, -bp.h1.d1(r) / det, bp.h2.d1(r) / det)
            F, h1, h2, h2d = _coefficients(bp, r)
            drdrho = h2d / rho
            dr = drdrho * _pair(rho, h1 * F / det, -h2 * F / det)
            return W, dr, _pair(rho, 0.0)
        return f
    raise LinCRError(f"unknown basis element {name!r}")


def w_equation_residual(we: WEquation, Wf, rho: float, psi: float) -> float:
    """Residual of the reduced equation at (rho, psi) for a field with
    known derivatives."""
    W, dWr, dWp = Wf(rho, psi)
    F, h1, h2, _ = _coefficients(we.bp, we.sol.r_of_rho(rho))
    rhs = (F / rho) * W[1].real * np.array([h1, -h2], complex)
    return float(np.max(np.abs(dWr + (1j / rho) * dWp - rhs)))


def full_system_residual(we: WEquation, Wf, rho, psi: float):
    """Residual of the original 4-field system for a W-field, at a float
    rho or at every point of an array of them.

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
    return np.max(np.abs([e1, e2, e3, e4]), axis=0)


# ----------------------------------------------------------------------
# the phase plane
# ----------------------------------------------------------------------

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


def _coefficients(bp: BindingProfile, r):
    """(F, h1, h2, h2') at plane radius r (a float or an ndarray) from
    one evaluation of each profile value and derivative:
    F = (h1' h2'' - h2' h1'')/detH, taken as 0 at r <= 0 where detH
    vanishes; G1 = h1*F and H2 = -h2*F."""
    h1, h2 = bp.h1.value(r), bp.h2.value(r)
    h1d, h2d = bp.h1.d1(r), bp.h2.d1(r)
    # the (r > 0) factor zeroes F at r <= 0 and the (r <= 0) term keeps
    # the divisor nonzero there, for a float and elementwise alike
    return ((h1d * bp.h2.d2(r) - h2d * bp.h1.d2(r)) * (r > 0.0)
            / (h1 * h2d - h2 * h1d + (r <= 0.0)), h1, h2, h2d)


@functools.lru_cache(maxsize=64)
def _stacked_system(blocks: tuple, shapes: tuple):
    """Every block's A = K + G1*P + H2*Q as flat arrays over the
    unpadded stacked state: the columns of block ``blocks[i]`` (shape
    ``shapes[i]``) one block after another, each raveled row-major.

    K is diagonal and P, Q have disjoint nonzero rows, so with the
    constant T = P + Q, A Y = k * Y + g * (T Y), g being G1 on the rows
    of P and H2 on those of Q.  No row of T has more than two nonzeros,
    so (T Y)[e] = w[0][e] * y[src[0][e]] + w[1][e] * y[src[1][e]].
    Returns (k, coupling, src, w) with coupling 0 on the rows of P and 1
    elsewhere (an index into (G1, H2)); built once per key, read-only."""
    k, coupling, src, w = [], [], [], []
    offset = 0
    for block, (dim, ncols) in zip(blocks, shapes):
        K, P, Q = _block_parts(block)
        T = P + Q
        cols = np.zeros((dim, 2), int)
        wts = np.zeros((dim, 2))
        for i in range(dim):
            nz = np.flatnonzero(T[i])
            cols[i, :len(nz)], wts[i, :len(nz)] = nz, T[i, nz]
        col = np.arange(ncols)[None, :, None]
        src.append((offset + cols[:, None, :] * ncols + col).reshape(-1, 2))
        w.append(np.broadcast_to(wts[:, None, :], (dim, ncols, 2)).reshape(-1, 2))
        k.append(np.repeat(np.diag(K), ncols))
        coupling.append(np.repeat(~P.any(axis=1), ncols).astype(int))
        offset += dim * ncols
    src, w = np.concatenate(src).T.copy(), np.concatenate(w).T.copy()
    parts = (np.concatenate(k), np.concatenate(coupling), src, w)
    for a in parts:
        a.setflags(write=False)
    return parts


def _apply_stacked(system, G1: float, H2: float, y: np.ndarray) -> np.ndarray:
    """A y for the stacked state y of ``_stacked_system``."""
    k, coupling, src, w = system
    TY = w[0] * y[src[0]] + w[1] * y[src[1]]
    return k * y + np.array((G1, H2))[coupling] * TY


def _propagate(we: WEquation, blocks, Ys, x_from: float,
               x_to: float) -> list:
    """Propagate the columns of each ``Ys[i]`` under the block-``blocks[i]``
    system from x_from to x_to, all blocks in one solve_ivp.

    The state holds every block's columns, unpadded, plus the plane
    radius as a last component (dr/dx = h2'(r)), anchored at x_from on
    the plane solution, so the right-hand side never consults the plane
    interpolant.  Each right-hand side evaluates the coefficients once
    and applies every block's system through ``_apply_stacked``."""
    bp = we.bp
    system = _stacked_system(tuple(blocks), tuple(Y.shape for Y in Ys))
    n = system[0].size

    def rhs(_x, y):
        # r as a Python float keeps the profile pieces in float arithmetic
        F, h1, h2, h2d = _coefficients(bp, y.item(n))
        dy = np.empty(n + 1)
        dy[:n] = _apply_stacked(system, h1 * F, -h2 * F, y[:n])
        dy[n] = h2d
        return dy

    y0 = np.concatenate([Y.ravel() for Y in Ys]
                        + [[we.sol.r_of_rho(math.exp(x_from))]])
    out = integrate.solve_ivp(rhs, (x_from, x_to), y0, method="DOP853",
                              rtol=ODE_RTOL, atol=ODE_ATOL)
    if not out.success:
        raise LinCRError(f"shooting of blocks {list(blocks)} failed on "
                         f"[{x_from:.2f}, {x_to:.2f}]")
    ends = np.cumsum([Y.size for Y in Ys])[:-1]
    return [Yi.reshape(Y.shape)
            for Yi, Y in zip(np.split(out.y[:n, -1], ends), Ys)]


def _sweep(we: WEquation, blocks, bases, x_from: float,
           x_to: float) -> list:
    """Orthonormal bases of the spans of ``bases[i]`` (block
    ``blocks[i]``) propagated from x_from to x_to, all blocks together
    in one solve_ivp per unit step in x, with QR renormalization per
    block before the first and after every step."""
    Ys = [np.linalg.qr(B)[0] for B in bases]
    n_chunk = max(1, int(math.ceil(abs(x_to - x_from))))
    edges = np.linspace(x_from, x_to, n_chunk + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        Ys = [np.linalg.qr(Y)[0]
              for Y in _propagate(we, blocks, Ys, float(a), float(b))]
    return Ys


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
    the admissible-at-infinity basis inward to a common midpoint (every
    block in the same sweep, see ``_sweep``); the
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

    blocks = range(0, k_max + 1)
    Us = _sweep(we, blocks, [_inner_basis(b, x_a) for b in blocks],
                x_a, x_mid)
    Vs = _sweep(we, blocks, [_outer_basis(we, b, delta) for b in blocks],
                x_b, x_mid)
    per_mode = {k: 0 for k in range(-k_max, k_max + 1)}
    angles_all = {}
    conditioning = {}
    for block, U, V in zip(blocks, Us, Vs):
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
    # bounded non-decaying directions: the constant geodesic component
    # (0, i) of block 0 plus 2(n-2) holomorphic constants of the normal
    # block; (0, i) needs no integration, since rows 1 and 3 of
    # _block_matrix(0, ...) vanish and nothing acts on Im w2
    non_dec = 1 + 2 * (n - 2)
    return KernelReport(per_mode=per_mode, total=total,
                        non_decaying_bounded=non_dec, delta=delta,
                        spectral_gap=we.spectral_gap,
                        angles=angles_all, conditioning=conditioning)


def a_norm_report(we: WEquation) -> dict:
    """Sup of the zeroth-order coefficient norm and the smallness flag
    used by the mode-exclusion inequality."""
    return {"a_norm": we.a_norm, "below_2": bool(we.a_norm < 2.0)}


def mode_shooting_table(we: WEquation, k_max: int = 5, n_samples: int = 25):
    """Growth profiles of the regular-at-0 basis directions per block:
    rows (block, direction, rho, log10_norm).  The directions of every
    block are propagated together, one solve_ivp per sample interval,
    each column rescaled to unit norm at every sample (only the slope
    of the log-norm is meaningful)."""
    x_a = we.sol.x_core - 1.0
    x_b = we.sol.x_max
    xs = np.linspace(x_a, x_b, n_samples)
    labels0 = ("w1_re", "w1_im", "w2_re", "w2_im")
    labels = ("w1p_re", "w1p_im", "w1m_re", "w1m_im", "w2p_re", "w2p_im")
    blocks = range(0, k_max + 1)
    Ys = [B / np.linalg.norm(B, axis=0)
          for B in (_inner_basis(b, x_a) for b in blocks)]
    logn = [[np.zeros(Y.shape[1])] for Y in Ys]
    for a, b in zip(xs[:-1], xs[1:]):
        Ys = _propagate(we, blocks, Ys, float(a), float(b))
        for j, Y in enumerate(Ys):
            nrm = np.linalg.norm(Y, axis=0)
            logn[j].append(logn[j][-1] + np.log10(np.maximum(nrm, 1e-300)))
            Ys[j] = Y / nrm
    rows = []
    for block, Y, lgs in zip(blocks, Ys, logn):
        names = labels0 if block == 0 else labels[:Y.shape[1]]
        for j, name in enumerate(names):
            rows += [[block, name, math.exp(x), float(lg[j])]
                     for x, lg in zip(xs, lgs)]
    return ["block", "direction", "rho", "log10_norm"], rows


# ----------------------------------------------------------------------
# the averaged-derivative inequality
# ----------------------------------------------------------------------

def weight_exponent(rho, delta: float, rho_0: float, rho_inf: float):
    """Smooth-step exponent w(rho): 2 up to rho_0, delta from rho_inf on;
    a float for a float rho, elementwise for an ndarray."""
    def step(r):
        u = (r - rho_0) / (rho_inf - rho_0)
        return 2.0 + (delta - 2.0) * (u * u * (3.0 - 2.0 * u))
    return piecewise((rho_0, math.nextafter(rho_inf, -math.inf)),
                     (lambda r: 2.0 + 0.0 * r, step,
                      lambda r: delta + 0.0 * r))(rho)


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
    """Smallest ratio ||dW~/dpsi|| / ||W~|| in the weighted norm over the
    fields, W~ being a field with angular modes -1, 0, 1 removed; the
    inequality 2 ||W~|| <= ||dW~/dpsi|| holds when it is >= 2.

    Angular integrals are spectral (FFT); the radial measure is
    exp(w(rho) * rho) d rho with the smooth-step weight exponent.
    Fields whose truncation vanishes are vacuous and give no ratio.
    ``fields`` may be any iterable, a generator included, so the caller
    need not hold every field at once.
    """
    ratios = []
    vacuous = n_fields = 0
    for rhos, psis, vals in fields:
        n_fields += 1
        n_rho, n_psi, _ = vals.shape
        hat = np.fft.fft(vals, axis=1)
        freqs = np.fft.fftfreq(n_psi, d=1.0 / n_psi).astype(int)
        kill = np.isin(freqs, (-1, 0, 1))
        hat[:, kill, :] = 0.0
        # Parseval per radius: sum |hat|^2 / n_psi^2 * n_psi
        norm2_psi = np.sum(np.abs(hat) ** 2, axis=(1, 2)) / n_psi
        dpsi_hat = hat * (1j * freqs)[None, :, None]
        dnorm2_psi = np.sum(np.abs(dpsi_hat) ** 2, axis=(1, 2)) / n_psi
        wgt = np.exp(weight_exponent(rhos, delta, rho_0, rho_inf) * rhos)
        # normalize against overflow: only the ratio matters
        wgt = wgt / wgt.max()
        num = np.trapezoid(dnorm2_psi * wgt, rhos)
        den = np.trapezoid(norm2_psi * wgt, rhos)
        if den <= 1e-300:
            vacuous += 1
            continue
        ratios.append(math.sqrt(num / den))
    return {
        "n_fields": n_fields,
        "n_vacuous": vacuous,
        "min_ratio": min(ratios) if ratios else float("inf"),
    }

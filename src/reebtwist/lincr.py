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
propagated to a midpoint and their span intersected.  In the phase-plane
variables of the second component, block k is a real 4-vector system
whose real and imaginary parts share one trajectory, and a start in the
first component alone stays there as e^{+-kx}.  So each block carries
one 4-vector, its e^{kx} growth factored out, and every block goes
through each step at once.  A kernel count and its growth
table share one forward pass from the core to the end of the plane:
the regular span is its state at the matching point, the table its
log-norms at the samples.  One backward pass from the end of the plane
gives the admissible span.  Each pass takes sixth-order Magnus steps
(Iserles & Norsett, Phil. Trans. R. Soc. A 357, 1999) on chunks whose
edges sit on the profile breaks, with H2 and G1 looked up at every
Gauss node in one array call; each chunk's step count comes from a
Richardson probe on that chunk, and the states are renormalized
between chunks (continuous orthogonalization, as in Humpherys &
Zumbrun, Physica D 220, 2006).  The cone check of the phase plane
(mode exclusion) propagates the (u, v) rows of block 1 by the same
Magnus steps.  The expected outcome for every shipped
profile is three mode-0 directions (two constants plus one decaying
branch) and two mode-(-1) directions (the 1/z translation pair): five
in total, matching the Fredholm index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import magnus, numerics
from .config import ReebtwistError
from .plane import PlaneSolution
from .profiles import BindingProfile, piecewise

__all__ = [
    "LinCRError",
    "WEquation",
    "KernelReport",
    "assemble_W_equation",
    "s_basis",
    "full_system_residual",
    "cone_invariance_check",
    "kernel_dimension",
    "sz_inequality_check",
    "random_truncated_field",
    "weight_exponent",
]


# bench/tracing.py counts solver calls through this name (ROADMAP item 3);
# lincr makes none
integrate = numerics


class LinCRError(ReebtwistError):
    pass


# the chunk edges at which cone_invariance_check samples each
# trajectory, besides the breaks crossed
CONE_SAMPLES = 2000
# points of the back-substitution check, and the principal angle below
# which a regular and an admissible direction count as one
N_CHECK = 1000
ANGLE_TOL = 1e-6


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


def assemble_W_equation(bp: BindingProfile, sol: PlaneSolution) -> WEquation:
    """Build the coefficient data and the residual of back-substituting
    the rotation-invariant explicit kernel elements into the original
    4-field system on an N_CHECK grid (reported, gated by the caller).
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
    rhos = np.geomspace(1e-2, math.exp(0.9 * sol.x_max), N_CHECK)
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

def cone_invariance_check(we: WEquation, rho_span: tuple,
                          starts: list | np.ndarray) -> dict:
    """Propagate the phase-plane system v' = [[H2, 1], [1, 0]] v in
    x = log rho, the (u, v) rows of block k = 1 of the unshifted mode
    system, from first-quadrant starts over rho_span, by the Magnus
    propagators of the chunks between CONE_SAMPLES equally spaced x and
    the breaks crossed; a chunk whose Richardson estimate exceeds
    magnus.SHOOT_TOL is an error.

    Certifies that trajectories stay in the (closed) first quadrant at
    every chunk edge and reports two growth measures per start: the
    diagonal component <v, (1,1)> ratio (exactly the
    expanding-eigendirection ratio while the coefficients are in the
    holomorphic core) and the norm ratio.
    """
    lo, hi = rho_span
    if not (0.0 < lo < hi):
        raise LinCRError("need 0 < rho_lo < rho_hi")
    v0 = [np.asarray(v, float) for v in starts]
    if not v0:
        raise LinCRError("need at least one start")
    for v in v0:
        if not (v.shape == (2,) and np.isfinite(v).all() and v.min() > 0.0):
            raise LinCRError("starts must be finite points of the open "
                             f"first quadrant; got {v.tolist()}")
    xs = (math.log(lo), math.log(hi))
    edges = np.union1d(np.linspace(*xs, CONE_SAMPLES),
                       _break_edges(we, *xs))
    props, err = magnus.chunk_propagators(
        functools.partial(_node_coefficients, we), np.ones(1), 0.0, edges)
    error = float(err.max())
    if error > magnus.SHOOT_TOL:
        raise LinCRError(f"phase-plane propagation failed: Richardson "
                         f"estimate {error:.3e} > {magnus.SHOOT_TOL}")
    # the (u, v) block of each chunk's propagator, as (chunks, 2, 2)
    P = np.moveaxis(props[:4, 0].reshape(2, 2, -1), -1, 0)
    V = np.array(v0).T
    low = V.min(axis=0)
    for step in P:
        V = step @ V
        np.minimum(low, V.min(axis=0), out=low)
    results = []
    for v, v1, min_component in zip(v0, V.T, low.tolist()):
        results.append({
            "start": v.tolist(),
            "min_component": min_component,
            "stayed_in_quadrant": min_component >= -1e-12,
            "growth_diagonal": float((v1[0] + v1[1]) / (v[0] + v[1])),
            "growth_norm": float(np.linalg.norm(v1) / np.linalg.norm(v)),
        })
    return {
        "rho_span": (float(lo), float(hi)),
        "all_stayed": all(r["stayed_in_quadrant"] for r in results),
        "min_growth_diagonal": min(r["growth_diagonal"] for r in results),
        "min_component": min(r["min_component"] for r in results),
        "richardson": error,
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
# (derivatives in x = log rho); the real slots are [Re, Im] of each.
# With u = w2p + conj(w2m) and v = w2p - conj(w2m), so chi = u/2, the
# real parts of (u, v, w1p, w1m) obey y' = A_k y with
#   A_k = [[H2, k, 0, 0], [k, 0, 0, 0], [G1/2, 0, k, 0], [G1/2, 0, 0, -k]],
# and so do the imaginary parts with w1m and u - v negated: one real
# 4-vector y carries two 8-D directions (``_embed``).  Block 0 is the
# case k = 0 with v = 0 and w1m = w1p: Re w1 = w1p and Re w2 = u/2 obey
# Re w1' = G1 Re w2, Re w2' = H2 Re w2, and both imaginary parts are
# constant.  A start in w1 alone stays there, as e^{+-k(x - x0)}.


def _embed(y: np.ndarray) -> np.ndarray:
    """The Re and Im copies of the reduced block state y = (u, v, w1p,
    w1m) as the two columns of an 8 x 2 array over the real slots
    [Re, Im] of (w1p, w1m, w2p, w2m)."""
    u, v, p, m = y
    a, b = 0.5 * (u + v), 0.5 * (u - v)
    return np.array([[p, 0.0], [0.0, p], [m, 0.0], [0.0, -m],
                     [a, 0.0], [0.0, a], [b, 0.0], [0.0, -b]])


def _norms(Y: np.ndarray) -> np.ndarray:
    """Norm of either 8-D copy of each reduced state (column) of Y."""
    u, v, p, m = Y
    return np.sqrt(p * p + m * m + 0.5 * (u * u + v * v))


def _node_coefficients(we: WEquation, x: np.ndarray) -> tuple:
    """(H2, G1/2) at every x = log rho of an array, in one array call
    of each profile piece."""
    F, h1, h2, _ = _coefficients(we.bp, we.sol.r_of_rho(np.exp(x)))
    return -h2 * F, 0.5 * h1 * F


def _shoot(we: WEquation, ks, Y: np.ndarray, edges, shift: float):
    """Propagate the reduced states Y (column j of block ks[j]) through
    the chunks of ``edges`` under A_k + shift * k * I, every block at
    once, by the sixth-order Magnus propagators of each chunk
    (magnus.chunk_propagators), the coefficients looked up on the plane.

    Every column is renormalized to unit 8-D norm at each edge.  Returns
    the unit-norm states at every edge, shape (len(edges), 4, len(ks)),
    the cumulative natural-log norm growth of each column at every edge
    (in the shifted frame), shape (len(edges), len(ks)), and the largest
    Richardson estimate of a chunk."""
    props, err = magnus.chunk_propagators(
        functools.partial(_node_coefficients, we), np.asarray(ks, float),
        shift, np.asarray(edges, float))
    states, logs = [Y], [np.zeros(len(ks))]
    for j in range(props.shape[-1]):
        Y = magnus.apply(props[:, :, j], Y)
        nrm = _norms(Y)
        Y = Y / nrm
        states.append(Y)
        logs.append(logs[-1] + np.log(nrm))
    return np.array(states), np.array(logs), float(err.max())


# samples of the growth table; they, x_mid and the profile breaks the
# plane crosses are the forward chunk edges
N_SAMPLES = 25


def _ends(we: WEquation) -> tuple:
    """(x_a, x_mid, x_b): the start in the holomorphic core, the
    matching point of the kernel count and the end of the plane."""
    x_b = we.sol.x_max
    return we.sol.x_core - 1.0, min(2.0, 0.5 * x_b), x_b


def _break_edges(we: WEquation, lo: float, hi: float) -> list:
    """The x in (lo, hi) at which the plane crosses a break of h1 or h2.
    The coefficients jump there; a chunk edge on each keeps every Magnus
    step on one smooth piece, where its Gauss nodes keep their order."""
    sol, bp = we.sol, we.bp
    r_lo, r_hi = sol.r_of_rho(math.exp(lo)), sol.r_of_rho(math.exp(hi))
    xs = [sol.x_of_r(b) for b in sorted(set(bp.h1.breaks + bp.h2.breaks))
          if r_lo < b < r_hi]
    return [x for x in xs if lo < x < hi]


class ForwardPass(NamedTuple):
    """The forward pass of one kernel count: its chunk edges, the
    unit-norm reduced states (4, k_max + 1) and the log-norm growth
    (k_max + 1,) at every edge, and its largest Richardson estimate."""

    edges: np.ndarray
    states: np.ndarray
    logs: np.ndarray
    error: float


def _forward(we: WEquation, k_max: int) -> ForwardPass:
    """The one forward pass from x_a to x_b: block 0's w2_re direction
    and the w2p direction of every block k >= 1, under A_k - kI (the
    e^{kx} of the w1p rows taken out), through the chunks whose edges
    are the N_SAMPLES table samples, x_mid and the breaks crossed on the
    way.  The kernel count reads its states at x_mid, the growth table
    its log-norms at the samples."""
    x_a, x_mid, x_b = _ends(we)
    edges = np.union1d(np.linspace(x_a, x_b, N_SAMPLES),
                       [x_mid, *_break_edges(we, x_a, x_b)])
    Y = np.zeros((4, k_max + 1))
    Y[0] = 1.0
    Y[1, 1:] = 1.0          # w2p = 1: u = v = 1
    return ForwardPass(edges, *_shoot(we, range(k_max + 1), Y / _norms(Y),
                                      edges, -1.0))


def _backward(we: WEquation, k_max: int) -> tuple:
    """The backward pass, x_b to x_mid in unit chunks (split at the
    breaks crossed on the way) under A_k + kI, from the contracting
    eigenvector of the limiting A_k of every block k >= 1 (eigenvalue
    lambda = H2/2 - sqrt(H2^2/4 + k^2) < -k, as H2_inf < 0).  Returns
    the states at x_mid and the pass's largest Richardson estimate."""
    _, x_mid, x_b = _ends(we)
    k = np.arange(1.0, k_max + 1.0)
    H2, G1 = we.H2_inf, we.G1_inf
    lam = 0.5 * H2 - np.sqrt(0.25 * H2 * H2 + k * k)
    Y = np.array([np.ones_like(k), k / lam, 0.5 * G1 / (lam - k),
                  0.5 * G1 / (lam + k)])
    n_chunk = max(1, int(math.ceil(x_b - x_mid)))
    edges = np.union1d(np.linspace(x_b, x_mid, n_chunk + 1),
                       _break_edges(we, x_mid, x_b))[::-1]
    states, _, error = _shoot(we, range(1, k_max + 1), Y / _norms(Y), edges,
                              1.0)
    return states[-1], error


@dataclass
class KernelReport:
    per_mode: dict
    total: int
    non_decaying_bounded: int
    delta: float
    spectral_gap: float
    # the count's forward pass, which mode_shooting_table reads again
    forward: ForwardPass = field(repr=False)
    angles: dict = field(default_factory=dict)       # block -> principal angles
    conditioning: dict = field(default_factory=dict)  # block -> angle gap
    # the largest per-chunk Richardson estimate of both passes
    richardson: float = 0.0


def _match_spans(Us, Vs, angle_tol: float) -> tuple:
    """Per-mode counts, principal angles and angle gaps from the spans
    of blocks 0, 1, ...: ``Us[k]`` regular at the puncture, ``Vs[k]``
    admissible at infinity, both at the matching point, in the real
    slots of the block.  A block counts the principal angles below
    angle_tol; the matched directions are attributed to signed modes by
    their dominant slot."""
    k_max = len(Us) - 1
    per_mode = {k: 0 for k in range(-k_max, k_max + 1)}
    angles_all, conditioning = {}, {}
    for block, (U, V) in enumerate(zip(Us, Vs)):
        U, V = np.linalg.qr(U)[0], np.linalg.qr(V)[0]
        # principal angles, ascending: arcsin of the sines resolves those
        # below pi/4, arccos of the cosines the rest (Knyazev & Argentati,
        # SIAM J. Sci. Comput. 23, 2002); an arccos alone reads an angle
        # below 1e-8 as 0 or as about 1.5e-8, from one ulp of its cosine
        C = U.T @ V
        Ua, cos, _ = np.linalg.svd(C)
        R = V - U @ C if U.shape[1] >= V.shape[1] else U - V @ C.T
        sin = np.linalg.svd(R, compute_uv=False)[::-1]
        ang = np.sort(np.where(cos * cos >= 0.5,
                               np.arcsin(np.minimum(sin, 1.0)),
                               np.arccos(np.minimum(cos, 1.0))))
        # guaranteed overlap from dimension counting alone
        forced = max(0, U.shape[1] + V.shape[1] - U.shape[0])
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
        # attribute matched directions by dominant slot: w1m counts for
        # -block, w1p and the second component for +block (block 0: 0)
        for j in range(matched):
            w = U @ Ua[:, j]
            masses = [np.linalg.norm(w[0:2]), np.linalg.norm(w[2:4]),
                      np.linalg.norm(w[4:8])]
            per_mode[-block if np.argmax(masses) == 1 else block] += 1
    return per_mode, angles_all, conditioning


def kernel_dimension(we: WEquation, delta: float | None = None,
                     k_max: int = 5, n: int = 2) -> KernelReport:
    """Count admissible kernel directions per angular mode by two-sided
    shooting and subspace matching at x_mid.

    Regular at the puncture (started in the core, where the equation is
    holomorphic): first-component modes z^k for k >= -1 (the 1/z pair
    realizes the domain translations) and second-component modes z^k for
    k >= 0 (a 1/z term there is a genuine singularity of the radial and
    symplectization fields).  Block 0's span is the whole block; in
    block k the w1p pair (and block 1's w1m pair) stay pure and only the
    w2p pair comes from the forward pass, read at x_mid; the pass runs on
    to x_b and rides on the report as ``forward``, for
    mode_shooting_table.  Admissible at infinity: the
    stable eigenspace of the limiting system (decay rate >= delta), plus
    for mode 0 the two constant first-component directions.  In block
    k >= 1 that is the pure w1m pair and the contracting direction of
    the backward pass; in block 0 the two constants and the Re w2
    branch, which decays at |H2_inf| > delta (solve_plane requires
    H2_inf = h2''(r0) < 0) and spans the Re w2 axis with them.
    ``non_decaying_bounded`` counts the bounded non-decaying solutions
    tangent to the orbit family: the constant geodesic component plus
    the 2(n-2) holomorphic constants of the normal block.
    """
    if delta is None:
        delta = we.default_delta()
    if not (0.0 < delta < we.spectral_gap):
        raise LinCRError(f"delta = {delta} outside the spectral gap "
                         f"(0, {we.spectral_gap:.4f})")
    fwd = _forward(we, k_max)
    Yf = fwd.states[np.searchsorted(fwd.edges, _ends(we)[1])]
    Yb, back_error = _backward(we, k_max)
    w1p, w1m = np.eye(8)[:, 0:2], np.eye(8)[:, 2:4]
    Us, Vs = [np.eye(4)], [np.eye(4)[:, :3]]
    for k in range(1, k_max + 1):
        Us.append(np.hstack([w1p] + [w1m] * (k == 1) + [_embed(Yf[:, k])]))
        Vs.append(np.hstack([_embed(Yb[:, k - 1]), w1m]))
    per_mode, angles, conditioning = _match_spans(Us, Vs, ANGLE_TOL)
    # bounded non-decaying directions: the constant geodesic component
    # (0, i) of block 0 plus 2(n-2) holomorphic constants of the normal
    # block; (0, i) needs no integration, nothing acts on Im w2
    non_dec = 1 + 2 * (n - 2)
    return KernelReport(per_mode=per_mode, total=sum(per_mode.values()),
                        non_decaying_bounded=non_dec, delta=delta,
                        spectral_gap=we.spectral_gap, forward=fwd,
                        angles=angles, conditioning=conditioning,
                        richardson=max(fwd.error, back_error))


def mode_shooting_table(we: WEquation, forward: ForwardPass):
    """Growth profiles of the regular-at-0 directions per block: rows
    (block, direction, rho, log10_norm), the log-norm taken relative to
    the start (only its slope is meaningful).  The w2_re and w2p
    directions are read from ``forward``, the forward pass of a kernel
    count (``KernelReport.forward``), which sets the blocks (the Re and
    Im copies of w2p share one trajectory); the w1 directions are the
    closed forms +-k(x - x_a), and block 0's constants stay at 0."""
    x_a, _, x_b = _ends(we)
    xs = np.linspace(x_a, x_b, N_SAMPLES)
    logs = forward.logs[np.isin(forward.edges, xs)]
    zero = np.zeros(N_SAMPLES)
    rows = []
    for block in range(logs.shape[1]):
        w1p = block * (xs - x_a) / math.log(10.0)
        w2 = (logs[:, block] + block * (xs - x_a)) / math.log(10.0)
        if block == 0:
            cols = [("w1_re", zero), ("w1_im", zero), ("w2_re", w2),
                    ("w2_im", zero)]
        else:
            cols = [("w1p_re", w1p), ("w1p_im", w1p)]
            if block == 1:
                w1m = (x_a - xs) / math.log(10.0)
                cols += [("w1m_re", w1m), ("w1m_im", w1m)]
            cols += [("w2p_re", w2), ("w2p_im", w2)]
        for name, lg in cols:
            rows += [[block, name, math.exp(x), float(v)]
                     for x, v in zip(xs, lg)]
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


# the cylinder patch of the random fields: SZ_N_RHO radii spaced
# geometrically over SZ_RHO_RANGE; the weight exponent steps from 2 down
# to delta between SZ_RHO_0 and SZ_RHO_INF
SZ_RHO_RANGE, SZ_N_RHO = (0.5, 30.0), 48
SZ_RHO_0, SZ_RHO_INF = 1.0, 10.0


@functools.cache
def _sz_patch() -> tuple:
    """(rhos, basis) of the patch: its radii and the radial basis
    (1, sin(log rho / 3), cos(log rho / 2)) of the fields' amplitudes,
    shape (3, n_rho); read-only and built once per process, on first
    use: numpy work at import time raised the peak resident set."""
    rhos = np.geomspace(*SZ_RHO_RANGE, SZ_N_RHO)
    x = np.log(rhos)
    arrays = rhos, np.stack([np.ones_like(x), np.sin(x / 3.0),
                             np.cos(x / 2.0)])
    for a in arrays:
        a.setflags(write=False)
    return arrays


def random_truncated_field(rng, modes) -> tuple:
    """A C^2-valued field on the cylinder patch with angular content
    only in the prescribed modes: the sum over the modes of
    e^{i k psi} times the smooth random radial amplitudes
    c0 + c1 sin(log rho / 3) + c2 cos(log rho / 2), one per component.

    Per mode and component it draws the real and then the imaginary
    parts of (c0, c1, c2), all in one call.  Returns (modes, coefs):
    the modes as an int array of shape (m,) and the coefficients as a
    complex array of shape (m, 2, 3)."""
    k = np.asarray(modes, dtype=int).reshape(-1)
    # axes: mode, component, Re/Im, coefficient
    z = rng.standard_normal(12 * k.size).reshape(-1, 2, 2, 3)
    return k, z[:, :, 0] + 1j * z[:, :, 1]


def sz_inequality_check(fields, delta: float = 0.5) -> dict:
    """Smallest ratio ||dW~/dpsi|| / ||W~|| in the weighted norm over the
    fields, W~ being a field with angular modes -1, 0, 1 removed; the
    inequality 2 ||W~|| <= ||dW~/dpsi|| holds when it is >= 2.

    ``fields`` are (modes, coefs) pairs of ``random_truncated_field``,
    each with the same number of draws.
    The angular integrals are exact by Parseval: mode k of W~ carries
    C_k, the summed coefficients of the draws of that mode, and
    d/dpsi multiplies it by i k.  The radial measure is
    exp(w(rho) * rho) d rho with the smooth-step weight exponent,
    integrated by the trapezoid rule on the patch's radii, which makes
    each norm a quadratic form in C_k with one real 3 x 3 Gram matrix:
    ratio^2 = sum_k k^2 C_k^H G C_k / sum_k C_k^H G C_k.  Fields whose
    truncation vanishes are vacuous and give no ratio.
    """
    k, c = map(np.array, zip(*fields))
    rhos, basis = _sz_patch()
    wgt = np.exp(weight_exponent(rhos, delta, SZ_RHO_0, SZ_RHO_INF) * rhos)
    # normalized against overflow: only the ratio matters
    gram = np.trapezoid(basis[:, None] * basis * (wgt / wgt.max()), rhos)
    same = k[:, :, None] == k[:, None, :]
    # C_k at the first draw of mode k, zero at every other draw and at
    # modes -1, 0, 1
    first = ~np.tril(same, -1).any(axis=2) & (np.abs(k) > 1)
    ck = ((same & first[:, :, None]).astype(float)
          @ c.reshape(*k.shape, 6)).reshape(c.shape)
    quad = (ck.conj() * (ck @ gram)).real.sum(axis=(2, 3))
    num, den = (k * k * quad).sum(axis=1), quad.sum(axis=1)
    live = den > 1e-300
    ratios = np.sqrt(num[live] / den[live])
    return {
        "n_fields": len(k),
        "n_vacuous": int(np.count_nonzero(~live)),
        "min_ratio": float(ratios.min()) if ratios.size else float("inf"),
    }

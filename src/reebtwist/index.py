"""Robbin-Salamon indices of sampled symplectic paths and the degrees
of the closed-orbit generators.

Conventions.  The symplectic form used throughout this module is
Omega = blockdiag([[0, -1], [1, 0]], ...) and the crossing form of a
path Psi at a crossing time t is

    Gamma_t(v) = <v, Omega Psi'(t) v>   on  ker(Psi(t) - 1).

The index is the sum of full signatures at interior crossings plus half
signatures at the endpoints, with zero eigenvalues of the form dropped.
With this sign bundle the single lower skew [[1,0],[-c t,1]] gets
+ sign(c)/2 and a positive rotation loop (generated by exp(-t J0))
gets +2 per turn, matching the degree bookkeeping of the model: the
principal orbit with turn count i has total index sign(g')/2 + 2i and
its minimum carries degree 2i - 1.

Indices are exact half-integers (fractions.Fraction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy import optimize

from .orbits import OrbitLevel
from .profiles import TwistProfile

__all__ = [
    "IndexError_",
    "SymplecticPath",
    "IndexResult",
    "standard_omega",
    "linearized_reeb_flow",
    "make_path",
    "skew_path",
    "rotation_loop",
    "product_path",
    "random_symplectic_path",
    "robbin_salamon_index",
    "loop_maslov",
    "sft_degree",
    "degree_table",
]


# abscissa tolerance of the crossing refinement (brentq on sign changes,
# bounded minimization at tangential zeros)
CROSSING_XTOL = 1e-13


class IndexError_(ValueError):
    """Index-machinery failure (name avoids the builtin)."""


def standard_omega(dim: int) -> np.ndarray:
    if dim % 2 != 0:
        raise IndexError_("symplectic dimension must be even")
    O = np.zeros((dim, dim))
    for j in range(0, dim, 2):
        O[j, j + 1] = -1.0
        O[j + 1, j] = 1.0
    return O


@dataclass
class SymplecticPath:
    """A path [0, T] -> Sp(2m) starting at the identity.

    ``evaluator`` maps a 1-d array of times to the stack of matrices at
    those times, shape (len(ts), dim, dim); ``samples`` is its value on
    the stored grid ``times``, and the evaluator refines crossing times
    between samples.
    """

    dim: int
    times: np.ndarray
    samples: np.ndarray
    evaluator: Callable[[np.ndarray], np.ndarray]
    tolerance: float = 1e-9

    def __post_init__(self):
        Om = standard_omega(self.dim)
        if abs(self.times[0]) > 0 or np.max(
                np.abs(self.samples[0] - np.eye(self.dim))) > self.tolerance:
            raise IndexError_("path must start at the identity at t = 0")
        M = self.samples
        worst = float(np.max(np.abs(np.swapaxes(M, 1, 2) @ Om @ M - Om)))
        if worst > self.tolerance:
            raise IndexError_(f"path is not symplectic: residual {worst:.2e}")
        self.symplectic_residual = worst

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def at(self, t: float) -> np.ndarray:
        """The matrix at one time: the evaluator on a batch of one."""
        return self.evaluator(np.array([t]))[0]


def make_path(dim: int, evaluator, t_end: float = 1.0, n_samples: int = 257,
              tolerance: float = 1e-9) -> SymplecticPath:
    ts = np.linspace(0.0, t_end, n_samples)
    samples = np.asarray(evaluator(ts), float)
    if samples.shape != (n_samples, dim, dim):
        raise IndexError_(f"evaluator returned shape {samples.shape}, "
                          f"expected {(n_samples, dim, dim)}")
    return SymplecticPath(dim=dim, times=ts, samples=samples,
                          evaluator=evaluator, tolerance=tolerance)


# ----------------------------------------------------------------------
# model paths
# ----------------------------------------------------------------------

def linearized_reeb_flow(tp: TwistProfile, level: OrbitLevel, t: float,
                         n: int = 2) -> np.ndarray:
    """Linearized Reeb flow along a closed orbit at the given level, in
    the frame (P, Q, r_l dp, r_l dq).

    The leading 2x2 block is the skew [[1, 0], [-g' t, 1]]; the normal
    directions rotate with the twist angle, which is zero at the
    principal level, and carry |p| factors off the unit level.
    """
    if level.p_level <= 0:
        raise IndexError_("frame singular at |p| = 0")
    m = n - 1  # (P,Q) pair plus n-2 rotation pairs
    dim = 2 * m
    gp = tp.g.d1(level.p_level)
    g = tp.g(level.p_level)
    s = level.p_level
    M = np.eye(dim)
    M[1, 0] = -gp * t
    th = g * t
    for j in range(n - 2):
        o = 2 + 2 * j
        M[o, o] = math.cos(th)
        M[o, o + 1] = s * math.sin(th)
        M[o + 1, o] = -math.sin(th) / s
        M[o + 1, o + 1] = math.cos(th)
    return M


def skew_path(c: float, t_end: float = 1.0, n_samples: int = 257) -> SymplecticPath:
    def ev(ts):
        M = np.zeros((len(ts), 2, 2))
        M[:, 0, 0] = M[:, 1, 1] = 1.0
        M[:, 1, 0] = -c * ts
        return M
    return make_path(2, ev, t_end, n_samples)


def rotation_loop(i: int, dim: int = 2, n_samples: int = 513) -> SymplecticPath:
    """Loop winding i times in the positive direction of the convention
    (generated by exp(-t J0) on each symplectic pair)."""
    if i < 1:
        raise IndexError_("need i >= 1")

    def ev(ts):
        th = 2.0 * math.pi * i * ts
        co, si = np.cos(th), np.sin(th)
        M = np.zeros((len(ts), dim, dim))
        for j in range(0, dim, 2):
            M[:, j, j] = M[:, j + 1, j + 1] = co
            M[:, j, j + 1] = si
            M[:, j + 1, j] = -si
        return M

    return make_path(dim, ev, 1.0, n_samples)


def product_path(a: SymplecticPath, b: SymplecticPath,
                 n_samples: int = 513) -> SymplecticPath:
    if a.dim != b.dim:
        raise IndexError_("dimension mismatch")
    Ta, Tb = a.t_end, b.t_end

    def ev(ts):
        return a.evaluator(ts * Ta) @ b.evaluator(ts * Tb)

    return make_path(a.dim, ev, 1.0, n_samples,
                     tolerance=max(a.tolerance, b.tolerance))


def random_symplectic_path(dim: int, rng, scale: float = 1.0,
                           n_samples: int = 257) -> SymplecticPath:
    """exp(t A) with A = Omega^{-1} S for a random symmetric S.

    The stack comes from one eigendecomposition A = V diag(w) V^{-1}:
    exp(t A) = V diag(exp(t w)) V^{-1}, real up to rounding.  A random A
    is diagonalizable with a well-conditioned V; the symplecticity check
    of make_path catches a path where rounding says otherwise.
    """
    Om = standard_omega(dim)
    S = rng.standard_normal((dim, dim))
    S = scale * (S + S.T) / 2.0
    A = np.linalg.solve(Om, S)
    w, V = np.linalg.eig(A)
    V_inv = np.linalg.inv(V)

    def ev(ts):
        return ((V * np.exp(np.multiply.outer(ts, w))[:, None, :]) @ V_inv).real

    return make_path(dim, ev, 1.0, n_samples)


# ----------------------------------------------------------------------
# crossing machinery
# ----------------------------------------------------------------------

def _det_minus_id(path, ts):
    """det(Psi(t) - 1) at every time of the array ts, in one evaluation."""
    return np.linalg.det(path.evaluator(ts) - np.eye(path.dim))


def _det_minus_id_at(path, t):
    return float(_det_minus_id(path, np.array([t]))[0])


def _kernel_of(M, tol_rel=1e-7):
    U, S, Vt = np.linalg.svd(M - np.eye(M.shape[0]))
    cutoff = max(S[0], 1.0) * tol_rel
    return Vt[S <= cutoff].T  # columns span ker(M - 1)


def _path_derivative(path, t, h=None):
    if h is None:
        h = max(1e-7, 1e-7 * path.t_end)
    lo, hi = max(0.0, t - h), min(path.t_end, t + h)
    M_lo, M_hi = path.evaluator(np.array([lo, hi]))
    return (M_hi - M_lo) / (hi - lo)


def _crossing_signature(path, t, eig_tol=1e-7):
    """Signature of the crossing form on ker(Psi(t) - 1).

    Eigenvalues of the restricted form within eig_tol of the largest
    magnitude are treated as zero and dropped; the count of dropped
    directions is returned for diagnostics.
    """
    M = path.at(t)
    K = _kernel_of(M, tol_rel=eig_tol)
    if K.shape[1] == 0:
        return 0, 0
    Om = standard_omega(path.dim)
    Md = _path_derivative(path, t)
    G = K.T @ Om @ Md @ K
    G = (G + G.T) / 2.0
    ev = np.linalg.eigvalsh(G)
    scale = max(np.max(np.abs(ev)), 1e-12)
    pos = int(np.sum(ev > eig_tol * scale))
    neg = int(np.sum(ev < -eig_tol * scale))
    zero = len(ev) - pos - neg
    return pos - neg, zero


def _locate_crossings(path, n_scan=2001):
    """Interior crossing times: isolated zeros of det(Psi - 1), found by
    sign-change bisection and by refining near-zero local minima of the
    absolute value (tangential crossings of loops).

    Returns (times, plateau_fraction); a plateau fraction above 1/2
    marks a path whose determinant vanishes identically (persistent
    kernel), which the caller handles separately.
    """
    ts = np.linspace(0.0, path.t_end, n_scan)
    ds = _det_minus_id(path, ts)
    scale = max(float(np.max(np.abs(ds))), 1e-30)
    plateau_frac = float((np.abs(ds) <= max(1e-12, 1e-9 * scale)).mean())
    if plateau_frac > 0.5:
        return [], plateau_frac
    crossings = []

    def add(t):
        if 1e-9 * path.t_end < t < path.t_end * (1.0 - 1e-9):
            if all(abs(t - c) > 1e-7 * path.t_end for c in crossings):
                crossings.append(t)

    for j in np.flatnonzero(ds[:-1] * ds[1:] < 0):
        add(optimize.brentq(lambda t: _det_minus_id_at(path, t),
                            ts[j], ts[j + 1], xtol=CROSSING_XTOL))
    # tangential zeros: local minima of |d| well below scale
    ab = np.abs(ds)
    inner = ab[1:-1]
    for j in 1 + np.flatnonzero((inner <= ab[:-2]) & (inner <= ab[2:])
                                & (inner <= 1e-3 * scale)):
        res = optimize.minimize_scalar(
            lambda t: abs(_det_minus_id_at(path, t)),
            bounds=(ts[j - 1], ts[j + 1]),
            method="bounded", options={"xatol": CROSSING_XTOL})
        if abs(res.fun) <= 1e-8 * scale:
            add(float(res.x))
    return sorted(crossings), plateau_frac


@dataclass
class IndexResult:
    rs_index: Fraction
    loop_contribution: int
    total: Fraction
    crossings: list = field(default_factory=list)  # (time, signature)

    def __post_init__(self):
        if self.total != self.rs_index + self.loop_contribution:
            raise IndexError_("total != rs_index + loop contribution")


def robbin_salamon_index(path: SymplecticPath,
                         ref_lagrangian: str = "diagonal") -> Fraction:
    """Robbin-Salamon index of a sampled symplectic path.

    Half the crossing-form signature is counted at boundary crossings
    and the full signature at interior ones; the reference is the graph
    of the path against the diagonal.
    """
    return _robbin_salamon(path, ref_lagrangian)[0]


def _robbin_salamon(path: SymplecticPath, ref_lagrangian: str = "diagonal"):
    """(index, crossings) of ``robbin_salamon_index``; the crossings are
    (time, signature) pairs in the order they were counted."""
    if ref_lagrangian != "diagonal":
        raise IndexError_(f"unsupported reference {ref_lagrangian!r}")
    crossings = []
    two_mu = 0  # accumulate in halves to stay exact

    # boundary t = 0 (always a crossing: Psi(0) = 1)
    sig0, _ = _crossing_signature(path, 0.0)
    two_mu += sig0
    crossings.append((0.0, sig0))

    interior, plateau_frac = _locate_crossings(path)
    if plateau_frac > 0.5:
        # degenerate plateau: det(Psi - 1) == 0 along the path.  The
        # form vanishes identically on the persistent kernel directions
        # (otherwise the crossing could not persist), so the interior
        # contributes nothing; sample and verify.
        for t in np.linspace(0.1 * path.t_end, 0.9 * path.t_end, 9):
            sig, _zero = _crossing_signature(path, float(t))
            if sig != 0:
                raise IndexError_(
                    f"degenerate crossing with nonzero form at t = {t:.4f}; "
                    "refine sampling")
    else:
        for t in interior:
            sig, _zero = _crossing_signature(path, t)
            two_mu += 2 * sig
            crossings.append((t, sig))

    d_end = _det_minus_id_at(path, path.t_end)
    ds_scale = max(abs(d_end), float(np.max(np.abs(
        _det_minus_id(path, np.linspace(0, path.t_end, 41))))))
    if abs(d_end) <= 1e-9 * max(ds_scale, 1e-30) or _kernel_of(
            path.at(path.t_end)).shape[1] > 0:
        sigT, _ = _crossing_signature(path, path.t_end)
        two_mu += sigT
        crossings.append((path.t_end, sigT))

    return Fraction(two_mu, 2), crossings


def loop_maslov(i: int) -> int:
    """Loop contribution of a frame winding i times: 2i."""
    if i < 1:
        raise IndexError_("need i >= 1")
    return 2 * i


def orbit_index_result(tp: TwistProfile, level: OrbitLevel,
                       i: int | None = None) -> IndexResult:
    """Full index bookkeeping of an orbit with turn count i: the skew
    part from the crossing form of the sampled linearized flow, the
    loop contribution from the disk-extending frame rotation."""
    if i is None:
        i = level.i
    gp = tp.g.d1(level.p_level)
    path = skew_path(gp * level.period * i)
    rs, crossings = _robbin_salamon(path)
    return IndexResult(rs_index=rs, loop_contribution=loop_maslov(i),
                       total=rs + loop_maslov(i), crossings=crossings)


def total_orbit_index(tp: TwistProfile, level: OrbitLevel, i: int | None = None) -> Fraction:
    """sign(g')/2 + 2i for the orbit with turn count i at the level."""
    if i is None:
        i = level.i
    gp = tp.g.d1(level.p_level)
    return Fraction(int(math.copysign(1, gp)), 2) + loop_maslov(i)


def sft_degree(level: OrbitLevel, n: int, morse_index: int,
               tp: TwistProfile | None = None, i: int | None = None) -> int:
    """Degree of a generator over the principal family:

        mu_total - (2n-3)/2 + morse_index + (n-3),

    which at the family minimum equals 2i - 1 for every n.
    """
    if not level.is_principal:
        raise IndexError_("degree bookkeeping is defined for the principal family only")
    if i is None:
        i = level.i
    if morse_index < 0 or morse_index > 2 * n - 3:
        raise IndexError_(f"morse index must lie in [0, {2 * n - 3}]")
    sign_gp = 1 if tp is None else int(math.copysign(1, tp.g.d1(level.p_level)))
    mu_total = Fraction(sign_gp, 2) + loop_maslov(i)
    deg = mu_total - Fraction(2 * n - 3, 2) + morse_index + (n - 3)
    if deg.denominator != 1:
        raise IndexError_("degree is not an integer; convention violated")
    return int(deg)


def degree_table(tp: TwistProfile, level: OrbitLevel, n: int,
                 turn_counts=(1, 2, 3), morse_indices=(0,)) -> list[dict]:
    """Degree rows (level, i, morseIndex, mu, degree) for the principal
    family, with mu computed two ways: the closed form and the
    crossing-form index of the sampled model path (skew times loop)."""
    rows = []
    for i in turn_counts:
        gp = tp.g.d1(level.p_level)
        T = level.period * i
        skew = skew_path(gp * T)  # lower-left entry -g' t over one unit of path time
        loop = rotation_loop(i)
        mu_path = robbin_salamon_index(product_path(loop, skew))
        mu_formula = total_orbit_index(tp, level, i)
        if mu_path != mu_formula:
            raise IndexError_(
                f"crossing-form index {mu_path} != formula {mu_formula} at i = {i}")
        for mi in morse_indices:
            rows.append({
                "p_level": level.p_level,
                "i": i,
                "morse_index": mi,
                "mu": mu_formula,
                "degree": sft_degree(level, n, mi, tp=tp, i=i),
            })
    return rows

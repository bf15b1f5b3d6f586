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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import numerics
from .config import ReebtwistError
from .orbits import OrbitLevel
from .profiles import TwistProfile

__all__ = [
    "IndexError_",
    "SymplecticPath",
    "standard_omega",
    "make_path",
    "skew_path",
    "rotation_loop",
    "product_path",
    "random_symplectic_path",
    "robbin_salamon_index",
    "loop_maslov",
    "total_orbit_index",
    "sft_degree",
    "degree_table",
]


# bench/tracing.py counts solver calls through this name (ROADMAP item 3)
optimize = numerics

# abscissa tolerance of the crossing refinement (brentq on sign changes
# and on the slope at tangential zeros), the points of the scan for
# sign changes, and the relative size below which a singular value of
# Psi - 1 or an eigenvalue of the crossing form counts as zero
CROSSING_XTOL = 1e-13
CROSSING_SCAN = 2001
CROSSING_EIG_TOL = 1e-7
# samples of a loop and of a product with one (a skew path and a random
# path take make_path's 257)
LOOP_SAMPLES = 513
# largest entry of |M^T Omega M - Omega| and of |M(0) - 1| on a path
SYMPLECTIC_TOL = 1e-9


class IndexError_(ReebtwistError):
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

    def __post_init__(self):
        Om = standard_omega(self.dim)
        if abs(self.times[0]) > 0 or np.max(
                np.abs(self.samples[0] - np.eye(self.dim))) > SYMPLECTIC_TOL:
            raise IndexError_("path must start at the identity at t = 0")
        M = self.samples
        worst = float(np.max(np.abs(np.swapaxes(M, 1, 2) @ Om @ M - Om)))
        if worst > SYMPLECTIC_TOL:
            raise IndexError_(f"path is not symplectic: residual {worst:.2e}")
        self.symplectic_residual = worst

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def at(self, t: float) -> np.ndarray:
        """The matrix at one time: the evaluator on a batch of one."""
        return self.evaluator(np.array([t]))[0]


def make_path(dim: int, evaluator, t_end: float = 1.0,
              n_samples: int = 257) -> SymplecticPath:
    ts = np.linspace(0.0, t_end, n_samples)
    samples = np.asarray(evaluator(ts), float)
    if samples.shape != (n_samples, dim, dim):
        raise IndexError_(f"evaluator returned shape {samples.shape}, "
                          f"expected {(n_samples, dim, dim)}")
    return SymplecticPath(dim=dim, times=ts, samples=samples,
                          evaluator=evaluator)


# ----------------------------------------------------------------------
# model paths
# ----------------------------------------------------------------------

def skew_path(c: float, t_end: float = 1.0) -> SymplecticPath:
    def ev(ts):
        M = np.zeros((len(ts), 2, 2))
        M[:, 0, 0] = M[:, 1, 1] = 1.0
        M[:, 1, 0] = -c * ts
        return M
    return make_path(2, ev, t_end)


def rotation_loop(i: int, dim: int = 2) -> SymplecticPath:
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

    return make_path(dim, ev, 1.0, LOOP_SAMPLES)


def product_path(a: SymplecticPath, b: SymplecticPath) -> SymplecticPath:
    if a.dim != b.dim:
        raise IndexError_("dimension mismatch")
    Ta, Tb = a.t_end, b.t_end

    def ev(ts):
        return a.evaluator(ts * Ta) @ b.evaluator(ts * Tb)

    return make_path(a.dim, ev, 1.0, LOOP_SAMPLES)


def random_symplectic_path(dim: int, rng, scale: float = 1.0) -> SymplecticPath:
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

    return make_path(dim, ev)


# ----------------------------------------------------------------------
# crossing machinery
# ----------------------------------------------------------------------

def _det_minus_id(path, ts):
    """det(Psi(t) - 1) at every time of the array ts, in one evaluation."""
    return np.linalg.det(path.evaluator(ts) - np.eye(path.dim))


def _det_minus_id_at(path, t):
    return float(_det_minus_id(path, np.array([t]))[0])


def _kernel_of(M):
    U, S, Vt = np.linalg.svd(M - np.eye(M.shape[0]))
    cutoff = max(S[0], 1.0) * CROSSING_EIG_TOL
    return Vt[S <= cutoff].T  # columns span ker(M - 1)


def _path_derivative(path, t):
    h = max(1e-7, 1e-7 * path.t_end)
    lo, hi = max(0.0, t - h), min(path.t_end, t + h)
    M_lo, M_hi = path.evaluator(np.array([lo, hi]))
    return (M_hi - M_lo) / (hi - lo)


def _crossing_signature(path, t):
    """Signature of the crossing form on ker(Psi(t) - 1).

    Eigenvalues of the restricted form within CROSSING_EIG_TOL of the
    largest magnitude are treated as zero and dropped.
    """
    M = path.at(t)
    K = _kernel_of(M)
    if K.shape[1] == 0:
        return 0
    Om = standard_omega(path.dim)
    Md = _path_derivative(path, t)
    G = K.T @ Om @ Md @ K
    G = (G + G.T) / 2.0
    ev = np.linalg.eigvalsh(G)
    scale = max(np.max(np.abs(ev)), 1e-12)
    return (int(np.sum(ev > CROSSING_EIG_TOL * scale))
            - int(np.sum(ev < -CROSSING_EIG_TOL * scale)))


def _locate_crossings(path):
    """Interior crossing times: isolated zeros of d = det(Psi - 1),
    found by bisection on sign changes, and at the near-zero local
    minima of |d| between samples t_j -/+ D of one sign s at the root of
    the slope s (d(t + D/2) - d(t - D/2)) on [t_j - D/2, t_j + D/2] (t_j
    itself where rounding undoes that bracket): d below zero there
    brackets two crossings closer than the scan spacing D (a loop's full
    turn split by a skew), each then bisected; d within 1e-8 of the
    scale of zero is a tangential crossing (a loop alone).

    Returns (times, plateau_fraction); a plateau fraction above 1/2
    marks a path whose determinant vanishes identically (persistent
    kernel), which the caller handles separately.
    """
    ts = np.linspace(0.0, path.t_end, CROSSING_SCAN)
    ds = _det_minus_id(path, ts)
    scale = max(float(np.max(np.abs(ds))), 1e-30)
    plateau_frac = float((np.abs(ds) <= max(1e-12, 1e-9 * scale)).mean())
    if plateau_frac > 0.5:
        return [], plateau_frac
    brackets = [(ts[j], ts[j + 1])
                for j in np.flatnonzero(ds[:-1] * ds[1:] < 0)]
    tangential = []
    ab, sign = np.abs(ds), np.sign(ds)
    inner = ab[1:-1]
    half = 0.5 * (ts[1] - ts[0])
    for j in 1 + np.flatnonzero((inner <= ab[:-2]) & (inner <= ab[2:])
                                & (inner <= 1e-3 * scale)
                                & (sign[:-2] == sign[2:])):
        s = float(sign[j - 1])

        def slope(t):
            d_lo, d_hi = _det_minus_id(path, np.array([t - half, t + half]))
            return s * (d_hi - d_lo)

        lo, hi = ts[j] - half, ts[j] + half
        t_ext = (optimize.brentq(slope, lo, hi, xtol=CROSSING_XTOL)
                 if slope(lo) <= 0.0 <= slope(hi) else float(ts[j]))
        d_ext = s * _det_minus_id_at(path, t_ext)
        if d_ext < 0.0:
            brackets += [(ts[j - 1], t_ext), (t_ext, ts[j + 1])]
        elif d_ext <= 1e-8 * scale:
            tangential.append(t_ext)
    # one zero reached from two brackets lands within a few CROSSING_XTOL
    # + 4 eps t of itself; the two crossings of a split turn may sit far
    # closer than the scan spacing, so only that resolution merges them
    merge = 1e3 * CROSSING_XTOL * max(1.0, path.t_end)
    crossings = []
    for t in [optimize.brentq(lambda t: _det_minus_id_at(path, t), lo, hi,
                              xtol=CROSSING_XTOL)
              for lo, hi in brackets] + tangential:
        if (1e-9 * path.t_end < t < path.t_end * (1.0 - 1e-9)
                and all(abs(t - c) > merge for c in crossings)):
            crossings.append(t)
    return sorted(crossings), plateau_frac


def robbin_salamon_index(path: SymplecticPath) -> Fraction:
    """Robbin-Salamon index of a sampled symplectic path.

    Half the crossing-form signature is counted at boundary crossings
    and the full signature at interior ones; the reference is the graph
    of the path against the diagonal.
    """
    return _robbin_salamon(path)[0]


def _robbin_salamon(path: SymplecticPath):
    """(index, crossings) of ``robbin_salamon_index``; the crossings are
    (time, signature) pairs in the order they were counted."""
    crossings = []
    two_mu = 0  # accumulate in halves to stay exact

    # boundary t = 0 (always a crossing: Psi(0) = 1)
    sig0 = _crossing_signature(path, 0.0)
    two_mu += sig0
    crossings.append((0.0, sig0))

    interior, plateau_frac = _locate_crossings(path)
    if plateau_frac > 0.5:
        # degenerate plateau: det(Psi - 1) == 0 along the path.  The
        # form vanishes identically on the persistent kernel directions
        # (otherwise the crossing could not persist), so the interior
        # contributes nothing; sample and verify.
        for t in np.linspace(0.1 * path.t_end, 0.9 * path.t_end, 9):
            sig = _crossing_signature(path, float(t))
            if sig != 0:
                raise IndexError_(
                    f"degenerate crossing with nonzero form at t = {t:.4f}; "
                    "refine sampling")
    else:
        for t in interior:
            sig = _crossing_signature(path, t)
            two_mu += 2 * sig
            crossings.append((t, sig))

    if _kernel_of(path.at(path.t_end)).shape[1] > 0:
        sigT = _crossing_signature(path, path.t_end)
        two_mu += sigT
        crossings.append((path.t_end, sigT))

    return Fraction(two_mu, 2), crossings


def loop_maslov(i: int) -> int:
    """Loop contribution of a frame winding i times: 2i."""
    if i < 1:
        raise IndexError_("need i >= 1")
    return 2 * i


def total_orbit_index(tp: TwistProfile, level: OrbitLevel, i: int | None = None) -> Fraction:
    """sign(g')/2 + 2i for the orbit with turn count i at the level."""
    if i is None:
        i = level.i
    gp = tp.g.d1(level.p_level)
    return Fraction(int(math.copysign(1, gp)), 2) + loop_maslov(i)


def sft_degree(level: OrbitLevel, n: int, morse_index: int,
               tp: TwistProfile, i: int | None = None) -> int:
    """Degree of a generator over the principal family:

        mu_total - (2n-3)/2 + morse_index + (n-3),

    which at the family minimum equals 2i - 1 for every n.
    """
    if not level.is_principal:
        raise IndexError_("degree bookkeeping is defined for the principal family only")
    if morse_index < 0 or morse_index > 2 * n - 3:
        raise IndexError_(f"morse index must lie in [0, {2 * n - 3}]")
    deg = (total_orbit_index(tp, level, i) - Fraction(2 * n - 3, 2)
           + morse_index + (n - 3))
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

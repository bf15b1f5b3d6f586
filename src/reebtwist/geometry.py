"""Pointwise geometry of the binding model ST*S^{n-1} x D^2 and its
symplectization.

Points carry ambient vectors q, p in R^n constrained by
|q| = |p| = 1, q.p = 0; tangent vectors satisfy the differentiated
constraints.  The module evaluates the contact form
alpha = h1(r) lambda + h2(r) dphi, its Reeb field, the almost complex
structure J extended by J dt = R_alpha, and the rotating symplectic
frames used for index computations on the mapping-torus side.

All computations are done on the ambient components; no charts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .profiles import BindingProfile, TwistProfile

__all__ = [
    "GeometryError",
    "BindingPoint",
    "SymplPoint",
    "TangentVector",
    "TildeReebData",
    "PointBatch",
    "TangentBatch",
    "random_binding_point",
    "random_binding_batch",
    "random_tangent",
    "alpha_binding",
    "dalpha_binding",
    "dalpha_binding_fd",
    "reeb_field_binding",
    "geo_field_binding",
    "apply_J",
    "alpha_batch",
    "dalpha_batch",
    "reeb_field_batch",
    "geo_field_batch",
    "apply_J_batch",
    "reeb_field_tilde",
    "tilde_reeb_data",
    "push_reeb_to_tilde",
    "symplectic_frame",
    "dalpha_tilde",
    "identity_suite",
    "reeb_push_collar_mismatch",
]

CONSTRAINT_TOL = 1e-10
# largest tangency residual apply_J accepts for its vector
TANGENT_TOL = 1e-8


class GeometryError(ValueError):
    pass


# ----------------------------------------------------------------------
# points and tangent vectors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BindingPoint:
    """A point of ST*S^{n-1} x D^2: unit orthogonal q, p plus polar (r, phi)."""

    q: np.ndarray
    p: np.ndarray
    r: float
    phi: float

    def __post_init__(self):
        q, p = np.asarray(self.q, float), np.asarray(self.p, float)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        if q.shape != p.shape or q.ndim != 1 or len(q) < 2:
            raise GeometryError("q, p must be equal-length vectors, n >= 2")
        res = max(abs(q @ q - 1.0), abs(p @ p - 1.0), abs(q @ p))
        if res > CONSTRAINT_TOL:
            raise GeometryError(f"point constraint residual {res:.2e}")

    @property
    def n(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class SymplPoint:
    base: BindingPoint
    t: float = 0.0


@dataclass(frozen=True)
class TangentVector:
    """Components (dphi, dq, dp, dr, dt) of a tangent vector at a point."""

    dphi: float
    dq: np.ndarray
    dp: np.ndarray
    dr: float
    dt: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "dq", np.asarray(self.dq, float))
        object.__setattr__(self, "dp", np.asarray(self.dp, float))

    def constraint_residual(self, x: BindingPoint) -> float:
        return max(abs(x.q @ self.dq), abs(x.p @ self.dp),
                   abs(x.p @ self.dq + x.q @ self.dp))

    def scaled(self, c: float) -> "TangentVector":
        return TangentVector(c * self.dphi, c * self.dq, c * self.dp,
                             c * self.dr, c * self.dt)

    def plus(self, other: "TangentVector") -> "TangentVector":
        return TangentVector(self.dphi + other.dphi, self.dq + other.dq,
                             self.dp + other.dp, self.dr + other.dr,
                             self.dt + other.dt)

    def norm(self) -> float:
        return math.sqrt(self.dphi ** 2 + self.dq @ self.dq + self.dp @ self.dp
                         + self.dr ** 2 + self.dt ** 2)


def random_binding_point(n: int, bp: BindingProfile, rng,
                         r_range: tuple | None = None) -> BindingPoint:
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    p = rng.standard_normal(n)
    p -= (p @ q) * q
    p /= np.linalg.norm(p)
    if r_range is None:
        r_range = (0.05 * bp.r_max, 0.95 * bp.r_max)
    r = rng.uniform(*r_range)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return BindingPoint(q=q, p=p, r=r, phi=phi)


def random_tangent(x: BindingPoint, rng) -> TangentVector:
    """Ambient Gaussian projected onto the constraint tangent space.

    The three constraint normals (q,0), (0,p), (p,q)/sqrt2 in
    (dq, dp)-space are mutually orthogonal at a valid point, so the
    projection is a plain orthogonal one.
    """
    dq = rng.standard_normal(x.n)
    dp = rng.standard_normal(x.n)
    dq -= (dq @ x.q) * x.q
    dp -= (dp @ x.p) * x.p
    mixed = (x.p @ dq + x.q @ dp) / 2.0
    dq -= mixed * x.p
    dp -= mixed * x.q
    return TangentVector(dphi=rng.standard_normal(), dq=dq, dp=dp,
                         dr=rng.standard_normal(), dt=rng.standard_normal())


# ----------------------------------------------------------------------
# contact form, Reeb field, J on the binding model
# ----------------------------------------------------------------------

def alpha_binding(bp: BindingProfile, x: BindingPoint, v: TangentVector) -> float:
    """alpha(v) = h1(r) p.dq + h2(r) dphi."""
    return bp.h1(x.r) * float(x.p @ v.dq) + bp.h2(x.r) * v.dphi


def dalpha_binding(bp: BindingProfile, x: BindingPoint,
                   u: TangentVector, v: TangentVector) -> float:
    """Exact bilinear d(alpha)(u, v) on the ambient components:

    dalpha = h1' dr ^ lambda + h1 dp ^ dq + h2' dr ^ dphi.
    """
    lam_u = float(x.p @ u.dq)
    lam_v = float(x.p @ v.dq)
    term1 = bp.h1.d1(x.r) * (u.dr * lam_v - v.dr * lam_u)
    term2 = bp.h1(x.r) * float(u.dp @ v.dq - v.dp @ u.dq)
    term3 = bp.h2.d1(x.r) * (u.dr * v.dphi - v.dr * u.dphi)
    return term1 + term2 + term3


def _shift_point(x: BindingPoint, v: TangentVector, eps: float):
    # straight-line shift in ambient coordinates; used only inside FD
    # stencils, so the constraint drift O(eps^2) is below the tolerance.
    return (x.q + eps * v.dq, x.p + eps * v.dp, x.r + eps * v.dr,
            x.phi + eps * v.dphi)


def dalpha_binding_fd(bp: BindingProfile, x: BindingPoint,
                      u: TangentVector, v: TangentVector,
                      step: float = 1e-5) -> float:
    """Central-difference cross-check of dalpha along coordinate flows.

    Extends u, v as constant ambient fields; their bracket vanishes, so
    dalpha(u,v) = D_u[alpha(v)] - D_v[alpha(u)].  One Richardson
    refinement (stencil at step and step/2) removes the leading
    quadratic error, which otherwise sits near the target tolerance on
    the strongly curved part of the tail.
    """
    def alpha_at(qq, pp, rr, _phi, w: TangentVector):
        return bp.h1(rr) * float(pp @ w.dq) + bp.h2(rr) * w.dphi

    def central(h):
        au_p = alpha_at(*_shift_point(x, u, h), v)
        au_m = alpha_at(*_shift_point(x, u, -h), v)
        av_p = alpha_at(*_shift_point(x, v, h), u)
        av_m = alpha_at(*_shift_point(x, v, -h), u)
        return (au_p - au_m) / (2 * h) - (av_p - av_m) / (2 * h)

    d1 = central(step)
    d2 = central(step / 2.0)
    return (4.0 * d2 - d1) / 3.0


def reeb_field_binding(bp: BindingProfile, x: BindingPoint) -> TangentVector:
    """R_alpha = (h2' R_lambda - h1' dphi) / detH, R_lambda = p dq - q dp."""
    if not (0.0 <= x.r <= bp.r_max):
        raise GeometryError(f"r = {x.r} outside [0, {bp.r_max}]")
    if x.r == 0.0:
        # r -> 0 limit: h1', h2' ~ h''(0) r (even profiles) and
        # detH ~ (detH/r)(0) r, so both coefficients have finite limits.
        a = bp.h2.d2(0.0) / bp.detH_over_r(0.0)
        b = -bp.h1.d2(0.0) / bp.detH_over_r(0.0)
        return TangentVector(dphi=b, dq=a * x.p, dp=-a * x.q, dr=0.0)
    det = bp.detH(x.r)
    a = bp.h2.d1(x.r) / det
    return TangentVector(dphi=-bp.h1.d1(x.r) / det, dq=a * x.p, dp=-a * x.q, dr=0.0)


def geo_field_binding(bp: BindingProfile, x: BindingPoint) -> TangentVector:
    """J dr = (-h2 R_lambda + h1 dphi) / detH."""
    det = bp.detH(x.r)
    a = -bp.h2(x.r) / det
    return TangentVector(dphi=bp.h1(x.r) / det, dq=a * x.p, dp=-a * x.q, dr=0.0)


def apply_J(bp: BindingProfile, x: SymplPoint, v: TangentVector) -> TangentVector:
    """Apply the almost complex structure in coordinates (phi,q,p,r,t).

    J dt = R_alpha and J dr is the field above; on the contact plane it
    restricts to the compatible structure inherited from the cotangent
    model.  Requires v tangent at the base point.
    """
    pt = x.base
    res = v.constraint_residual(pt)
    if res > TANGENT_TOL:
        raise GeometryError(f"apply_J: vector not tangent (residual {res:.2e})")
    r = pt.r
    h1, h2 = bp.h1(r), bp.h2(r)
    h1d, h2d = bp.h1.d1(r), bp.h2.d1(r)
    det = bp.detH(r)
    q, p = pt.q, pt.p
    dphi = (h1 * v.dr - h1d * v.dt) / det
    dq = (q * float(p @ v.dq) + v.dp - (h2 / det) * p * v.dr
          + (h2d / det) * p * v.dt)
    dp = (-v.dq - p * float(q @ v.dp) + (h2 / det) * q * v.dr
          - (h2d / det) * q * v.dt)
    dr = -h2d * v.dphi - h1d * float(p @ v.dq)
    dt = -h2 * v.dphi - h1 * float(p @ v.dq)
    return TangentVector(dphi=dphi, dq=dq, dp=dp, dr=dr, dt=dt)


# ----------------------------------------------------------------------
# batches: the same quantities at N points, one array expression each
# ----------------------------------------------------------------------
# Each batch form evaluates the formula of its scalar counterpart in the
# same order, with the profiles evaluated on arrays; dot products go
# through np.vecdot, which per row is the scalar path's q @ p.  The
# scalar forms stay the oracle (tests compare the two).

def _col(a: np.ndarray) -> np.ndarray:
    return a[:, None]


@dataclass(frozen=True)
class PointBatch:
    """N points of the binding model: q, p of shape (N, n), r, phi of
    shape (N,); the point constraint is checked on every row."""

    q: np.ndarray
    p: np.ndarray
    r: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        q, p = self.q, self.p
        if q.shape != p.shape or q.ndim != 2 or q.shape[1] < 2:
            raise GeometryError("q, p must be equal (N, n) arrays, n >= 2")
        res = float(np.max(np.maximum.reduce([
            np.abs(np.vecdot(q, q) - 1.0), np.abs(np.vecdot(p, p) - 1.0),
            np.abs(np.vecdot(q, p))]), initial=0.0))
        if res > CONSTRAINT_TOL:
            raise GeometryError(f"point constraint residual {res:.2e}")


class TangentBatch(NamedTuple):
    """N tangent vectors: dq, dp of shape (N, n), dphi, dr, dt of shape (N,)."""

    dphi: np.ndarray
    dq: np.ndarray
    dp: np.ndarray
    dr: np.ndarray
    dt: np.ndarray

    def constraint_residual(self, x: PointBatch) -> np.ndarray:
        return np.maximum.reduce([
            np.abs(np.vecdot(x.q, self.dq)), np.abs(np.vecdot(x.p, self.dp)),
            np.abs(np.vecdot(x.p, self.dq) + np.vecdot(x.q, self.dp))])

    def plus(self, other: "TangentBatch", c=1.0) -> "TangentBatch":
        """self + c * other, for a float c or one per vector."""
        c = np.asarray(c, float)
        cc = _col(c) if c.ndim else c
        return TangentBatch(self.dphi + c * other.dphi, self.dq + cc * other.dq,
                            self.dp + cc * other.dp, self.dr + c * other.dr,
                            self.dt + c * other.dt)

    def norm(self) -> np.ndarray:
        return np.sqrt(self.dphi ** 2 + np.vecdot(self.dq, self.dq)
                       + np.vecdot(self.dp, self.dp) + self.dr ** 2
                       + self.dt ** 2)


def _points_from_draws(bp: BindingProfile, normals, uniforms) -> PointBatch:
    """random_binding_point's arithmetic (default r range) on rows of its
    draws: 2n normals (q, then p) and two uniforms on [0, 1) (r, then
    phi), scaled as Generator.uniform scales them.  Normalizes
    ``normals`` in place."""
    n = normals.shape[1] // 2
    q, p = normals[:, :n], normals[:, n:]
    q /= _col(np.sqrt(np.vecdot(q, q)))
    p -= _col(np.vecdot(p, q)) * q
    p /= _col(np.sqrt(np.vecdot(p, p)))
    lo, hi = 0.05 * bp.r_max, 0.95 * bp.r_max
    return PointBatch(q=q, p=p, r=lo + (hi - lo) * uniforms[:, 0],
                      phi=(2.0 * math.pi) * uniforms[:, 1])


def random_binding_batch(n: int, bp: BindingProfile, rng,
                         count: int) -> PointBatch:
    """``count`` calls of random_binding_point as one batch: the draws
    are made point by point in the scalar order, so the points are the
    scalar sampler's bit for bit; only the arithmetic is batched."""
    normals, uniforms = np.empty((count, 2 * n)), np.empty((count, 2))
    for z, u in zip(normals, uniforms):
        rng.standard_normal(out=z)
        rng.random(out=u)
    return _points_from_draws(bp, normals, uniforms)


def _tangents_from_draws(x: PointBatch, draws) -> TangentBatch:
    """random_tangent's arithmetic on rows of its 2n + 3 normals (dq,
    dp, then dphi, dr, dt).  Projects ``draws`` in place."""
    n = x.q.shape[1]
    dq, dp = draws[:, :n], draws[:, n:2 * n]
    dq -= _col(np.vecdot(dq, x.q)) * x.q
    dp -= _col(np.vecdot(dp, x.p)) * x.p
    mixed = _col((np.vecdot(x.p, dq) + np.vecdot(x.q, dp)) / 2.0)
    dq -= mixed * x.p
    dp -= mixed * x.q
    return TangentBatch(dphi=draws[:, 2 * n], dq=dq, dp=dp,
                        dr=draws[:, 2 * n + 1], dt=draws[:, 2 * n + 2])


def alpha_batch(bp: BindingProfile, x: PointBatch, v: TangentBatch) -> np.ndarray:
    return bp.h1(x.r) * np.vecdot(x.p, v.dq) + bp.h2(x.r) * v.dphi


def dalpha_batch(bp: BindingProfile, x: PointBatch, u: TangentBatch,
                 v: TangentBatch) -> np.ndarray:
    lam_u = np.vecdot(x.p, u.dq)
    lam_v = np.vecdot(x.p, v.dq)
    term1 = bp.h1.d1(x.r) * (u.dr * lam_v - v.dr * lam_u)
    term2 = bp.h1(x.r) * (np.vecdot(u.dp, v.dq) - np.vecdot(v.dp, u.dq))
    term3 = bp.h2.d1(x.r) * (u.dr * v.dphi - v.dr * u.dphi)
    return term1 + term2 + term3


def _radial_field(x: PointBatch, a, dphi) -> TangentBatch:
    """The field dphi d/dphi + a R_lambda at every point."""
    zero = np.zeros_like(x.r)
    return TangentBatch(dphi=dphi, dq=_col(a) * x.p, dp=_col(-a) * x.q,
                        dr=zero, dt=zero)


def reeb_field_batch(bp: BindingProfile, x: PointBatch) -> TangentBatch:
    r = x.r
    if np.any((r < 0.0) | (r > bp.r_max)):
        raise GeometryError(f"r outside [0, {bp.r_max}]")
    at0 = r == 0.0
    det = np.where(at0, 1.0, bp.detH(r))
    a, dphi = bp.h2.d1(r) / det, -bp.h1.d1(r) / det
    if at0.any():
        lim = bp.detH_over_r(0.0)
        a[at0], dphi[at0] = bp.h2.d2(0.0) / lim, -bp.h1.d2(0.0) / lim
    return _radial_field(x, a, dphi)


def geo_field_batch(bp: BindingProfile, x: PointBatch) -> TangentBatch:
    det = bp.detH(x.r)
    return _radial_field(x, -bp.h2(x.r) / det, bp.h1(x.r) / det)


def apply_J_batch(bp: BindingProfile, x: PointBatch, v: TangentBatch) -> TangentBatch:
    res = float(np.max(v.constraint_residual(x), initial=0.0))
    if res > TANGENT_TOL:
        raise GeometryError(f"apply_J: vector not tangent (residual {res:.2e})")
    r = x.r
    h1, h2 = bp.h1(r), bp.h2(r)
    h1d, h2d = bp.h1.d1(r), bp.h2.d1(r)
    det = bp.detH(r)
    q, p = x.q, x.p
    lam = np.vecdot(p, v.dq)
    c2, c2d = _col(h2 / det), _col(h2d / det)
    dr, dt = _col(v.dr), _col(v.dt)
    dphi = (h1 * v.dr - h1d * v.dt) / det
    dq = q * _col(lam) + v.dp - c2 * p * dr + c2d * p * dt
    dp = -v.dq - p * _col(np.vecdot(q, v.dp)) + c2 * q * dr - c2d * q * dt
    return TangentBatch(dphi=dphi, dq=dq, dp=dp, dr=-h2d * v.dphi - h1d * lam,
                        dt=-h2 * v.dphi - h1 * lam)


# ----------------------------------------------------------------------
# mapping-torus (tilde) model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TildeReebData:
    """Coefficients of the torus Reeb field R = N dphi + g G at level s."""

    s: float
    N: float
    g: float


def tilde_reeb_data(tp: TwistProfile, s: float, tol: float = 1e-12) -> TildeReebData:
    """N = 1/(htilde - s htilde'), g = N htilde'.

    The denominator equals h_k(s) (integration by parts), so it is
    positive for every shipped left twist; a vanishing denominator is a
    genuine singularity of the model and is reported as such.
    """
    if s < 0 or s > tp.s_max:
        raise GeometryError(f"level s = {s} outside twist domain")
    ht = tp.htilde(s)
    htd = tp.htilde.d1(s)
    den = ht - s * htd
    if abs(den) < tol:
        raise GeometryError(f"Reeb denominator vanishes at s = {s:.6f}")
    N = 1.0 / den
    return TildeReebData(s=s, N=N, g=N * htd)


def reeb_field_tilde(tp: TwistProfile, q: np.ndarray, p: np.ndarray):
    """Torus Reeb field at (q, p), |p| = s free.  Returns (data, dphi, dq, dp)."""
    s = float(np.linalg.norm(p))
    data = tilde_reeb_data(tp, s)
    # G = |p| q dp - (1/|p|) p dq
    dq = -data.g * p / s
    dp = data.g * s * q
    return data, data.N, dq, dp


def push_reeb_to_tilde(tp: TwistProfile, bp: BindingProfile, r: float):
    """Push R_alpha at radius r through (q,p,r,phi) -> (q, p/r, phi/2pi)
    and compare with the torus Reeb field at level s = 1/r.

    Returns the max component mismatch; where both models are defined
    this is a collar-matching certificate.
    """
    n = 2
    q = np.zeros(n)
    q[0] = 1.0
    p = np.zeros(n)
    p[1] = 1.0
    x = BindingPoint(q=q, p=p, r=r, phi=0.0)
    R = reeb_field_binding(bp, x)
    # push: dq -> dq, dp -> dp/r - p dr/r^2 (dr = 0), dphi -> dphi/(2 pi)
    push_dq = R.dq
    push_dp = R.dp / r
    push_dphi = R.dphi / (2.0 * math.pi)
    data, Ndphi, tdq, tdp = reeb_field_tilde(tp, q, p / r)
    return max(float(np.max(np.abs(push_dq - tdq))),
               float(np.max(np.abs(push_dp - tdp))),
               abs(push_dphi - Ndphi))


def dalpha_tilde(tp: TwistProfile, q, p, u, v) -> float:
    """d(alpha~)(u, v) with alpha~ = htilde(|p|) dphi + p.dq.

    u, v are triples (dphi, dq, dp); |p| is free on the torus model.
    """
    s = float(np.linalg.norm(p))
    htd = tp.htilde.d1(s)
    du_s = float(p @ u[2]) / s
    dv_s = float(p @ v[2]) / s
    term1 = htd * (du_s * v[0] - dv_s * u[0])
    term2 = float(u[2] @ v[1] - v[2] @ u[1])
    return term1 + term2


def symplectic_frame(tp: TwistProfile, q: np.ndarray, p: np.ndarray,
                     phase: float):
    """Rotating symplectic frame of the contact planes along an orbit
    at level s = |p| of the torus model.

    Returns (frame, norm_factor): 2n-2 triples (dphi, dq, dp) ordered
    (P', Q', r_1 dp, r_1 dq, ...), where (P', Q') is the pair
    (P, Q/norm_factor) rotated by 2*pi*phase.  norm_factor is the
    value dalpha~(P, Q) = h_k/htilde_k making the pair symplectically
    normalized; it is computed numerically and returned for inspection.
    """
    q = np.asarray(q, float)
    p = np.asarray(p, float)
    s = float(np.linalg.norm(p))
    if s <= 1e-12:
        raise GeometryError("frame is singular at |p| = 0")
    n = len(q)
    ht = tp.htilde(s)
    P = (0.0, np.zeros(n), p / s)
    # Q = -G - (|p|/htilde) dphi with G = |p| q dp - (1/|p|) p dq
    Q = (-s / ht, p / s, -s * q)
    c = dalpha_tilde(tp, q, p, P, Q)
    Qn = (Q[0] / c, Q[1] / c, Q[2] / c)
    th = 2.0 * math.pi * phase
    co, si = math.cos(th), math.sin(th)

    def comb(a, ca, b, cb):
        return (ca * a[0] + cb * b[0], ca * a[1] + cb * b[1], ca * a[2] + cb * b[2])

    Pp = comb(P, co, Qn, -si)
    Qp = comb(P, si, Qn, co)
    frame = [Pp, Qp]
    # directions orthogonal to both q and p, via Gram-Schmidt on the
    # ambient basis
    basis = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        e -= (e @ q) * q + (e @ (p / s)) * (p / s)
        for b in basis:
            e -= (e @ b) * b
        nrm = np.linalg.norm(e)
        if nrm > 1e-8:
            basis.append(e / nrm)
    if len(basis) != n - 2:
        raise GeometryError("Gram-Schmidt produced a wrong number of normals")
    for rl in basis:
        frame.append((0.0, np.zeros(n), rl.copy()))
        frame.append((0.0, rl.copy(), np.zeros(n)))
    return frame, c


def frame_gram(tp: TwistProfile, q, p, frame) -> np.ndarray:
    m = len(frame)
    G = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            G[i, j] = dalpha_tilde(tp, q, p, frame[i], frame[j])
    return G


def standard_gram(m: int) -> np.ndarray:
    G = np.zeros((m, m))
    for j in range(0, m, 2):
        G[j, j + 1] = 1.0
        G[j + 1, j] = -1.0
    return G


# ----------------------------------------------------------------------
# identity suite
# ----------------------------------------------------------------------

def identity_suite(tp: TwistProfile, bp: BindingProfile, n: int = 2,
                   n_points: int = 1000, seed: int = 0) -> dict:
    """Pointwise checks of the structural identities at random points.

    Returns a dict of named maximum residuals; the CLI renders it as a
    pass/fail table.
    """
    rng = np.random.default_rng(seed)
    # per point, the draws of random_binding_point then random_tangent
    normals, uniforms = np.empty((n_points, 2 * n)), np.empty((n_points, 2))
    tangent = np.empty((n_points, 2 * n + 3))
    for z, u, w in zip(normals, uniforms, tangent):
        rng.standard_normal(out=z)
        rng.random(out=u)
        rng.standard_normal(out=w)
    x = _points_from_draws(bp, normals, uniforms)
    v = _tangents_from_draws(x, tangent)
    R = reeb_field_batch(bp, x)
    Jv = apply_J_batch(bp, x, v)
    # contact-plane compatibility: project v onto ker alpha
    vxi = v.plus(R, -alpha_batch(bp, x, v))
    nxi = vxi.norm()
    quot = dalpha_batch(bp, x, vxi, apply_J_batch(bp, x, vxi)) / nxi ** 2
    zero, one = np.zeros(n_points), np.ones(n_points)
    flat = np.zeros((n_points, n))
    Jdt = apply_J_batch(bp, x, TangentBatch(zero, flat, flat, zero, one))
    Jdr = apply_J_batch(bp, x, TangentBatch(zero, flat, flat, one, zero))

    def worst(vals):
        return float(np.max(vals, initial=0.0))

    out = {
        "alpha_of_reeb_minus_1": worst(np.abs(alpha_batch(bp, x, R) - 1.0)),
        "dalpha_reeb_contraction": worst(np.abs(dalpha_batch(bp, x, R, v))),
        "J_squared_plus_id": worst(apply_J_batch(bp, x, Jv).plus(v).norm()
                                   / np.maximum(v.norm(), 1e-30)),
        "min_compatibility_quotient": float(
            np.min(quot[nxi > 1e-8], initial=math.inf)),
        "J_dt_minus_reeb": worst(Jdt.plus(R, -1.0).norm()),
        "J_dr_minus_geofield": worst(
            Jdr.plus(geo_field_batch(bp, x), -1.0).norm()),
    }

    # exact-vs-FD cross-check of dalpha at a smaller sample
    worst_fd = 0.0
    for _ in range(20):
        x = random_binding_point(n, bp, rng)
        u, v = random_tangent(x, rng), random_tangent(x, rng)
        ex = dalpha_binding(bp, x, u, v)
        fd = dalpha_binding_fd(bp, x, u, v)
        worst_fd = max(worst_fd, abs(ex - fd) / max(abs(ex), 1.0))
    out["dalpha_exact_vs_fd"] = worst_fd

    # frame symplecticity at random torus points and phases
    worst_gram = 0.0
    for _ in range(100):
        q = rng.standard_normal(max(n, 2))
        q /= np.linalg.norm(q)
        p = rng.standard_normal(len(q))
        p -= (p @ q) * q
        p *= rng.uniform(0.2, 1.0) / np.linalg.norm(p)
        frame, c = symplectic_frame(tp, q, p, rng.uniform(0.0, 1.0))
        G = frame_gram(tp, q, p, frame)
        worst_gram = max(worst_gram, float(np.max(np.abs(G - standard_gram(len(frame))))))
    out["frame_gram_vs_standard"] = worst_gram

    if bp.collar is not None:
        out["reeb_push_collar_mismatch"] = reeb_push_collar_mismatch(tp, bp)
    return out


def reeb_push_collar_mismatch(tp: TwistProfile, bp: BindingProfile) -> float:
    """Two-model Reeb agreement on the collar of a matched profile: the
    largest push_reeb_to_tilde mismatch over 40 radii spanning it."""
    lo, hi = bp.collar
    lo = max(lo, 1.0 / tp.s_max) * (1.0 + 1e-9)
    return max(push_reeb_to_tilde(tp, bp, float(r))
               for r in np.linspace(lo, hi, 40))

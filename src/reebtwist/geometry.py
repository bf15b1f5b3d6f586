"""Geometry of the binding model ST*S^{n-1} x D^2, its symplectization
and the mapping-torus model, evaluated on arrays of points.

A batch of N binding points carries ambient vectors q, p of shape
(N, n), constrained row by row by |q| = |p| = 1, q.p = 0, and polar
coordinates r, phi of shape (N,); tangent vectors satisfy the
differentiated constraints.  The module evaluates the contact form
alpha = h1(r) lambda + h2(r) dphi, its Reeb field, the almost complex
structure J extended by J dt = R_alpha, and the rotating symplectic
frames used for index computations on the mapping-torus side.  Each
quantity has one array formulation: a single binding point is a batch
of one, and the torus-side functions take any leading axes, none for a
single point.

All computations are done on the ambient components; no charts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ReebtwistError
from .profiles import BindingProfile, TwistProfile

__all__ = [
    "GeometryError",
    "TildeReebData",
    "PointBatch",
    "TangentBatch",
    "random_binding_point",
    "random_binding_batch",
    "random_tangent_batch",
    "reeb_field_binding",
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
    "frame_gram",
    "standard_gram",
    "identity_suite",
    "reeb_push_collar_mismatch",
]

CONSTRAINT_TOL = 1e-10
# largest tangency residual apply_J_batch accepts for its vectors
TANGENT_TOL = 1e-8
# step of the Richardson-refined central differences in _dalpha_fd
FD_STEP = 1e-5


class GeometryError(ReebtwistError):
    pass


def _col(a) -> np.ndarray:
    return np.expand_dims(a, -1)


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(a, a))


def _first(values, where):
    """The first of ``values`` (a float or an array) where ``where`` holds."""
    return np.extract(where, values)[0]


# ----------------------------------------------------------------------
# points and tangent vectors
# ----------------------------------------------------------------------
# Dot products go through np.vecdot, which per row is q @ p.

@dataclass(frozen=True)
class PointBatch:
    """N points of ST*S^{n-1} x D^2: unit orthogonal q, p of shape
    (N, n) plus polar r, phi of shape (N,); the point constraint is
    checked on every row."""

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
    """N tangent vectors with components (dphi, dq, dp, dr, dt): dq, dp
    of shape (N, n), dphi, dr, dt of shape (N,)."""

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


def _orthonormal_pairs(normals: np.ndarray):
    """Unit orthogonal rows (q, p) from rows of 2n normals (q, then p),
    by Gram-Schmidt with p projected off q twice ("twice is enough",
    Kahan, in Parlett, The Symmetric Eigenvalue Problem, 1980): once
    leaves nearly parallel draws visibly off orthogonal; works in place
    on ``normals``."""
    n = normals.shape[1] // 2
    q, p = normals[:, :n], normals[:, n:]
    q /= _col(_norm(q))
    for _ in range(2):
        p -= _col(np.vecdot(p, q)) * q
    p /= _col(_norm(p))
    return q, p


def random_binding_batch(n: int, bp: BindingProfile, rng,
                         count: int) -> PointBatch:
    """``count`` random points, r uniform on [0.05, 0.95] r_max and phi
    uniform on [0, 2 pi).  The draws are two whole arrays: 2n normals
    per point (q, then p), then two uniforms on [0, 1) (r, then phi)."""
    q, p = _orthonormal_pairs(rng.standard_normal((count, 2 * n)))
    uniforms = rng.random((count, 2))
    lo, hi = 0.05 * bp.r_max, 0.95 * bp.r_max
    return PointBatch(q=q, p=p, r=lo + (hi - lo) * uniforms[:, 0],
                      phi=(2.0 * math.pi) * uniforms[:, 1])


def random_binding_point(n: int, bp: BindingProfile, rng) -> PointBatch:
    """One random point, as a batch of one (random_binding_batch)."""
    return random_binding_batch(n, bp, rng, 1)


def random_tangent_batch(x: PointBatch, rng) -> TangentBatch:
    """Ambient Gaussians projected onto the constraint tangent spaces;
    one array of 2n + 3 normals per point (dq, dp, then dphi, dr, dt).

    The three constraint normals (q,0), (0,p), (p,q)/sqrt2 in
    (dq, dp)-space are mutually orthogonal at a valid point, so the
    projection is a plain orthogonal one.
    """
    count, n = x.q.shape
    draws = rng.standard_normal((count, 2 * n + 3))
    dq, dp = draws[:, :n], draws[:, n:2 * n]
    dq -= _col(np.vecdot(dq, x.q)) * x.q
    dp -= _col(np.vecdot(dp, x.p)) * x.p
    mixed = _col((np.vecdot(x.p, dq) + np.vecdot(x.q, dp)) / 2.0)
    dq -= mixed * x.p
    dp -= mixed * x.q
    return TangentBatch(dphi=draws[:, 2 * n], dq=dq, dp=dp,
                        dr=draws[:, 2 * n + 1], dt=draws[:, 2 * n + 2])


# ----------------------------------------------------------------------
# contact form, Reeb field, J on the binding model
# ----------------------------------------------------------------------

def alpha_batch(bp: BindingProfile, x: PointBatch, v: TangentBatch) -> np.ndarray:
    """alpha(v) = h1(r) p.dq + h2(r) dphi."""
    return bp.h1(x.r) * np.vecdot(x.p, v.dq) + bp.h2(x.r) * v.dphi


def dalpha_batch(bp: BindingProfile, x: PointBatch, u: TangentBatch,
                 v: TangentBatch) -> np.ndarray:
    """Exact bilinear d(alpha)(u, v) on the ambient components:

    dalpha = h1' dr ^ lambda + h1 dp ^ dq + h2' dr ^ dphi.
    """
    lam_u = np.vecdot(x.p, u.dq)
    lam_v = np.vecdot(x.p, v.dq)
    term1 = bp.h1.d1(x.r) * (u.dr * lam_v - v.dr * lam_u)
    term2 = bp.h1(x.r) * (np.vecdot(u.dp, v.dq) - np.vecdot(v.dp, u.dq))
    term3 = bp.h2.d1(x.r) * (u.dr * v.dphi - v.dr * u.dphi)
    return term1 + term2 + term3


def _dalpha_fd(bp: BindingProfile, x: PointBatch, u: TangentBatch,
               v: TangentBatch) -> np.ndarray:
    """Central-difference cross-check of dalpha along coordinate flows.

    Extends u, v as constant ambient fields; their bracket vanishes, so
    dalpha(u,v) = D_u[alpha(v)] - D_v[alpha(u)].  The shifts are
    straight lines in ambient coordinates, whose constraint drift
    O(h^2) stays below the tolerance.  One Richardson refinement
    (stencil at FD_STEP and FD_STEP/2) removes the leading quadratic
    error, which otherwise sits near the target tolerance on the
    strongly curved part of the tail.
    """
    def alpha_at(shift: TangentBatch, h: float, w: TangentBatch):
        rr = x.r + h * shift.dr
        return (bp.h1(rr) * np.vecdot(x.p + h * shift.dp, w.dq)
                + bp.h2(rr) * w.dphi)

    def central(h):
        return ((alpha_at(u, h, v) - alpha_at(u, -h, v)) / (2 * h)
                - (alpha_at(v, h, u) - alpha_at(v, -h, u)) / (2 * h))

    d1 = central(FD_STEP)
    d2 = central(FD_STEP / 2.0)
    return (4.0 * d2 - d1) / 3.0


def _radial_field(x: PointBatch, a, dphi) -> TangentBatch:
    """The field dphi d/dphi + a R_lambda at every point."""
    zero = np.zeros_like(x.r)
    return TangentBatch(dphi=dphi, dq=_col(a) * x.p, dp=_col(-a) * x.q,
                        dr=zero, dt=zero)


def reeb_field_batch(bp: BindingProfile, x: PointBatch) -> TangentBatch:
    """R_alpha = (h2' R_lambda - h1' dphi) / detH, R_lambda = p dq - q dp."""
    r = x.r
    outside = (r < 0.0) | (r > bp.r_max)
    if np.any(outside):
        raise GeometryError(f"r = {_first(r, outside)} outside [0, {bp.r_max}]")
    at0 = r == 0.0
    det = np.where(at0, 1.0, bp.detH(r))
    a, dphi = bp.h2.d1(r) / det, -bp.h1.d1(r) / det
    if at0.any():
        # r -> 0 limit: h1', h2' ~ h''(0) r (even profiles) and
        # detH ~ (detH/r)(0) r, so both coefficients have finite limits.
        lim = bp.detH_over_r(0.0)
        a[at0], dphi[at0] = bp.h2.d2(0.0) / lim, -bp.h1.d2(0.0) / lim
    return _radial_field(x, a, dphi)


# the single-point name of the Reeb field; a point is a batch of one
reeb_field_binding = reeb_field_batch


def geo_field_batch(bp: BindingProfile, x: PointBatch) -> TangentBatch:
    """J dr = (-h2 R_lambda + h1 dphi) / detH."""
    det = bp.detH(x.r)
    return _radial_field(x, -bp.h2(x.r) / det, bp.h1(x.r) / det)


def apply_J_batch(bp: BindingProfile, x: PointBatch, v: TangentBatch) -> TangentBatch:
    """Apply the almost complex structure in coordinates (phi,q,p,r,t)
    at the points x of the symplectization (J does not depend on t).

    J dt = R_alpha and J dr is geo_field_batch; on the contact plane it
    restricts to the compatible structure inherited from the cotangent
    model.  Requires every v tangent at its point.
    """
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
# Points (q, p) have shape (..., n) with |p| = s free; a tangent vector
# is one array of shape (..., 2n + 1) laid out (dphi, dq, dp).

@dataclass(frozen=True)
class TildeReebData:
    """Coefficients of the torus Reeb field R = N dphi + g G at levels s."""

    N: np.ndarray
    g: np.ndarray


def tilde_reeb_data(tp: TwistProfile, s) -> TildeReebData:
    """N = 1/(htilde - s htilde'), g = N htilde', at a level or an array
    of levels s.

    The denominator equals h_k(s) (integration by parts), so it is
    positive for every shipped left twist; a vanishing denominator is a
    genuine singularity of the model and is reported as such.
    """
    outside = (s < 0) | (s > tp.s_max)
    if np.any(outside):
        raise GeometryError(f"level s = {_first(s, outside)} outside twist domain")
    htd = tp.htilde.d1(s)
    den = tp.htilde(s) - s * htd
    vanishes = np.abs(den) < 1e-12
    if np.any(vanishes):
        raise GeometryError(
            f"Reeb denominator vanishes at s = {_first(s, vanishes):.6f}")
    N = 1.0 / den
    return TildeReebData(N=N, g=N * htd)


def reeb_field_tilde(tp: TwistProfile, q: np.ndarray, p: np.ndarray):
    """Torus Reeb field at (q, p).  Returns (data, dphi, dq, dp)."""
    s = _norm(p)
    data = tilde_reeb_data(tp, s)
    # G = |p| q dp - (1/|p|) p dq
    g, s = _col(data.g), _col(s)
    return data, data.N, -g * p / s, g * s * q


def push_reeb_to_tilde(tp: TwistProfile, bp: BindingProfile,
                       r: np.ndarray) -> np.ndarray:
    """Push R_alpha at the radii r through (q,p,r,phi) -> (q, p/r, phi/2pi)
    and compare with the torus Reeb field at the levels s = 1/r.

    Returns the max component mismatch at each radius; where both
    models are defined this is a collar-matching certificate.
    """
    q = np.broadcast_to([1.0, 0.0], (len(r), 2))
    p = np.broadcast_to([0.0, 1.0], (len(r), 2))
    R = reeb_field_batch(bp, PointBatch(q=q, p=p, r=r, phi=np.zeros_like(r)))
    # push: dq -> dq, dp -> dp/r - p dr/r^2 (dr = 0), dphi -> dphi/(2 pi)
    _, Ndphi, tdq, tdp = reeb_field_tilde(tp, q, p / _col(r))
    return np.maximum.reduce([np.max(np.abs(R.dq - tdq), axis=1),
                              np.max(np.abs(R.dp / _col(r) - tdp), axis=1),
                              np.abs(R.dphi / (2.0 * math.pi) - Ndphi)])


def dalpha_tilde(tp: TwistProfile, q, p, u, v):
    """d(alpha~)(u, v) with alpha~ = htilde(|p|) dphi + p.dq.

    u, v are tangent vectors (dphi, dq, dp); the arrays broadcast
    against each other and against the points (q, p).
    """
    n = np.shape(q)[-1]
    s = _norm(p)
    htd = tp.htilde.d1(s)
    du_s = np.vecdot(p, u[..., n + 1:]) / s
    dv_s = np.vecdot(p, v[..., n + 1:]) / s
    term1 = htd * (du_s * v[..., 0] - dv_s * u[..., 0])
    term2 = (np.vecdot(u[..., n + 1:], v[..., 1:n + 1])
             - np.vecdot(v[..., n + 1:], u[..., 1:n + 1]))
    return term1 + term2


def symplectic_frame(tp: TwistProfile, q, p, phase):
    """Rotating symplectic frames of the contact planes along orbits at
    the levels s = |p| of the torus model.

    Returns (frame, norm_factor).  ``frame`` has shape (..., 2n-2,
    2n+1): the tangent vectors (P', Q', r_1 dp, r_1 dq, ...), where
    (P', Q') is the pair (P, Q/norm_factor) rotated by 2*pi*phase and
    r_1, ... span the directions orthogonal to q and p.  norm_factor is
    the value dalpha~(P, Q) = h_k/htilde_k making the pair
    symplectically normalized; it is computed numerically and returned
    for inspection.
    """
    q, p = np.asarray(q, float), np.asarray(p, float)
    n = q.shape[-1]
    s = _norm(p)
    if np.any(s <= 1e-12):
        raise GeometryError("frame is singular at |p| = 0")
    S, ht = _col(s), _col(tp.htilde(s))
    P = np.concatenate([np.zeros_like(S), np.zeros_like(q), p / S], axis=-1)
    # Q = -G - (|p|/htilde) dphi with G = |p| q dp - (1/|p|) p dq
    Q = np.concatenate([-S / ht, p / S, -S * q], axis=-1)
    c = dalpha_tilde(tp, q, p, P, Q)
    Qn = Q / _col(c)
    th = _col(2.0 * math.pi * np.asarray(phase, float))
    co, si = np.cos(th), np.sin(th)
    # the last n-2 columns of a complete QR of (q, p/|p|) are an
    # orthonormal basis of their orthogonal complement
    basis = np.linalg.qr(np.stack([q, p / S], axis=-1), mode="complete")[0]
    normals = np.swapaxes(basis[..., 2:], -1, -2)
    frame = np.zeros(q.shape[:-1] + (2 * n - 2, 2 * n + 1))
    frame[..., 0, :] = co * P - si * Qn
    frame[..., 1, :] = si * P + co * Qn
    frame[..., 2::2, n + 1:] = normals
    frame[..., 3::2, 1:n + 1] = normals
    return frame, c


def frame_gram(tp: TwistProfile, q, p, frame) -> np.ndarray:
    """The matrices dalpha~(frame_i, frame_j), shape (..., m, m)."""
    q, p = np.asarray(q, float), np.asarray(p, float)
    return dalpha_tilde(tp, q[..., None, None, :], p[..., None, None, :],
                        frame[..., :, None, :], frame[..., None, :, :])


def standard_gram(m: int) -> np.ndarray:
    return np.kron(np.eye(m // 2), [[0.0, 1.0], [-1.0, 0.0]])


# ----------------------------------------------------------------------
# identity suite
# ----------------------------------------------------------------------

def identity_suite(tp: TwistProfile, bp: BindingProfile, n: int,
                   n_points: int, seed: int) -> dict:
    """Checks of the structural identities at random points.

    Returns a dict of named maximum residuals; the CLI renders it as a
    pass/fail table.
    """
    rng = np.random.default_rng(seed)
    x = random_binding_batch(n, bp, rng, n_points)
    v = random_tangent_batch(x, rng)
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
    y = random_binding_batch(n, bp, rng, 20)
    u, w = random_tangent_batch(y, rng), random_tangent_batch(y, rng)
    ex = dalpha_batch(bp, y, u, w)
    out["dalpha_exact_vs_fd"] = worst(np.abs(ex - _dalpha_fd(bp, y, u, w))
                                      / np.maximum(np.abs(ex), 1.0))

    # frame symplecticity at random torus points, levels and phases
    q, p = _orthonormal_pairs(rng.standard_normal((100, 2 * n)))
    level, phase = rng.random((2, 100))
    p *= _col(0.2 + 0.8 * level)
    frame, _ = symplectic_frame(tp, q, p, phase)
    out["frame_gram_vs_standard"] = worst(np.abs(
        frame_gram(tp, q, p, frame) - standard_gram(2 * n - 2)))

    if bp.collar is not None:
        out["reeb_push_collar_mismatch"] = reeb_push_collar_mismatch(tp, bp)
    return out


def reeb_push_collar_mismatch(tp: TwistProfile, bp: BindingProfile) -> float:
    """Two-model Reeb agreement on the collar of a matched profile: the
    largest push_reeb_to_tilde mismatch over 40 radii spanning it."""
    lo, hi = bp.collar
    lo = max(lo, 1.0 / tp.s_max) * (1.0 + 1e-9)
    return float(np.max(push_reeb_to_tilde(tp, bp, np.linspace(lo, hi, 40))))

"""Scalar profile functions for the twisted open book model.

Two families of profiles are built here:

* twist profiles: the angle function ``g`` of a k-fold twist of the
  cotangent bundle of a sphere (monotone ramp from ``k*pi`` at 0 to a
  linear drift ``eps*s`` past the plateau), together with the derived
  primitives ``h_k`` and ``h~_k`` that enter the mapping-torus contact
  form;
* binding profiles: the pair ``(h1, h2)`` defining the contact form
  ``h1(r)*lambda + h2(r)*dphi`` on a neighborhood of the binding, with
  the contact condition ``detH/r != 0`` where ``detH = h1*h2' - h2*h1'``.

All shipped shapes have closed-form derivatives up to order two; the
defining integrals of ``h_k`` and ``h~_k`` are evaluated in closed form
with adaptive Gauss-Kronrod quadrature kept as an independent oracle.
Every shipped profile is piecewise (see ``piecewise``) and evaluates a
float to a float and an ndarray elementwise.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numerics
from .config import ReebtwistError

__all__ = [
    "ProfileError",
    "SmoothProfile",
    "TwistProfile",
    "BindingProfile",
    "PullbackReport",
    "piecewise",
    "hermite_rows",
    "build_twist_profile",
    "build_binding_profile",
    "matched_binding_profile",
    "config_section",
    "pullback_consistency_check",
    "twist_table",
    "binding_table",
]

# Angle-convention factor between the polar angle on the binding disk
# (period 2*pi) and the mapping-torus coordinate (period 1).
PHI_PERIOD_SCALE = 2.0 * math.pi

# bench/tracing.py counts solver calls through these names (ROADMAP item 3)
integrate = optimize = numerics

# brentq tolerance of the principal zero p0 and quad tolerance of the
# Gauss-Kronrod oracles for h_k and h~_k
ROOT_XTOL = 1e-15
QUAD_TOL = 1e-12
# the finite-difference self-check of a profile: sample points, step and
# the relative error it admits
FD_SAMPLES = 200
FD_STEP = 1e-5
FD_RTOL = 1e-6
# radial grids: of the invariants every build checks, of the contact
# certificate min_detH_over_r, and of the collar pullback check
BUILD_GRID = 2048
CONTACT_GRID = 10_000
PULLBACK_SAMPLES = 512


class ProfileError(ReebtwistError):
    """Raised when a requested profile violates a build invariant."""


# ----------------------------------------------------------------------
# generic scalar profile with derivatives
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothProfile:
    """A scalar function on a closed interval with first and second
    derivatives evaluable everywhere on it.

    ``breaks`` lists interior junction radii of piecewise definitions;
    the finite-difference self-check skips stencils that straddle them,
    and the quadrature oracles split their panels there.
    """

    lo: float
    hi: float
    value: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]
    breaks: tuple = ()

    def __call__(self, x):
        return self.value(x)

    def check_derivative_consistency(self, rng):
        """Max relative error of d1 against a central difference of value
        at FD_SAMPLES points drawn from ``rng``, with step FD_STEP; an
        error above FD_RTOL raises.

        Sample points are interior and kept clear of junctions so the
        stencil never crosses a derivative discontinuity.
        """
        h = FD_STEP
        span = self.hi - self.lo
        pts = self.lo + (0.02 + 0.96 * rng.random(FD_SAMPLES)) * span
        scale = max(float(np.max(np.abs(self.d1(np.linspace(
            self.lo + 0.01 * span, self.hi - 0.01 * span, 101))))), 1e-12)
        keep = (pts - h >= self.lo) & (pts + h <= self.hi)
        for b in self.breaks:
            keep &= np.abs(pts - b) >= 4 * h
        x = pts[keep]
        d1 = self.d1(x)
        fd = (self.value(x + h) - self.value(x - h)) / (2 * h)
        err = np.abs(fd - d1) / np.maximum(np.abs(d1), scale)
        worst = float(err.max()) if err.size else 0.0
        if worst > FD_RTOL:
            raise ProfileError("profile derivative self-check failed: rel err "
                               f"{worst:.3e} > {FD_RTOL:.1e}")
        return worst


# ----------------------------------------------------------------------
# twist ramp shapes
# ----------------------------------------------------------------------
# A ramp is a function c on [0, 1] with c(0) = 1, c(1) = 0, monotone
# decreasing, c'(0) = c'(1) = 0.  The twist angle is
#   g(s) = k*pi*c(s / p_plateau) + eps*s      (c == 0 past the plateau).
# Cint is the exact antiderivative of c with Cint(0) = 0.

def _cos_ramp():
    def c(x):
        return 0.5 * (1.0 + np.cos(math.pi * x))

    def c1(x):
        return -0.5 * math.pi * np.sin(math.pi * x)

    def c2(x):
        return -0.5 * math.pi ** 2 * np.cos(math.pi * x)

    def Cint(x):
        return 0.5 * x + np.sin(math.pi * x) / (2.0 * math.pi)

    return c, c1, c2, Cint


def _cos2_ramp():
    # ((1 + cos(pi x))/2)^2 = 3/8 + cos(pi x)/2 + cos(2 pi x)/8.
    # C2 at the plateau end: c'' (1) = 0, so g is C2 across the junction.
    def c(x):
        return (0.5 * (1.0 + np.cos(math.pi * x))) ** 2

    def c1(x):
        return (-0.5 * math.pi * (1.0 + np.cos(math.pi * x))
                * np.sin(math.pi * x))

    def c2(x):
        return -0.5 * math.pi ** 2 * (np.cos(math.pi * x)
                                      + np.cos(2.0 * math.pi * x))

    def Cint(x):
        return (3.0 * x / 8.0 + np.sin(math.pi * x) / (2.0 * math.pi)
                + np.sin(2.0 * math.pi * x) / (16.0 * math.pi))

    return c, c1, c2, Cint


TWIST_SHAPES = {"cos": _cos_ramp, "cos2": _cos2_ramp}


@dataclass(frozen=True)
class TwistProfile:
    """Radial twist data of a k-fold twist with geodesic drift eps.

    ``g`` is the modified angle function (``g(0) = k*pi`` exactly),
    ``hk = 1 + int_0^s sigma g'(sigma) d sigma`` and
    ``htilde = 1 - int_0^s g`` are the primitives entering the two
    mapping-torus contact forms.  For ``k < 0`` the unique zero of ``g``
    is ``p0``.
    """

    k: int
    p_plateau: float
    s_max: float
    g: SmoothProfile
    hk: SmoothProfile
    htilde: SmoothProfile
    p0: float | None

    def hk_by_quadrature(self, s: float) -> float:
        """Independent Gauss-Kronrod evaluation of 1 + int_0^s sigma g',
        split at the breaks of g."""
        val, _ = integrate.quad(lambda u: u * self.g.d1(u), 0.0, s,
                                points=self.g.breaks, epsabs=QUAD_TOL,
                                epsrel=QUAD_TOL, limit=200)
        return 1.0 + val

    def htilde_by_quadrature(self, s: float) -> float:
        """Independent Gauss-Kronrod evaluation of 1 - int_0^s g, split
        at the breaks of g."""
        val, _ = integrate.quad(self.g.value, 0.0, s, points=self.g.breaks,
                                epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200)
        return 1.0 - val


def build_twist_profile(k: int, eps: float, p_plateau: float,
                        shape: str = "cos2", s_max: float = 1.0) -> TwistProfile:
    """Construct a twist profile and validate its invariants.

    Rejects ``k == 0`` (no twist), ``eps == 0`` for ``k < 0`` (the zero
    set of the plateau would not be isolated) and ramps that do not
    approach the plateau monotonically.
    """
    if k == 0:
        raise ProfileError("k = 0 gives no twist")
    if not (eps > 0.0):
        raise ProfileError("eps must be positive (eps = 0 leaves a flat zero set)")
    if not (0.0 < p_plateau < 1.0):
        raise ProfileError("p_plateau must lie in (0, 1)")
    if s_max < p_plateau:
        raise ProfileError(f"s_max = {s_max} must be >= p_plateau = "
                           f"{p_plateau}: the domain must contain the "
                           "plateau point")

    if shape not in TWIST_SHAPES:
        raise ProfileError(f"unknown twist shape {shape!r}")
    c, c1, c2, Cint = TWIST_SHAPES[shape]()

    # The ramp must be monotone so the angle approaches the plateau
    # without overshoot; checked on a dense grid.
    if np.any(c1(np.linspace(0.0, 1.0, 513)) > 1e-12):
        raise ProfileError("ramp is not monotone decreasing")

    pc = p_plateau
    kpi = k * math.pi
    ramp_area = kpi * pc * Cint(1.0)    # int_0^pc of the ramp term

    def primitives(g0, g1, g2, int_g):
        """(value, d1, d2) of g, hk and htilde on one piece, from g, its
        derivatives and its integral there."""
        return {
            "g": (g0, g1, g2),
            # hk = 1 + int sigma g' = 1 + s g(s) - int g (by parts)
            "hk": (lambda s: 1.0 + s * g0(s) - int_g(s),
                   lambda s: s * g1(s), lambda s: g1(s) + s * g2(s)),
            "htilde": (lambda s: 1.0 - int_g(s), lambda s: -g0(s),
                       lambda s: -g1(s)),
        }

    ramp = primitives(lambda s: kpi * c(s / pc) + eps * s,
                      lambda s: kpi * (c1(s / pc) / pc) + eps,
                      lambda s: kpi * (c2(s / pc) / pc ** 2),
                      lambda s: kpi * pc * Cint(s / pc) + 0.5 * eps * s * s)
    drift = primitives(lambda s: eps * s, _constant(eps), _constant(0.0),
                       lambda s: ramp_area + 0.5 * eps * s * s)
    # the ramp acts for s < pc: its piece ends at the last float below pc
    g, hk, htilde = (
        SmoothProfile(0.0, s_max, *_piecewise([
            (math.nextafter(pc, 0.0), *ramp[prof]),
            (s_max, *drift[prof])]), breaks=(pc,))
        for prof in ("g", "hk", "htilde"))

    if abs(g(0.0) - kpi) > 1e-12:
        raise ProfileError("g(0) != k*pi")
    if abs(hk(0.0) - 1.0) > 1e-15:
        raise ProfileError("hk(0) != 1")

    p0 = None
    if k < 0:
        # g rises from k*pi < 0 to eps*s > 0: bracket by scan, bisect,
        # then Newton-polish to |g(p0)| <= 1e-12.
        scan = np.linspace(1e-9, s_max, 1001)
        vals = g(scan)
        idx = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
        if len(idx) != 1:
            raise ProfileError(f"expected one sign change of g, found {len(idx)}")
        a, b = scan[idx[0]], scan[idx[0] + 1]
        p0 = optimize.brentq(g.value, a, b, xtol=ROOT_XTOL)
        for _ in range(4):
            p0 = p0 - g(p0) / g.d1(p0)
        if abs(g(p0)) > 1e-12:
            raise ProfileError(f"root polish failed: |g(p0)| = {abs(g(p0)):.2e}")
        if g.d1(p0) <= 0.0:
            raise ProfileError("g'(p0) <= 0 at the principal zero")
    else:
        vals = g(np.linspace(0.0, s_max, 2001))
        if vals.min() <= 0.0:
            raise ProfileError("k > 0 twist developed a zero; reduce p_plateau or eps")

    # hk must stay positive on [0, 1] (and the whole domain we ship).
    hk_min = float(hk(np.linspace(0.0, s_max, 2001)).min())
    if hk_min <= 0.0:
        raise ProfileError(f"hk is not positive on the domain (min {hk_min:.3e})")

    return TwistProfile(k=k, p_plateau=pc, s_max=s_max, g=g, hk=hk,
                        htilde=htilde, p0=p0)


# ----------------------------------------------------------------------
# binding profiles
# ----------------------------------------------------------------------

def hermite_rows(y, f, s, h):
    """The rows F (5, pieces) of the quintic Hermite pieces with values
    ``y``, first derivatives ``f`` and second derivatives ``s`` at the
    knots, piece i of width ``h[i]``: in u = (x - x_i)/h[i] it is

        y[i] + u (F0 + (1 - u) (F1 + u (F2 + (1 - u) (F3 + u F4)))),

    the interpolant in closed form (de Boor, A Practical Guide to
    Splines, 2001), with no system to solve."""
    hh = 0.5 * (h * h)
    F = np.empty((5, h.size))
    F[0] = np.diff(y)
    F[1] = h * f[:-1] - F[0]
    F[2] = 2.0 * F[0] - h * (f[:-1] + f[1:])
    F[3] = hh * s[:-1] + F[1] - F[2]
    F[4] = hh * s[1:] + F[1] + 2.0 * F[2] - F[3]
    return F


def _quintic_hermite(x0, x1, v0, d0, s0, v1, d1, s1):
    """(value, d1, d2) of the quintic with value and derivatives (v0,
    d0, s0) at x0 and (v1, d1, s1) at x1 (either may be the larger).

    The ``hermite_rows`` of the one piece, expanded into the monomial
    coefficients c of u = (x - x0)/(x1 - x0), go through Horner's rule
    in u; the derivatives take c's scaled to x, with the constant terms
    d0 and s0 (c1/L and 2 c2/L^2 in exact arithmetic), so all three are
    exact at x0.  In the monomial basis of x itself the coefficients
    would be ill-conditioned on an interval away from the origin
    (condition 5e4 on the collar's [0.5, 1.02]), and their rounding
    noise is what a finite difference of the profile then sees.
    """
    L = x1 - x0
    F0, F1, F2, F3, F4 = hermite_rows(
        *np.array([[v0, v1], [d0, d1], [s0, s1]]), np.array([L]))[:, 0]
    c = (v0, F0 + F1, F2 + F3 - F1, F4 - F2 - 2.0 * F3, F3 - 2.0 * F4, F4)
    P0 = _horner(c)
    P1 = _horner([d0, *(j * c[j] / L for j in range(2, 6))])
    P2 = _horner([s0, *(j * (j - 1) * c[j] / (L * L) for j in range(3, 6))])
    return (lambda x: P0((x - x0) / L), lambda x: P1((x - x0) / L),
            lambda x: P2((x - x0) / L))


def _horner(coef):
    """The polynomial with coefficients ``coef`` (lowest degree first),
    evaluated by Horner's rule in the operation order of
    numpy.polynomial.polynomial.polyval, so the values are bit-identical
    to polyval's; accepts a float or an ndarray."""
    head, *rest = (float(c) for c in reversed(coef))
    rest = tuple(rest)

    def poly(x):
        v = head
        for c in rest:
            v = c + v * x
        return v
    return poly


def _constant(c):
    """The function x -> c; c + 0*x is a float for a float and an array
    of x's shape for an array."""
    return lambda x: c + 0.0 * x


def piecewise(edges, fns):
    """The function that is ``fns[i]`` on the i-th piece cut by the
    sorted ``edges`` (one fewer than ``fns``): a point x belongs to the
    first piece whose edge is >= x, and to the last piece past every
    edge.

    An ndarray is looked up by ``np.searchsorted(edges, x,
    side="left")``, with each piece evaluated once on the points it
    owns.  A float is looked up by scanning the edges, the same rule,
    and gives a float: the point checks of validate and the orbit
    levels, the twist build and the plane's float lookups make 195 of
    the 542 calls of a default run (31 of 205 on k = -2, n = 3,
    k_max = 8), at under 1 us a call, where a one-element array costs
    9-20 us.
    """
    edges = np.asarray(edges, dtype=float)
    pairs, last = tuple(zip(edges.tolist(), fns)), fns[-1]

    def f(x):
        if not isinstance(x, np.ndarray):
            x = float(x)
            for edge, fn in pairs:
                if x <= edge:
                    return float(fn(x))
            return float(last(x))
        owner = np.searchsorted(edges, x, side="left")
        out = np.empty(x.shape)
        for i, fn in enumerate(fns):
            mask = owner == i
            if mask.any():
                out[mask] = fn(x[mask])
        return out
    return f


def _piecewise(pieces):
    """(value, d1, d2) of the function whose ordered pieces are
    ``(upper_edge, value, d1, d2)``; the last piece also takes every
    point past its edge (see ``piecewise``)."""
    edges = [piece[0] for piece in pieces[:-1]]
    return tuple(piecewise(edges, [piece[i] for piece in pieces])
                 for i in (1, 2, 3))


@dataclass(frozen=True)
class BindingProfile:
    """The pair (h1, h2) defining the contact form near the binding.

    ``r0`` is the radius where h2 attains its maximum (h2'(r0) = 0);
    the closed orbit family there is the one every finite-energy plane
    of the model is asymptotic to.  ``detH = h1 h2' - h2 h1'`` and the
    contact condition is that detH/r extends positively over r = 0.
    """

    h1: SmoothProfile
    h2: SmoothProfile
    r0: float
    r_max: float
    core_end: float
    collar: tuple | None = None

    # -- derived evaluators --------------------------------------------
    def detH(self, r: float) -> float:
        return self.h1(r) * self.h2.d1(r) - self.h2(r) * self.h1.d1(r)

    def detH_over_r(self, r: float) -> float:
        if r == 0.0:
            # detH/r -> h2''(0) h1(0) near a quadratic core
            return self.h1(0.0) * self.h2.d2(0.0)
        return self.detH(r) / r

    def min_detH_over_r(self):
        """Minimum of detH/r on the grid linspace(r_max/n, r_max, n),
        n = CONTACT_GRID, and its radius; the contact certificate."""
        rs = np.linspace(self.r_max / CONTACT_GRID, self.r_max, CONTACT_GRID)
        vals = self.detH(rs) / rs
        i = int(np.argmin(vals))
        return float(vals[i]), float(rs[i])


def _build_fig2(r0, r_max, shape) -> BindingProfile:
    """Default hump shape: exact quadratic core, quintic rise to a peak
    at r0, and a gentle saturating tail.

    The peak value is tied to the twist profile so the closed
    orbit at r0 carries the action of the principal twist level:
    ``2*pi*h2(r0) = hk(p0)``.  The rise is the quintic Hermite piece
    from the peak's (H, 0, -kappa) at r0 to the core's value and
    derivatives at rA = r0/4, evaluated from r0, so h2(r0) = H and
    h2'(r0) = 0 hold exactly.
    """
    tp = shape.get("twist")
    if tp is None:
        raise ProfileError("fig2 shape needs a twist profile")
    if tp.p0 is None:
        raise ProfileError("twist has no principal zero; cannot tie the peak")
    H = tp.hk(tp.p0) / PHI_PERIOD_SCALE
    kappa = float(shape.get("kappa", 1.0))
    w = float(shape.get("tail_width", 0.12))
    if kappa <= 0.0 or w <= 0.0:
        raise ProfileError("kappa and tail_width must be positive")

    rA = r0 / 4.0
    if H <= rA * rA:
        raise ProfileError(f"peak {H:.4f} below the quadratic core at r0/4")

    rise = _quintic_hermite(r0, rA, H, 0.0, -kappa, rA * rA, 2.0 * rA, 2.0)
    # h2' >= 0 on the rise, up to rounding on the scale of its mean slope
    if np.any(rise[1](np.linspace(rA, r0, 513))
              < -1e-10 * (H - rA * rA) / (r0 - rA)):
        raise ProfileError("rise piece is not monotone; adjust kappa or r0")

    # tail: h2 = H - (kappa w^2 / 2) tanh((r - r0)/w)^2, so h2''(r0) = -kappa
    def tail_v(r):
        return H - 0.5 * kappa * w * w * np.tanh((r - r0) / w) ** 2

    def tail_d1(r):
        u = (r - r0) / w
        return -kappa * w * np.tanh(u) / np.cosh(u) ** 2

    def tail_d2(r):
        u = (r - r0) / w
        th, ch = np.tanh(u), np.cosh(u)
        return -kappa * (1.0 / ch ** 4 - 2.0 * th ** 2 / ch ** 2)

    h2pw = _piecewise([
        (rA, lambda r: r * r, lambda r: 2.0 * r, _constant(2.0)),
        (r0, *rise),
        (r_max, tail_v, tail_d1, tail_d2),
    ])
    h2 = SmoothProfile(0.0, r_max, *h2pw, breaks=(rA, r0))
    h1 = SmoothProfile(0.0, r_max, lambda r: 1.0 - r * r,
                       lambda r: -2.0 * r, _constant(-2.0))
    return BindingProfile(h1=h1, h2=h2, r0=r0, r_max=r_max, core_end=rA)


def _build_collar(r0, r_max, shape) -> BindingProfile:
    """Collar-matched shape: past the transition radius the pair is the
    exact pullback of the mapping-torus form, h1 = 1/r and
    h2 = htilde(1/r)/(2*pi), so r0 = 1/p0.  The core is a scaled
    quadratic.

    The core radius and scale of the interpolation are tuned
    automatically: candidates are tried in a fixed ladder and the first
    whose contact certificate holds on the grid is kept.
    """
    tp = shape.get("twist")
    if tp is None or tp.p0 is None:
        raise ProfileError("collar shape needs a twist profile with a principal zero")
    if abs(r0 - 1.0 / tp.p0) > 1e-9:
        raise ProfileError("collar shape requires r0 = 1/p0 of the twist")
    p_cap = float(shape.get("p_cap", min(0.999, 1.3 * tp.p0)))
    if not (tp.p0 < p_cap <= tp.s_max):
        default = ("" if "p_cap" in shape
                   else " (the default min(0.999, 1.3 p0))")
        raise ProfileError(f"p_cap = {p_cap:.6g}{default} must lie in (p0, "
                           f"[twist] s_max] = ({tp.p0:.6g}, {tp.s_max:.6g}]")
    if 1.0 / r_max >= tp.p0:
        raise ProfileError("r_max too small: collar must contain r0 = 1/p0")
    r_c = 1.0 / p_cap

    sc = PHI_PERIOD_SCALE

    # h2's collar formula and its r-derivatives (s = 1/r)
    def c_h2(r):
        s = 1.0 / r
        return tp.htilde(s) / sc

    def c_h2d(r):
        s = 1.0 / r
        return tp.g(s) * s * s / sc

    def c_h2dd(r):
        s = 1.0 / r
        return -(tp.g.d1(s) * s ** 4 + 2.0 * s ** 3 * tp.g(s)) / sc

    # the (value, d1, d2) triples of h1 and h2 on the collar and of h1 on
    # the core
    collar = ((lambda r: 1.0 / r, lambda r: -1.0 / r ** 2,
               lambda r: 2.0 / r ** 3), (c_h2, c_h2d, c_h2dd))
    core_h1 = (lambda r: 1.0 - r * r, lambda r: -2.0 * r, _constant(-2.0))
    H_c = c_h2(r_c)
    last_err = None
    for rB in (f * min(1.0, r_c) for f in (0.5, 0.35, 0.25, 0.15)):
        for c2 in (0.3, 0.15, 0.075, 0.04):
            if c2 * rB * rB >= 0.8 * H_c:
                continue  # scaled core would crowd the collar curve
            # the closures read this c2: a candidate is kept only by
            # returning it before the ladder moves on
            core_h2 = (lambda r: c2 * r * r, lambda r: 2.0 * c2 * r,
                       _constant(2.0 * c2))
            cand = _assemble_collar(tp, r0, r_max, r_c, rB,
                                    (core_h1, core_h2), collar)
            last_err = _grid_violation(cand)
            if last_err is None:
                return cand
    raise ProfileError(
        "collar shape: no admissible core parameters found"
        + (f" (last failure: {last_err})" if last_err else ""))


def _assemble_collar(tp, r0, r_max, r_c, rB, core, collar):
    """The collar-shaped profile whose h1 and h2 are each the ``core``
    (value, d1, d2) on [0, rB], the collar's on [r_c, r_max], and
    between them the quintic Hermite join of the two at rB and r_c;
    ``core`` and ``collar`` hold the triples of h1 and of h2."""
    breaks = (rB, r_c, 1.0 / tp.p_plateau) if r_max > 1.0 / tp.p_plateau \
        else (rB, r_c)
    h1, h2 = (SmoothProfile(0.0, r_max, *_piecewise([
        (rB, *inner),
        (r_c, *_quintic_hermite(rB, r_c, *(f(rB) for f in inner),
                                *(f(r_c) for f in outer))),
        (r_max, *outer)]), breaks=breaks)
        for inner, outer in zip(core, collar))
    return BindingProfile(h1=h1, h2=h2, r0=r0, r_max=r_max, core_end=rB,
                          collar=(r_c, r_max))


def _grid_violation(bp: BindingProfile):
    """The first invariant of ``bp`` that fails on the grid
    linspace(r_max/n, r_max, n), n = BUILD_GRID, as a message, or None:
    h1 > 0, the contact condition detH/r > 0, and the maximum of h2 at
    r0."""
    rs = np.linspace(bp.r_max / BUILD_GRID, bp.r_max, BUILD_GRID)
    for ok, what in (
            (bp.h1(rs) > 0.0, "h1 <= 0"),
            (bp.detH(rs) / rs > 0.0, "contact condition fails: detH/r <= 0"),
            (bp.h2(rs) <= bp.h2(bp.r0) + 1e-12,
             "h2 does not attain its maximum at r0: h2 > h2(r0)")):
        if not ok.all():
            return f"{what} at r = {rs[np.argmin(ok)]:.6f}"
    return None


def build_binding_profile(r0: float, r_max: float, shape: dict) -> BindingProfile:
    """Build a binding profile and verify its invariants.

    shape["name"] selects the construction: "fig2" (default hump tied
    to a twist), "collar" (exact pullback of the mapping-torus form
    past the transition radius) or "custom" (caller supplies the two
    SmoothProfiles; used for counterexamples and oracles).
    """
    if not (0.0 < r0 < r_max):
        raise ProfileError(f"r0 = {r0} must lie in (0, r_max) = (0, {r_max})")
    name = shape.get("name", "fig2")
    if name == "fig2":
        bp = _build_fig2(r0, r_max, shape)
    elif name == "collar":
        bp = _build_collar(r0, r_max, shape)
    elif name == "custom":
        bp = BindingProfile(h1=shape["h1"], h2=shape["h2"], r0=r0, r_max=r_max,
                            core_end=float(shape.get("core_end", 0.0)))
    else:
        raise ProfileError(f"unknown binding shape {name!r}")

    violation = _grid_violation(bp)
    if violation is not None:
        raise ProfileError(f"[{name}] {violation}")
    if abs(bp.h2.d1(bp.r0)) > 1e-10:
        raise ProfileError(f"[{name}] h2'(r0) = {bp.h2.d1(bp.r0):.3e} != 0")
    return bp


def matched_binding_profile(tp: TwistProfile, r_max: float | None = None,
                            p_cap: float | None = None) -> BindingProfile:
    """The collar profile matched to the twist (the ``[matched]``
    section); its build errors name that section."""
    if tp.p0 is None:
        raise ProfileError("[matched] the matched profile needs k < 0")
    r0 = 1.0 / tp.p0
    if r_max is None:
        r_max = 2.0 / tp.p0
    shape = {"name": "collar", "twist": tp}
    if p_cap is not None:
        shape["p_cap"] = p_cap
    with config_section("matched"):
        return build_binding_profile(r0, r_max, shape)


@contextlib.contextmanager
def config_section(name: str):
    """Prefix a ProfileError raised inside with ``[name]``, the config
    section whose values the build read."""
    try:
        yield
    except ProfileError as exc:
        raise ProfileError(f"[{name}] {exc}") from None


# ----------------------------------------------------------------------
# collar pullback consistency
# ----------------------------------------------------------------------

@dataclass
class PullbackReport:
    collar: tuple
    phi_period_scale: float
    max_mismatch: float
    worst_radius: float
    n_samples: int


def pullback_consistency_check(tp: TwistProfile, bp: BindingProfile,
                               collar: tuple) -> PullbackReport:
    """Compare (h1, h2) against the pullback of the mapping-torus form
    under (q, p, r, phi) -> (q, p/r, phi / (2*pi)).

    On a matching collar this forces h1(r) = 1/r and
    h2(r) = htilde(1/r) / (2*pi); the 2*pi is the recorded conversion
    between the disk angle and the unit-period torus coordinate.
    """
    lo, hi = collar
    if not (0.0 < lo <= hi <= bp.r_max):
        raise ProfileError("collar must be a subinterval of (0, r_max]")
    rs = (np.linspace(lo, hi, PULLBACK_SAMPLES) if hi > lo
          else np.array([lo]))
    s = 1.0 / rs
    outside = s > tp.s_max
    if outside.any():
        raise ProfileError(f"collar radius {rs[np.argmax(outside)]:.4f} "
                           "maps outside the twist domain")
    m = np.maximum(np.abs(bp.h1(rs) - 1.0 / rs),
                   np.abs(bp.h2(rs) - tp.htilde(s) / PHI_PERIOD_SCALE))
    i = int(np.argmax(m))
    return PullbackReport(collar=(float(lo), float(hi)),
                          phi_period_scale=PHI_PERIOD_SCALE,
                          max_mismatch=float(m[i]), worst_radius=float(rs[i]),
                          n_samples=len(rs))


# ----------------------------------------------------------------------
# CSV dump tables
# ----------------------------------------------------------------------

def twist_table(tp: TwistProfile, n: int = 256):
    s = np.linspace(0.0, tp.s_max, n)
    return (["x", "g", "g_prime", "h_k", "h_tilde_k"],
            np.column_stack([s, tp.g(s), tp.g.d1(s), tp.hk(s),
                             tp.htilde(s)]).tolist())


def binding_table(bp: BindingProfile, n: int = 256):
    r = np.linspace(0.0, bp.r_max, n)
    return (["r", "h1", "h1_prime", "h2", "h2_prime", "detH"],
            np.column_stack([r, bp.h1(r), bp.h1.d1(r), bp.h2(r),
                             bp.h2.d1(r), bp.detH(r)]).tolist())

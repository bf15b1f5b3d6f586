"""The explicit finite-energy plane through the binding.

With the rotation-invariant ansatz (angle of the plane = disk angle,
q and p frozen), the holomorphic-curve equations reduce to

    dr/drho = h2'(r) / rho,      dt/drho = h2(r) / rho.

In the logarithmic variable x = log rho the system is autonomous
(dr/dx = h2'(r)), which removes the 1/rho stiffness exactly, and
separable: x(r) = int ds/h2'(s) and t(r) = int h2(s)/h2'(s) ds from
r(1).  The r profile rises monotonically from 0 (binding puncture) to
the critical radius r0 of h2, where the plane is asymptotic to the
principal orbit family.  Below rho = 1 the plane lies in the quadratic
core, where h2 = (h2''(0)/2) r^2 and the solution is exactly
r = r(1) * rho^h2''(0); from rho = 1 on, x and t are quadratures at
radial knots, with quintic Hermite pieces between them.  The
dalpha-energy over a disk is 2*pi*(h2(r_out) - h2(r_in)) by Stokes,
approaching 2*pi*h2(r0), the action of the asymptotic orbit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .config import ReebtwistError
from .profiles import BindingProfile, piecewise

__all__ = [
    "PlaneError",
    "PlaneSolution",
    "solve_plane",
    "plane_energy",
    "EnergyReport",
]


# bench/tracing.py counts solver calls through this name (ROADMAP item 3)
integrate = numerics


class PlaneError(ReebtwistError):
    pass


# the plane's knots: the step of the pilot grid in log(r0 - r), the
# error of a quintic piece that the knots admit, relative to r0, and the
# most profile points one vectorised evaluation takes
PILOT_STEP = 0.2
KNOT_TOL = 1e-16
BLOCK = 2000
# quad tolerances of the direct energy quadrature
QUAD_EPSABS = 1e-13
QUAD_EPSREL = 1e-12
# the stored grid ends where r0 - r < TOL_ASYM; the knots run on to
# r0 - r = TAIL_GAP, where the asymptotic tail is calibrated
TOL_ASYM = 1e-6
TAIL_GAP = 1e-9
# largest relative gap between the Stokes and quadrature plane energies
ENERGY_RTOL = 1e-6


@dataclass
class Quintic:
    """r or t in x as quintic pieces: on [ts[i], ts[i + 1]], of width
    h[i] and step fraction u = (x - ts[i]) / h[i], the value is

        y[i] + u (F0 + (1 - u) (F1 + u (F2 + (1 - u) (F3 + u F4)))),

    with the rows F0-F4 in column i of the contiguous (5, steps) array
    F.  A point takes the first piece whose right edge ts[i + 1] is >=
    it, clipped to the first and last piece past either end.  An array
    of shape S gives S: one gathered multiply-add per row, in buffers
    of the points' size.  A Python float gives a float: the same search
    and Horner loop on the piece's column in Python floats, 2 us where
    a one-element array takes 21.  The two agree bit for bit.
    """

    ts: np.ndarray
    h: np.ndarray
    y: np.ndarray
    F: np.ndarray

    def __call__(self, x):
        if not isinstance(x, np.ndarray):
            i = min(max(int(self.ts.searchsorted(x)) - 1, 0),
                    self.h.size - 1)
            u = (x - self.ts.item(i)) / self.h.item(i)
            w = 1.0 - u
            f0, f1, f2, f3, f4 = self.F[:, i].tolist()
            return ((((f4 * u + f3) * w + f2) * u + f1) * w + f0) * u \
                + self.y.item(i)
        flat = x.reshape(-1)
        # mode="clip" on seg - 1 clips the piece index to [0, steps - 1]
        seg = np.searchsorted(self.ts, flat, side="left")
        seg -= 1
        u = self.ts[:-1].take(seg, mode="clip")
        np.subtract(flat, u, out=u)
        u /= self.h.take(seg, mode="clip")
        buf = np.empty(flat.shape)
        y = self.F[4].take(seg, mode="clip")
        y *= u
        for j, row in enumerate(self.F[3::-1]):
            y += row.take(seg, out=buf, mode="clip")
            y *= u if j % 2 else np.subtract(1.0, u, out=buf)
        y += self.y.take(seg, out=buf, mode="clip")
        return y.reshape(x.shape)


@dataclass
class PlaneSolution:
    """Sampled radial profile (r(rho), t(rho)) of the plane.

    The evaluators extend the stored grid: the core's closed form below
    rho = 1, the quintic Hermite pieces from rho = 1 to exp(x_max), and
    the asymptotic power tail r0 - c*rho^{-kappa} beyond the knots.
    They take a float, a 0-d array or an ndarray of radii; a float or a
    0-d array gives a Python float, an ndarray an array of its shape.
    Each reads log rho (-inf at rho <= 0) through one ``piecewise``
    lookup, whose middle piece is ``r_pieces`` or ``t_pieces``.
    """

    bp: BindingProfile
    rho_grid: np.ndarray
    r_vals: np.ndarray
    t_vals: np.ndarray
    core_coeff: float      # = r(1); r = core_coeff * rho^core_pow for rho < 1
    core_pow: float        # = h2''(0); 2 for a unit quadratic core
    x_core: float          # log rho at which r = r(1)/2, inside the core
    x_max: float           # x at the last knot, r0 - r = TAIL_GAP
    kappa: float           # |h2''(r0)|, the asymptotic approach rate
    tail_coeff: float      # r ~ r0 - tail_coeff * rho^{-kappa}
    r_pieces: Quintic      # r on [0, x_max]
    t_pieces: Quintic      # t on [0, x_max]

    @property
    def r0(self) -> float:
        return self.bp.r0

    def _in_x(self, pieces: Quintic, core, tail):
        """r or t as a function of x = log rho: the closed form ``core``
        for x < 0, its Hermite ``pieces`` for 0 <= x < x_max, and the
        closed form ``tail`` from x_max on.  The pieces hold what they
        read, not ``self``: a cycle through the cached lookup would keep
        a dropped solution alive until the cyclic collector ran."""
        return piecewise(
            (math.nextafter(0.0, -math.inf),
             math.nextafter(self.x_max, -math.inf)),
            (core, pieces, tail))

    @functools.cached_property
    def _r_in_x(self):
        c, p, r0, a, k = (self.core_coeff, self.core_pow, self.r0,
                          self.tail_coeff, self.kappa)
        return self._in_x(self.r_pieces, lambda x: c * np.exp(p * x),
                          lambda x: r0 - a * np.exp(-k * x))

    @functools.cached_property
    def _t_in_x(self):
        # dt/dx = h2 = (core_pow/2) r^2 on the core integrates in closed
        # form to t = (r(1)^2/4)(e^{2 core_pow x} - 1), with t(0) = 0
        amp, g = 0.25 * self.core_coeff ** 2, 2.0 * self.core_pow
        x_max = self.x_max
        t_max = self.t_pieces(x_max)
        h2_max = self.bp.h2(self.r0)
        return self._in_x(self.t_pieces, lambda x: amp * np.expm1(g * x),
                          lambda x: t_max + h2_max * (x - x_max))

    def r_of_rho(self, rho):
        """r at rho; rho <= 0 (the binding puncture) reads x = -inf on
        the core's closed form, which gives r = 0.0 exactly."""
        return self._r_in_x(_log_rho(rho))

    def x_of_r(self, r: float) -> float:
        """log rho at which the plane reaches radius r, for
        0 < r < r(x_max): the core's closed form r = core_coeff *
        rho^core_pow up to core_end (where the plane leaves the core), a
        root of r(x) = r beyond it."""
        if r <= self.bp.core_end:
            return math.log(r / self.core_coeff) / self.core_pow
        return numerics.brentq(lambda x: self._r_in_x(x) - r,
                               self.x_of_r(self.bp.core_end), self.x_max)

    def t_of_rho(self, rho):
        """t at rho; rho <= 0 reads x = -inf on the core's closed form,
        which gives its limit t = -r(1)^2/4 exactly."""
        return self._t_in_x(_log_rho(rho))


@np.errstate(divide="ignore")
def _log_rho(rho):
    """log rho, and -inf (log 0, without a warning) at rho <= 0; a numpy
    float for a float or a 0-d array, as numpy's ufuncs give for both."""
    return np.log(np.maximum(rho, 0.0))


def solve_plane(bp: BindingProfile, r_at_1: float) -> PlaneSolution:
    """The plane from rho = 1 (r = r_at_1, t = 0) out to r0 - r =
    TAIL_GAP, where the asymptotic tail is calibrated; r_at_1 lies in
    the core, so the core's closed form holds below rho = 1.

    The system is separable, so x and t at radial knots are quadratures
    (``_pieces``), and between knots the plane is a quintic Hermite
    piece; the knots (``_knots``) keep its error under KNOT_TOL * r0.
    The stored grid spans rho from 1e-8 to the smallest rho with
    r0 - r < TOL_ASYM.
    """
    if bp.core_end <= 0.0:
        raise PlaneError("plane solver requires a profile with an exact "
                         "quadratic-type core (core_end > 0)")
    if not (0.0 < r_at_1 <= bp.core_end):
        raise PlaneError(f"r at rho=1 must lie in (0, core_end] = "
                         f"(0, {bp.core_end}]; got {r_at_1}")
    core_pow = bp.h2.d2(0.0)
    if core_pow <= 0.0:
        raise PlaneError("h2 must grow quadratically at the binding")
    kappa = -bp.h2.d2(bp.r0)
    if kappa <= 0.0:
        raise PlaneError("h2 must have a nondegenerate maximum at r0")
    if kappa < 0.05:
        # approach rate rho^(-kappa): reaching the asymptote would need
        # radii beyond double precision (collar-matched peaks are this
        # flat by construction; run the plane on a designed profile)
        raise PlaneError(
            f"h2 peak too flat for the polar-coordinate solver: "
            f"|h2''(r0)| = {kappa:.3e} < 0.05")

    # knots out to r0 - r = TAIL_GAP; the deep end keeps the asymptotic
    # tail accurate for the linearized analysis, which integrates far
    # along the cylinder.
    r_pieces, t_pieces = _pieces(bp, _knots(bp, r_at_1))
    x_max = float(r_pieces.ts[-1])
    # where r = r_at_1/2 on the core's closed form
    x_core = math.log(0.5) / core_pow
    r_end = r_pieces(x_max)
    tail_coeff = (bp.r0 - r_end) * math.exp(kappa * x_max)

    sol = PlaneSolution(bp=bp, rho_grid=np.empty(0), r_vals=np.empty(0),
                        t_vals=np.empty(0), core_coeff=r_at_1,
                        core_pow=core_pow, x_core=x_core, x_max=x_max,
                        kappa=kappa, tail_coeff=tail_coeff,
                        r_pieces=r_pieces, t_pieces=t_pieces)
    # smallest rho with r0 - r < TOL_ASYM, from the pieces
    xs = np.linspace(0.0, x_max, 2000)
    idx = np.nonzero(bp.r0 - r_pieces(xs) < TOL_ASYM)[0]
    rho_max = float(np.exp(xs[idx[0]])) if len(idx) else float(np.exp(x_max))

    sol.rho_grid = np.exp(np.linspace(math.log(1e-8), math.log(rho_max), 400))
    sol.r_vals = sol.r_of_rho(sol.rho_grid)
    sol.t_vals = sol.t_of_rho(sol.rho_grid)
    if np.any(np.diff(sol.r_vals) <= 0.0):
        raise PlaneError("r(rho) is not strictly increasing")
    if sol.r_vals.max() > bp.r0 + 1e-12:
        raise PlaneError("plane exceeded the critical radius r0")
    return sol


def _knots(bp: BindingProfile, r_at_1: float) -> np.ndarray:
    """Radial knots from r_at_1 to r0 - TAIL_GAP: a pilot grid geometric
    in r0 - r (PILOT_STEP in its log) with every break of h2 in range,
    each pilot interval then cut into n equal ones, n the smallest with
    the pilot's error at the interval's middle radius, divided by n^6,
    under KNOT_TOL * r0.  A quintic Hermite piece of width h in x misses
    by r^(6)(x) h^6 / 46080 at its middle, so the knots gather where
    r^(6) is large: in the rise of h2, not in the exponential tail."""
    r_end = bp.r0 - TAIL_GAP
    span = math.log((bp.r0 - r_at_1) / TAIL_GAP)
    gaps = np.geomspace(bp.r0 - r_at_1, TAIL_GAP,
                        math.ceil(span / PILOT_STEP) + 1)
    pilot = np.union1d(bp.r0 - gaps[1:-1], [r_at_1, r_end, *(
        b for b in bp.h2.breaks if r_at_1 < b < r_end)])
    lo, hi = pilot[:-1], pilot[1:]
    mid = 0.5 * (lo + hi)
    pilot_r, _ = _pieces(bp, pilot)
    x_mid = pilot_r.ts[:-1] + _quadratures(bp, lo, mid)[0]
    err = np.abs(pilot_r(x_mid) - mid)
    n = np.maximum(np.ceil((err / (KNOT_TOL * bp.r0)) ** (1.0 / 6.0)),
                   1.0).astype(np.intp)
    piece = np.repeat(np.arange(n.size), n)
    frac = (np.arange(piece.size) - (np.cumsum(n) - n)[piece]) / n[piece]
    return np.append(lo[piece] + (hi - lo)[piece] * frac, r_end)


def _quadratures(bp: BindingProfile, lo: np.ndarray, hi: np.ndarray):
    """(2, n): the integrals of 1/h2' (the step in x) and of h2/h2' (the
    step in t) over each [lo_i, hi_i], by numerics' 10-point Gauss rule,
    evaluating the profile on at most BLOCK points per call."""
    nodes, weights = integrate.GAUSS10
    out = np.empty((2, lo.size))
    per_block = BLOCK // nodes.size
    for i in range(0, lo.size, per_block):
        a, b = lo[i:i + per_block], hi[i:i + per_block]
        half = 0.5 * (b - a)
        s = (0.5 * (a + b))[:, None] + half[:, None] * nodes
        inv = 1.0 / bp.h2.d1(s)
        out[0, i:i + per_block] = inv @ weights * half
        out[1, i:i + per_block] = (bp.h2(s) * inv) @ weights * half
    return out


def _pieces(bp: BindingProfile, knots: np.ndarray) -> tuple:
    """The plane through the radial ``knots`` as quintic Hermite pieces
    of r and of t in x: x and t at the knots are cumulative sums of
    ``_quadratures``, and each piece matches the value y, its derivative
    f = (h2', h2) and its second derivative s = (h2'' h2', h2'^2) of
    (r, t) at both knots, all exact there."""
    steps = _quadratures(bp, knots[:-1], knots[1:])
    if not (np.all(steps[0] > 0.0) and np.isfinite(steps).all()):
        raise PlaneError("failed to reach the asymptotic neighborhood of r0")
    x = np.concatenate([[0.0], np.cumsum(steps[0])])
    h = np.diff(x)
    hh = 0.5 * (h * h)

    def quintic(y, f, s):
        F = np.empty((5, h.size))
        F[0] = np.diff(y)
        F[1] = h * f[:-1] - F[0]
        F[2] = 2.0 * F[0] - h * (f[:-1] + f[1:])
        F[3] = hh * s[:-1] + F[1] - F[2]
        F[4] = hh * s[1:] + F[1] + 2.0 * F[2] - F[3]
        return Quintic(x, h, y[:-1], F)

    d1 = bp.h2.d1(knots)
    return (quintic(knots, d1, bp.h2.d2(knots) * d1),
            quintic(np.concatenate([[0.0], np.cumsum(steps[1])]),
                    bp.h2(knots), d1 * d1))


@dataclass
class EnergyReport:
    stokes: float
    quadrature: float
    action_gamma0: float
    rho_span: tuple
    relative_gap: float    # |stokes - quadrature| / stokes


def plane_energy(bp: BindingProfile, sol: PlaneSolution,
                 rho_span: tuple | None = None) -> EnergyReport:
    """dalpha-energy of the plane over rho in rho_span.

    Stokes value 2*pi*(h2(r(hi)) - h2(r(lo))) cross-checked against a
    direct 2d quadrature of the pulled-back form, whose density is
    h2'(r(rho))^2 / rho  (independent of the angle).  A relative
    disagreement beyond ENERGY_RTOL is an inconsistency error.
    """
    if rho_span is None:
        rho_span = (float(sol.rho_grid[0]), float(sol.rho_grid[-1]))
    lo, hi = rho_span
    if not (0.0 < lo <= hi):
        raise PlaneError("need 0 < rho_lo <= rho_hi")
    stokes = 2.0 * math.pi * (bp.h2(sol.r_of_rho(hi)) - bp.h2(sol.r_of_rho(lo)))
    if hi == lo:
        return EnergyReport(stokes=0.0, quadrature=0.0,
                            action_gamma0=2.0 * math.pi * bp.h2(bp.r0),
                            rho_span=rho_span, relative_gap=0.0)
    # the density is angle-independent, so the angular integral is
    # 2*pi times it; radially, adaptive Gauss-Kronrod in x = log rho with
    # the piecewise junctions of the solution declared as breakpoints.
    a, b = math.log(lo), math.log(hi)

    def density(x):
        return bp.h2.d1(sol.r_of_rho(np.exp(x))) ** 2

    breaks = [0.0, sol.x_max, sol.x_of_r(bp.core_end)]
    pts = sorted(x for x in breaks if a < x < b)
    radial, _err = integrate.quad(density, a, b, points=pts or None,
                                  epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL,
                                  limit=400)
    quad = 2.0 * math.pi * radial
    gap = abs(stokes - quad) / max(abs(stokes), 1e-300)
    if gap > ENERGY_RTOL:
        raise PlaneError(
            f"energy methods disagree: stokes {stokes:.12e} vs quadrature "
            f"{quad:.12e} (relative {gap:.2e})")
    return EnergyReport(stokes=stokes, quadrature=quad,
                        action_gamma0=2.0 * math.pi * bp.h2(bp.r0),
                        rho_span=rho_span, relative_gap=gap)

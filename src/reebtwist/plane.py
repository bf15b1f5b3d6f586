"""The explicit finite-energy plane through the binding.

With the rotation-invariant ansatz (angle of the plane = disk angle,
q and p frozen), the holomorphic-curve equations reduce to

    dr/drho = h2'(r) / rho,      dt/drho = h2(r) / rho.

In the logarithmic variable x = log rho the system is autonomous
(dr/dx = h2'(r)), which removes the 1/rho stiffness exactly.  The r
profile rises monotonically from 0 (binding puncture) to the critical
radius r0 of h2, where the plane is asymptotic to the principal orbit
family.  Below rho = 1 the plane lies in the quadratic core, where
h2 = (h2''(0)/2) r^2 and the solution is exactly
r = r(1) * rho^h2''(0); only rho >= 1 is integrated.  The
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


# DOP853 tolerances of the plane integration and the quad tolerances of
# the direct energy quadrature
ODE_RTOL = 1e-12
ODE_ATOL = 1e-14
QUAD_EPSABS = 1e-13
QUAD_EPSREL = 1e-12
# the stored grid ends where r0 - r < TOL_ASYM; the forward integration
# runs on to r0 - r = TAIL_GAP, where the asymptotic tail is calibrated
TOL_ASYM = 1e-6
TAIL_GAP = 1e-9
# largest relative gap between the Stokes and quadrature plane energies
ENERGY_RTOL = 1e-6


@dataclass
class PlaneSolution:
    """Sampled radial profile (r(rho), t(rho)) of the plane.

    The evaluators extend the stored grid: the core's closed form below
    rho = 1, the dense ODE solution from rho = 1 to exp(x_max), and the
    asymptotic power tail r0 - c*rho^{-kappa} beyond the integrated
    range.  They take a float, a 0-d array or an ndarray of radii; a
    float or a 0-d array gives a Python float, an ndarray an array of
    its shape.  Each reads log rho (-inf at rho <= 0) through one
    ``piecewise`` lookup, whose pieces read the dense ODE solution one
    component at a time.
    """

    bp: BindingProfile
    rho_grid: np.ndarray
    r_vals: np.ndarray
    t_vals: np.ndarray
    core_coeff: float      # = r(1); r = core_coeff * rho^core_pow for rho < 1
    core_pow: float        # = h2''(0); 2 for a unit quadratic core
    x_core: float          # log rho at which r = r(1)/2, inside the core
    x_max: float           # end of the integrated range
    kappa: float           # |h2''(r0)|, the asymptotic approach rate
    tail_coeff: float      # r ~ r0 - tail_coeff * rho^{-kappa}
    sol_fwd: numerics.DenseSolution   # (r, t) on [0, x_max]

    @property
    def r0(self) -> float:
        return self.bp.r0

    def _in_x(self, comp: int, core, tail):
        """Component ``comp`` (0: r, 1: t) as a function of x = log rho:
        the closed form ``core`` for x < 0, the integrated solution for
        0 <= x < x_max, and the closed form ``tail`` from x_max on.  The
        pieces hold what they read, not ``self``: a cycle through the
        cached lookup would keep a dropped solution alive until the
        cyclic collector ran."""
        return piecewise(
            (math.nextafter(0.0, -math.inf),
             math.nextafter(self.x_max, -math.inf)),
            (core, self.sol_fwd.component(comp), tail))

    @functools.cached_property
    def _r_in_x(self):
        c, p, r0, a, k = (self.core_coeff, self.core_pow, self.r0,
                          self.tail_coeff, self.kappa)
        return self._in_x(0, lambda x: c * np.exp(p * x),
                          lambda x: r0 - a * np.exp(-k * x))

    @functools.cached_property
    def _t_in_x(self):
        # dt/dx = h2 = (core_pow/2) r^2 on the core integrates in closed
        # form to t = (r(1)^2/4)(e^{2 core_pow x} - 1), with t(0) = 0
        amp, g = 0.25 * self.core_coeff ** 2, 2.0 * self.core_pow
        x_max = self.x_max
        t_max = float(self.sol_fwd(x_max)[1])
        h2_max = self.bp.h2(self.r0)
        return self._in_x(1, lambda x: amp * np.expm1(g * x),
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
    """Integrate the plane equations forward from rho = 1 (r = r_at_1,
    t = 0); r_at_1 lies in the core, so the core's closed form holds
    below rho = 1.

    Forward integration runs far enough to calibrate the asymptotic
    tail.  The stored grid spans rho from 1e-8 to the smallest rho with
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

    def rhs(_x, y):
        return [bp.h2.d1(y[0]), bp.h2(y[0])]

    # forward: until r0 - r < TAIL_GAP; the deep target keeps the
    # asymptotic tail accurate for the linearized analysis, which
    # integrates far along the cylinder.
    x_hi_guess = math.log(10.0) + math.log(bp.r0 / TAIL_GAP) / kappa

    def close_event(_x, y):
        return (bp.r0 - y[0]) - TAIL_GAP
    close_event.terminal = True
    close_event.direction = -1

    solF = integrate.solve_ivp(rhs, (0.0, x_hi_guess), [r_at_1, 0.0],
                               rtol=ODE_RTOL, atol=ODE_ATOL,
                               dense_output=True, events=close_event)
    if not solF.success:
        raise PlaneError(f"forward integration failed: {solF.message}")
    x_max = float(solF.t[-1])
    if bp.r0 - solF.y[0, -1] > TAIL_GAP * 1.01:
        raise PlaneError("failed to reach the asymptotic neighborhood of r0")

    # where r = r_at_1/2 on the core's closed form
    x_core = math.log(0.5) / core_pow
    tail_coeff = (bp.r0 - float(solF.y[0, -1])) * math.exp(kappa * x_max)

    sol = PlaneSolution(bp=bp, rho_grid=np.empty(0), r_vals=np.empty(0),
                        t_vals=np.empty(0), core_coeff=r_at_1,
                        core_pow=core_pow, x_core=x_core, x_max=x_max,
                        kappa=kappa, tail_coeff=tail_coeff, sol_fwd=solF.sol)
    # smallest rho with r0 - r < TOL_ASYM, from the integrated data
    xs = np.linspace(0.0, x_max, 2000)
    idx = np.nonzero(bp.r0 - solF.sol(xs)[0] < TOL_ASYM)[0]
    rho_max = float(np.exp(xs[idx[0]])) if len(idx) else float(np.exp(x_max))

    sol.rho_grid = np.exp(np.linspace(math.log(1e-8), math.log(rho_max), 400))
    sol.r_vals = sol.r_of_rho(sol.rho_grid)
    sol.t_vals = sol.t_of_rho(sol.rho_grid)
    if np.any(np.diff(sol.r_vals) <= 0.0):
        raise PlaneError("r(rho) is not strictly increasing")
    if sol.r_vals.max() > bp.r0 + 1e-12:
        raise PlaneError("plane exceeded the critical radius r0")
    return sol


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

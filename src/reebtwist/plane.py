"""The explicit finite-energy plane through the binding.

With the rotation-invariant ansatz (angle of the plane = disk angle,
q and p frozen), the holomorphic-curve equations reduce to

    dr/drho = h2'(r) / rho,      dt/drho = h2(r) / rho.

In the logarithmic variable x = log rho the system is autonomous
(dr/dx = h2'(r)), which removes the 1/rho stiffness exactly.  The r
profile rises monotonically from 0 (binding puncture) to the critical
radius r0 of h2, where the plane is asymptotic to the principal orbit
family; inside the quadratic core the solution is exactly
r = C * rho^2.  The dalpha-energy over a disk is 2*pi*(h2(r_out) -
h2(r_in)) by Stokes, approaching 2*pi*h2(r0), the action of the
asymptotic orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .profiles import BindingProfile

__all__ = [
    "PlaneError",
    "PlaneSolution",
    "solve_plane",
    "plane_energy",
    "EnergyReport",
]


class PlaneError(ValueError):
    pass


# DOP853 tolerances of the plane integration and the quad tolerances of
# the direct energy quadrature
ODE_RTOL = 1e-12
ODE_ATOL = 1e-14
QUAD_EPSABS = 1e-13
QUAD_EPSREL = 1e-12


@dataclass
class PlaneSolution:
    """Sampled radial profile (r(rho), t(rho)) of the plane.

    The evaluators extend the stored grid: exact quadratic model below
    the core radius, the dense ODE solutions in the middle (backward
    half for log rho < 0, forward half for log rho >= 0), and the
    asymptotic power tail r0 - c*rho^{-kappa} beyond the integrated
    range.  They take a float or an ndarray of radii and return the
    same kind.  q_fixed/p_fixed record the frozen sphere coordinates and
    t_shift the translation freedom.
    """

    bp: BindingProfile
    rho_grid: np.ndarray
    r_vals: np.ndarray
    t_vals: np.ndarray
    r_init: float          # r at rho = 1
    t_shift: float
    q_fixed: np.ndarray
    p_fixed: np.ndarray
    core_coeff: float      # r = core_coeff * rho^core_pow inside the core
    core_pow: float        # = h2''(0); 2 for a unit quadratic core
    x_core: float          # log rho at core exit
    x_max: float           # end of the integrated range
    kappa: float           # |h2''(r0)|, the asymptotic approach rate
    tail_coeff: float      # r ~ r0 - tail_coeff * rho^{-kappa}
    sol_back: object       # OdeSolution of (r, t) on [x_core, 0]
    sol_fwd: object        # OdeSolution of (r, t) on [0, x_max]

    @property
    def r0(self) -> float:
        return self.bp.r0

    def _lookup(self, rho, comp: int, core, tail):
        """Component ``comp`` (0: r, 1: t) at radii rho > 0: the closed
        form ``core`` of x = log rho up to x_core, the integrated solution
        (backward half for x < 0, forward half for x >= 0) before x_max,
        and the closed form ``tail`` from x_max on.  A float takes the one
        branch its x selects; an ndarray is split by masks, one call per
        piece.  Both evaluate the same numpy expressions, so a float and a
        one-element array give the same bits."""
        x = np.log(rho)
        if not isinstance(rho, np.ndarray):
            if x <= self.x_core:
                return float(core(x))
            if x >= self.x_max:
                return float(tail(x))
            return float((self.sol_back if x < 0.0 else self.sol_fwd)(x)[comp])
        out = np.empty(x.shape)
        in_core = x <= self.x_core
        in_tail = x >= self.x_max
        out[in_core] = core(x[in_core])
        out[in_tail] = tail(x[in_tail])
        mid = ~(in_core | in_tail)
        for half, mask in ((self.sol_back, mid & (x < 0.0)),
                           (self.sol_fwd, mid & (x >= 0.0))):
            if mask.any():
                out[mask] = half(x[mask])[comp]
        return out if out.ndim else float(out)

    def r_of_rho(self, rho):
        """r at rho; r = 0 at rho <= 0 (the binding puncture)."""
        def core(x):
            return self.core_coeff * np.exp(self.core_pow * x)

        def tail(x):
            return self.r0 - self.tail_coeff * np.exp(-self.kappa * x)

        if not isinstance(rho, np.ndarray):
            rho = float(rho)
            return self._lookup(rho, 0, core, tail) if rho > 0.0 else 0.0
        pos = rho > 0.0
        r = np.asarray(self._lookup(np.where(pos, rho, 1.0), 0, core, tail))
        r[~pos] = 0.0
        return r if r.ndim else float(r)

    def _t_core(self) -> float:
        return float(self.sol_back(self.x_core)[1])

    def t_of_rho(self, rho):
        """t at rho; rho <= 0 is read as rho = 1e-300, deep in the core."""
        # dt/dx = h2 = (core scale) r^2 integrates in closed form
        c2 = 0.5 * self.core_pow  # h2 = c2 r^2 on the core
        g = 2.0 * self.core_pow
        amp = c2 * self.core_coeff ** 2 / g

        def core(x):
            return self._t_core() - amp * (math.exp(g * self.x_core)
                                           - np.exp(g * x))

        def tail(x):
            tm = float(self.sol_fwd(self.x_max)[1])
            return tm + self.bp.h2(self.r0) * (x - self.x_max)

        if not isinstance(rho, np.ndarray):
            rho = float(rho)
            return self._lookup(rho if rho > 0.0 else 1e-300, 1, core, tail)
        return self._lookup(np.where(rho > 0.0, rho, 1e-300), 1, core, tail)

    def t_limit_at_puncture(self) -> float:
        c2 = 0.5 * self.core_pow
        g = 2.0 * self.core_pow
        return self._t_core() - (c2 * self.core_coeff ** 2 / g) * math.exp(g * self.x_core)


def solve_plane(bp: BindingProfile, r_at_1: float, rho_max: float | None = None,
                tol_asym: float = 1e-6, t_shift: float = 0.0,
                rho_min: float = 1e-8, n_grid: int = 400) -> PlaneSolution:
    """Integrate the plane equations from rho = 1 (r = r_at_1, t = t_shift).

    Forward integration runs at least to rho_max (chosen adaptively so
    that r0 - r < tol_asym when rho_max is None) and always far enough
    to calibrate the asymptotic tail; backward integration stops at the
    quadratic core, below which the closed form takes over down to
    rho_min and beyond.
    """
    if not (0.0 < r_at_1 < bp.r0):
        raise PlaneError(f"r at rho=1 must lie in (0, r0); got {r_at_1}"
                         + (" (the constant solution at r0 is the trivial cylinder)"
                            if r_at_1 >= bp.r0 else ""))
    if bp.core_end <= 0.0:
        raise PlaneError("plane solver requires a profile with an exact "
                         "quadratic-type core (core_end > 0)")
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

    # forward: until r0 - r < min(tol_asym, tail calibration threshold);
    # the deep target keeps the asymptotic tail accurate for the
    # linearized analysis, which integrates far along the cylinder.
    target_gap = min(tol_asym, 1e-9)
    x_hi_guess = math.log(max(rho_max or 1.0, 10.0)) + \
        (math.log(bp.r0 / target_gap) / kappa)

    def close_event(_x, y):
        return (bp.r0 - y[0]) - target_gap
    close_event.terminal = True
    close_event.direction = -1

    solF = integrate.solve_ivp(rhs, (0.0, x_hi_guess), [r_at_1, t_shift],
                               method="DOP853", rtol=ODE_RTOL, atol=ODE_ATOL,
                               dense_output=True, events=close_event)
    if not solF.success:
        raise PlaneError(f"forward integration failed: {solF.message}")
    x_max = float(solF.t[-1])
    if bp.r0 - solF.y[0, -1] > target_gap * 1.01:
        raise PlaneError("failed to reach the asymptotic neighborhood of r0")

    # backward: into the quadratic core (the start may already be inside)
    core_r = min(bp.core_end, r_at_1)

    def core_event(_x, y):
        return y[0] - 0.5 * core_r
    core_event.terminal = True
    core_event.direction = -1

    solB = integrate.solve_ivp(rhs, (0.0, -60.0), [r_at_1, t_shift],
                               method="DOP853", rtol=ODE_RTOL, atol=ODE_ATOL,
                               dense_output=True, events=core_event)
    if not solB.success or solB.t[-1] <= -59.0:
        raise PlaneError("backward integration failed to reach the core")
    x_core = float(solB.t[-1])
    r_core = float(solB.y[0, -1])
    core_coeff = r_core / math.exp(core_pow * x_core)

    tail_coeff = (bp.r0 - float(solF.y[0, -1])) * math.exp(kappa * x_max)

    if rho_max is None:
        # smallest rho with r0 - r < tol_asym, from the integrated data
        xs = np.linspace(0.0, x_max, 2000)
        rr = solF.sol(xs)[0]
        idx = np.nonzero(bp.r0 - rr < tol_asym)[0]
        rho_max = float(np.exp(xs[idx[0]])) if len(idx) else float(np.exp(x_max))

    x_lo = math.log(rho_min)
    xs = np.linspace(x_lo, math.log(rho_max), n_grid)
    n_dim = 2
    q_fixed = np.zeros(n_dim)
    q_fixed[0] = 1.0
    p_fixed = np.zeros(n_dim)
    p_fixed[1] = 1.0

    sol = PlaneSolution(bp=bp, rho_grid=np.exp(xs), r_vals=np.zeros(n_grid),
                        t_vals=np.zeros(n_grid), r_init=r_at_1,
                        t_shift=t_shift, q_fixed=q_fixed, p_fixed=p_fixed,
                        core_coeff=core_coeff, core_pow=core_pow,
                        x_core=x_core, x_max=x_max,
                        kappa=kappa, tail_coeff=tail_coeff,
                        sol_back=solB.sol, sol_fwd=solF.sol)
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
                 rho_span: tuple | None = None,
                 tol: float = 1e-6) -> EnergyReport:
    """dalpha-energy of the plane over rho in rho_span.

    Stokes value 2*pi*(h2(r(hi)) - h2(r(lo))) cross-checked against a
    direct 2d quadrature of the pulled-back form, whose density is
    h2'(r(rho))^2 / rho  (independent of the angle).  Disagreement
    beyond the tolerance is an inconsistency error.
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
        return bp.h2.d1(sol.r_of_rho(math.exp(x))) ** 2

    breaks = [sol.x_core, 0.0, sol.x_max]
    if sol.core_coeff > 0:
        breaks.append(math.log(bp.core_end / sol.core_coeff) / sol.core_pow)
    pts = sorted(x for x in breaks if a < x < b)
    radial, _err = integrate.quad(density, a, b, points=pts or None,
                                  epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL,
                                  limit=400)
    quad = 2.0 * math.pi * radial
    gap = abs(stokes - quad) / max(abs(stokes), 1e-300)
    if gap > tol:
        raise PlaneError(
            f"energy methods disagree: stokes {stokes:.12e} vs quadrature "
            f"{quad:.12e} (relative {gap:.2e})")
    return EnergyReport(stokes=stokes, quadrature=quad,
                        action_gamma0=2.0 * math.pi * bp.h2(bp.r0),
                        rho_span=rho_span, relative_gap=gap)

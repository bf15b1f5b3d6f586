"""Closed Reeb orbit families of the twisted model.

Orbits come in smooth families labelled by the level s = |p| of the
twist coordinate: the flow closes exactly when the twist angle g(s) is
a rational multiple of 2*pi.  The family with g = 0 (the principal
level, present for left twists) consists of circles around the binding
that close after a single turn; it carries the lowest action in every
shipped configuration and is the family every finite-energy plane is
asymptotic to.

Periods are m * h_k(s) with m the smallest positive integer making
m*g(s) a multiple of 2*pi; since the contact form evaluates to one on
the Reeb field, the action equals the period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import numerics
from .config import ReebtwistError
from .profiles import BindingProfile, TwistProfile

__all__ = [
    "OrbitError",
    "OrbitLevel",
    "OrbitSpaceReport",
    "ClosureReport",
    "find_principal_level",
    "enumerate_orbit_levels",
    "orbit_space_homology",
    "verify_closure_by_flow",
    "level_radius",
]


# bench/tracing.py counts solver calls through these names (ROADMAP item 3)
integrate = optimize = numerics

# brentq tolerance of the orbit levels, and DOP853 tolerances and the
# seed of the random start of the closure-by-flow integration
ROOT_XTOL = 1e-14
ODE_RTOL = 1e-10
ODE_ATOL = 1e-10
CLOSURE_SEED = 0


class OrbitError(ReebtwistError):
    pass


@dataclass(frozen=True)
class OrbitLevel:
    """One family of closed orbits at twist level s = pLevel.

    ``m`` is the primitive multiplicity (turns around the binding for
    one closure), ``i`` the turn count of the orbit represented (a
    multiple of m; equals m for the primitive orbit).
    """

    p_level: float
    g_value: float
    m: int
    i: int
    period: float
    is_principal: bool
    target: Fraction | None = None  # g/(2*pi) for rational levels

    @property
    def action(self) -> float:
        """The action: alpha(R) = 1, so it equals the period."""
        return self.period

    def validate(self):
        if self.m * self.g_value / (2.0 * math.pi) % 1.0 > 1e-9 and \
           1.0 - (self.m * self.g_value / (2.0 * math.pi) % 1.0) > 1e-9:
            raise OrbitError("m*g is not a multiple of 2*pi")
        if self.is_principal and self.m != 1:
            raise OrbitError("principal level must have m = 1")
        if self.i % self.m != 0:
            raise OrbitError("turn count must be divisible by m")


def find_principal_level(tp: TwistProfile) -> OrbitLevel:
    """The g = 0 family.  Only left twists (k < 0) have one."""
    if tp.k >= 0:
        raise OrbitError("no principal level: the twist angle has no zero for k > 0")
    p0 = tp.p0
    per = tp.hk(p0)
    lvl = OrbitLevel(p_level=p0, g_value=tp.g(p0), m=1, i=1,
                     period=per, is_principal=True,
                     target=Fraction(0, 1))
    lvl.validate()
    return lvl


def _farey_targets(denom_cap: int, lo: float, hi: float):
    """Reduced fractions a/b with b <= denom_cap inside [lo, hi]."""
    seen = set()
    for b in range(1, denom_cap + 1):
        for a in range(math.floor(lo * b) - 1, math.ceil(hi * b) + 2):
            f = Fraction(a, b)
            if f.denominator <= denom_cap and lo - 1e-12 <= f <= hi + 1e-12:
                seen.add(f)
    return sorted(seen)


def enumerate_orbit_levels(tp: TwistProfile, action_bound: float,
                           denom_cap: int = 8) -> list[OrbitLevel]:
    """All primitive closed-orbit levels with g = 2*pi*a/b, b <= denom_cap,
    and period m*h_k <= action_bound, sorted by action.

    Each level is found by bracketed root finding of g - 2*pi*a/b on a
    1000-point scan of the twist domain; s = 0 is excluded (zero
    section).  The principal level (a = 0) is the twist's zero p0.
    """
    if action_bound <= 0:
        raise OrbitError("action bound must be positive")
    if denom_cap < 1:
        raise OrbitError("denominator cap must be >= 1")
    scan = np.linspace(1e-9, tp.s_max, 1001)
    gvals = tp.g(scan)
    glo, ghi = float(gvals.min()), float(gvals.max())
    levels = []
    two_pi = 2.0 * math.pi
    for f in _farey_targets(denom_cap, glo / two_pi, ghi / two_pi):
        tau = two_pi * float(f)
        diffs = gvals - tau
        idx = np.nonzero(np.diff(np.sign(diffs)) != 0)[0]
        for j in idx:
            a, b = scan[j], scan[j + 1]
            s_root = tp.p0 if f == 0 else optimize.brentq(
                lambda s: tp.g(s) - tau, a, b, xtol=ROOT_XTOL)
            m = f.denominator if f != 0 else 1
            per = m * tp.hk(s_root)
            if per > action_bound:
                continue
            lvl = OrbitLevel(p_level=float(s_root), g_value=tp.g(s_root),
                             m=m, i=m, period=per,
                             is_principal=(f == 0), target=f)
            lvl.validate()
            levels.append(lvl)
    levels.sort(key=lambda L: (L.action, L.p_level))
    return levels


@dataclass(frozen=True)
class OrbitSpaceReport:
    n: int
    betti: dict
    degenerate: bool = False


def orbit_space_homology(n: int) -> OrbitSpaceReport:
    """Rational Betti ranks of the unit cotangent bundle ST*S^{n-1}.

    Odd n: ranks 1 in degrees 0 and 2n-3.  Even n: ranks 1 in degrees
    0, n-2, n-1 and 2n-3.  n = 2 (a disjoint pair of circles) falls
    outside these formulas and is flagged.
    """
    if n < 2:
        raise OrbitError("need n >= 2")
    if n == 2:
        return OrbitSpaceReport(n=2, betti={0: 2, 1: 2}, degenerate=True)
    if n % 2 == 1:
        betti = {0: 1, 2 * n - 3: 1}
    else:
        betti = {0: 1, n - 2: 1, n - 1: 1, 2 * n - 3: 1}
    return OrbitSpaceReport(n=n, betti=betti)


# ----------------------------------------------------------------------
# closure by direct flow integration
# ----------------------------------------------------------------------

def level_radius(bp: BindingProfile, level: OrbitLevel) -> float:
    """Binding radius carrying the level.

    The principal family sits at r0 of the binding profile.  Other
    levels are representable only when the profile has a collar, via
    the collar map r = 1/s.
    """
    if level.is_principal:
        return bp.r0
    r = 1.0 / level.p_level
    if bp.collar is None or not (bp.collar[0] <= r <= bp.collar[1]):
        raise OrbitError(
            f"level s = {level.p_level:.4f} not representable: r = {r:.4f} "
            "outside the profile's collar")
    return r


@dataclass
class ClosureReport:
    r: float
    time: float
    distance: float
    constraint_drift: float
    phi_advance: float


def verify_closure_by_flow(bp: BindingProfile, level: OrbitLevel,
                           r_override: float | None = None) -> ClosureReport:
    """Integrate the Reeb field from a random start on the level for one
    claimed period and report the terminal distance to the start.

    The state is (q, p, phi) at fixed radius (the Reeb field has no dr
    component); (q, p) are renormalized onto the constraint set after
    the integration, and the drift is reported.
    """
    if level.period <= 0:
        raise OrbitError("zero-period request")
    r = level_radius(bp, level) if r_override is None else r_override
    rng = np.random.default_rng(CLOSURE_SEED)
    n = 2
    q0 = rng.standard_normal(n)
    q0 /= np.linalg.norm(q0)
    p0 = rng.standard_normal(n)
    p0 -= (p0 @ q0) * q0
    p0 /= np.linalg.norm(p0)
    phi0 = rng.uniform(0.0, 2.0 * math.pi)

    a = bp.h2.d1(r) / bp.detH(r)
    b = -bp.h1.d1(r) / bp.detH(r)

    def rhs(_t, y):
        q, p = y[:n], y[n:2 * n]
        return np.concatenate([a * p, -a * q, [b]])

    y0 = np.concatenate([q0, p0, [phi0]])
    T = level.action  # alpha(R) = 1, so flow time equals the action
    sol = integrate.solve_ivp(rhs, (0.0, T), y0, rtol=ODE_RTOL, atol=ODE_ATOL)
    if not sol.success:
        raise OrbitError(f"flow integration failed: {sol.message}")
    yT = sol.y[:, -1]
    q, p = yT[:n], yT[n:2 * n]
    drift = max(abs(np.linalg.norm(q) - 1.0), abs(np.linalg.norm(p) - 1.0),
                abs(q @ p))
    # renormalize (projection) before measuring closure
    q /= np.linalg.norm(q)
    p -= (p @ q) * q
    p /= np.linalg.norm(p)
    dphi = yT[2 * n] - phi0
    dist = math.sqrt(float(np.sum((q - q0) ** 2) + np.sum((p - p0) ** 2))
                     + (math.cos(dphi) - 1.0) ** 2 + math.sin(dphi) ** 2)
    return ClosureReport(r=r, time=T, distance=dist, constraint_drift=drift,
                         phi_advance=dphi)

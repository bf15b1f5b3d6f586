"""Winding numbers, actions and annulus energies of level circles in
the binding region.

A level circle is a loop at constant radius whose tangent is decomposed
against the adapted fields:

    d(circle)/dpsi~ = c J dr + d R_alpha + e dt + X_lambda,

with X_lambda tangent to the unit cotangent fibers.  The coefficients
are numbers, not functions of the angle: the plane is
rotation-invariant (its angle is the disk angle, q and p are frozen),
so each of its level circles, the orbit it is asymptotic to and their
covers and reversals have the same tangent at every psi~.  Every
integral over such a circle is 2*pi times the integrand.  The angle
form pulls back to ((h1 c - h1' d)/detH) dpsi~, so that constant is the
winding number around the binding; the contact form pulls back to
d dpsi~, so the action is 2*pi*d.  For an annulus family the energy
splits into the radial pieces

    E1 = int h1' dr ^ lambda,     E2 = int h2' dr ^ dphi,

E2 being 2*pi*(h2(r2) - h2(r1)) for winding-one families and E1
reducing to int (-h1'/h1) (2*pi*h2 - dbar) dr after eliminating cbar
with the winding relation.  The explicit plane has c = h2', d = h2,
e = 0 at every level, so its E1 vanishes identically and the total
disk energy climbs to the asymptotic action 2*pi*h2(r0): any excursion
beyond r0 would add strictly positive energy on top of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .profiles import BindingProfile

__all__ = [
    "EnergyError",
    "LevelCircle",
    "plane_level_circle",
    "orbit_circle",
    "doubled_circle",
    "reversed_circle",
    "winding_number",
    "action",
    "annulus_energies",
    "energy_bound_audit",
]

class EnergyError(ValueError):
    pass


@dataclass
class LevelCircle:
    """A loop at constant radius with tangent coefficients c, d, e."""

    bp: BindingProfile
    r: float
    c: float
    d: float
    e: float = 0.0
    # squared fiber remainder |X_lambda|^2; identically zero in the
    # 3-dimensional reduction and only its nonnegative pairing enters
    # the energy bookkeeping
    x_lambda_sq: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.r <= self.bp.r_max):
            raise EnergyError(f"radius {self.r} outside (0, r_max]")
        if abs(self.bp.detH(self.r)) < 1e-14:
            raise EnergyError(f"detH vanishes at r = {self.r}")

    def cbar(self) -> float:
        return self.c * 2.0 * math.pi

    def dbar(self) -> float:
        return self.d * 2.0 * math.pi

    def fiber_term(self) -> float:
        """Integrated squared fiber remainder; must be nonnegative (it is
        the omitted positive part of the energy density)."""
        if self.x_lambda_sq < 0.0:
            raise EnergyError("fiber remainder cannot be negative")
        return self.x_lambda_sq * 2.0 * math.pi


def plane_level_circle(bp: BindingProfile, r: float) -> LevelCircle:
    """Level circle of the explicit plane at radius r: the angle
    derivative decomposes as h2'(r) J dr + h2(r) R_alpha."""
    return LevelCircle(bp=bp, r=r, c=bp.h2.d1(r), d=bp.h2(r))


def orbit_circle(bp: BindingProfile) -> LevelCircle:
    """The principal closed orbit at r0 parametrized by the disk angle:
    pure Reeb direction with speed h2(r0)."""
    return LevelCircle(bp=bp, r=bp.r0, c=0.0, d=bp.h2(bp.r0))


def doubled_circle(circle: LevelCircle) -> LevelCircle:
    """The double cover: parameter traversed twice, coefficients doubled."""
    return LevelCircle(bp=circle.bp, r=circle.r, c=2.0 * circle.c,
                       d=2.0 * circle.d, e=2.0 * circle.e)


def reversed_circle(circle: LevelCircle) -> LevelCircle:
    return LevelCircle(bp=circle.bp, r=circle.r, c=-circle.c, d=-circle.d,
                       e=-circle.e)


def winding_integrand(circle: LevelCircle) -> float:
    bp, r = circle.bp, circle.r
    return (bp.h1(r) * circle.c - bp.h1.d1(r) * circle.d) / bp.detH(r)


def winding_number(bp: BindingProfile, circle: LevelCircle,
                   tol: float = 1e-9) -> int:
    """(1/2pi) of the angle form over the circle; must be an integer."""
    w = float(winding_integrand(circle))
    if abs(w - round(w)) > tol:
        raise EnergyError(f"winding {w} is not an integer within {tol:.1e}; "
                          "parametrization error")
    return int(round(w))


def action(circle: LevelCircle) -> float:
    """Action of the loop: the integral of the Reeb coefficient."""
    return circle.dbar()


@functools.lru_cache(maxsize=4)
def _leggauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and built
    once per n and process.  leggauss diagonalizes an n x n companion
    matrix (2.1 MB of transient arrays and 50 ms at n = 512); the first
    run in a process pays that, later runs in the same process do not."""
    nodes, wts = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    wts.setflags(write=False)
    return nodes, wts


def gauss_legendre_family(bp: BindingProfile, r1: float, r2: float,
                          n: int):
    """Circles at Gauss-Legendre radii over [r1, r2], the matching
    quadrature weights (scaled to the interval) and the span."""
    nodes, wts = _leggauss(n)
    rg = 0.5 * (r2 - r1) * nodes + 0.5 * (r1 + r2)
    circles = [plane_level_circle(bp, float(r)) for r in rg]
    return circles, 0.5 * (r2 - r1) * wts, (r1, r2)


def annulus_energies(bp: BindingProfile, circles: list[LevelCircle],
                     weights=None, span=None) -> tuple[float, float]:
    """(E1, E2) for a family of circles over the radial span.

    E2 uses the exact winding-one form 2*pi*(h2(r2) - h2(r1)) after
    verifying winding one at every member.  E1 integrates the reduced
    density (-h1'/h1)(2*pi*h2 - dbar), evaluated at each circle, with
    the supplied radial weights (Gauss-Legendre families, whose nodes
    sit strictly inside the span) or composite Simpson on the family's
    own radii.
    """
    if not circles:
        return 0.0, 0.0
    rs = np.array([c.r for c in circles])
    if np.any(np.diff(rs) <= 0.0):
        raise EnergyError("circles must be ordered by increasing radius")
    for c in circles:
        w = winding_number(bp, c)
        if w != 1:
            raise EnergyError(f"annulus formulas assume winding 1; got {w} "
                              f"at r = {c.r}")
    if span is None:
        span = (float(rs[0]), float(rs[-1]))
    if len(circles) == 1 or span[0] == span[1]:
        return 0.0, 0.0
    dens = np.array([(-bp.h1.d1(c.r) / bp.h1(c.r))
                     * (2.0 * math.pi * bp.h2(c.r) - c.dbar())
                     for c in circles])
    if weights is not None:
        if len(weights) != len(circles):
            raise EnergyError("one radial weight per circle required")
        e1 = float(np.dot(weights, dens))
    else:
        from scipy.integrate import simpson
        e1 = float(simpson(dens, x=rs))
    e2 = 2.0 * math.pi * (bp.h2(span[1]) - bp.h2(span[0]))
    return e1, e2


def energy_bound_audit(bp: BindingProfile, circles: list[LevelCircle]) -> dict:
    """Audit the lower energy bound for a plane-like family asymptotic
    to the principal orbit.

    The disk energy through level r is the action of the level circle
    (Stokes), which the audit tracks along the family; the certified
    total is its limit plus twice the unsigned radial energy of any
    excursion beyond r0 (each sheet out and back contributes
    positively).  Radii beyond r0 are flagged as bound-violation
    drivers.  The bound holds when the total is not below it.
    """
    bound = 2.0 * math.pi * bp.h2(bp.r0)
    if not circles:
        return {"total": 0.0, "bound": bound, "excess": 0.0,
                "violating_radii": [], "vacuous": True}
    inside = [c for c in circles if c.r <= bp.r0 + 1e-12]
    beyond = [c for c in circles if c.r > bp.r0 + 1e-12]
    total = action(inside[-1]) if inside else 0.0
    # excursion sheets: unsigned E2 over [r0, max radius], out and back
    excess = 0.0
    if beyond:
        r_top = max(c.r for c in beyond)
        excess = 2.0 * abs(2.0 * math.pi * (bp.h2(r_top) - bp.h2(bp.r0)))
        total += excess
    return {"total": float(total), "bound": float(bound),
            "excess": float(excess),
            "violating_radii": [float(c.r) for c in beyond],
            "vacuous": False}

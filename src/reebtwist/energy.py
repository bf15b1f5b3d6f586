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

import math
from dataclasses import dataclass

import numpy as np

from .config import ReebtwistError
from .numerics import GAUSS10
from .profiles import BindingProfile

__all__ = [
    "EnergyError",
    "LevelCircle",
    "plane_level_circle",
    "orbit_circle",
    "winding_number",
    "action",
    "annulus_energies",
    "energy_bound_audit",
]

# how far the winding density of a circle may sit from an integer
WINDING_TOL = 1e-9


class EnergyError(ReebtwistError):
    pass


def _first(values, flags) -> float:
    """The first of ``values`` (a float or an array) where ``flags``."""
    return float(np.extract(flags, values)[0])


@dataclass
class LevelCircle:
    """A loop at constant radius with tangent coefficients c and d (its
    e and X_lambda parts vanish: the circles here are rotation-invariant
    and have no fiber motion), or a family of them: r, c and d are then
    equal-shape arrays, one entry per member.  Every check holds member
    by member."""

    bp: BindingProfile
    r: float | np.ndarray
    c: float | np.ndarray
    d: float | np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r)
        outside = ~((0.0 < r) & (r <= self.bp.r_max))
        if np.any(outside):
            raise EnergyError(f"radius {_first(self.r, outside)} "
                              "outside (0, r_max]")
        flat = np.abs(self.bp.detH(self.r)) < 1e-14
        if np.any(flat):
            raise EnergyError(f"detH vanishes at r = {_first(self.r, flat)}")

    def dbar(self):
        return self.d * 2.0 * math.pi


def plane_level_circle(bp: BindingProfile, r) -> LevelCircle:
    """Level circle of the explicit plane at radius r, or the family at
    an array of radii: the angle derivative decomposes as
    h2'(r) J dr + h2(r) R_alpha."""
    return LevelCircle(bp=bp, r=r, c=bp.h2.d1(r), d=bp.h2(r))


def orbit_circle(bp: BindingProfile) -> LevelCircle:
    """The principal closed orbit at r0 parametrized by the disk angle:
    pure Reeb direction with speed h2(r0)."""
    return LevelCircle(bp=bp, r=bp.r0, c=0.0, d=bp.h2(bp.r0))


def winding_integrand(circle: LevelCircle):
    bp, r = circle.bp, circle.r
    return (bp.h1(r) * circle.c - bp.h1.d1(r) * circle.d) / bp.detH(r)


def winding_number(bp: BindingProfile, circle: LevelCircle):
    """(1/2pi) of the angle form over the circle; must be an integer
    within WINDING_TOL.  An int for one circle, an int array for a
    family."""
    w = winding_integrand(circle)
    k = np.round(w)
    off = np.abs(w - k) > WINDING_TOL
    if np.any(off):
        raise EnergyError(f"winding {_first(w, off)} is not an integer "
                          f"within {WINDING_TOL:.1e}; parametrization error")
    return k.astype(int) if np.ndim(k) else int(k)


def action(circle: LevelCircle):
    """Action of the loop: the integral of the Reeb coefficient."""
    return circle.dbar()


def gauss_legendre_family(bp: BindingProfile, r1: float, r2: float,
                          panels: int):
    """The family of plane circles at the nodes of the composite
    10-point Gauss-Legendre rule on ``panels`` equal panels of [r1, r2]
    (ascending, strictly inside the span), the matching quadrature
    weights and the span."""
    nodes, wts = GAUSS10
    half = 0.5 * (r2 - r1) / panels
    mids = r1 + (2.0 * np.arange(panels) + 1.0) * half
    rg = (mids[:, None] + half * nodes).reshape(-1)
    return plane_level_circle(bp, rg), np.tile(half * wts, panels), (r1, r2)


def annulus_energies(bp: BindingProfile, circles: LevelCircle, weights,
                     span) -> tuple[float, float]:
    """(E1, E2) for a family of circles over the radial span.

    E2 uses the exact winding-one form 2*pi*(h2(r2) - h2(r1)) after
    verifying winding one at every member.  E1 integrates the reduced
    density (-h1'/h1)(2*pi*h2 - dbar), evaluated at each member, with
    the supplied radial weights, one per member (a Gauss-Legendre
    family's, whose nodes ascend strictly inside the span).  A
    degenerate span has no energy.
    """
    rs = np.reshape(circles.r, -1)
    if len(weights) != rs.size:
        raise EnergyError("one radial weight per circle required")
    if rs.size == 0:
        return 0.0, 0.0
    w = winding_number(bp, circles)
    if np.any(w != 1):
        raise EnergyError(f"annulus formulas assume winding 1; got "
                          f"{int(_first(w, w != 1))} at r = "
                          f"{_first(rs, w != 1)}")
    if span[0] == span[1]:
        return 0.0, 0.0
    if np.any(np.diff(rs) <= 0.0):
        raise EnergyError("circles must be ordered by increasing radius")
    dens = ((-bp.h1.d1(rs) / bp.h1(rs))
            * (2.0 * math.pi * bp.h2(rs) - circles.dbar()))
    e1 = float(np.dot(weights, dens))
    e2 = 2.0 * math.pi * (bp.h2(span[1]) - bp.h2(span[0]))
    return e1, e2


def energy_bound_audit(bp: BindingProfile, circles: LevelCircle) -> dict:
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
    rs = np.reshape(circles.r, -1)
    if rs.size == 0:
        return {"total": 0.0, "bound": bound, "excess": 0.0,
                "violating_radii": [], "vacuous": True}
    beyond = rs > bp.r0 + 1e-12
    inside = np.flatnonzero(~beyond)
    # the action of the last member inside r0, in the family's order
    total = 0.0
    if inside.size:
        total = np.reshape(action(circles), -1)[inside[-1]]
    # excursion sheets: unsigned E2 over [r0, max radius], out and back
    excess = 0.0
    if beyond.any():
        r_top = float(rs[beyond].max())
        excess = 2.0 * abs(2.0 * math.pi * (bp.h2(r_top) - bp.h2(bp.r0)))
        total += excess
    return {"total": float(total), "bound": float(bound),
            "excess": float(excess),
            "violating_radii": rs[beyond].tolist(),
            "vacuous": False}

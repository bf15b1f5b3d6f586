import math
from dataclasses import dataclass

import numpy as np
import pytest

from reebtwist import energy as E
from reebtwist import numerics


# Covers, reversals and the integrated geodesic coefficient of a level
# circle: the energy stage needs none of them, the checks below do.

def _doubled(circle):
    """The double cover: parameter traversed twice, coefficients doubled."""
    return E.LevelCircle(circle.bp, circle.r, c=2.0 * circle.c,
                         d=2.0 * circle.d)


def _reversed(circle):
    return E.LevelCircle(circle.bp, circle.r, c=-circle.c, d=-circle.d)


def _cbar(circle):
    return circle.c * 2.0 * math.pi


def test_plane_circle_integrand_is_one(bp):
    # dphi = h2' J dr + h2 R_alpha, so the winding density is
    # (h1 h2' - h1' h2)/detH = 1 identically
    for r in (0.05, 0.2, bp.r0, 0.7):
        circle = E.plane_level_circle(bp, r)
        vals = E.winding_integrand(circle)
        assert float(np.max(np.abs(vals - 1.0))) <= 1e-9
        assert E.winding_number(bp, circle) == 1


def test_plane_circle_action(bp):
    for r in (0.1, 0.3, 0.62):
        circle = E.plane_level_circle(bp, r)
        assert E.action(circle) == pytest.approx(2 * math.pi * bp.h2(r),
                                                 rel=1e-12)


def test_orbit_linking_and_action(bp):
    gamma0 = E.orbit_circle(bp)
    assert E.winding_number(bp, gamma0) == 1
    assert E.action(gamma0) == pytest.approx(2 * math.pi * bp.h2(bp.r0),
                                             rel=1e-12)


def test_doubled_and_reversed(bp):
    c = E.plane_level_circle(bp, 0.3)
    assert E.winding_number(bp, _doubled(c)) == 2
    assert E.action(_reversed(c)) == pytest.approx(-E.action(c),
                                                           rel=1e-12)


def test_non_integer_winding_rejected(bp):
    r = 0.3
    bad = E.LevelCircle(bp, r, c=0.5 * bp.detH(r) / bp.h1(r), d=0.0)
    with pytest.raises(E.EnergyError, match="integer"):
        E.winding_number(bp, bad)


def test_degenerate_radius_rejected(bp):
    with pytest.raises(E.EnergyError):
        E.plane_level_circle(bp, 0.0)
    with pytest.raises(E.EnergyError):
        E.plane_level_circle(bp, 2 * bp.r_max)


def test_pointwise_winding_relation(bp):
    # (h1 cbar - h1' dbar)/detH = 2 pi at every regular level
    for r in np.linspace(0.05, bp.r_max * 0.99, 25):
        c = E.plane_level_circle(bp, float(r))
        lhs = (bp.h1(c.r) * _cbar(c) - bp.h1.d1(c.r) * c.dbar()) / bp.detH(c.r)
        assert abs(lhs - 2 * math.pi) <= 1e-9


def test_annulus_energies_for_plane_family(bp):
    circles, wts, span = E.gauss_legendre_family(bp, 0.2, 0.4, 10)
    e1, e2 = E.annulus_energies(bp, circles, wts, span)
    assert abs(e1) <= 1e-12
    assert e2 == pytest.approx(2 * math.pi * (bp.h2(0.4) - bp.h2(0.2)),
                               rel=1e-12)
    # consistency of two radial samplings of the span
    fam, wts, span = E.gauss_legendre_family(bp, 0.2, 0.4, 13)
    e1s, e2s = E.annulus_energies(bp, fam, wts, span)
    assert abs(e1s) <= 1e-12
    assert e2s == pytest.approx(e2, rel=1e-12)


def _synthetic_circle(bp, r, eps=0.01):
    # dbar = 2 pi h2 - eps; the geodesic coefficient is solved from the
    # winding relation so winding stays 1
    return E.LevelCircle(
        bp, r,
        c=(2 * math.pi * bp.detH(r) + bp.h1.d1(r)
           * (2 * math.pi * bp.h2(r) - eps)) / (2 * math.pi * bp.h1(r)),
        d=bp.h2(r) - eps / (2 * math.pi))


def test_annulus_synthetic_family_has_positive_e1(bp):
    # dbar = 2 pi h2 - eps with h1' < 0 forces E1 > 0
    circles, wts, span = E.gauss_legendre_family(bp, 0.2, 0.4, 7)
    fam = _synthetic_circle(bp, circles.r)
    assert E.winding_number(bp, fam)[0] == 1
    e1, _ = E.annulus_energies(bp, fam, wts, span)
    assert e1 > 0.0


def test_annulus_degenerate_interval(bp):
    fam, wts, span = E.gauss_legendre_family(bp, 0.3, 0.3, 1)
    assert E.annulus_energies(bp, fam, wts, span) == (0.0, 0.0)


def test_annulus_requires_winding_one(bp):
    circles, wts, span = E.gauss_legendre_family(bp, 0.2, 0.3, 1)
    with pytest.raises(E.EnergyError, match="winding 1"):
        E.annulus_energies(bp, _doubled(circles), wts, span)


def test_e2_nonnegative_below_r0(bp):
    rs = np.linspace(0.02, bp.r0, 40)
    for a, b in zip(rs[:-1], rs[1:]):
        assert bp.h2(float(b)) >= bp.h2(float(a))


def test_energy_bound_audit_equality_for_plane(bp):
    fam = E.plane_level_circle(bp, np.linspace(0.02, bp.r0, 128))
    rep = E.energy_bound_audit(bp, fam)
    assert abs(rep["total"] - rep["bound"]) <= 1e-8
    assert rep["excess"] == 0.0
    assert rep["violating_radii"] == []


def test_energy_bound_audit_flags_excursion(bp):
    fam = E.plane_level_circle(
        bp, np.append(np.linspace(0.02, bp.r0 / 2, 64), bp.r0 + 0.1))
    rep = E.energy_bound_audit(bp, fam)
    assert rep["excess"] > 0.0
    assert rep["violating_radii"] == [pytest.approx(bp.r0 + 0.1)]


def test_energy_bound_audit_empty_family(bp):
    rep = E.energy_bound_audit(bp, E.plane_level_circle(bp, np.array([])))
    assert rep["vacuous"]
    assert rep["total"] == 0.0


def test_omitted_fiber_term_nonnegative_and_zero_for_plane(bp, plane_sol):
    # E1 + E2 plus the omitted fiber term reproduces the full energy;
    # the plane has no fiber motion (its circles carry no X_lambda
    # part), so equality holds on the nose
    from scipy import optimize
    from reebtwist import plane as PL
    r1, r2 = 0.15, 0.45
    circles, wts, span = E.gauss_legendre_family(bp, r1, r2, 13)
    e1, e2 = E.annulus_energies(bp, circles, wts, span)
    rho1 = optimize.brentq(lambda rho: plane_sol.r_of_rho(rho) - r1, 1e-8, 1e8)
    rho2 = optimize.brentq(lambda rho: plane_sol.r_of_rho(rho) - r2, 1e-8, 1e8)
    total = PL.plane_energy(bp, plane_sol, rho_span=(rho1, rho2)).stokes
    assert e1 + e2 <= total + 1e-10
    assert e1 + e2 == pytest.approx(total, abs=1e-9)


# ----------------------------------------------------------------------
# the per-circle forms the array families replace, kept as the oracle
# ----------------------------------------------------------------------

@dataclass
class _Circle:
    """One level circle with float coefficients, checked on creation."""

    bp: object
    r: float
    c: float
    d: float

    def __post_init__(self):
        if not (0.0 < self.r <= self.bp.r_max):
            raise E.EnergyError(f"radius {self.r} outside (0, r_max]")
        if abs(self.bp.detH(self.r)) < 1e-14:
            raise E.EnergyError(f"detH vanishes at r = {self.r}")

    def dbar(self) -> float:
        return self.d * 2.0 * math.pi


def _plane_circles(bp, rs):
    return [_Circle(bp, float(r), c=bp.h2.d1(float(r)), d=bp.h2(float(r)))
            for r in rs]


def _unstack(fam):
    """The members of a family as float circles, in order."""
    return [_Circle(fam.bp, float(r), float(c), float(d))
            for r, c, d in zip(*np.broadcast_arrays(fam.r, fam.c, fam.d))]


def _winding_oracle(bp, circle, tol=1e-9) -> int:
    r = circle.r
    w = float((bp.h1(r) * circle.c - bp.h1.d1(r) * circle.d) / bp.detH(r))
    if abs(w - round(w)) > tol:
        raise E.EnergyError(f"winding {w} is not an integer within "
                            f"{tol:.1e}; parametrization error")
    return int(round(w))


def _annulus_oracle(bp, circles, weights, span):
    if not circles:
        return 0.0, 0.0
    for c in circles:
        w = _winding_oracle(bp, c)
        if w != 1:
            raise E.EnergyError(f"annulus formulas assume winding 1; got {w} "
                                f"at r = {c.r}")
    if span[0] == span[1]:
        return 0.0, 0.0
    rs = np.array([c.r for c in circles])
    if np.any(np.diff(rs) <= 0.0):
        raise E.EnergyError("circles must be ordered by increasing radius")
    dens = np.array([(-bp.h1.d1(c.r) / bp.h1(c.r))
                     * (2.0 * math.pi * bp.h2(c.r) - c.dbar())
                     for c in circles])
    return (float(np.dot(weights, dens)),
            2.0 * math.pi * (bp.h2(span[1]) - bp.h2(span[0])))


def _audit_oracle(bp, circles) -> dict:
    bound = 2.0 * math.pi * bp.h2(bp.r0)
    if not circles:
        return {"total": 0.0, "bound": bound, "excess": 0.0,
                "violating_radii": [], "vacuous": True}
    inside = [c for c in circles if c.r <= bp.r0 + 1e-12]
    beyond = [c for c in circles if c.r > bp.r0 + 1e-12]
    total = inside[-1].dbar() if inside else 0.0
    excess = 0.0
    if beyond:
        r_top = max(c.r for c in beyond)
        excess = 2.0 * abs(2.0 * math.pi * (bp.h2(r_top) - bp.h2(bp.r0)))
        total += excess
    return {"total": float(total), "bound": float(bound),
            "excess": float(excess),
            "violating_radii": [float(c.r) for c in beyond],
            "vacuous": False}


@pytest.mark.parametrize("which", ["default", "matched"])
def test_families_match_per_circle_oracle(which, bp, matched):
    # the energy stage's two families, bit for bit, on the default and
    # the collar-matched profile, and a synthetic family whose E1
    # density is nonzero
    prof = bp if which == "default" else matched
    circles, wts, span = E.gauss_legendre_family(
        prof, 0.1 * prof.r0, 0.999 * prof.r0, 52)
    assert isinstance(circles, E.LevelCircle) and circles.r.shape == (520,)
    ref = _plane_circles(prof, circles.r)
    assert E.annulus_energies(prof, circles, wts, span) == \
        _annulus_oracle(prof, ref, wts, span)
    for rs in (np.linspace(0.02, prof.r0, 512),
               np.append(np.linspace(0.02, prof.r0 / 2, 64), prof.r0 + 0.1)):
        fam = E.plane_level_circle(prof, rs)
        assert E.energy_bound_audit(prof, fam) == \
            _audit_oracle(prof, _plane_circles(prof, rs))
    circles, wts, span = E.gauss_legendre_family(
        prof, 0.3 * prof.r0, 0.6 * prof.r0, 7)
    fam = _synthetic_circle(prof, circles.r)
    assert np.array_equal(E.winding_number(prof, fam), np.ones(70, int))
    e1 = E.annulus_energies(prof, fam, wts, span)
    assert e1 == _annulus_oracle(prof, _unstack(fam), wts, span)
    assert e1[0] != 0.0


def _raised(fn, *args) -> str:
    with pytest.raises(E.EnergyError) as err:
        fn(*args)
    return str(err.value)


def test_family_errors_match_per_circle_oracle(bp):
    # every per-member check still raises, naming the first member that
    # fails it, with the per-circle message
    rs = np.array([0.2, 0.3, 0.0, 2 * bp.r_max])
    msg = _raised(E.plane_level_circle, bp, rs)
    assert msg == _raised(_plane_circles, bp, rs) == \
        "radius 0.0 outside (0, r_max]"
    assert _raised(E.plane_level_circle, bp, rs[[0, 3]]) == \
        f"radius {2 * bp.r_max} outside (0, r_max]"
    # a non-integer winding at the second member
    rs = np.array([0.2, 0.3, 0.4])
    c = bp.h2.d1(rs)
    c[1] = 0.5 * bp.detH(0.3) / bp.h1(0.3)
    bad = E.LevelCircle(bp, rs, c=c, d=bp.h2(rs) * np.array([1.0, 0.0, 1.0]))
    rule = np.full(3, 0.1), (0.15, 0.45)
    msg = _raised(E.winding_number, bp, bad)
    assert msg == _raised(_annulus_oracle, bp, _unstack(bad), *rule)
    assert msg == _raised(E.annulus_energies, bp, bad, *rule)
    assert "integer" in msg
    # winding 2, unordered radii and a weight count off the family's
    fam = _doubled(E.plane_level_circle(bp, rs))
    msg = _raised(E.annulus_energies, bp, fam, *rule)
    assert msg == _raised(_annulus_oracle, bp, _unstack(fam), *rule) == \
        "annulus formulas assume winding 1; got 2 at r = 0.2"
    fam = E.plane_level_circle(bp, rs[::-1])
    msg = _raised(E.annulus_energies, bp, fam, *rule)
    assert msg == _raised(_annulus_oracle, bp, _unstack(fam), *rule) == \
        "circles must be ordered by increasing radius"
    assert _raised(E.annulus_energies, bp, fam, np.full(2, 0.1), rule[1]) \
        == "one radial weight per circle required"
    # one circle keeps float fields and an int winding
    one = E.plane_level_circle(bp, 0.3)
    assert isinstance(one.c, float) and type(E.winding_number(bp, one)) is int


# ----------------------------------------------------------------------
# the composite Gauss-Legendre rule of the energy stage
# ----------------------------------------------------------------------

def test_gauss10_matches_numpy_rule():
    nodes, wts = numerics.GAUSS10
    ref_nodes, ref_wts = np.polynomial.legendre.leggauss(10)
    np.testing.assert_array_equal(nodes, ref_nodes)
    np.testing.assert_allclose(wts, ref_wts, rtol=0.0, atol=2e-16)


@pytest.mark.parametrize("panels", [1, 3, 52])
def test_gauss_family_is_exact_to_degree_19_on_each_panel(bp, panels):
    # each panel's ten nodes and weights integrate every polynomial of
    # degree <= 19 in (r - mid)/half, the panel's own coordinate
    r1, r2 = 0.1 * bp.r0, 0.999 * bp.r0
    circles, wts, _span = E.gauss_legendre_family(bp, r1, r2, panels)
    edges = np.linspace(r1, r2, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (r2 - r1) / panels
    u = (circles.r.reshape(panels, 10) - mids) / half
    w = wts.reshape(panels, 10)
    for deg in range(20):
        exact = half * (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
        np.testing.assert_allclose((w * u ** deg).sum(axis=1), exact,
                                   rtol=0.0, atol=1e-13 * half, err_msg=deg)


@pytest.mark.parametrize("r1, r2, panels", [
    (0.2, 0.4, 1), (0.2, 0.4, 13), (0.05, 0.6, 52)])
def test_gauss_family_ascends_inside_span(bp, r1, r2, panels):
    circles, wts, span = E.gauss_legendre_family(bp, r1, r2, panels)
    assert span == (r1, r2) and circles.r.shape == wts.shape == (10 * panels,)
    assert r1 < circles.r[0] and circles.r[-1] < r2
    assert np.all(np.diff(circles.r) > 0.0) and np.all(wts > 0.0)
    assert math.fsum(wts) == pytest.approx(r2 - r1, rel=1e-14, abs=0.0)

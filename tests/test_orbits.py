import csv
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from conftest import COLLAR_CONFIG, MODES_CONFIG

from reebtwist import cli
from reebtwist import orbits as O
from reebtwist import profiles as P
from reebtwist.config import parse_config


def test_principal_level(tp):
    pl = O.find_principal_level(tp)
    assert pl.p_level == tp.p0
    assert abs(pl.g_value) <= 1e-12
    assert pl.m == 1 and pl.i == 1 and pl.is_principal
    assert pl.period == pytest.approx(tp.hk(tp.p0), rel=1e-14)
    assert pl.action == pl.period


@pytest.mark.parametrize("text", ["", MODES_CONFIG, COLLAR_CONFIG],
                         ids=["default", "modes", "collar"])
def test_orbit_table_writes_the_run_principal_level(tmp_path, text):
    # orbits.csv's principal row carries the level the degree table and
    # the principal action use: the twist's zero p0, not a second solve
    model = cli.Model(parse_config(text))
    orbits = cli.stage_orbits(model, tmp_path)
    cli.stage_index(model, tmp_path)

    def rows(name):
        with open(tmp_path / name, newline="") as fh:
            return list(csv.DictReader(fh))

    principal = [r for r in rows("orbits.csv") if r["is_principal"] == "true"]
    assert len(principal) == 1
    levels = {r["p_level"] for r in rows("degree_table.csv")}
    assert levels == {principal[0]["p_level"]}
    assert float(principal[0]["p_level"]) == model.tp.p0
    assert float(principal[0]["period"]) == orbits["principal_action"]


def test_right_twist_has_no_principal_level():
    tpp = P.build_twist_profile(k=1, eps=0.1, p_plateau=0.5)
    with pytest.raises(O.OrbitError, match="no principal level"):
        O.find_principal_level(tpp)


def test_principal_action_ties_to_binding_peak(tp, bp):
    pl = O.find_principal_level(tp)
    assert abs(pl.action - 2.0 * math.pi * bp.h2(bp.r0)) <= 1e-9


def test_enumeration_denominator_one(tp):
    # only the principal target 0 is reachable: the range of g is
    # (-pi, eps*s_max], which contains no other multiple of 2*pi
    pl = O.find_principal_level(tp)
    levels = O.enumerate_orbit_levels(tp, action_bound=100.0, denom_cap=1)
    assert len(levels) == 1
    assert levels[0].is_principal
    assert levels[0].p_level == pytest.approx(pl.p_level, abs=1e-12)


def test_enumeration_below_min_period_is_empty(tp):
    assert O.enumerate_orbit_levels(tp, action_bound=1e-3, denom_cap=8) == []


def test_enumeration_matches_dense_scan(tp):
    # independent oracle: count sign changes of g - tau on a fine grid
    levels = O.enumerate_orbit_levels(tp, action_bound=1e6, denom_cap=8)
    ss = np.linspace(1e-9, tp.s_max, 200_001)
    gs = np.array([tp.g(s) for s in ss])
    targets = {L.target for L in levels}
    for f in sorted(targets):
        tau = 2.0 * math.pi * float(f)
        n_scan = int(np.sum(np.diff(np.sign(gs - tau)) != 0))
        n_enum = sum(1 for L in levels if L.target == f)
        assert n_enum == n_scan == 1
    # every enumerated level satisfies the closure arithmetic
    for L in levels:
        assert abs(L.m * L.g_value / (2 * math.pi)
                   - round(L.m * L.g_value / (2 * math.pi))) <= 1e-9
        assert (L.m == 1) == L.is_principal or L.m == L.target.denominator


def test_principal_has_lowest_action(tp):
    pl = O.find_principal_level(tp)
    levels = O.enumerate_orbit_levels(tp, action_bound=3 * pl.action,
                                      denom_cap=8)
    assert levels[0].is_principal
    assert all(L.action >= pl.action for L in levels)


def test_actions_monotone_per_multiplicity(tp):
    levels = O.enumerate_orbit_levels(tp, action_bound=1e6, denom_cap=8)
    by_m = {}
    for L in levels:
        by_m.setdefault(L.m, []).append(L)
    for m, group in by_m.items():
        group.sort(key=lambda L: L.p_level)
        acts = [L.action for L in group]
        assert all(a < b for a, b in zip(acts, acts[1:]))


@pytest.mark.parametrize("n,expected", [
    (3, {0: 1, 3: 1}),
    (4, {0: 1, 2: 1, 3: 1, 5: 1}),
    (5, {0: 1, 7: 1}),
    (6, {0: 1, 4: 1, 5: 1, 9: 1}),
    (7, {0: 1, 11: 1}),
    (8, {0: 1, 6: 1, 7: 1, 13: 1}),
])
def test_orbit_space_homology_tables(n, expected):
    rep = O.orbit_space_homology(n)
    assert rep.betti == expected
    assert not rep.degenerate


def test_orbit_space_homology_n2_flagged():
    rep = O.orbit_space_homology(2)
    assert rep.degenerate


def test_closure_by_flow_principal(tp, bp):
    pl = O.find_principal_level(tp)
    rep = O.verify_closure_by_flow(bp, pl)
    assert rep.distance <= 1e-8
    assert abs(rep.phi_advance - 2.0 * math.pi) <= 1e-9


@pytest.mark.parametrize("dr", [0.0, 1e-3], ids=["r0", "r0+1e-3"])
@pytest.mark.parametrize("text", ["", MODES_CONFIG, COLLAR_CONFIG],
                         ids=["default", "modes", "collar"])
def test_closure_in_closed_form_matches_scipy_dop853(text, dr):
    # scipy's DOP853 integrates the Reeb field at fixed radius,
    # q' = a p, p' = -a q, phi' = b, from a random start on the level for
    # one period: the distance of its end point from the start and its
    # phi advance equal the closed form's
    model = cli.Model(parse_config(text))
    bp, level = model.bp, O.find_principal_level(model.tp)
    r = bp.r0 + dr
    rep = O.verify_closure_by_flow(bp, level, r_override=r if dr else None)
    assert rep.r == r
    a = bp.h2.d1(r) / bp.detH(r)
    b = -bp.h1.d1(r) / bp.detH(r)
    rng = np.random.default_rng(7)
    q0 = rng.standard_normal(2)
    q0 /= np.linalg.norm(q0)
    p0 = rng.standard_normal(2)
    p0 -= (p0 @ q0) * q0
    p0 /= np.linalg.norm(p0)
    phi0 = rng.uniform(0.0, 2.0 * math.pi)

    def rhs(_t, y):
        return [a * y[2], a * y[3], -a * y[0], -a * y[1], b]

    out = sp_integrate.solve_ivp(rhs, (0.0, level.action),
                                 [*q0, *p0, phi0], method="DOP853",
                                 rtol=1e-12, atol=1e-14)
    assert out.success
    q, p, dphi = out.y[:2, -1], out.y[2:4, -1], out.y[4, -1] - phi0
    dist = math.sqrt(np.sum((q - q0) ** 2) + np.sum((p - p0) ** 2)
                     + (math.cos(dphi) - 1.0) ** 2 + math.sin(dphi) ** 2)
    assert abs(dist - rep.distance) <= 1e-12
    assert abs(dphi - rep.phi_advance) <= 1e-12


def test_closure_fails_on_perturbed_level(tp, bp):
    pl = O.find_principal_level(tp)
    rep = O.verify_closure_by_flow(bp, pl, r_override=bp.r0 + 1e-3)
    assert rep.distance > 1e-4


def test_zero_period_rejected(tp, bp):
    bad = O.OrbitLevel(p_level=tp.p0, g_value=0.0, m=1, i=1, period=0.0,
                       is_principal=True, target=Fraction(0))
    with pytest.raises(O.OrbitError, match="zero-period"):
        O.verify_closure_by_flow(bp, bad)


def test_nonprincipal_level_needs_collar(tp, bp, matched):
    levels = O.enumerate_orbit_levels(tp, action_bound=1e6, denom_cap=3)
    other = next(L for L in levels if not L.is_principal)
    with pytest.raises(O.OrbitError, match="collar"):
        O.level_radius(bp, other)
    # on the matched profile the collar carries it when 1/s lands inside
    r = 1.0 / other.p_level
    if matched.collar[0] <= r <= matched.collar[1]:
        assert O.level_radius(matched, other) == pytest.approx(r)


@pytest.mark.parametrize("text", [
    "", "[twist]\nk = -2\nshape = cos\n",
    "[twist]\nk = -3\np_plateau = 0.9\nshape = cos2\n"],
    ids=["default", "modes", "collar"])
def test_level_scan_matches_point_loop(text):
    # the 1001-point array scan of g against g one float at a time: equal
    # to an ulp of the scale, with the same brackets for every target
    cfg = parse_config(text)
    tp = P.build_twist_profile(cfg.k, cfg.eps, cfg.p_plateau, cfg.twist_shape)
    scan = np.linspace(1e-9, tp.s_max, 1001)
    got = tp.g(scan)
    ref = np.array([tp.g(float(s)) for s in scan])
    assert np.max(np.abs(got - ref)) <= np.finfo(float).eps * np.max(np.abs(ref))
    for f in O._farey_targets(8, got.min() / (2 * math.pi),
                              got.max() / (2 * math.pi)):
        tau = 2.0 * math.pi * float(f)
        assert np.array_equal(np.diff(np.sign(got - tau)) != 0,
                              np.diff(np.sign(ref - tau)) != 0)

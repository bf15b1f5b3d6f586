import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from conftest import COLLAR_CONFIG, MODES_CONFIG

from reebtwist import profiles as P
from reebtwist.cli import Model
from reebtwist.config import RunConfig, parse_config


def test_g_at_zero_is_k_pi(tp):
    assert abs(tp.g(0.0) - (-math.pi)) <= 1e-12
    tpp = P.build_twist_profile(k=1, eps=0.1, p_plateau=0.5)
    assert abs(tpp.g(0.0) - math.pi) <= 1e-12


def test_left_twist_has_unique_polished_zero(tp):
    assert tp.p0 is not None
    assert 0.0 < tp.p0 < tp.p_plateau + 1e-6
    assert abs(tp.g(tp.p0)) <= 1e-12
    assert tp.g.d1(tp.p0) > 0.0
    # exactly one sign change on a dense grid
    vals = np.array([tp.g(s) for s in np.linspace(1e-9, tp.s_max, 4001)])
    assert int(np.sum(np.diff(np.sign(vals)) != 0)) == 1


def test_right_twist_has_no_zero():
    tpp = P.build_twist_profile(k=1, eps=0.1, p_plateau=0.5)
    assert tpp.p0 is None
    vals = [tpp.g(s) for s in np.linspace(0.0, 1.0, 2001)]
    assert min(vals) > 0.0


def test_degenerate_and_invalid_inputs_rejected():
    with pytest.raises(P.ProfileError):
        P.build_twist_profile(k=-1, eps=0.0, p_plateau=0.5)
    with pytest.raises(P.ProfileError):
        P.build_twist_profile(k=0, eps=0.1, p_plateau=0.5)
    with pytest.raises(P.ProfileError):
        P.build_twist_profile(k=-1, eps=0.1, p_plateau=1.5)


def test_non_monotone_ramp_rejected(monkeypatch):
    def bad_ramp():
        c, c1, c2, Cint = P.TWIST_SHAPES["cos2"]()
        return (lambda x: c(x) + 0.1 * np.sin(2 * math.pi * x),
                lambda x: c1(x) + 0.2 * math.pi * np.cos(2 * math.pi * x),
                c2, Cint)

    monkeypatch.setitem(P.TWIST_SHAPES, "bad", bad_ramp)
    with pytest.raises(P.ProfileError, match="monotone"):
        P.build_twist_profile(k=-1, eps=0.1, p_plateau=0.5, shape="bad")


def test_hk_primitive_identities(tp):
    assert abs(tp.hk(0.0) - 1.0) <= 1e-15
    ss = np.linspace(0.0, 1.0, 201)
    assert min(tp.hk(s) for s in ss) > 0.0
    # hk'(s) = s g'(s): differentiate the defining integral
    for s in np.linspace(0.01, 0.99, 37):
        fd = (tp.hk(s + 1e-6) - tp.hk(s - 1e-6)) / 2e-6
        assert abs(fd - s * tp.g.d1(s)) <= 1e-8 * max(1.0, abs(s * tp.g.d1(s)))


@pytest.mark.parametrize("s", [0.1, 0.3, 0.5983, 0.75, 0.9, 1.0])
def test_primitives_match_quadrature_oracle(tp, s):
    assert abs(tp.hk(s) - tp.hk_by_quadrature(s)) <= 1e-10
    assert abs(tp.htilde(s) - tp.htilde_by_quadrature(s)) <= 1e-10


def test_derivative_fd_self_consistency(tp, bp):
    rng = np.random.default_rng(0)
    for prof in (tp.g, tp.hk, tp.htilde, bp.h1, bp.h2):
        assert prof.check_derivative_consistency(rng=rng) <= 1e-6


# the quintic Hermite basis on u in [0, 1], one row per datum (v0,
# h d0, h^2 s0, v1, h d1, h^2 s1): monomial coefficients in u, lowest
# degree first
HERMITE_BASIS = [
    [1, 0, 0, -10, 15, -6],
    [0, 1, 0, -6, 8, -3],
    [0, 0, Fraction(1, 2), Fraction(-3, 2), Fraction(3, 2), Fraction(-1, 2)],
    [0, 0, 0, 10, -15, 6],
    [0, 0, 0, -4, 7, -3],
    [0, 0, 0, Fraction(1, 2), -1, Fraction(1, 2)],
]


def _derivative(coef, u, k):
    """The k-th derivative at u of the polynomial with coefficients
    ``coef`` (lowest degree first), in the arithmetic of its arguments."""
    return sum((c * math.perm(j, k) * u ** (j - k)
                for j, c in enumerate(coef) if j >= k), Fraction(0))


def test_quintic_hermite_matches_exact_hermite_data():
    # 200 random pieces on both sides of the origin, half of them running
    # from right to left, against the Hermite basis in exact rationals.
    # The reference is the interpolant of the data on [x0, x0 + h], h the
    # float width x1 - x0 the closures divide by, at the step fraction
    # u = (x - x0)/h they compute: what is left is the rounding of the
    # coefficients and of Horner's rule.  At both ends and at five
    # interior points, value, d1 and d2 miss by at most 8 unit roundoffs
    # (2^-53) of Horner's error scale, the same polynomial with
    # |coefficients| at |u| (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2002, 5.1).  They read at most 1.3, 1.8 and 3.7 here,
    # and 7.7 over 4,000 pieces drawn alike.  At x0 all three are the
    # data exactly.  An array gives the floats' values bit for bit.
    rng = np.random.default_rng(15)
    for _ in range(200):
        x0 = float(rng.uniform(-2.0, 2.0))
        x1 = x0 + float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0))
        data = rng.uniform(-3.0, 3.0, 6).tolist()
        closures = P._quintic_hermite(x0, x1, *data)
        assert [f(x0) for f in closures] == data[:3]
        h = Fraction(x1 - x0)
        scaled = [Fraction(v) * h ** p
                  for v, p in zip(data, (0, 1, 2, 0, 1, 2))]
        coef = [sum(d * row[j] for d, row in zip(scaled, HERMITE_BASIS))
                for j in range(6)]
        xs = [x0, x1, *(x0 + (x1 - x0) * rng.uniform(0.0, 1.0, 5))]
        for k, f in enumerate(closures):
            for x in xs:
                u = Fraction((x - x0) / (x1 - x0))
                ref = _derivative(coef, u, k) / h ** k
                scale = (_derivative([abs(c) for c in coef], abs(u), k)
                         / abs(h) ** k)
                assert abs(Fraction(f(x)) - ref) <= 8 * 2.0 ** -53 * scale
            assert np.array_equal(f(np.array(xs)), [f(x) for x in xs])


def test_horner_matches_polyval():
    # the Horner closures against numpy's polyval on the same
    # coefficients, of the quintic and of its two derivatives: equal bit
    # for bit, for floats and for arrays
    rng = np.random.default_rng(16)
    xs = rng.uniform(-1.5, 1.5, 2000)
    for n in (6, 5, 4) * 3:
        coef = rng.uniform(-3.0, 3.0, n)
        p = P._horner(coef)
        assert all(p(x) == polyval(x, coef) for x in xs.tolist())
        assert np.array_equal(p(xs), polyval(xs, coef))


@pytest.mark.parametrize("text", ["", MODES_CONFIG], ids=["default", "modes"])
def test_fig2_peak_is_exact(text):
    # the rise is anchored at r0: the peak carries the action of the
    # principal twist level and h2' vanishes there, both exactly, on a
    # float and on an array
    model = Model(parse_config(text))
    tp, bp = model.tp, model.bp
    assert bp.h2(bp.r0) == tp.hk(tp.p0) / P.PHI_PERIOD_SCALE
    assert bp.h2.d1(bp.r0) == 0.0
    assert bp.h2.d2(bp.r0) == -model.cfg.kappa
    r0 = np.array([bp.r0])
    assert bp.h2(r0)[0] == bp.h2(bp.r0) and bp.h2.d1(r0)[0] == 0.0


def test_quadratic_core_oracle():
    # hand-differentiated: h1 = 1 - r^2, h2 = r^2 gives detH = 2r exactly
    h1 = P.SmoothProfile(0.0, 1.0, lambda r: 1 - r * r, lambda r: -2 * r,
                         lambda r: -2.0)
    h2 = P.SmoothProfile(0.0, 1.0, lambda r: r * r, lambda r: 2 * r,
                         lambda r: 2.0)
    for r in np.linspace(0.01, 0.99, 99):
        det = h1(r) * h2.d1(r) - h2(r) * h1.d1(r)
        assert abs(det - 2.0 * r) <= 1e-15
        assert abs(det / r - 2.0) <= 1e-13


def test_proportional_profiles_rejected():
    f = P.SmoothProfile(0.0, 1.0, lambda r: 1 + r * r, lambda r: 2 * r,
                        lambda r: 2.0)
    with pytest.raises(P.ProfileError, match="contact condition"):
        P.build_binding_profile(0.5, 1.0, {"name": "custom", "h1": f, "h2": f})


def test_default_contact_bound(bp):
    mn, _at = bp.min_detH_over_r()
    assert mn >= 0.5


def test_default_shape_invariants(tp, bp):
    # exact core values
    for r in np.linspace(0.0, bp.core_end, 20):
        assert abs(bp.h1(r) - (1 - r * r)) <= 1e-15
        assert abs(bp.h2(r) - r * r) <= 1e-15
    assert abs(bp.h2.d1(bp.r0)) <= 1e-12
    rs = np.linspace(1e-4, bp.r_max, 3000)
    assert max(bp.h2(r) for r in rs) <= bp.h2(bp.r0) + 1e-12
    assert min(abs(bp.h1(r)) for r in rs) > 0.0
    # the peak carries the principal action
    assert abs(2 * math.pi * bp.h2(bp.r0) - tp.hk(tp.p0)) <= 1e-12


def test_root_stability_under_shape_perturbation(tp):
    # tp is the twist of the default config
    cfg = RunConfig()
    tp2 = P.build_twist_profile(k=-1, eps=cfg.eps + 1e-6,
                                p_plateau=cfg.p_plateau, shape=cfg.twist_shape)
    assert abs(tp2.p0 - tp.p0) <= 1e-4
    tp3 = P.build_twist_profile(k=-1, eps=cfg.eps,
                                p_plateau=cfg.p_plateau + 1e-6,
                                shape=cfg.twist_shape)
    assert abs(tp3.p0 - tp.p0) <= 1e-4


def test_pullback_on_matched_collar(tp, matched):
    rep = P.pullback_consistency_check(tp, matched, matched.collar)
    assert rep.max_mismatch <= 1e-8
    assert rep.phi_period_scale == pytest.approx(2 * math.pi)


def test_pullback_off_collar_reports_failure(tp, matched):
    rep = P.pullback_consistency_check(tp, matched, (1.0, 1.2))
    assert rep.max_mismatch > 1e-3
    assert 1.0 <= rep.worst_radius <= 1.2


def test_pullback_single_point_collar(tp, matched):
    r = matched.collar[0] + 0.1
    rep = P.pullback_consistency_check(tp, matched, (r, r))
    assert rep.n_samples == 1


def test_matched_profile_structure(tp, matched):
    assert abs(matched.r0 - 1.0 / tp.p0) <= 1e-12
    assert abs(matched.h2.d1(matched.r0)) <= 1e-12
    mn, _ = matched.min_detH_over_r()
    assert mn > 0.0
    # collar formulas hold exactly
    r = 0.5 * (matched.collar[0] + matched.collar[1])
    assert matched.h1(r) == pytest.approx(1.0 / r, abs=1e-14)
    assert matched.h2(r) == pytest.approx(
        tp.htilde(1.0 / r) / (2 * math.pi), abs=1e-14)


def test_dump_tables(tp, bp):
    h, rows = P.twist_table(tp, n=16)
    assert h == ["x", "g", "g_prime", "h_k", "h_tilde_k"]
    assert len(rows) == 16
    h, rows = P.binding_table(bp, n=16)
    assert h == ["r", "h1", "h1_prime", "h2", "h2_prime", "detH"]
    assert all(np.isfinite(rows[-1]))


@pytest.mark.parametrize("text", ["", COLLAR_CONFIG], ids=["fig2", "collar"])
def test_array_profiles_match_scalar_path(text):
    # the searchsorted dispatch of an array against the per-float edge
    # scan, on random radii plus every piece edge exactly (h1, h2) and on
    # random levels plus the plateau point (the twist closures the collar
    # pieces go through).  Both take numpy's cos, sin, tanh and cosh, but
    # x ** n is libm's pow on a float and numpy's power loop on an array,
    # which may differ in the last bit, so values agree to an ulp of the
    # function's scale.
    model = Model(parse_config(text))
    tp, bp = model.tp, model.bp
    assert (bp.collar is not None) == bool(text)
    rng = np.random.default_rng(16)
    edges = [0.0, bp.core_end, bp.r0, bp.r_max] + list(bp.h2.breaks)
    rs = np.concatenate([rng.uniform(0.0, bp.r_max, 2000), edges])
    ss = np.concatenate([rng.uniform(0.0, tp.s_max, 2000),
                         [0.0, tp.p_plateau, tp.p0, tp.s_max]])
    for prof, xs in ((bp.h1, rs), (bp.h2, rs), (tp.g, ss), (tp.hk, ss),
                     (tp.htilde, ss)):
        for fn in (prof.value, prof.d1, prof.d2):
            got = fn(xs)
            assert isinstance(got, np.ndarray) and got.shape == xs.shape
            ref = np.array([fn(float(x)) for x in xs])
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) <= 2.0 * np.finfo(float).eps * scale
    assert isinstance(bp.h2.d2(float(bp.r0)), float)


@pytest.mark.parametrize("text", ["", COLLAR_CONFIG], ids=["fig2", "collar"])
def test_min_detH_over_r_matches_point_loop(text):
    # the array grid minimum against detH/r taken one float at a time,
    # for the configured profile and the matched one
    model = Model(parse_config(text))
    for bp in (model.bp, model.bp_matched):
        mn, at = bp.min_detH_over_r()
        rs = np.linspace(bp.r_max / 10_000, bp.r_max, 10_000)
        ref = np.array([bp.detH_over_r(float(r)) for r in rs])
        i = int(np.argmin(ref))
        assert at == rs[i]
        assert abs(mn - ref[i]) <= np.finfo(float).eps * abs(ref[i])


MATCHED_CASES = [("", "bp"), ("", "bp_matched"), (COLLAR_CONFIG, "bp"),
                 (COLLAR_CONFIG, "bp_matched")]
MATCHED_IDS = ["fig2", "fig2-matched", "collar", "collar-matched"]


def _fd_point_loop(prof, rng, n=200, h=1e-5):
    """The per-point loop that check_derivative_consistency replaced."""
    span = prof.hi - prof.lo
    pts = prof.lo + (0.02 + 0.96 * rng.random(n)) * span
    worst = 0.0
    scale = max(abs(prof.d1(x)) for x in np.linspace(prof.lo + 0.01 * span,
                                                     prof.hi - 0.01 * span, 101))
    scale = max(scale, 1e-12)
    for x in pts:
        if any(abs(x - b) < 4 * h for b in prof.breaks):
            continue
        if x - h < prof.lo or x + h > prof.hi:
            continue
        fd = (prof.value(x + h) - prof.value(x - h)) / (2 * h)
        worst = max(worst, abs(fd - prof.d1(x)) / max(abs(prof.d1(x)), scale))
    return worst


@pytest.mark.parametrize("text,which", MATCHED_CASES, ids=MATCHED_IDS)
def test_derivative_check_matches_point_loop(text, which):
    model = Model(parse_config(text))
    bp = getattr(model, which)
    for prof in (model.tp.g, model.tp.hk, bp.h1, bp.h2):
        got = prof.check_derivative_consistency(rng=np.random.default_rng(3))
        assert got == _fd_point_loop(prof, np.random.default_rng(3))


@pytest.mark.parametrize("text", ["", COLLAR_CONFIG], ids=["fig2", "collar"])
def test_pullback_matches_point_loop(text):
    # on the collar, off it, and at a single radius
    model = Model(parse_config(text))
    tp, bp = model.tp, model.bp_matched
    lo = bp.collar[0]
    for collar in (bp.collar, (1.0, 1.2), (lo + 0.1, lo + 0.1)):
        rep = P.pullback_consistency_check(tp, bp, collar)
        rs = (np.linspace(*collar, 512) if collar[1] > collar[0]
              else np.array([collar[0]]))
        worst, worst_r = -1.0, collar[0]
        for r in rs:
            m = max(abs(bp.h1(r) - 1.0 / r),
                    abs(bp.h2(r) - tp.htilde(1.0 / r) / P.PHI_PERIOD_SCALE))
            if m > worst:
                worst, worst_r = m, float(r)
        assert (rep.max_mismatch, rep.worst_radius) == (worst, worst_r)
        assert rep.n_samples == len(rs)


def test_pullback_outside_twist_domain_rejected(tp, matched):
    with pytest.raises(P.ProfileError, match="outside the twist domain"):
        P.pullback_consistency_check(tp, matched, (0.5, matched.collar[1]))


@pytest.mark.parametrize("text,which", MATCHED_CASES, ids=MATCHED_IDS)
def test_tables_match_point_loops(text, which):
    # twist_table bit for bit; binding_table to an ulp of each column's
    # scale (h2' and detH in the tanh tail go through numpy's tanh and
    # cosh instead of math's)
    model = Model(parse_config(text))
    tp, bp = model.tp, getattr(model, which)
    _h, rows = P.twist_table(tp)
    assert rows == [[s, tp.g(s), tp.g.d1(s), tp.hk(s), tp.htilde(s)]
                    for s in np.linspace(0.0, tp.s_max, 256)]
    _h, rows = P.binding_table(bp)
    ref = np.array([[r, bp.h1(r), bp.h1.d1(r), bp.h2(r), bp.h2.d1(r),
                     bp.detH(r)] for r in np.linspace(0.0, bp.r_max, 256)])
    assert all(type(x) is float for row in rows for x in row)
    scale = np.max(np.abs(ref), axis=0)
    assert np.all(np.abs(np.array(rows) - ref) <= np.finfo(float).eps * scale)


def _custom(r0, r_max, h1, h2):
    return P.build_binding_profile(r0, r_max, {
        "name": "custom",
        "h1": P.SmoothProfile(0.0, r_max, *h1),
        "h2": P.SmoothProfile(0.0, r_max, *h2)})


@pytest.mark.parametrize("h1,h2,message", [
    # h1 = 1 - r^2 changes sign at r = 1, between two grid points
    ((lambda r: 1 - r * r, lambda r: -2 * r, lambda r: -2.0),
     (lambda r: r * r, lambda r: 2 * r, lambda r: 2.0),
     r"\[custom\] h1 <= 0 at r = 1\.00"),
    # h1 = h2: detH = 0 everywhere
    ((lambda r: 1 + r * r, lambda r: 2 * r, lambda r: 2.0),
     (lambda r: 1 + r * r, lambda r: 2 * r, lambda r: 2.0),
     r"\[custom\] contact condition fails: detH/r <= 0 at r = 0\.000586"),
    # h2 = r^2 keeps rising past r0
    ((lambda r: 1 + 0 * r, lambda r: 0 * r, lambda r: 0.0),
     (lambda r: r * r, lambda r: 2 * r, lambda r: 2.0),
     r"\[custom\] h2 does not attain its maximum at r0: h2 > h2\(r0\) "
     r"at r = 0\.50"),
], ids=["h1", "contact", "h2_peak"])
def test_grid_check_names_each_invariant(h1, h2, message):
    with pytest.raises(P.ProfileError, match=message):
        _custom(0.5, 1.2, h1, h2)


def test_grid_check_passes_every_shipped_profile(bp, matched):
    assert P._grid_violation(bp) is None
    assert P._grid_violation(matched) is None

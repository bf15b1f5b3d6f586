"""The package's numerical routines (``reebtwist.numerics``) against
scipy's, on the package's own problems: scipy is the oracle of each
port."""

import math
import sys

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import optimize as sp_optimize

from conftest import MODES_CONFIG

from reebtwist import cli, index, numerics, orbits, plane, profiles
from reebtwist.config import parse_config


def _caller() -> str:
    """Name of the function that called the checked routine (past any
    comprehension frames)."""
    frame = sys._getframe(2)
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name


@pytest.fixture
def brent_calls(monkeypatch):
    """Every ``brentq`` call the package makes, each checked bit for bit
    against scipy's on the same function, bracket and tolerance; yields
    the calling function's name per call."""
    calls = []
    root = numerics.brentq

    def checked_root(f, a, b, **kwargs):
        got = root(f, a, b, **kwargs)
        assert got == sp_optimize.brentq(f, a, b, **kwargs)
        calls.append(_caller())
        return got

    monkeypatch.setattr(numerics, "brentq", checked_root)
    return calls


@pytest.mark.parametrize("text", ["", MODES_CONFIG], ids=["default", "modes"])
def test_brent_roots_match_scipy_bit_for_bit(brent_calls, tmp_path, text):
    # p0, the orbit levels and the crossings of the degree table, through
    # one `all`; then x_of_r beyond the core
    cfg = parse_config(text)
    cli.run("all", cfg, str(tmp_path / "out"), quiet=True)
    sol = cli.Model(cfg).sol
    bp = sol.bp
    for r in np.linspace(bp.core_end, bp.r0, 7)[1:-1]:
        assert sol.x_of_r(float(r)) > 0.0
    for site in ("build_twist_profile", "enumerate_orbit_levels",
                 "_locate_crossings", "x_of_r"):
        assert site in brent_calls, site


def _crossings_by_bounded_minimization(path):
    """The interior crossings by bounded minimization, the oracle of the
    locator's slope roots: at each near-zero local minimum of |d|
    between samples of one sign s, scipy's bounded minimizer of s d on
    the two scan intervals around it; then scipy's brentq on every
    bracket.
    Returns the crossing times and the number of minimizations and
    root findings, one brentq call each in the locator."""
    ts = np.linspace(0.0, path.t_end, index.CROSSING_SCAN)
    ds = index._det_minus_id(path, ts)
    scale = float(np.max(np.abs(ds)))

    def d(t):
        return float(index._det_minus_id(path, np.array([t]))[0])

    brackets = [(ts[j], ts[j + 1])
                for j in np.flatnonzero(ds[:-1] * ds[1:] < 0)]
    tangential, minima = [], 0
    ab, sign = np.abs(ds), np.sign(ds)
    for j in range(1, len(ts) - 1):
        if (ab[j] <= min(ab[j - 1], ab[j + 1], 1e-3 * scale)
                and sign[j - 1] == sign[j + 1]):
            s = sign[j - 1]
            res = sp_optimize.minimize_scalar(
                lambda t: s * d(t), bounds=(ts[j - 1], ts[j + 1]),
                method="bounded", options={"xatol": index.CROSSING_XTOL})
            minima += 1
            if res.fun < 0.0:
                brackets += [(ts[j - 1], res.x), (res.x, ts[j + 1])]
            elif res.fun <= 1e-8 * scale:
                tangential.append(res.x)
    merge = 1e3 * index.CROSSING_XTOL
    crossings = []
    for t in [sp_optimize.brentq(d, lo, hi, xtol=index.CROSSING_XTOL)
              for lo, hi in brackets] + tangential:
        if 1e-9 < t < 1.0 - 1e-9 and all(abs(t - c) > merge
                                         for c in crossings):
            crossings.append(t)
    return sorted(crossings), minima + len(brackets)


def test_slope_roots_match_bounded_minimizer(brent_calls):
    # loops touch the diagonal tangentially at their interior full
    # turns; a small drift's degree-table paths split each such turn in
    # two crossings closer than the scan spacing.  The locator finds
    # both kinds at the root of a slope, by brentq (checked bit for bit
    # against scipy by the fixture); scipy's bounded minimizer finds the
    # same crossings, the tangential ones within 4.5e-11 (it stops in the
    # flat bottom of d) and the split ones within 1.7e-14
    paths = [index.rotation_loop(i) for i in (2, 3)]
    for eps in (5e-10, 2e-11):
        tp = profiles.build_twist_profile(-1, eps, 0.75, "cos2", 1.0)
        level = orbits.find_principal_level(tp)
        c = tp.g.d1(level.p_level) * level.period
        paths += [index.product_path(index.rotation_loop(i),
                                     index.skew_path(c * i)) for i in (2, 3)]
    for path, tol in zip(paths, [1e-10] * 2 + [index.CROSSING_XTOL] * 4):
        brent_calls.clear()
        got, _ = index._locate_crossings(path)
        ref, n_calls = _crossings_by_bounded_minimization(path)
        assert brent_calls == ["_locate_crossings"] * n_calls
        assert len(got) == len(ref) > 0
        assert np.max(np.abs(np.subtract(got, ref))) <= tol


@pytest.fixture
def quad_calls(monkeypatch):
    """Every ``quad`` call, checked against scipy.integrate.quad on the
    same integrand (one point per call), breakpoints and tolerances:
    within the tolerance asked for."""
    calls = []
    real = numerics.quad

    def checked(func, a, b, points=None, epsabs=1.49e-8, epsrel=1.49e-8,
                limit=50):
        got, err = real(func, a, b, points=points, epsabs=epsabs,
                        epsrel=epsrel, limit=limit)
        ref, _ = sp_integrate.quad(lambda x: float(func(np.array([x]))[0]),
                                   a, b, points=points, epsabs=epsabs,
                                   epsrel=epsrel, limit=limit)
        assert abs(got - ref) <= max(epsabs, epsrel * abs(ref)), (got, ref)
        assert err <= max(epsabs, epsrel * abs(got))
        calls.append((a, b))
        return got, err

    monkeypatch.setattr(numerics, "quad", checked)
    return calls


def test_plane_energy_quadrature_matches_scipy(quad_calls, bp, plane_sol):
    for span in (None, (0.5, 5.0), (1e-3, 2.0), (2.0, 1e6)):
        rep = plane.plane_energy(bp, plane_sol, rho_span=span)
        assert rep.relative_gap <= plane.ENERGY_RTOL
    assert len(quad_calls) == 4


def test_twist_primitives_quadrature_matches_scipy(quad_calls, tp):
    for s in np.linspace(0.0, tp.s_max, 9)[1:]:
        assert tp.hk_by_quadrature(s) == pytest.approx(
            tp.hk(s), rel=0.0, abs=1e-11)
        assert tp.htilde_by_quadrature(s) == pytest.approx(
            tp.htilde(s), rel=0.0, abs=1e-11)
    assert len(quad_calls) == 16


def test_quadrature_evaluates_whole_panels():
    # the density sees arrays of 21 points per panel, or 42 for the two
    # halves of a bisected panel, never one point
    sizes = []

    def density(x):
        sizes.append(x.size)
        return np.exp(-x) * np.sin(3.0 * x) ** 2

    val, err = numerics.quad(density, 0.0, 8.0, points=[1.0, 2.5],
                             epsabs=1e-13, epsrel=1e-12, limit=400)
    assert sizes[0] == 63 and len(sizes) > 1 and set(sizes[1:]) == {42}
    ref, _ = sp_integrate.quad(lambda x: float(density(np.array([x]))[0]),
                               0.0, 8.0, points=[1.0, 2.5], epsabs=1e-13,
                               epsrel=1e-12, limit=400)
    assert abs(val - ref) <= 1e-12 * abs(ref) and err <= 1e-12 * abs(val)


def test_invalid_input_raises():
    with pytest.raises(ValueError, match="increasing"):
        numerics.solve_ivp(lambda t, y: -y, (1.0, 0.0), [1.0])
    with pytest.raises(ValueError, match="different signs"):
        numerics.brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_dop853_matches_scipy_bit_for_bit(we):
    # the package's DOP853 and scipy's on the same problems: lincr's
    # phase-plane system over (0.5, 50) in rho, and the plane's
    # right-hand side in x over (0, x_max); steps, states, right-hand
    # side count and status equal bit for bit
    sol, bp = we.sol, we.bp

    def phase_plane(x, v):
        H2 = we.H2(math.exp(x))
        return [H2 * v[0] + v[1], v[0]]

    def plane_rhs(_x, y):
        return [bp.h2.d1(y[0]), bp.h2(y[0])]

    for args in ((phase_plane, (math.log(0.5), math.log(50.0)), [1.0, 0.5]),
                 (plane_rhs, (0.0, sol.x_max), [sol.core_coeff, 0.0])):
        out = numerics.solve_ivp(*args, rtol=1e-11, atol=1e-13)
        ref = sp_integrate.solve_ivp(*args, method="DOP853", rtol=1e-11,
                                     atol=1e-13)
        assert out.nfev == ref.nfev and out.status == ref.status == 0
        assert out.t.size > 10
        assert np.array_equal(out.t, ref.t) and np.array_equal(out.y, ref.y)

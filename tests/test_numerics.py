"""The package's numerical routines (``reebtwist.numerics``) against
scipy's, on the package's own problems: scipy is the oracle of each
port.  The DOP853 port on the plane problem is checked in
``test_plane.py``."""

import math
import sys

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import optimize as sp_optimize

from reebtwist import cli, index, numerics, orbits, plane, profiles
from reebtwist.config import parse_config

MODES_CONFIG = ("[twist]\nk = -2\nshape = cos\n[run]\nn = 3\n"
                "[lincr]\nk_max = 8\n")


def _caller() -> str:
    """Name of the function that called the checked routine (past any
    comprehension frames)."""
    frame = sys._getframe(2)
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name


@pytest.fixture
def brent_calls(monkeypatch):
    """Every ``brentq`` and ``minimize_bounded`` call the package makes,
    each checked bit for bit against scipy's on the same function,
    bracket and tolerances; yields the calling function's name per
    call."""
    calls = []
    root, minimize = numerics.brentq, numerics.minimize_bounded

    def checked_root(f, a, b, **kwargs):
        got = root(f, a, b, **kwargs)
        assert got == sp_optimize.brentq(f, a, b, **kwargs)
        calls.append(_caller())
        return got

    def checked_minimize(f, x1, x2, xatol):
        got = minimize(f, x1, x2, xatol=xatol)
        ref = sp_optimize.minimize_scalar(f, bounds=(x1, x2),
                                          method="bounded",
                                          options={"xatol": xatol})
        assert got == (ref.x, ref.fun)
        calls.append("minimize:" + _caller())
        return got

    monkeypatch.setattr(numerics, "brentq", checked_root)
    monkeypatch.setattr(numerics, "minimize_bounded", checked_minimize)
    return calls


@pytest.mark.parametrize("text", ["", MODES_CONFIG], ids=["default", "modes"])
def test_brent_roots_match_scipy_bit_for_bit(brent_calls, tmp_path, text):
    # p0, the orbit levels, the crossings of the degree table and the
    # plane's terminal event, through one `all`; then x_of_r beyond the
    # core
    cfg = parse_config(text)
    cli.run("all", cfg, str(tmp_path / "out"), quiet=True)
    sol = cli.Model(cfg).sol
    bp = sol.bp
    for r in np.linspace(bp.core_end, bp.r0, 7)[1:-1]:
        assert sol.x_of_r(float(r)) > 0.0
    for site in ("build_twist_profile", "enumerate_orbit_levels",
                 "_locate_crossings", "solve_ivp", "x_of_r"):
        assert site in brent_calls, site


def test_bounded_minimizer_matches_scipy_bit_for_bit(brent_calls):
    # loops touch the diagonal tangentially at interior times: the
    # crossings there come from the bounded minimizer
    for i in (2, 3):
        index.robbin_salamon_index(index.rotation_loop(i))
    assert brent_calls.count("minimize:_locate_crossings") >= 3


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


def test_closure_by_flow_dop853_and_rk45_both_meet_the_gate(tp, bp,
                                                           monkeypatch):
    # the flow-closure oracle integrates with DOP853; scipy's RK45 at the
    # same tolerances, which the oracle used before, also closes within
    # the gate, and the two agree to twice it
    gate = next(g for g in cli.GATES if g.name == "flow_closure")
    level = orbits.find_principal_level(tp)
    ours = orbits.verify_closure_by_flow(bp, level)

    class RK45:
        def solve_ivp(self, fun, t_span, y0, **kwargs):
            return sp_integrate.solve_ivp(fun, t_span, y0, method="RK45",
                                          **kwargs)

    monkeypatch.setattr(orbits, "integrate", RK45())
    ref = orbits.verify_closure_by_flow(bp, level)
    assert ours.distance <= gate.threshold and ref.distance <= gate.threshold
    assert abs(ours.phi_advance - ref.phi_advance) <= 2 * gate.threshold


def test_event_direction_selects_the_zero():
    # cos t falls through zero at pi/2 and rises through it at 3 pi/2: an
    # upward event ends the integration at the second, as scipy's does,
    # with the same right-hand side count (the dense output an event
    # needs included)
    def rhs(_t, y):
        return [-y[1], y[0]]

    def rising(_t, y):
        return y[0]
    rising.terminal, rising.direction = True, 1
    kwargs = dict(rtol=1e-10, atol=1e-12, events=rising)
    out = numerics.solve_ivp(rhs, (0.0, 10.0), [1.0, 0.0], **kwargs)
    ref = sp_integrate.solve_ivp(rhs, (0.0, 10.0), [1.0, 0.0],
                                 method="DOP853", **kwargs)
    assert out.status == ref.status == 1 and out.nfev == ref.nfev
    assert np.array_equal(out.t, ref.t) and np.array_equal(out.y, ref.y)
    assert out.t[-1] == pytest.approx(1.5 * math.pi, abs=1e-9)


def test_invalid_input_raises():
    with pytest.raises(ValueError, match="increasing"):
        numerics.solve_ivp(lambda t, y: -y, (1.0, 0.0), [1.0])
    with pytest.raises(ValueError, match="different signs"):
        numerics.brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_cone_invariance_dense_output_matches_scipy(we):
    # lincr's phase-plane integration: the package's DOP853 and scipy's
    # on the same system, dense output included, bit for bit
    xs = (math.log(0.5), math.log(50.0))

    def rhs(x, v):
        H2 = we.H2(math.exp(x))
        return [H2 * v[0] + v[1], v[0]]

    out = numerics.solve_ivp(rhs, xs, [1.0, 0.5], rtol=1e-11, atol=1e-13,
                             dense_output=True)
    ref = sp_integrate.solve_ivp(rhs, xs, [1.0, 0.5], method="DOP853",
                                 rtol=1e-11, atol=1e-13, dense_output=True)
    assert out.nfev == ref.nfev and out.status == ref.status == 0
    assert np.array_equal(out.t, ref.t) and np.array_equal(out.y, ref.y)
    grid = np.linspace(*xs, 2000)
    assert np.array_equal(out.sol(grid), ref.sol(grid))
    assert np.array_equal(out.sol(xs[1]), ref.sol(xs[1]))

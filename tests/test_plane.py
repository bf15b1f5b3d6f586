import dataclasses
import gc
import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import optimize

from reebtwist import plane as PL
from reebtwist import profiles as P


def test_preconditions(bp):
    # r(1) must lie in the core, which the closed form below rho = 1 needs
    for r_at_1 in (bp.r0, bp.r0 + 0.05, 0.0,
                   math.nextafter(bp.core_end, math.inf)):
        with pytest.raises(PL.PlaneError, match="core_end"):
            PL.solve_plane(bp, r_at_1=r_at_1)


def test_core_closed_form(bp, plane_sol):
    # r(1) lies inside the core, so below rho = 1 the plane is the closed
    # form r = r(1) e^{px}, t = (r(1)^2/4)(e^{2px} - 1) in x = log rho,
    # p = h2''(0), to 4 ulp, for floats and arrays; and r = r(1) rho^2
    # until the core exit
    sol = plane_sol
    r_init = sol.r_of_rho(1.0)
    assert r_init == bp.core_end / 2.0 == sol.core_coeff
    assert sol.t_of_rho(1.0) == 0.0
    p = sol.core_pow
    rhos = np.concatenate([np.geomspace(1e-8, 1.0, 401)[:-1],
                           [math.nextafter(1.0, 0.0)]])
    xs = [math.log(rho) for rho in rhos]
    r_ref = [r_init * math.exp(p * x) for x in xs]
    t_ref = [0.25 * r_init ** 2 * math.expm1(2.0 * p * x) for x in xs]
    for f, ref in ((sol.r_of_rho, r_ref), (sol.t_of_rho, t_ref)):
        np.testing.assert_array_max_ulp(f(rhos), ref, maxulp=4)
        np.testing.assert_array_max_ulp([f(float(rho)) for rho in rhos],
                                        ref, maxulp=4)
    rho_exit = math.sqrt(bp.core_end / r_init)
    rhos = np.geomspace(1e-8, 0.999 * rho_exit, 400)
    sup = max(abs(sol.r_of_rho(float(r)) - r_init * r * r) for r in rhos)
    assert sup <= 1e-8


def test_solve_plane_integrates_once(bp, monkeypatch):
    # the core is closed form: one forward solve_ivp from rho = 1 is the
    # plane's only integration
    spans = []
    real = PL.integrate

    class CountingIntegrate:
        def __getattr__(self, name):
            return getattr(real, name)

        def solve_ivp(self, fun, t_span, *args, **kwargs):
            spans.append(tuple(t_span))
            return real.solve_ivp(fun, t_span, *args, **kwargs)

    monkeypatch.setattr(PL, "integrate", CountingIntegrate())
    sol = PL.solve_plane(bp, r_at_1=bp.core_end / 2.0)
    sol.r_of_rho(np.geomspace(1e-8, 1e3, 50)), sol.t_of_rho(1e-3)
    assert len(spans) == 1 and spans[0][0] == 0.0
    assert "sol_back" not in {f.name for f in dataclasses.fields(sol)}
    assert sol.x_core == math.log(0.5) / sol.core_pow


def test_asymptotics_and_runtime(bp):
    t0 = time.time()
    sol = PL.solve_plane(bp, r_at_1=bp.core_end / 2.0)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    assert bp.r0 - sol.r_vals[-1] <= PL.TOL_ASYM == 1e-6
    assert np.all(np.diff(sol.r_vals) > 0.0)
    assert sol.r_vals.max() <= bp.r0 + 1e-12


def test_t_monotone_and_finite_at_puncture(plane_sol):
    assert np.all(np.diff(plane_sol.t_vals) >= 0.0)
    # t -> -r(1)^2/4 at rho -> 0, the core's closed form; the puncture
    # itself reads that limit, and the grid values approach it from above
    t_limit = -0.25 * plane_sol.core_coeff ** 2
    assert plane_sol.t_of_rho(0.0) == t_limit
    assert plane_sol.t_vals[0] >= t_limit


def test_projection_independent_of_parametrization(bp, plane_sol):
    sol2 = PL.solve_plane(bp, r_at_1=bp.core_end / 4.0)
    ratio = (plane_sol.core_coeff / sol2.core_coeff) ** (1.0 / sol2.core_pow)
    sup = max(abs(plane_sol.r_of_rho(rho) - sol2.r_of_rho(rho * ratio))
              for rho in np.geomspace(1e-6, 1e3, 200))
    assert sup <= 1e-8


def test_energy_identity(bp, plane_sol):
    rep = PL.plane_energy(bp, plane_sol)
    action = rep.action_gamma0
    assert action == pytest.approx(2 * math.pi * bp.h2(bp.r0), rel=1e-14)
    assert abs(rep.stokes - action) <= 1e-6 * action
    assert abs(rep.quadrature - action) <= 1e-6 * action
    assert rep.relative_gap <= 1e-6


def test_energy_truncated_annulus(bp, plane_sol):
    r1, r2 = 0.2, 0.4
    rho1 = optimize.brentq(lambda rho: plane_sol.r_of_rho(rho) - r1, 1e-6, 1e6)
    rho2 = optimize.brentq(lambda rho: plane_sol.r_of_rho(rho) - r2, 1e-6, 1e6)
    rep = PL.plane_energy(bp, plane_sol, rho_span=(rho1, rho2))
    expected = 2 * math.pi * (bp.h2(r2) - bp.h2(r1))
    assert rep.stokes == pytest.approx(expected, rel=1e-10)
    assert rep.relative_gap <= 1e-6


def test_energy_degenerate_point(bp, plane_sol):
    rep = PL.plane_energy(bp, plane_sol, rho_span=(2.0, 2.0))
    assert rep.stokes == 0.0 and rep.quadrature == 0.0


def test_energy_monotone_in_outer_radius(bp, plane_sol):
    lo = float(plane_sol.rho_grid[0])
    vals = [PL.plane_energy(bp, plane_sol, rho_span=(lo, float(hi))).stokes
            for hi in np.geomspace(1.0, plane_sol.rho_grid[-1], 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v > 0.0 for v in vals)


def test_energy_method_disagreement_raises(bp, plane_sol):
    # an inconsistent derivative evaluator breaks the quadrature route
    # while leaving the Stokes route intact
    bad_h2 = P.SmoothProfile(0.0, bp.r_max, bp.h2.value,
                             lambda r: 0.0, bp.h2.d2, breaks=bp.h2.breaks)
    bad = P.BindingProfile(h1=bp.h1, h2=bad_h2, r0=bp.r0, r_max=bp.r_max,
                           core_end=bp.core_end)
    with pytest.raises(PL.PlaneError, match="disagree"):
        PL.plane_energy(bad, plane_sol, rho_span=(0.5, 5.0))


def test_scaled_core_profile_still_solvable(bp):
    # half-scale profiles keep an exact (scaled) quadratic core
    c = 0.5
    h1 = P.SmoothProfile(0.0, bp.r_max, lambda r: c * bp.h1(r),
                         lambda r: c * bp.h1.d1(r), lambda r: c * bp.h1.d2(r),
                         breaks=bp.h1.breaks)
    h2 = P.SmoothProfile(0.0, bp.r_max, lambda r: c * bp.h2(r),
                         lambda r: c * bp.h2.d1(r), lambda r: c * bp.h2.d2(r),
                         breaks=bp.h2.breaks)
    bps = P.build_binding_profile(bp.r0, bp.r_max,
                                  {"name": "custom", "h1": h1, "h2": h2,
                                   "core_end": bp.core_end})
    sol = PL.solve_plane(bps, r_at_1=bps.core_end / 2.0)
    assert sol.core_pow == pytest.approx(2.0 * c)
    rep = PL.plane_energy(bps, sol)
    assert abs(rep.stokes - rep.action_gamma0) <= 1e-6 * rep.action_gamma0


def test_flat_peak_profiles_rejected_with_diagnostic(tp, matched):
    # the collar-matched peak decays like rho^(-kappa) with kappa ~ 1e-2;
    # the solver refuses rather than chase radii beyond double precision
    with pytest.raises(PL.PlaneError, match="too flat"):
        PL.solve_plane(matched, r_at_1=matched.core_end / 2.0)


def _scalar_lookup(sol, rho):
    """The per-point (r, t) lookup the array evaluators replace: math
    closed forms on the core and the tail, one call of the dense ODE
    solution in between."""
    x = math.log(rho if rho > 0.0 else 1e-300)
    if x < 0.0:
        r = sol.core_coeff * math.exp(sol.core_pow * x)
        t = 0.25 * sol.core_coeff ** 2 * math.expm1(2.0 * sol.core_pow * x)
    elif x >= sol.x_max:
        r = sol.r0 - sol.tail_coeff * math.exp(-sol.kappa * x)
        t = (float(sol.sol_fwd(sol.x_max)[1])
             + sol.bp.h2(sol.r0) * (x - sol.x_max))
    else:
        r, t = (float(v) for v in sol.sol_fwd(x))
    return (r if rho > 0.0 else 0.0), t, 0.0 <= x < sol.x_max


def test_array_lookup_matches_scalar_oracle(plane_sol):
    # a grid across rho <= 0, the core, the integrated range and the
    # tail; floats and arrays
    sol = plane_sol
    rhos = np.concatenate([
        [-1.0, 0.0, 1e-320, 1.0],
        np.geomspace(math.exp(-4.0), math.exp(sol.x_max + 3.0), 2001)])
    ref = np.array([_scalar_lookup(sol, float(rho)) for rho in rhos])
    mid = ref[:, 2].astype(bool)
    x = np.log(rhos[rhos > 0.0])
    assert mid.sum() > 1000 and (x < 0.0).sum() > 200
    assert (x >= sol.x_max).sum() > 200
    for got in (sol.r_of_rho(rhos), np.array([sol.r_of_rho(float(rho))
                                              for rho in rhos])):
        assert np.array_equal(got[mid], ref[mid, 0])
        np.testing.assert_allclose(got[~mid], ref[~mid, 0], rtol=4e-16,
                                   atol=0.0)
    for got in (sol.t_of_rho(rhos), np.array([sol.t_of_rho(float(rho))
                                              for rho in rhos])):
        assert np.array_equal(got[mid], ref[mid, 1])
        np.testing.assert_allclose(got[~mid], ref[~mid, 1], rtol=4e-16,
                                   atol=0.0)
    # a float and a one-element array take the same expressions
    for f in (sol.r_of_rho, sol.t_of_rho):
        assert np.array_equal([f(float(rho)) for rho in rhos],
                              [f(np.array([rho]))[0] for rho in rhos])
    assert isinstance(sol.r_of_rho(2.0), float)
    assert isinstance(sol.t_of_rho(2.0), float)
    assert sol.r_of_rho(-1.0) == sol.r_of_rho(0.0) == 0.0
    # the stored grid is the array lookup on rho_grid
    assert np.array_equal(sol.r_vals, sol.r_of_rho(sol.rho_grid))
    assert np.array_equal(sol.t_vals, sol.t_of_rho(sol.rho_grid))


def test_dropped_solution_is_freed_without_the_cycle_collector(bp):
    # the cached lookups must not hold the solution itself: a cycle would
    # keep its dense ODE solutions alive until the cyclic collector ran,
    # and a process building one model after another would grow
    sol = PL.solve_plane(bp, r_at_1=bp.core_end / 2.0)
    sol.r_of_rho(2.0), sol.t_of_rho(2.0)
    ref = weakref.ref(sol)
    gc.disable()
    try:
        del sol
        assert ref() is None
    finally:
        gc.enable()


def test_x_of_r_inverts_the_plane(bp, plane_sol):
    # the core's closed form up to core_end, a root on the plane beyond;
    # r(rho) read back at each is the radius asked for, to the agreement
    # of the closed form with the integrated plane between rho = 1 and
    # the core edge (3.7e-11 relative at core_end)
    for r in (0.1 * bp.core_end, bp.core_end, 0.5 * (bp.core_end + bp.r0),
              bp.r0 - 1e-6):
        x = plane_sol.x_of_r(r)
        assert plane_sol.r_of_rho(math.exp(x)) == pytest.approx(
            r, rel=1e-10, abs=0.0)
    assert plane_sol.x_of_r(bp.core_end) == math.log(
        bp.core_end / plane_sol.core_coeff) / plane_sol.core_pow


# ----------------------------------------------------------------------
# the plane's DOP853 integration and its gathered evaluator against
# scipy's solve_ivp
# ----------------------------------------------------------------------

MODES_CONFIG = ("[twist]\nk = -2\nshape = cos\n[run]\nn = 3\n"
                "[lincr]\nk_max = 8\n")
COLLAR_CONFIG = ("[twist]\nk = -3\np_plateau = 0.9\nshape = cos2\n"
                 "[binding]\nshape = collar\nr0 = 1.3256834340201944\n"
                 "r_max = 3.0\n")


@pytest.mark.parametrize("text", ["", MODES_CONFIG, COLLAR_CONFIG],
                         ids=["default", "modes", "collar"])
def test_dense_lookup_matches_ode_solution_bit_for_bit(text, monkeypatch):
    # the plane's integration, as Model makes it, against scipy's DOP853
    # on the same right-hand side, event and tolerances: the event's
    # x_max, the right-hand side count and the steps equal, and the dense
    # output equal bit for bit at 4,000 points
    from scipy import integrate as sp_integrate

    from reebtwist import cli
    from reebtwist.config import parse_config
    real, calls = PL.integrate, []

    class Recording:
        def __getattr__(self, name):
            return getattr(real, name)

        def solve_ivp(self, *args, **kwargs):
            calls.append((args, kwargs, real.solve_ivp(*args, **kwargs)))
            return calls[-1][2]

    monkeypatch.setattr(PL, "integrate", Recording())
    sol = cli.Model(parse_config(text)).sol
    (args, kwargs, out), = calls
    oracle = sp_integrate.solve_ivp(*args, method="DOP853", **kwargs)
    assert out.status == oracle.status == 1
    assert out.t[-1] == oracle.t[-1] == sol.x_max
    assert out.nfev == oracle.nfev and out.t.size == oracle.t.size
    assert np.array_equal(out.t, oracle.t) and np.array_equal(out.y, oracle.y)
    grid = np.linspace(-1.0, sol.x_max + 1.0, 4000)
    assert np.array_equal(out.sol(grid), oracle.sol(grid))
    # the evaluator, on both one-component views and on the solution
    # itself, at every step edge and its two float neighbours, past
    # either end and across the range; floats, arrays, a 0-d array and a
    # (-1, 3) array
    ode = sol.sol_fwd
    assert ode is out.sol and ode.h.size > 1
    lo, hi = ode.ts[0], ode.ts[-1]
    e = ode.ts
    xs = np.concatenate([e, np.nextafter(e, -np.inf),
                         np.nextafter(e, np.inf),
                         [lo - 1.0, hi + 1.0, lo - 1e-3, hi + 1e-3],
                         np.linspace(lo, hi, 1001)])
    ref = oracle.sol(xs)
    assert np.array_equal(ode(xs), ref)
    assert np.array_equal(np.array([ode(float(x)) for x in xs]).T, ref)
    got = ode(np.array(xs[7]))
    assert got.shape == (2,) and np.array_equal(got, ref[:, 7])
    got = ode(float(xs[7]))
    assert isinstance(got, np.ndarray) and np.array_equal(got, ref[:, 7])
    assert np.array_equal(ode(xs.reshape(-1, 3)), ref.reshape(2, -1, 3))
    for comp in (0, 1):
        view = ode.component(comp)
        assert np.array_equal(view(xs), ref[comp])
        assert np.array_equal([view(float(x)) for x in xs], ref[comp])
        got = view(np.array(xs[7]))
        assert got.shape == () and got == ref[comp, 7]
        assert isinstance(view(float(xs[7])), float)
        assert np.array_equal(view(xs.reshape(-1, 3)),
                              ref[comp].reshape(-1, 3))
    # the plane's own lookups read the evaluators
    rhos = np.exp(np.linspace(0.0, sol.x_max, 301)[:-1])
    x = np.log(rhos)
    for comp, f in ((0, sol.r_of_rho), (1, sol.t_of_rho)):
        assert np.array_equal(f(rhos), ode(x)[comp])


def test_array_lookup_transient_memory(plane_sol):
    # 4,000 radii across the core, both halves and the tail: the
    # evaluator keeps (n,) buffers; an (n, 7) gather of the coefficient
    # rows would add 219 KB (the OdeSolution route peaked at 327 KB)
    rhos = np.geomspace(1e-3, math.exp(plane_sol.x_max), 4000)
    plane_sol.r_of_rho(rhos)
    tracemalloc.start()
    try:
        plane_sol.r_of_rho(rhos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak


@pytest.mark.parametrize("text", ["", COLLAR_CONFIG],
                         ids=["default", "collar"])
def test_lookup_kinds_and_puncture_values(text):
    # one path per lookup: a float or a 0-d array gives a Python float,
    # an n-d array its own shape; rho <= 0 reads the core's closed form
    # at x = -inf, r = 0.0 and t = -r(1)^2/4 exactly.  The values equal,
    # bit for bit, the oracle's: log rho where rho > 0, and r = 0 or
    # rho = 1e-300 (deep in the core) elsewhere.
    from reebtwist import cli
    from reebtwist.config import parse_config
    sol = cli.Model(parse_config(text)).sol
    t_limit = -0.25 * sol.core_coeff ** 2

    def old_r(rho):
        pos = rho > 0.0
        return np.where(pos, sol._r_in_x(np.log(np.where(pos, rho, 1.0))),
                        0.0)

    def old_t(rho):
        return sol._t_in_x(np.log(np.where(rho > 0.0, rho, 1e-300)))

    rhos = np.concatenate([[-1.0, 0.0, 1e-320, 0.5, 1.0, 2.0],
                           np.geomspace(1e-6, math.exp(sol.x_max + 3.0),
                                        301)])
    for f, old, puncture in ((sol.r_of_rho, old_r, 0.0),
                             (sol.t_of_rho, old_t, t_limit)):
        assert old(np.array([0.0]))[0] == puncture
        for rho in (0.0, -1.0, np.array(0.0), np.array(-1.0)):
            got = f(rho)
            assert type(got) is float and got == puncture
        for rho in (2.0, 0.5, np.array(2.0), np.array(3.0)):
            got = f(rho)
            assert type(got) is float and got == old(np.array([rho]))[0]
        got = f(np.array([0.0]))
        assert got.shape == (1,) and got[0] == puncture
        assert np.array_equal(f(rhos), old(rhos))
        assert np.array_equal([f(float(rho)) for rho in rhos], old(rhos))
        got = f(rhos[:-1].reshape(-1, 3))
        assert got.shape == (102, 3)
        assert np.array_equal(got, old(rhos[:-1]).reshape(-1, 3))

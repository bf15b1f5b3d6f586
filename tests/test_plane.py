import bisect
import dataclasses
import gc
import math
import time
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize

from conftest import COLLAR_CONFIG, MODES_CONFIG

from reebtwist import numerics
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


def test_solve_plane_makes_no_solve_ivp_call(bp, monkeypatch):
    # the core is closed form and the rest is quadrature between radial
    # knots: building and reading the plane integrates no ODE
    def refuse(*args, **kwargs):
        raise AssertionError("solve_ivp called")

    monkeypatch.setattr(numerics, "solve_ivp", refuse)
    sol = PL.solve_plane(bp, r_at_1=bp.core_end / 2.0)
    sol.r_of_rho(np.geomspace(1e-8, 1e3, 50)), sol.t_of_rho(1e-3)
    sol.r_of_rho(2.0), sol.t_of_rho(2.0), sol.x_of_r(0.5 * bp.r0)
    PL.plane_energy(bp, sol)
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
    closed forms on the core and the tail, one float call of each
    component's Hermite pieces in between.  log rho is numpy's, as in
    the lookups: libm's log differs from it in the last bit at some
    radii."""
    x = float(np.log(rho if rho > 0.0 else 1e-300))
    if x < 0.0:
        r = sol.core_coeff * math.exp(sol.core_pow * x)
        t = 0.25 * sol.core_coeff ** 2 * math.expm1(2.0 * sol.core_pow * x)
    elif x >= sol.x_max:
        r = sol.r0 - sol.tail_coeff * math.exp(-sol.kappa * x)
        t = sol.t_pieces(sol.x_max) + sol.bp.h2(sol.r0) * (x - sol.x_max)
    else:
        r, t = sol.r_pieces(x), sol.t_pieces(x)
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
    # keep its Hermite pieces alive until the cyclic collector ran,
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
# the Hermite plane against scipy: the separable quadratures and a
# DOP853 integration of the plane's right-hand side; its evaluator
# against exact rational arithmetic on the Hermite data
# ----------------------------------------------------------------------

CONFIGS = pytest.mark.parametrize("text", ["", MODES_CONFIG, COLLAR_CONFIG],
                                  ids=["default", "modes", "collar"])
# the DOP853 tolerances of the oracle integration (those the plane was
# integrated with before it became quadrature), and the largest gaps
# the Hermite plane may show against it: |dr| / r and |dt| / max(1, |t|)
# read 1.9e-11 and 1.3e-13 on the default config, 6.9e-12 and 9.7e-14
# on `modes`, 6.6e-11 and 1.5e-11 on the collar: the integration's error
ODE_RTOL, ODE_ATOL = 1e-12, 1e-14
ODE_GAP_R, ODE_GAP_T = 2e-10, 5e-11
# largest |r(x(r)) - r| / r at the 60 radii of the quadrature oracle: it
# reads 1.4e-15 (default), 1.3e-15 (`modes`) and 1.5e-15 (collar), where
# the DOP853 plane read 1.7e-12, 1.2e-12 and 6.0e-11
QUAD_GAP_R = 1e-14


def _model_sol(text):
    from reebtwist import cli
    from reebtwist.config import parse_config
    return cli.Model(parse_config(text)).sol


# on the collar, h2' falls to 1e-7 over the last gaps, where its own
# rounding keeps quad from 1e-13 and quad says so
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@CONFIGS
def test_plane_matches_separable_quadrature(text):
    # x(r) = int 1/h2' from r(1), by scipy's quad at 60 radii from r(1)
    # to within 1e-6 (r0 - r(1)) of r0, summed over the gaps between
    # them with the junctions of h2 as breakpoints; the plane read at
    # rho = e^{x(r)} gives back r.  Only this direction is well
    # conditioned: dx/dr = 1/h2'(r) grows without bound at r0
    from scipy import integrate as sp_integrate
    sol = _model_sol(text)
    bp, r1 = sol.bp, sol.core_coeff
    radii = bp.r0 - np.geomspace(bp.r0 - r1, 1e-6 * (bp.r0 - r1), 61)
    junctions = sorted({bp.core_end, *bp.h2.breaks})
    x = worst = 0.0
    for a, r in zip(radii[:-1], radii[1:]):
        x += sp_integrate.quad(
            lambda s: 1.0 / bp.h2.d1(s), a, r, epsabs=0.0, epsrel=1e-13,
            points=[b for b in junctions if a < b < r] or None)[0]
        worst = max(worst, abs(sol.r_of_rho(math.exp(x)) - r) / r)
    assert worst <= QUAD_GAP_R, worst


@CONFIGS
def test_pieces_hold_the_knot_values_and_the_equations(text):
    # the knots start at r(1) with x = t = 0, include every junction of
    # h2 in range and end at r0 - TAIL_GAP, where x = x_max; each piece
    # starts on its knot exactly and the next piece's knot is its end
    # value; a centred difference of the lookup gives r' = h2'(r) and
    # t' = h2(r)
    sol = _model_sol(text)
    bp, rp, tp = sol.bp, sol.r_pieces, sol.t_pieces
    knots = rp.y
    assert rp.ts is tp.ts and rp.ts[0] == 0.0 and rp.ts[-1] == sol.x_max
    assert rp.F.shape == (5, knots.size) and rp.F.flags.c_contiguous
    assert np.all(np.diff(rp.ts) > 0.0) and np.all(np.diff(knots) > 0.0)
    assert knots[0] == sol.core_coeff and tp.y[0] == 0.0
    for b in bp.h2.breaks:
        assert b in knots or not knots[0] < b < bp.r0
    for pieces in (rp, tp):
        assert np.array_equal(pieces(rp.ts[:-1]), pieces.y)
        ends = pieces(rp.ts[1:])
        np.testing.assert_allclose(ends[:-1], pieces.y[1:], rtol=4e-16,
                                   atol=0.0)
    assert rp(sol.x_max) == pytest.approx(bp.r0 - PL.TAIL_GAP, rel=4e-16,
                                          abs=0.0)
    x = np.linspace(0.0, sol.x_max, 1001)[1:-1]
    step = 1e-5
    r = rp(x)
    dr = (rp(x + step) - rp(x - step)) / (2.0 * step)
    dt = (tp(x + step) - tp(x - step)) / (2.0 * step)
    scale = np.max(np.abs(bp.h2.d1(r)))
    assert np.max(np.abs(dr - bp.h2.d1(r))) <= 1e-8 * scale
    assert np.max(np.abs(dt - bp.h2(r))) <= 1e-8 * bp.h2(bp.r0)


@CONFIGS
def test_dense_lookup_matches_ode_solution_bit_for_bit(text):
    # the plane's right-hand side in x over (0, x_max), integrated by
    # scipy's DOP853: the Hermite plane agrees with the integration to
    # its error; the plane's lookups read the Hermite pieces bit for bit,
    # on arrays and on floats
    from scipy import integrate as sp_integrate
    sol = _model_sol(text)
    bp = sol.bp

    def rhs(_x, y):
        return [bp.h2.d1(y[0]), bp.h2(y[0])]

    oracle = sp_integrate.solve_ivp(
        rhs, (0.0, sol.x_max), [sol.core_coeff, 0.0], method="DOP853",
        rtol=ODE_RTOL, atol=ODE_ATOL, dense_output=True)
    assert oracle.status == 0 and oracle.t[-1] == sol.x_max
    x = np.linspace(0.0, sol.x_max, 4001)
    r, t = sol.r_pieces(x), sol.t_pieces(x)
    r_ode, t_ode = oracle.sol(x)
    assert np.max(np.abs(r - r_ode) / r_ode) <= ODE_GAP_R
    assert np.max(np.abs(t - t_ode) / np.maximum(1.0, np.abs(t_ode))) \
        <= ODE_GAP_T
    rhos = np.exp(np.linspace(0.0, sol.x_max, 301)[:-1])
    x = np.log(rhos)
    for f, pieces in ((sol.r_of_rho, sol.r_pieces),
                      (sol.t_of_rho, sol.t_pieces)):
        assert np.array_equal(f(rhos), pieces(x))
        assert np.array_equal([f(float(rho)) for rho in rhos],
                              [pieces(float(v)) for v in x])


def _exact_hermite(x0, x1, y0, y1, f0, f1, s0, s1, x):
    """The quintic with value y, derivative f and second derivative s
    given at x0 and x1, at x: the Hermite basis in u = (x - x0)/h, in
    the arithmetic of its arguments."""
    h = x1 - x0
    u = (x - x0) / h
    u2, u3 = u * u, u * u * u
    u4, u5 = u3 * u, u3 * u2
    return (y0 * (1 - 10 * u3 + 15 * u4 - 6 * u5)
            + h * f0 * (u - 6 * u3 + 8 * u4 - 3 * u5)
            + h * h * s0 * (u2 - 3 * u3 + 3 * u4 - u5) / 2
            + y1 * (10 * u3 - 15 * u4 + 6 * u5)
            + h * f1 * (-4 * u3 + 7 * u4 - 3 * u5)
            + h * h * s1 * (u3 - 2 * u4 + u5) / 2)


def test_quintic_evaluator_matches_exact_hermite_data(bp, plane_sol):
    # the Hermite data of the pieces (x and t at the knots from the
    # quadratures, y = (r, t), f = (h2', h2), s = (h2'' h2', h2'^2) from
    # the profile) evaluated in exact rationals on the piece the same
    # rule picks (the first whose right knot is >= x, clipped at either
    # end): the evaluator is within 1 ulp (it reads at most 0.7) at every
    # knot, both its float neighbours and 1e-3 past either end.  Further
    # out, cancellation in the extrapolated quintic costs digits, but the
    # lookups read the core and the tail there.  Floats, arrays, a 0-d
    # array and a (-1, 3) array agree bit for bit.
    sol = plane_sol
    knots = PL._knots(bp, sol.core_coeff)
    steps = PL._quadratures(bp, knots[:-1], knots[1:])
    x = np.concatenate([[0.0], np.cumsum(steps[0])])
    t = np.concatenate([[0.0], np.cumsum(steps[1])])
    assert np.array_equal(x, sol.r_pieces.ts)
    assert np.array_equal(knots[:-1], sol.r_pieces.y)
    assert np.array_equal(t[:-1], sol.t_pieces.y)
    d1, d2 = bp.h2.d1(knots).tolist(), bp.h2.d2(knots).tolist()
    exact = [[Fraction(v) for v in a] for a in (
        x.tolist(), knots.tolist(), t.tolist(), d1, bp.h2(knots).tolist())]
    X, R, T, D1, H2 = exact
    S_r = [Fraction(a) * b for a, b in zip(d2, D1)]
    S_t = [b * b for b in D1]
    pts = np.concatenate([x, np.nextafter(x, -np.inf),
                          np.nextafter(x, np.inf), [x[0] - 1e-3, x[-1] + 1e-3]])
    xs = x.tolist()
    for pieces, Y, F, S in ((sol.r_pieces, R, D1, S_r),
                            (sol.t_pieces, T, H2, S_t)):
        got = pieces(pts)
        for p, g in zip(pts.tolist(), got.tolist()):
            i = min(max(bisect.bisect_left(xs, p) - 1, 0), len(xs) - 2)
            ref = _exact_hermite(X[i], X[i + 1], Y[i], Y[i + 1], F[i],
                                 F[i + 1], S[i], S[i + 1], Fraction(p))
            assert abs(Fraction(g) - ref) <= Fraction(math.ulp(ref)), p
        floats = [pieces(p) for p in pts.tolist()]
        assert all(type(v) is float for v in floats)
        assert np.array_equal(floats, got)
        zero_d = pieces(np.array(pts[7]))
        assert zero_d.shape == () and zero_d == got[7]
        assert np.array_equal(pieces(pts[:-2].reshape(-1, 3)),
                              got[:-2].reshape(-1, 3))


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
def test_solve_plane_transient_memory(text):
    # a warm solve_plane and the first float lookups of r and t: 263 KB
    # on the default config, 312 KB on the collar (the DOP853 plane read
    # 159 and 164 KB).  The profile evaluated on every Gauss node of
    # every knot interval at once, not in blocks of BLOCK points, would
    # read 715 and 678 KB
    bp = _model_sol(text).bp
    sol = PL.solve_plane(bp, r_at_1=bp.core_end / 2.0)
    sol.r_of_rho(2.0), sol.t_of_rho(2.0)
    del sol
    tracemalloc.start()
    try:
        sol = PL.solve_plane(bp, r_at_1=bp.core_end / 2.0)
        sol.r_of_rho(2.0), sol.t_of_rho(2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 384 * 1024, peak


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

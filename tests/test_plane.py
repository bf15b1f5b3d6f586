import math
import time

import numpy as np
import pytest
from scipy import optimize

from reebtwist import plane as PL
from reebtwist import profiles as P


def test_preconditions(bp):
    with pytest.raises(PL.PlaneError):
        PL.solve_plane(bp, r_at_1=bp.r0)  # fixed point: trivial cylinder
    with pytest.raises(PL.PlaneError):
        PL.solve_plane(bp, r_at_1=bp.r0 + 0.05)
    with pytest.raises(PL.PlaneError):
        PL.solve_plane(bp, r_at_1=0.0)


def test_core_closed_form(bp, plane_sol):
    # r(1) lies inside the core, so r = r(1) rho^2 until the core exit
    sol = plane_sol
    assert sol.r_init < bp.core_end
    rho_exit = math.sqrt(bp.core_end / sol.r_init)
    rhos = np.geomspace(1e-8, 0.999 * rho_exit, 400)
    sup = max(abs(sol.r_of_rho(float(r)) - sol.r_init * r * r) for r in rhos)
    assert sup <= 1e-8


def test_asymptotics_and_runtime(bp):
    t0 = time.time()
    sol = PL.solve_plane(bp, r_at_1=bp.core_end / 2.0, tol_asym=1e-6)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    assert bp.r0 - sol.r_vals[-1] <= 1e-6
    assert np.all(np.diff(sol.r_vals) > 0.0)
    assert sol.r_vals.max() <= bp.r0 + 1e-12


def test_t_monotone_and_finite_at_puncture(plane_sol):
    assert np.all(np.diff(plane_sol.t_vals) >= 0.0)
    assert np.isfinite(plane_sol.t_limit_at_puncture())
    # the puncture limit is approached from the grid values
    assert plane_sol.t_vals[0] >= plane_sol.t_limit_at_puncture() - 1e-12


def test_fixed_coordinates_satisfy_constraints(plane_sol):
    q, p = plane_sol.q_fixed, plane_sol.p_fixed
    assert abs(q @ q - 1.0) <= 1e-15
    assert abs(p @ p - 1.0) <= 1e-15
    assert abs(q @ p) <= 1e-15


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
                           quadratic_core=False, core_end=bp.core_end,
                           shape="custom")
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
    closed forms on the core and the tail, one OdeSolution call on the
    half that holds log rho in between."""
    def dense(x, comp):
        return float((sol.sol_back if x < 0 else sol.sol_fwd)(x)[comp])

    x_r = math.log(rho) if rho > 0.0 else -math.inf
    if rho <= 0.0:
        r = 0.0
    elif x_r <= sol.x_core:
        r = sol.core_coeff * math.exp(sol.core_pow * x_r)
    elif x_r >= sol.x_max:
        r = sol.r0 - sol.tail_coeff * math.exp(-sol.kappa * x_r)
    else:
        r = dense(x_r, 0)
    x = math.log(rho if rho > 0.0 else 1e-300)
    g = 2.0 * sol.core_pow
    if x <= sol.x_core:
        amp = 0.5 * sol.core_pow * sol.core_coeff ** 2 / g
        t = dense(sol.x_core, 1) - amp * (math.exp(g * sol.x_core)
                                          - math.exp(g * x))
    elif x >= sol.x_max:
        t = dense(sol.x_max, 1) + sol.bp.h2(sol.r0) * (x - sol.x_max)
    else:
        t = dense(x, 1)
    return r, t, sol.x_core < x < sol.x_max


def test_array_lookup_matches_scalar_oracle(plane_sol):
    # a grid across rho <= 0, the core, both halves of the integrated
    # range (x < 0 and x >= 0), and the tail; floats and arrays
    sol = plane_sol
    rhos = np.concatenate([
        [-1.0, 0.0, 1e-320, 1.0],
        np.geomspace(math.exp(sol.x_core - 3.0), math.exp(sol.x_max + 3.0),
                     2001)])
    ref = np.array([_scalar_lookup(sol, float(rho)) for rho in rhos])
    mid = ref[:, 2].astype(bool)
    assert mid.sum() > 1000 and (~mid).sum() > 500
    assert (np.log(rhos[mid]) < 0).any() and (np.log(rhos[mid]) >= 0).any()
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

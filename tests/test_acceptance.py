"""Acceptance suite: every headline claim of the model at its stated
tolerance, one printed pass/fail line per criterion.

Run as `pytest tests/test_acceptance.py -s` to see the lines.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from reebtwist import cli, energy, geometry, lincr, orbits, plane
from reebtwist import index as index_mod
from reebtwist.config import default_config_text, parse_config


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"\n[criterion {num:02d}] {name}: PASS")


def test_01_contact_validity(tp, bp):
    with criterion(1, "contact validity"):
        t0 = time.time()
        mn, _ = bp.min_detH_over_r(10_000)
        assert mn >= 0.5
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(10_000):
            x = geometry.random_binding_point(2, bp, rng)
            R = geometry.reeb_field_binding(bp, x)
            worst = max(worst, abs(geometry.alpha_binding(bp, x, R) - 1.0))
        assert worst <= 1e-10
        assert time.time() - t0 < 10.0


def test_02_degree_pipeline(tp):
    with criterion(2, "degree pipeline"):
        level = orbits.find_principal_level(tp)
        for n in (2, 3, 4, 5):
            assert index_mod.sft_degree(level, n, 0, tp=tp, i=1) == 1
        for i in (1, 2, 3):
            assert index_mod.sft_degree(level, 3, 0, tp=tp, i=i) == 2 * i - 1


def test_03_index_oracle():
    with criterion(3, "index oracle"):
        assert index_mod.robbin_salamon_index(
            index_mod.skew_path(1.7)) == Fraction(1, 2)
        assert index_mod.robbin_salamon_index(
            index_mod.skew_path(-1.7)) == Fraction(-1, 2)
        for i in (1, 2, 3):
            assert index_mod.robbin_salamon_index(
                index_mod.rotation_loop(i)) == index_mod.loop_maslov(i) == 2 * i
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 20:
            dim = 2 * int(rng.integers(1, 3))
            path = index_mod.random_symplectic_path(dim, rng, scale=0.8)
            if abs(np.linalg.det(path.at(1.0) - np.eye(dim))) < 1e-6:
                continue
            i = int(rng.integers(1, 4))
            loop = index_mod.rotation_loop(i, dim=dim)
            mu_p = index_mod.robbin_salamon_index(path)
            mu_lp = index_mod.robbin_salamon_index(
                index_mod.product_path(loop, path))
            assert mu_lp == mu_p + 2 * i * (dim // 2)
            checked += 1


def test_04_plane_ode(bp):
    with criterion(4, "plane ODE"):
        t0 = time.time()
        sol = plane.solve_plane(bp, r_at_1=bp.core_end / 2.0, tol_asym=1e-6)
        assert time.time() - t0 < 1.0
        rho_exit = math.sqrt(bp.core_end / sol.r_init)
        sup = max(abs(sol.r_of_rho(float(rho)) - sol.r_init * rho * rho)
                  for rho in np.geomspace(1e-8, 0.999 * rho_exit, 400))
        assert sup <= 1e-8
        assert bp.r0 - sol.r_vals[-1] <= 1e-6


def test_05_energy_identity(bp, plane_sol):
    with criterion(5, "energy identity"):
        rep = plane.plane_energy(bp, plane_sol)
        action = 2.0 * math.pi * bp.h2(bp.r0)
        assert abs(rep.stokes - action) <= 1e-6 * action
        assert abs(rep.quadrature - action) <= 1e-6 * action
        assert rep.relative_gap <= 1e-6


def test_06_kernel_count(we):
    with criterion(6, "kernel count"):
        t0 = time.time()
        rep = lincr.kernel_dimension(we, k_max=5, n=2)
        assert rep.total == 5
        assert rep.per_mode[0] == 3 and rep.per_mode[-1] == 2
        assert all(v == 0 for k, v in rep.per_mode.items()
                   if k not in (0, -1))
        d0 = we.default_delta()
        for d in (0.8 * d0, 1.2 * d0):
            rep_d = lincr.kernel_dimension(we, delta=d, k_max=5, n=2)
            assert rep_d.per_mode == rep.per_mode
        assert time.time() - t0 < 60.0


def test_07_mode_exclusion(we, kernel_report):
    with criterion(7, "mode exclusion"):
        for k, v in kernel_report.per_mode.items():
            if abs(k) >= 2:
                assert v == 0
        rng = np.random.default_rng(3)
        starts = []
        for _ in range(50):
            th = rng.uniform(0.01, math.pi / 2 - 0.01)
            starts.append([math.cos(th), math.sin(th)])
        rep = lincr.cone_invariance_check(we, (0.01, 0.1), starts)
        assert rep["all_stayed"]
        assert rep["min_growth_diagonal"] >= 10.0 - 1e-9


def test_08_averaged_derivative_inequality():
    with criterion(8, "averaged-derivative inequality"):
        rng = np.random.default_rng(4)
        fields = [lincr.random_truncated_field(
            rng, rng.integers(2, 11, size=3).tolist()) for _ in range(100)]
        out = lincr.sz_inequality_check(fields)
        assert out["n_vacuous"] == 0
        assert out["min_ratio"] >= 2.0 - 1e-9


def test_09_orbit_family_accounting(we):
    with criterion(9, "orbit-family kernel accounting"):
        for n in (2, 3):
            rep = lincr.kernel_dimension(we, k_max=1, n=n)
            assert rep.non_decaying_bounded == 2 * n - 3


def test_10_energy_audit(bp):
    with criterion(10, "energy audit"):
        for r in np.linspace(0.05, bp.r0, 25):
            circle = energy.plane_level_circle(bp, float(r))
            vals = energy.winding_integrand(circle)
            assert float(np.max(np.abs(vals - 1.0))) <= 1e-9
        circles, wts, span = energy.gauss_legendre_family(
            bp, 0.1 * bp.r0, 0.999 * bp.r0, 128)
        e1, _e2 = energy.annulus_energies(bp, circles, weights=wts, span=span)
        assert abs(e1) <= 1e-9
        fam = [energy.plane_level_circle(bp, float(r))
               for r in np.linspace(0.02, bp.r0 / 2, 64)]
        fam.append(energy.plane_level_circle(bp, bp.r0 + 0.1))
        rep = energy.energy_bound_audit(bp, fam)
        assert rep["excess"] > 0.0


def test_11_orbit_space_homology():
    with criterion(11, "orbit-space homology tables"):
        expected = {
            3: {0: 1, 3: 1},
            4: {0: 1, 2: 1, 3: 1, 5: 1},
            5: {0: 1, 7: 1},
            6: {0: 1, 4: 1, 5: 1, 9: 1},
            7: {0: 1, 11: 1},
            8: {0: 1, 6: 1, 7: 1, 13: 1},
        }
        for n, betti in expected.items():
            assert orbits.orbit_space_homology(n).betti == betti


def test_12_determinism(all_run, tmp_path):
    # a fresh run repeats the shared default run byte for byte
    with criterion(12, "pipeline determinism"):
        t0 = time.time()
        cfg = parse_config(default_config_text())
        out_a, out_b = all_run[0], tmp_path / "b"
        cli.run("all", cfg, str(out_b), quiet=True)
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b and len(files_a) >= 11
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert time.time() - t0 < 300.0

import json
import math

import numpy as np
import pytest
from scipy import integrate, optimize

from reebtwist import cli, geometry
from reebtwist import lincr as L
from reebtwist import plane as PL
from reebtwist import profiles as P
from reebtwist.config import parse_config


def rho_at_r(sol, r):
    return optimize.brentq(lambda rho: sol.r_of_rho(rho) - r, 1e-8, 1e9)


def test_coefficients_vanish_in_core(we):
    # hand value on the exact quadratic core:
    # h1'h2'' - h2'h1'' = (-2r)(2) - (2r)(-2) = 0
    for rho in np.geomspace(1e-6, 0.3, 40):
        assert we.G1(float(rho)) == 0.0
        assert we.H2(float(rho)) == 0.0
    assert we.H2_inf == pytest.approx(we.bp.h2.d2(we.bp.r0))
    assert we.H2_inf < 0.0
    assert np.isfinite(we.a_norm)


def test_explicit_elements_solve_reduced_equation(we):
    rhos = np.geomspace(1e-2, 1e4, 300)
    for name in ("const_re", "const_im", "trans_re", "trans_im",
                 "translation"):
        Wf = L.s_basis(we, name)
        worst = max(L.w_equation_residual(we, Wf, float(rho), 0.31)
                    for rho in rhos)
        assert worst <= 1e-8, name
    # the constant element is exact to machine precision
    Wf = L.s_basis(we, "const_re")
    assert max(L.w_equation_residual(we, Wf, float(r), 1.1)
               for r in rhos) <= 1e-12


def test_explicit_elements_solve_original_system(we):
    rhos = np.geomspace(1e-2, 1e4, 300)
    for name in ("const_re", "const_im", "trans_re", "trans_im",
                 "translation"):
        Wf = L.s_basis(we, name)
        worst = max(L.full_system_residual(we, Wf, float(rho), 2.4)
                    for rho in rhos)
        assert worst <= 1e-8, name


def test_assembly_back_substitution_certificate(we):
    assert we.back_substitution_residual <= 1e-8


def test_element_asymptotic_classification(we):
    # constants and the shift stay bounded; the translation pair decays
    # like 1/rho; the shift's second component tends to zero
    big = 1e5
    for name in ("const_re", "const_im", "translation"):
        W, _, _ = L.s_basis(we, name)(big, 0.0)
        assert np.max(np.abs(W)) < 10.0
    for name in ("trans_re", "trans_im"):
        W1, _, _ = L.s_basis(we, name)(10.0, 0.0)
        W2, _, _ = L.s_basis(we, name)(100.0, 0.0)
        assert np.max(np.abs(W2)) == pytest.approx(np.max(np.abs(W1)) / 10.0,
                                                   rel=1e-12)
    Ws, _, _ = L.s_basis(we, "translation")(big, 0.0)
    assert abs(Ws[1]) <= 1e-4
    # near the puncture the shift approaches the real constant pair (1, 1)
    W0, _, _ = L.s_basis(we, "translation")(1e-4, 0.0)
    assert W0[0] == pytest.approx(1.0, abs=1e-6)
    assert W0[1] == pytest.approx(1.0, abs=1e-6)


def test_phase_plane_eigen_structure(we):
    # core: H2 = 0 gives eigenvalues +-1 with eigenvectors (1, +-1)
    rep = L.phase_plane_eigen(we, 1e-3)
    assert rep["expanding"] == pytest.approx(1.0, abs=1e-14)
    assert rep["contracting"] == pytest.approx(-1.0, abs=1e-14)
    assert np.allclose(rep["vec_expanding"], [1.0, 1.0])
    assert np.allclose(rep["vec_contracting"], [1.0, -1.0])
    # determinant of the phase-plane matrix is -1: the product of the
    # eigenvalues at any radius
    for rho in (0.5, 2.0, 50.0, 1e4):
        rep = L.phase_plane_eigen(we, rho)
        assert rep["expanding"] * rep["contracting"] == pytest.approx(
            -1.0, abs=1e-12)


def test_phase_plane_matches_dense_eigensolver(we):
    rho = rho_at_r(we.sol, we.bp.r0 / 2.0)
    rep = L.phase_plane_eigen(we, rho)
    M = np.array([[rep["H2"], 1.0], [1.0, 0.0]])
    ev = np.sort(np.linalg.eigvalsh(M))
    assert abs(ev[0] - rep["contracting"]) <= 1e-12
    assert abs(ev[1] - rep["expanding"]) <= 1e-12


def test_block_matrix_matches_phase_plane_by_similarity(we):
    # the (Re w2p, Re w2m) rows and columns of a block are
    # [[k + H2/2, H2/2], [H2/2, -k + H2/2]]; the similarity by T carries
    # them to the phase-plane form [[H2, k], [k, 0]]
    T = np.array([[1.0, 1.0], [1.0, -1.0]])
    for k in (1, 3):
        for rho in (0.01, 1.0, 30.0):
            H2 = we.H2(rho)
            M2 = L._block_matrix(k, we.G1(rho), H2)[np.ix_([4, 6], [4, 6])]
            pp = T @ M2 @ np.linalg.inv(T)
            assert np.allclose(pp, [[H2, k], [k, 0.0]], atol=1e-13)
    assert 0.0 < we.default_delta() < we.spectral_gap


def test_kernel_dimension_rejects_delta_outside_gap(we):
    with pytest.raises(L.LinCRError, match="gap"):
        L.kernel_dimension(we, delta=2.0 * we.spectral_gap, k_max=1)


def test_cone_invariance_core_closed_form(we):
    # H2 = 0: the system is v' = [[0,1],[1,0]] v / rho, and the start
    # (1,1) rides the expanding direction: v = rho * (1,1) exactly
    rep = L.cone_invariance_check(we, (0.01, 0.1), [[1.0, 1.0]])
    r0 = rep["per_start"][0]
    assert r0["growth_norm"] == pytest.approx(10.0, rel=1e-10)
    assert r0["growth_diagonal"] == pytest.approx(10.0, rel=1e-10)
    assert rep["all_stayed"]


def test_cone_invariance_boundary_start_enters(we):
    rep = L.cone_invariance_check(we, (0.01, 0.1), [[1.0, 1e-12]])
    assert rep["all_stayed"]
    assert rep["per_start"][0]["min_component"] >= -1e-15


def test_cone_invariance_random_starts_grow(we):
    rng = np.random.default_rng(9)
    starts = []
    for _ in range(50):
        th = rng.uniform(0.02, math.pi / 2 - 0.02)
        starts.append([math.cos(th), math.sin(th)])
    rep = L.cone_invariance_check(we, (0.01, 0.1), starts)
    assert rep["all_stayed"]
    assert rep["min_growth_diagonal"] >= 10.0 - 1e-9
    # over a long span the growth is unbounded in practice
    rep2 = L.cone_invariance_check(we, (0.01, 1e4), starts[:5])
    assert rep2["all_stayed"]
    assert rep2["min_growth_diagonal"] > 1e3


def test_kernel_counts(kernel_report):
    rep = kernel_report
    assert rep.total == 5
    assert rep.per_mode[0] == 3
    assert rep.per_mode[-1] == 2
    assert rep.per_mode[1] == 0
    for k, v in rep.per_mode.items():
        if k not in (0, -1):
            assert v == 0, f"unexpected kernel direction in mode {k}"


def test_kernel_rank_decisions_are_well_separated(kernel_report):
    for block, gap in kernel_report.conditioning.items():
        if not math.isnan(gap):
            assert gap > 1e-2, f"block {block} nearly ambiguous"


def test_kernel_stable_under_delta_perturbation(we):
    d0 = we.default_delta()
    for d in (0.8 * d0, 1.2 * d0):
        rep = L.kernel_dimension(we, delta=d, k_max=3)
        assert rep.total == 5
        assert rep.per_mode[0] == 3 and rep.per_mode[-1] == 2


@pytest.mark.parametrize("n,expected", [(2, 1), (3, 3)])
def test_morse_bott_bounded_directions(we, n, expected):
    rep = L.kernel_dimension(we, k_max=1, n=n)
    assert rep.non_decaying_bounded == expected == 2 * n - 3


def test_mode_plus_one_regular_solutions_grow(we):
    # continue the regular-at-0 second-component pair of block 1 and
    # check expansion: terminal norm >> mid-span norm
    basis = L._inner_basis(1, we.sol.x_core - 1.0)[:, 4:]  # w2p directions
    x_mid, x_end = 1.0, 4.0
    [Ymid] = L._propagate(we, [1], [basis], we.sol.x_core - 1.0, x_mid)
    [Yend] = L._propagate(we, [1], [Ymid], x_mid, x_end)
    assert np.linalg.norm(Yend) >= 10.0 * np.linalg.norm(Ymid)


def test_numerical_mode0_branch_back_substitutes(we, bp):
    # integrate the decaying mode-0 branch directly and push it through
    # the original 4-field system with finite differences
    x0 = we.sol.x_core - 1.0

    def rhs(x, y):
        rho = math.exp(x)
        return [we.G1(rho) * y[2], 0.0, we.H2(rho) * y[2], 0.0]

    out = integrate.solve_ivp(rhs, (x0, 16.5), [0.0, 0.0, 1.0, 0.0],
                              method="DOP853", rtol=1e-12, atol=1e-14,
                              dense_output=True)
    assert out.success

    def Wf(rho, psi):
        x = math.log(rho)
        y = out.sol(x)
        W = np.array([y[0] + 1j * y[1], y[2] + 1j * y[3]])
        h = 1e-6
        yp, ym = out.sol(x + h), out.sol(x - h)
        dWdx = np.array([(yp[0] - ym[0]) + 1j * (yp[1] - ym[1]),
                         (yp[2] - ym[2]) + 1j * (yp[3] - ym[3])]) / (2 * h)
        return W, dWdx / rho, np.zeros(2, complex)

    worst = max(L.full_system_residual(we, Wf, float(rho), 0.6)
                for rho in np.geomspace(0.05, 1e3, 150))
    assert worst <= 1e-7
    # the branch decays at the recorded asymptotic rate
    y_a, y_b = out.sol(12.0), out.sol(16.0)
    rate = (math.log(abs(y_b[2])) - math.log(abs(y_a[2]))) / 4.0
    assert rate == pytest.approx(we.H2_inf, abs=1e-4)


def test_a_norm_flag_and_scaling(we, bp):
    rep = L.a_norm_report(we)
    assert rep["a_norm"] == we.a_norm
    assert rep["below_2"] == (we.a_norm < 2.0)
    # halving the profiles halves the norm (the coefficient F is
    # scale-invariant, the (h1, h2) factor is linear)
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
    sols = PL.solve_plane(bps, r_at_1=bps.core_end / 2.0)
    wes = L.assemble_W_equation(bps, sols)
    assert wes.a_norm == pytest.approx(c * we.a_norm, rel=1e-5)
    assert wes.a_norm < we.a_norm


def test_sz_inequality_single_mode_is_sharp():
    rng = np.random.default_rng(10)
    out = L.sz_inequality_check([L.random_truncated_field(rng, [2])])
    assert out["min_ratio"] == pytest.approx(2.0, abs=1e-12)


def test_sz_inequality_random_fields():
    rng = np.random.default_rng(11)
    fields = [L.random_truncated_field(
        rng, rng.integers(2, 11, size=3).tolist()) for _ in range(100)]
    out = L.sz_inequality_check(fields)
    assert out["min_ratio"] >= 2.0 - 1e-9


def test_sz_inequality_streams_fields():
    # a generator of fields, drawn as the check consumes them, gives the
    # same report as the list of the same draws
    def draws():
        rng = np.random.default_rng(11)
        return (L.random_truncated_field(
            rng, rng.integers(2, 11, size=3).tolist()) for _ in range(100))
    out = L.sz_inequality_check(draws())
    assert out == L.sz_inequality_check(list(draws()))
    assert out["n_fields"] == 100


def test_sz_inequality_constant_field_vacuous():
    rng = np.random.default_rng(12)
    out = L.sz_inequality_check([L.random_truncated_field(rng, [0])])
    assert out["n_vacuous"] == 1
    assert out["min_ratio"] == math.inf


def test_weight_exponent_smooth_step():
    assert L.weight_exponent(0.5, 0.5, 1.0, 10.0) == 2.0
    assert L.weight_exponent(20.0, 0.5, 1.0, 10.0) == 0.5
    mid = L.weight_exponent(5.5, 0.5, 1.0, 10.0)
    assert 0.5 < mid < 2.0


def test_mode_shooting_table_shape(we):
    header, rows = L.mode_shooting_table(we, k_max=2, n_samples=7)
    assert header == ["block", "direction", "rho", "log10_norm"]
    blocks = {r[0] for r in rows}
    assert blocks == {0, 1, 2}
    # the w1m direction of block 1 decays (negative log-norm slope)
    w1m = [r for r in rows if r[0] == 1 and r[1] == "w1m_re"]
    assert w1m[-1][3] < w1m[0][3]


def test_block_matrix_matches_complex_arithmetic(we):
    # independent oracle for the real block assembly: evolve a random
    # complex quadruple under the written-out equations and compare
    rng = np.random.default_rng(13)
    for k in (1, 2, 5):
        z = rng.standard_normal(8)
        w1p, w1m = z[0] + 1j * z[1], z[2] + 1j * z[3]
        w2p, w2m = z[4] + 1j * z[5], z[6] + 1j * z[7]
        rho = float(rng.uniform(0.5, 5.0))
        G1, H2 = we.G1(rho), we.H2(rho)
        chi = (w2p + np.conj(w2m)) / 2.0
        d_complex = [k * w1p + G1 * chi,
                     -k * w1m + G1 * np.conj(chi),
                     k * w2p + H2 * chi,
                     -k * w2m + H2 * np.conj(chi)]
        A = L._block_matrix(k, G1, H2)
        d_real = A @ z
        flat = []
        for val in d_complex:
            flat += [val.real, val.imag]
        assert np.allclose(d_real, flat, atol=1e-13)


def test_block0_matrix_matches_written_equations(we):
    rng = np.random.default_rng(14)
    z = rng.standard_normal(4)
    rho = 2.2
    G1, H2 = we.G1(rho), we.H2(rho)
    d = L._block_matrix(0, G1, H2) @ z
    assert np.allclose(d, [G1 * z[2], 0.0, H2 * z[2], 0.0], atol=1e-15)


# ----------------------------------------------------------------------
# oracle: per-direction shooting through the plane interpolant
# ----------------------------------------------------------------------

def _reference_rhs(we, k):
    """The block system written out in complex arithmetic, with both
    coefficients looked up through r(rho) at every evaluation."""
    def rhs(x, y):
        rho = math.exp(x)
        G1, H2 = we.G1(rho), we.H2(rho)
        if k == 0:
            return [G1 * y[2], 0.0, H2 * y[2], 0.0]
        w1p, w1m, w2p, w2m = y[0::2] + 1j * y[1::2]
        chi = (w2p + np.conj(w2m)) / 2.0
        d = np.array([k * w1p + G1 * chi, -k * w1m + G1 * np.conj(chi),
                      k * w2p + H2 * chi, -k * w2m + H2 * np.conj(chi)])
        return np.column_stack([d.real, d.imag]).ravel()
    return rhs


def _reference_shoot(we, k, Y, a, b):
    """Propagate each column of Y on its own from x = a to x = b."""
    rhs = _reference_rhs(we, k)
    cols = []
    for j in range(Y.shape[1]):
        out = integrate.solve_ivp(rhs, (a, b), Y[:, j], method="DOP853",
                                  rtol=1e-11, atol=1e-13)
        assert out.success
        cols.append(out.y[:, -1])
    return np.array(cols).T


def _reference_integrate_basis(we, k, basis, x_from, x_to):
    """Orthonormal basis of the span of ``basis`` shot from x_from to
    x_to, with QR after every unit step in x."""
    Y = np.linalg.qr(basis)[0]
    n_chunk = max(1, math.ceil(abs(x_to - x_from)))
    edges = np.linspace(x_from, x_to, n_chunk + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        Y = np.linalg.qr(_reference_shoot(we, k, Y, a, b))[0]
    return Y


def _reference_log10_norms(we, k_max, n_samples):
    """log10_norm column of the mode table, one direction at a time."""
    x_a = we.sol.x_core - 1.0
    xs = np.linspace(x_a, we.sol.x_max, n_samples)
    out = []
    for block in range(k_max + 1):
        basis = L._inner_basis(block, x_a)
        for j in range(basis.shape[1]):
            v = basis[:, j:j + 1] / np.linalg.norm(basis[:, j])
            logn = 0.0
            out.append(logn)
            for a, b in zip(xs[:-1], xs[1:]):
                v = _reference_shoot(we, block, v, a, b)
                nrm = np.linalg.norm(v)
                logn += math.log10(nrm)
                v = v / nrm
                out.append(logn)
    return np.array(out)


def test_mode_table_matches_per_direction_oracle(we):
    _, rows = L.mode_shooting_table(we, k_max=2, n_samples=9)
    ref = _reference_log10_norms(we, 2, 9)
    got = np.array([r[3] for r in rows])
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-8


def test_kernel_matches_per_direction_oracle(we, monkeypatch):
    # the regular-at-0 sweep does not depend on delta (nor, mostly, does
    # the admissible basis): shoot each distinct request only once
    memo = {}
    calls = []

    def reference(we, blocks, bases, x_from, x_to):
        calls.append(list(blocks))
        out = []
        for k, basis in zip(blocks, bases):
            key = (k, basis.tobytes(), x_from, x_to)
            if key not in memo:
                memo[key] = _reference_integrate_basis(we, k, basis, x_from,
                                                       x_to)
            out.append(memo[key])
        return out

    d0 = we.default_delta()
    for d in (0.8 * d0, d0, 1.2 * d0):
        new = L.kernel_dimension(we, delta=d, k_max=2)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(L, "_sweep", reference)
            ref = L.kernel_dimension(we, delta=d, k_max=2)
        # both sweeps (inner and outer) went through the reference
        assert calls == [[0, 1, 2], [0, 1, 2]]
        assert new.per_mode == ref.per_mode
        assert new.total == ref.total == 5
        assert new.angles.keys() == ref.angles.keys()
        for block in ref.angles:
            np.testing.assert_allclose(new.angles[block], ref.angles[block],
                                       rtol=0.0, atol=1e-8)
            np.testing.assert_allclose(new.conditioning[block],
                                       ref.conditioning[block],
                                       rtol=0.0, atol=1e-8)


def test_stacked_blocks_match_blocks_alone_at_high_k():
    # DOP853's error norm spans every block of the stacked state; on the
    # stiff k = -2 cos n = 3 config the table of blocks 0..8 shot
    # together must match each block shot alone through _propagate
    cfg = parse_config("[twist]\nk = -2\nshape = cos\n[run]\nn = 3\n")
    we = cli.Model(cfg).we
    k_max, n_samples = 8, 25
    _, rows = L.mode_shooting_table(we, k_max=k_max, n_samples=n_samples)
    together = np.array([r[3] for r in rows])
    x_a = we.sol.x_core - 1.0
    xs = np.linspace(x_a, we.sol.x_max, n_samples)
    alone = []
    for block in range(k_max + 1):
        basis = L._inner_basis(block, x_a)
        Y = basis / np.linalg.norm(basis, axis=0)
        logn = [np.zeros(Y.shape[1])]
        for a, b in zip(xs[:-1], xs[1:]):
            [Y] = L._propagate(we, [block], [Y], float(a), float(b))
            nrm = np.linalg.norm(Y, axis=0)
            logn.append(logn[-1] + np.log10(nrm))
            Y = Y / nrm
        alone += np.array(logn).T.ravel().tolist()
    assert together.shape == (len(alone),)
    assert np.max(np.abs(together - np.array(alone))) <= 1e-9


# ----------------------------------------------------------------------
# oracle: the array assembly against per-point loops
# ----------------------------------------------------------------------

MODES_CONFIG = "[twist]\nk = -2\nshape = cos\n[run]\nn = 3\n[lincr]\nk_max = 8\n"
COLLAR_CONFIG = ("[twist]\nk = -3\np_plateau = 0.9\nshape = cos2\n"
                 "[binding]\nshape = collar\nr0 = 1.3256834340201944\n"
                 "r_max = 3.0\n")


@pytest.mark.parametrize("text", ["", MODES_CONFIG, COLLAR_CONFIG],
                         ids=["default", "modes", "collar"])
def test_array_assembly_matches_point_loops(text):
    # the three checks of assemble_W_equation, each redone one float at
    # a time through the same functions (the loops the array code replaced)
    model = cli.Model(parse_config(text))
    bp, sol, we = model.bp, model.sol, model.we
    top = math.exp(sol.x_max)

    rhos = np.geomspace(1e-4, top, 64)
    detH = [bp.detH(sol.r_of_rho(float(rho))) for rho in rhos]
    np.testing.assert_allclose(bp.detH(sol.r_of_rho(rhos)), detH,
                               rtol=1e-15, atol=0.0)
    assert min(abs(d) for d in detH) >= 1e-14

    a_norm = 0.0
    for rho in np.geomspace(1e-3, top, 4000):
        F, h1, h2, _ = L._coefficients(bp, sol.r_of_rho(float(rho)))
        a_norm = max(a_norm, abs(F) * math.hypot(h1, h2))
    assert we.a_norm == pytest.approx(a_norm, rel=1e-15, abs=0.0)

    worst = 0.0
    for name in ("const_re", "translation"):
        Wf = L.s_basis(we, name)
        for rho in np.geomspace(1e-2, math.exp(0.9 * sol.x_max), 1000):
            worst = max(worst, L.full_system_residual(we, Wf, float(rho), 0.37))
    assert we.back_substitution_residual == pytest.approx(worst, rel=1e-12,
                                                          abs=1e-16)
    assert we.back_substitution_residual <= 1e-8


def test_array_s_basis_matches_floats(we):
    rhos = np.geomspace(1e-3, 1e5, 50)
    for name in ("const_re", "const_im", "trans_re", "trans_im",
                 "translation"):
        Wf = L.s_basis(we, name)
        arrays = Wf(rhos, 0.7)
        for j, rho in enumerate(rhos):
            for got, ref in zip(arrays, Wf(float(rho), 0.7)):
                assert ref.shape == (2,)
                np.testing.assert_allclose(got[:, j], ref, rtol=1e-15,
                                           atol=0.0)


def test_lean_rhs_matches_block_matrices(we):
    # k*y + g*(T y) through flat indices against _block_matrix(k, G1, H2)
    # applied to each block's columns, at random states and coefficients
    rng = np.random.default_rng(17)
    blocks = tuple(range(9))
    for ncols in ((4, 6, 4, 4, 4, 4, 4, 4, 4), (2, 4, 3, 1, 4, 2, 3, 4, 4)):
        shapes = tuple((4 if b == 0 else 8, c) for b, c in zip(blocks, ncols))
        system = L._stacked_system(blocks, shapes)
        for _ in range(5):
            Ys = [rng.standard_normal(shape) for shape in shapes]
            G1, H2 = rng.uniform(-3.0, 3.0, 2)
            got = L._apply_stacked(system, G1, H2,
                                   np.concatenate([Y.ravel() for Y in Ys]))
            ref = np.concatenate([(L._block_matrix(b, G1, H2) @ Y).ravel()
                                  for b, Y in zip(blocks, Ys)])
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_collar_quintic_passes_fd_oracle(seed):
    # the collar's quintic pieces on [rB, r_c] = [0.50, 1.02]: solved in
    # the monomial basis of r their rounding noise put the exact-vs-FD
    # dalpha gap at 4e-9 to 1.3e-8, above the 1e-9 gate
    model = cli.Model(parse_config(COLLAR_CONFIG))
    suite = geometry.identity_suite(model.tp, model.bp, n=model.cfg.n,
                                    n_points=200, seed=seed)
    assert suite["dalpha_exact_vs_fd"] <= 1e-9


def test_validate_passes_on_collar_config(tmp_path, capsys):
    cfg = tmp_path / "collar.cfg"
    cfg.write_text(COLLAR_CONFIG)
    out = tmp_path / "o"
    assert cli.main(["validate", "--config", str(cfg), "--quiet",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rep = json.loads((out / "validate.json").read_text())
    assert all(cli.gate_passes(cli.gate_values({"validate": rep})).values())

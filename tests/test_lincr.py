import functools
import json
import math

import numpy as np
import pytest
from scipy import integrate, optimize

from conftest import COLLAR_CONFIG, MODES_CONFIG

from reebtwist import cli, geometry
from reebtwist import lincr as L
from reebtwist import magnus as M
from reebtwist import plane as PL
from reebtwist import profiles as P
from reebtwist.config import parse_config


def rho_at_r(sol, r):
    return optimize.brentq(lambda rho: sol.r_of_rho(rho) - r, 1e-8, 1e9)


# Oracles of the reduced equation: its residual at a point for a field
# with known derivatives, and the closed-form eigen-structure of the
# phase-plane matrix.

def w_equation_residual(we, Wf, rho: float, psi: float) -> float:
    """Residual of the reduced equation at (rho, psi) for a field with
    known derivatives."""
    W, dWr, dWp = Wf(rho, psi)
    F, h1, h2, _ = L._coefficients(we.bp, we.sol.r_of_rho(rho))
    rhs = (F / rho) * W[1].real * np.array([h1, -h2], complex)
    return float(np.max(np.abs(dWr + (1j / rho) * dWp - rhs)))


def phase_plane_eigen(we, rho: float) -> dict:
    """Eigen-structure of [[H2, 1], [1, 0]] at the given radius:
    expanding/contracting values H2/2 +- sqrt(H2^2/4 + 1) with
    eigenvectors (1, -H2/2 +- sqrt(H2^2/4 + 1))."""
    H2 = we.H2(rho)
    root = math.sqrt(H2 * H2 / 4.0 + 1.0)
    return {
        "H2": H2,
        "expanding": H2 / 2.0 + root,
        "contracting": H2 / 2.0 - root,
        "vec_expanding": np.array([1.0, -H2 / 2.0 + root]),
        "vec_contracting": np.array([1.0, -H2 / 2.0 - root]),
    }


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
        worst = max(w_equation_residual(we, Wf, float(rho), 0.31)
                    for rho in rhos)
        assert worst <= 1e-8, name
    # the constant element is exact to machine precision
    Wf = L.s_basis(we, "const_re")
    assert max(w_equation_residual(we, Wf, float(r), 1.1)
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
    rep = phase_plane_eigen(we, 1e-3)
    assert rep["expanding"] == pytest.approx(1.0, abs=1e-14)
    assert rep["contracting"] == pytest.approx(-1.0, abs=1e-14)
    assert np.allclose(rep["vec_expanding"], [1.0, 1.0])
    assert np.allclose(rep["vec_contracting"], [1.0, -1.0])
    # determinant of the phase-plane matrix is -1: the product of the
    # eigenvalues at any radius
    for rho in (0.5, 2.0, 50.0, 1e4):
        rep = phase_plane_eigen(we, rho)
        assert rep["expanding"] * rep["contracting"] == pytest.approx(
            -1.0, abs=1e-12)


def test_phase_plane_matches_dense_eigensolver(we):
    rho = rho_at_r(we.sol, we.bp.r0 / 2.0)
    rep = phase_plane_eigen(we, rho)
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
            M2 = _block_matrix(k, we.G1(rho), H2)[np.ix_([4, 6], [4, 6])]
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


@pytest.mark.parametrize("starts", [
    [[1.0, 1.0], [math.nan, 1.0]], [[1.0, 1.0], [math.inf, 1.0]],
    [[1.0, 1.0], [1.0]], [[1.0, 1.0], [1.0, 1.0, 1.0]],
    [[1.0, 1.0], [0.0, 1.0]], []],
    ids=["nan", "inf", "short", "long", "axis", "none"])
def test_cone_invariance_rejects_malformed_starts(we, starts):
    # every start must be a finite point of the open first quadrant of
    # R^2, and there must be one
    with pytest.raises(L.LinCRError, match="start"):
        L.cone_invariance_check(we, (0.01, 0.1), starts)


@pytest.mark.parametrize("text", ["", MODES_CONFIG, COLLAR_CONFIG],
                         ids=["default", "modes", "collar"])
def test_cone_invariance_matches_scipy_dop853(text):
    # the Magnus propagation of the cone check against scipy's DOP853 at
    # rtol 1e-13 on the phase-plane system, every start in one stacked
    # integration: the growth ratios agree to 1e-9 relative (they read
    # at most 1.0e-13, 9.7e-14 and 4.9e-12), and every chunk meets
    # magnus.SHOOT_TOL (the largest estimates read 4.9e-16, 6.9e-14 and
    # 7.3e-14)
    we = cli.Model(parse_config(text)).we
    starts = np.array([[1.0, 1.0], [1.0, 0.5], [0.1, 1.0], [1.0, 1e-12]])
    n = len(starts)

    def rhs(x, y):
        H2 = we.H2(math.exp(x))
        return np.concatenate([H2 * y[:n] + y[n:], y[:n]])

    for span in ((0.01, 0.1), (0.5, 50.0), (0.01, 1e4)):
        rep = L.cone_invariance_check(we, span, starts)
        assert rep["all_stayed"] and rep["richardson"] <= M.SHOOT_TOL
        ref = integrate.solve_ivp(rhs, np.log(span), starts.T.ravel(),
                                  method="DOP853", rtol=1e-13, atol=1e-15)
        assert ref.success
        v1 = ref.y[:, -1].reshape(2, n)
        for got, v0, end in zip(rep["per_start"], starts, v1.T):
            assert got["growth_diagonal"] == pytest.approx(
                end.sum() / v0.sum(), rel=1e-9, abs=0.0)
            assert got["growth_norm"] == pytest.approx(
                np.linalg.norm(end) / np.linalg.norm(v0), rel=1e-9, abs=0.0)


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
    basis = _inner_basis(1, we.sol.x_core - 1.0)[:, 4:]  # w2p directions
    x_mid, x_end = 1.0, 4.0
    [Ymid] = _propagate(we, [1], [basis], we.sol.x_core - 1.0, x_mid)
    [Yend] = _propagate(we, [1], [Ymid], x_mid, x_end)
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


def test_a_norm_flag_and_scaling(we, bp, all_run):
    # the default run's kernel.json records the norm and its flag
    rep = json.loads((all_run[0] / "kernel.json").read_text())["a_norm"]
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


def test_sz_inequality_constant_field_vacuous():
    rng = np.random.default_rng(12)
    out = L.sz_inequality_check([L.random_truncated_field(rng, [0])])
    assert out["n_vacuous"] == 1
    assert out["min_ratio"] == math.inf


def test_sz_inequality_low_modes_field_vacuous():
    # nothing survives the truncation: the Gram form's norm is 0, where
    # the oracle's grid keeps the FFT's rounding in the other bins
    rng = np.random.default_rng(12)
    out = L.sz_inequality_check([L.random_truncated_field(rng, [-1, 0, 1])])
    assert out["n_vacuous"] == 1
    assert out["min_ratio"] == math.inf


# Oracle of the SZ check: the field of drawn modes and coefficients
# synthesized on the patch's radii and SZ_N_PSI angles, and the check on
# that grid by an FFT over the angle, its bins of modes -1, 0, 1 masked
# and Parseval taken per radius.  Every drawn mode lies below the
# Nyquist bin, so the FFT is exact up to rounding.

SZ_N_PSI = 64


def _grid_field(modes, coefs):
    """(rhos, psis, vals) of a field of random_truncated_field: the
    radial amplitudes broadcast over radius, one mode's term at a time
    added in order; vals of shape (n_rho, n_psi, 2), psi contiguous."""
    rhos, basis = L._sz_patch()
    psis = np.linspace(0.0, 2.0 * math.pi, SZ_N_PSI, endpoint=False)
    # axes: mode, radius (broadcast), component, coefficient
    c = np.asarray(coefs)[:, None]
    amp = (c[..., 0] + c[..., 1] * basis[1][:, None]
           + c[..., 2] * basis[2][:, None])
    vals = np.zeros((rhos.size, 2, psis.size), complex)
    for kj, aj in zip(np.asarray(modes).tolist(), amp):
        vals += aj[..., None] * np.exp(1j * kj * psis)
    return rhos, psis, vals.transpose(0, 2, 1)


def _fft_check(fields, delta=0.5):
    """sz_inequality_check's report on grid fields, by the FFT."""
    ratios = []
    vacuous = 0
    for rhos, psis, vals in fields:
        n_psi = vals.shape[1]
        freqs = np.fft.fftfreq(n_psi, d=1.0 / n_psi).astype(int)
        dpsi = np.repeat((1j * freqs)[:, None], 2, axis=1)
        wgt = np.exp(L.weight_exponent(rhos, delta, L.SZ_RHO_0, L.SZ_RHO_INF)
                     * rhos)
        # C order fixes the summation order of the norms
        hat = np.ascontiguousarray(np.fft.fft(vals, axis=1))
        hat[:, np.isin(freqs, (-1, 0, 1)), :] = 0.0
        # Parseval per radius: sum |hat|^2 / n_psi^2 * n_psi, of
        # dW~/dpsi and of W~
        norm2_psi = np.array([np.sum(np.abs(h) ** 2, axis=(1, 2)) / n_psi
                              for h in (hat * dpsi, hat)])
        num, den = np.trapezoid(norm2_psi * (wgt / wgt.max()), rhos)
        if den <= 1e-300:
            vacuous += 1
            continue
        ratios.append(math.sqrt(num / den))
    return {
        "n_fields": len(fields),
        "n_vacuous": vacuous,
        "min_ratio": min(ratios) if ratios else float("inf"),
    }


def _assert_ulps(got, ref, ulps=4):
    assert abs(got - ref) <= ulps * np.spacing(ref), (got, ref)


def _reference_field(rng, modes):
    """The field generator one mode and component at a time: three
    real then three imaginary normals per (mode, component), summed
    into the field as outer products over (rho, psi)."""
    rhos = np.geomspace(0.5, 30.0, 48)
    psis = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    vals = np.zeros((48, 64, 2), complex)
    xs = np.log(rhos)
    for k in modes:
        for comp in range(2):
            c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            amp = (c[0] + c[1] * np.sin(xs / 3.0) + c[2] * np.cos(xs / 2.0))
            vals[:, :, comp] += np.outer(amp, np.exp(1j * k * psis))
    return rhos, psis, vals


@pytest.mark.parametrize("seed", [0, 1, 17, 18, 4242])
def test_random_field_matches_per_mode_oracle(seed):
    # the oracle's grid of the drawn coefficients equals the per-mode
    # loop bit for bit, and the draw leaves the generator where the loop
    # leaves it: random modes as the CLI draws them, a repeated mode, a
    # single mode, mode 0 and no mode
    draws = [np.random.default_rng(seed) for _ in range(2)]
    mode_lists = [[3, 3, 7], [2], [0], [], [10, 2, 2, 5]]
    for i in range(8):
        modes = [r.integers(2, 11, size=3).tolist() for r in draws]
        assert modes[0] == modes[1]
        mode_lists.insert(i, modes[0])
    for modes in mode_lists:
        ref = _reference_field(draws[0], modes)
        got = _grid_field(*L.random_truncated_field(draws[1], modes))
        for a, b in zip(ref, got):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), modes
        assert draws[0].bit_generator.state == draws[1].bit_generator.state


def test_sz_patch_is_read_only():
    # the radii and radial basis shared by the Gram form and the
    # oracle's grid fields cannot be changed through either
    rhos, basis = L._sz_patch()
    field = _grid_field(*L.random_truncated_field(np.random.default_rng(0),
                                                  [2]))
    assert field[0] is rhos
    for a in (rhos, basis):
        with pytest.raises(ValueError):
            a[0] = 1.0
    assert L._sz_patch() is L._sz_patch()


@pytest.mark.parametrize("draw", ["default", "modes", "collar",
                                  "criterion_08"])
def test_sz_check_matches_fft_oracle_on_the_runs_draws(draw):
    # the draws of stage_lincr with its seed and delta, and criterion
    # 08's: the same report as the FFT oracle, min_ratio within 4 ulps,
    # and the generator left where the per-mode loop leaves it
    if draw == "criterion_08":
        seed, delta = 4, 0.5
    else:
        text = {"default": "", "modes": MODES_CONFIG,
                "collar": COLLAR_CONFIG}[draw]
        model = cli.Model(parse_config(text))
        seed, delta = model.cfg.seed + 17, model.we.default_delta()
    rng, ref = (np.random.default_rng(seed) for _ in range(2))
    fields, grids = [], []
    for _ in range(100):
        fields.append(L.random_truncated_field(
            rng, rng.integers(2, 11, size=3)))
        grids.append(_reference_field(ref, ref.integers(2, 11, size=3)))
    assert rng.bit_generator.state == ref.bit_generator.state
    got, want = L.sz_inequality_check(fields, delta), _fft_check(grids, delta)
    assert got["n_fields"] == want["n_fields"] == 100
    assert got["n_vacuous"] == want["n_vacuous"] == 0
    _assert_ulps(got["min_ratio"], want["min_ratio"])


# draws that reach the truncation: modes -1, 0 and 1 beside surviving
# modes, negative modes and repeated ones
TRUNCATION_CASES = [[-1, 0, 3], [1, -2, 0], [2, -2, 1], [-3, 5, -3],
                    [4, 4, 4], [0, 1, -1, -5, 6, -5, 1], [-10, 10, 9]]


@pytest.mark.parametrize("modes", TRUNCATION_CASES,
                         ids=[str(m) for m in TRUNCATION_CASES])
@pytest.mark.parametrize("delta", [0.5, 0.02739441901955972],
                         ids=["delta_default", "delta_collar"])
def test_sz_check_matches_fft_oracle_on_the_truncation(modes, delta):
    # at the default config's delta and the collar config's, each field
    # alone, within 4 ulps of the oracle
    rng = np.random.default_rng(31)
    for _ in range(10):
        field = L.random_truncated_field(rng, modes)
        got = L.sz_inequality_check([field], delta)
        want = _fft_check([_grid_field(*field)], delta)
        assert got["n_vacuous"] == want["n_vacuous"] == 0
        _assert_ulps(got["min_ratio"], want["min_ratio"])


def test_weight_exponent_smooth_step():
    assert L.weight_exponent(0.5, 0.5, 1.0, 10.0) == 2.0
    assert L.weight_exponent(20.0, 0.5, 1.0, 10.0) == 0.5
    mid = L.weight_exponent(5.5, 0.5, 1.0, 10.0)
    assert 0.5 < mid < 2.0


@pytest.mark.parametrize("delta", [0.1, 0.5, 0.9])
def test_weight_exponent_array_matches_floats(delta):
    # the array exponent equals the float path bit for bit, on both
    # plateaus and the step; the weights exp(w * rho) of the check, numpy
    # against math, agree to an ulp
    rhos = np.concatenate([np.linspace(0.0, 12.0, 4001), [1.0, 10.0]])
    got = L.weight_exponent(rhos, delta, 1.0, 10.0)
    ref = np.array([L.weight_exponent(float(r), delta, 1.0, 10.0)
                    for r in rhos])
    assert isinstance(ref[0], float) and np.array_equal(got, ref)
    wgt = np.array([math.exp(w * r) for w, r in zip(ref, rhos)])
    assert np.all(np.abs(np.exp(got * rhos) - wgt) <= np.spacing(wgt))


def test_sz_weights_match_point_loop():
    # the min ratio of the Gram form against the per-radius loop of
    # the FFT norms on the oracle's grid fields
    def ratio_by_loop(rhos, psis, vals, delta=0.5):
        n_psi = vals.shape[1]
        hat = np.fft.fft(vals, axis=1)
        freqs = np.fft.fftfreq(n_psi, d=1.0 / n_psi).astype(int)
        hat[:, np.isin(freqs, (-1, 0, 1)), :] = 0.0
        norm2 = np.sum(np.abs(hat) ** 2, axis=(1, 2)) / n_psi
        dnorm2 = np.sum(np.abs(hat * (1j * freqs)[None, :, None]) ** 2,
                        axis=(1, 2)) / n_psi
        wgt = np.array([math.exp(L.weight_exponent(r, delta, 1.0, 10.0) * r)
                        for r in rhos])
        wgt = wgt / wgt.max()
        return math.sqrt(np.trapezoid(dnorm2 * wgt, rhos)
                         / np.trapezoid(norm2 * wgt, rhos))

    rng = np.random.default_rng(21)
    fields = [L.random_truncated_field(rng, rng.integers(2, 11, size=3).tolist())
              for _ in range(10)]
    ref = min(ratio_by_loop(*_grid_field(*f)) for f in fields)
    got = L.sz_inequality_check(fields)["min_ratio"]
    assert abs(got - ref) <= 4 * np.finfo(float).eps * ref


def test_mode_shooting_table_shape(we):
    header, rows = L.mode_shooting_table(we, L._forward(we, 2))
    assert header == ["block", "direction", "rho", "log10_norm"]
    blocks = {r[0] for r in rows}
    assert blocks == {0, 1, 2}
    # the w1m direction of block 1 decays (negative log-norm slope)
    w1m = [r for r in rows if r[0] == 1 and r[1] == "w1m_re"]
    assert w1m[-1][3] < w1m[0][3]


def test_mode_table_labels_name_the_inner_basis_slots(we):
    # block 0 has its four real slots; block 1 starts in w1p, w1m and
    # w2p; every higher block in w1p and w2p only (no regular w1m)
    _, rows = L.mode_shooting_table(we, L._forward(we, 3))
    names = {}
    for block, name, _, _ in rows:
        names.setdefault(block, []).append(name)
    assert {b: list(dict.fromkeys(v)) for b, v in names.items()} == {
        0: ["w1_re", "w1_im", "w2_re", "w2_im"],
        1: ["w1p_re", "w1p_im", "w1m_re", "w1m_im", "w2p_re", "w2p_im"],
        2: ["w1p_re", "w1p_im", "w2p_re", "w2p_im"],
        3: ["w1p_re", "w1p_im", "w2p_re", "w2p_im"],
    }
    # the w2p directions of a block >= 2 grow like e^{kx} modulated by
    # the coupling, never decay like the w1m direction of block 1
    w2p = [r[3] for r in rows if r[0] == 2 and r[1] == "w2p_re"]
    assert w2p[-1] > w2p[0]


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
        A = _block_matrix(k, G1, H2)
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
    d = _block_matrix(0, G1, H2) @ z
    assert np.allclose(d, [G1 * z[2], 0.0, H2 * z[2], 0.0], atol=1e-15)


# ----------------------------------------------------------------------
# oracle: the 8-D block systems, all blocks shot as one stacked system
# ----------------------------------------------------------------------
# Block |k| couples the four complex amplitudes
#   (w1p, w1m, w2p, w2m) = (modes +k/-k of W_1, modes +k/-k of W_2)
# through chi = (w2p + conj(w2m))/2, the mode-k amplitude of Re W_2:
#   w1p' = +k w1p + G1 chi,   w1m' = -k w1m + G1 conj(chi),
#   w2p' = +k w2p + H2 chi,   w2m' = -k w2m + H2 conj(chi)
# (derivatives in x = log rho).  Real state: [Re, Im] of each slot.
# This is the unreduced shooting: the columns of every block grow with
# e^{kx}, which sets DOP853's step.

_SLOTS = ("w1p", "w1m", "w2p", "w2m")


@functools.lru_cache(maxsize=None)
def _block_parts(k: int):
    """Constant matrices (K, P, Q) of the block-|k| system
    A = K + G1*P + H2*Q, built once per block and read-only.  Block 0
    is 4-dimensional, state (Re w1, Im w1, Re w2, Im w2), and only
    Re w2 couples."""
    if k == 0:
        K, P, Q = np.zeros((3, 4, 4))
        P[0, 2] = 1.0
        Q[2, 2] = 1.0
    else:
        K = np.diag(k * np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0]))
        # Re chi = (Re w2p + Re w2m)/2, Im chi = (Im w2p - Im w2m)/2;
        # the rows of a +k slot take chi, those of a -k slot conj(chi)
        re_chi = np.array([0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.5, 0.0])
        im_chi = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0, -0.5])
        takes = np.array([re_chi, im_chi, re_chi, -im_chi])
        P, Q = np.zeros((2, 8, 8))
        P[:4] = takes
        Q[4:] = takes
    for M in (K, P, Q):
        M.setflags(write=False)
    return K, P, Q


def _block_matrix(k: int, G1: float, H2: float) -> np.ndarray:
    K, P, Q = _block_parts(k)
    return K + G1 * P + H2 * Q


@functools.lru_cache(maxsize=64)
def _stacked_system(blocks: tuple, shapes: tuple):
    """Every block's A = K + G1*P + H2*Q as flat arrays over the
    unpadded stacked state: the columns of block ``blocks[i]`` (shape
    ``shapes[i]``) one block after another, each raveled row-major.

    K is diagonal and P, Q have disjoint nonzero rows, so with the
    constant T = P + Q, A Y = k * Y + g * (T Y), g being G1 on the rows
    of P and H2 on those of Q.  No row of T has more than two nonzeros,
    so (T Y)[e] = w[0][e] * y[src[0][e]] + w[1][e] * y[src[1][e]].
    Returns (k, coupling, src, w) with coupling 0 on the rows of P and 1
    elsewhere (an index into (G1, H2)); built once per key, read-only."""
    k, coupling, src, w = [], [], [], []
    offset = 0
    for block, (dim, ncols) in zip(blocks, shapes):
        K, P, Q = _block_parts(block)
        T = P + Q
        cols = np.zeros((dim, 2), int)
        wts = np.zeros((dim, 2))
        for i in range(dim):
            nz = np.flatnonzero(T[i])
            cols[i, :len(nz)], wts[i, :len(nz)] = nz, T[i, nz]
        col = np.arange(ncols)[None, :, None]
        src.append((offset + cols[:, None, :] * ncols + col).reshape(-1, 2))
        w.append(np.broadcast_to(wts[:, None, :], (dim, ncols, 2)).reshape(-1, 2))
        k.append(np.repeat(np.diag(K), ncols))
        coupling.append(np.repeat(~P.any(axis=1), ncols).astype(int))
        offset += dim * ncols
    src, w = np.concatenate(src).T.copy(), np.concatenate(w).T.copy()
    parts = (np.concatenate(k), np.concatenate(coupling), src, w)
    for a in parts:
        a.setflags(write=False)
    return parts


def _apply_stacked(system, G1: float, H2: float, y: np.ndarray) -> np.ndarray:
    """A y for the stacked state y of ``_stacked_system``."""
    k, coupling, src, w = system
    TY = w[0] * y[src[0]] + w[1] * y[src[1]]
    return k * y + np.array((G1, H2))[coupling] * TY


# the DOP853 tolerances of the _propagate oracle
ORACLE_RTOL, ORACLE_ATOL = 1e-11, 1e-13


def _propagate(we, blocks, Ys, x_from: float, x_to: float) -> list:
    """Propagate the columns of each ``Ys[i]`` under the block-``blocks[i]``
    system from x_from to x_to, all blocks in one solve_ivp, with the
    plane radius carried in the state (dr/dx = h2'(r)) and anchored at
    x_from on the plane solution."""
    bp = we.bp
    system = _stacked_system(tuple(blocks), tuple(Y.shape for Y in Ys))
    n = system[0].size

    def rhs(_x, y):
        F, h1, h2, h2d = L._coefficients(bp, y.item(n))
        dy = np.empty(n + 1)
        dy[:n] = _apply_stacked(system, h1 * F, -h2 * F, y[:n])
        dy[n] = h2d
        return dy

    y0 = np.concatenate([Y.ravel() for Y in Ys]
                        + [[we.sol.r_of_rho(math.exp(x_from))]])
    out = integrate.solve_ivp(rhs, (x_from, x_to), y0, method="DOP853",
                              rtol=ORACLE_RTOL, atol=ORACLE_ATOL)
    assert out.success
    ends = np.cumsum([Y.size for Y in Ys])[:-1]
    return [Yi.reshape(Y.shape)
            for Yi, Y in zip(np.split(out.y[:n, -1], ends), Ys)]


def _sweep(we, blocks, bases, x_from: float, x_to: float) -> list:
    """Orthonormal bases of the spans of ``bases[i]`` (block
    ``blocks[i]``) propagated from x_from to x_to, all blocks together
    in one solve_ivp per unit step in x, with QR renormalization per
    block before the first and after every step."""
    Ys = [np.linalg.qr(B)[0] for B in bases]
    n_chunk = max(1, int(math.ceil(abs(x_to - x_from))))
    edges = np.linspace(x_from, x_to, n_chunk + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        Ys = [np.linalg.qr(Y)[0]
              for Y in _propagate(we, blocks, Ys, float(a), float(b))]
    return Ys


def _inner_basis(block: int, x_a: float) -> np.ndarray:
    """Directions regular at the puncture: the whole of block 0; w1p and
    w2p (and block 1's w1m, the 1/z pair) of a block k >= 1."""
    if block == 0:
        return np.eye(4)
    cols = []
    scale_p = math.exp(min(block * x_a, 50.0))
    scale_m = math.exp(max(-block * x_a, -50.0))

    def unit(slot, re_im, scl):
        v = np.zeros(8)
        v[2 * _SLOTS.index(slot) + re_im] = scl
        return v
    cols += [unit("w1p", 0, scale_p), unit("w1p", 1, scale_p)]
    if block == 1:
        cols += [unit("w1m", 0, scale_m), unit("w1m", 1, scale_m)]
    cols += [unit("w2p", 0, scale_p), unit("w2p", 1, scale_p)]
    return np.array(cols).T


def _outer_basis(we, block: int, delta: float) -> np.ndarray:
    """Directions admissible at infinity: the stable eigenspace of the
    limiting 8-D system (decay rate >= delta), plus, for mode 0, the
    two constant first-component directions."""
    lam, vec = np.linalg.eig(_block_matrix(block, we.G1_inf, we.H2_inf))
    cols = []
    for j in range(len(lam)):
        if lam[j].real <= -delta:
            cols.append(vec[:, j].real)
            if np.max(np.abs(vec[:, j].imag)) > 1e-12:
                cols.append(vec[:, j].imag)
    if block == 0:
        cols += [np.eye(4)[0], np.eye(4)[1]]
    Q, R = np.linalg.qr(np.array(cols).T)
    keep = np.abs(np.diag(R)) > 1e-10 * max(1.0, np.abs(np.diag(R)).max())
    return Q[:, keep]


def _stacked_table(we, k_max: int, n_samples: int = 25) -> np.ndarray:
    """The log10_norm column of the growth table by the stacked 8-D
    shooting: every inner-basis column propagated on its own span, one
    solve_ivp per sample interval, rescaled at every sample."""
    x_a = we.sol.x_core - 1.0
    xs = np.linspace(x_a, we.sol.x_max, n_samples)
    blocks = range(0, k_max + 1)
    Ys = [B / np.linalg.norm(B, axis=0)
          for B in (_inner_basis(b, x_a) for b in blocks)]
    logn = [[np.zeros(Y.shape[1])] for Y in Ys]
    for a, b in zip(xs[:-1], xs[1:]):
        Ys = _propagate(we, blocks, Ys, float(a), float(b))
        for j, Y in enumerate(Ys):
            nrm = np.linalg.norm(Y, axis=0)
            logn[j].append(logn[j][-1] + np.log10(np.maximum(nrm, 1e-300)))
            Ys[j] = Y / nrm
    return np.concatenate([np.array(lg).T.ravel() for lg in logn])


def _stacked_spans(we, k_max: int, deltas) -> tuple:
    """The spans at x_mid by the stacked 8-D shooting: the inner sweep
    x_a -> x_mid and, per delta, the outer sweep x_b -> x_mid, each in
    unit steps with QR.  Returns (Us, {delta: Vs})."""
    x_a, x_b = we.sol.x_core - 1.0, we.sol.x_max
    x_mid = min(2.0, 0.5 * x_b)
    blocks = range(0, k_max + 1)
    Us = _sweep(we, blocks, [_inner_basis(b, x_a) for b in blocks],
                x_a, x_mid)
    memo, Vs = {}, {}
    for d in deltas:
        bases = [_outer_basis(we, b, d) for b in blocks]
        key = b"".join(B.tobytes() for B in bases)
        if key not in memo:
            memo[key] = _sweep(we, blocks, bases, x_b, x_mid)
        Vs[d] = memo[key]
    return Us, Vs


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
        basis = _inner_basis(block, x_a)
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


def test_mode_table_matches_per_direction_oracle(we, monkeypatch):
    # nine samples keep the per-direction oracle short
    monkeypatch.setattr(L, "N_SAMPLES", 9)
    _, rows = L.mode_shooting_table(we, L._forward(we, 2))
    ref = _reference_log10_norms(we, 2, 9)
    got = np.array([r[3] for r in rows])
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-8


def test_kernel_matches_per_direction_oracle(we):
    # the same spans shot one direction at a time through the plane
    # interpolant, each request once: the regular-at-0 sweep does not
    # depend on delta, nor, mostly, does the admissible basis
    x_a, x_b = we.sol.x_core - 1.0, we.sol.x_max
    x_mid = min(2.0, 0.5 * x_b)
    blocks = range(3)
    Us = [_reference_integrate_basis(we, k, _inner_basis(k, x_a), x_a, x_mid)
          for k in blocks]
    memo = {}
    d0 = we.default_delta()
    for d in (0.8 * d0, d0, 1.2 * d0):
        new = L.kernel_dimension(we, delta=d, k_max=2)
        Vs = []
        for k in blocks:
            basis = _outer_basis(we, k, d)
            key = (k, basis.tobytes())
            if key not in memo:
                memo[key] = _reference_integrate_basis(we, k, basis, x_b,
                                                       x_mid)
            Vs.append(memo[key])
        per_mode, angles, conditioning = L._match_spans(Us, Vs, 1e-6)
        assert new.per_mode == per_mode
        assert new.total == sum(per_mode.values()) == 5
        assert new.angles.keys() == angles.keys()
        for block in angles:
            np.testing.assert_allclose(new.angles[block], angles[block],
                                       rtol=0.0, atol=1e-8)
            np.testing.assert_allclose(new.conditioning[block],
                                       conditioning[block],
                                       rtol=0.0, atol=1e-8)


def test_stacked_blocks_match_blocks_alone_at_high_k():
    # DOP853's error norm spans every block of the stacked state; on the
    # stiff k = -2 cos n = 3 config the table of blocks 0..8 shot
    # together must match each block shot alone through _propagate
    cfg = parse_config("[twist]\nk = -2\nshape = cos\n[run]\nn = 3\n")
    we = cli.Model(cfg).we
    k_max, n_samples = 8, 25
    together = _stacked_table(we, k_max, n_samples)
    x_a = we.sol.x_core - 1.0
    xs = np.linspace(x_a, we.sol.x_max, n_samples)
    alone = []
    for block in range(k_max + 1):
        basis = _inner_basis(block, x_a)
        Y = basis / np.linalg.norm(basis, axis=0)
        logn = [np.zeros(Y.shape[1])]
        for a, b in zip(xs[:-1], xs[1:]):
            [Y] = _propagate(we, [block], [Y], float(a), float(b))
            nrm = np.linalg.norm(Y, axis=0)
            logn.append(logn[-1] + np.log10(nrm))
            Y = Y / nrm
        alone += np.array(logn).T.ravel().tolist()
    assert together.shape == (len(alone),)
    assert np.max(np.abs(together - np.array(alone))) <= 1e-9


def _dense(X):
    """The 4 x 4 matrix [[P, 0], [Q, diag(D)]] of one ten-entry matrix."""
    P11, P12, P21, P22, Q11, Q12, Q21, Q22, D1, D2 = X
    return np.array([[P11, P12, 0.0, 0.0], [P21, P22, 0.0, 0.0],
                     [Q11, Q12, D1, 0.0], [Q21, Q22, 0.0, D2]])


def _node_matrices(ks, shift, H2, g):
    """A_k + shift*k*I at one node as ten entries over the blocks ks: the
    Magnus exponent of a unit step whose three nodes share the
    coefficients, which is exactly the matrix."""
    k = np.asarray(ks, float)[:, None]
    return M._exponent(k, shift, np.ones(1), np.full((3, 1), H2),
                              np.full((3, 1), g))[..., 0]


def test_reduced_rhs_matches_block_matrices(we):
    # each reduced state y is the Re and Im copy of two 8-D states
    # (_embed), and the reduced system at a Magnus node is A_k + shift*k*I
    # on them: _block_matrix on the embedding, block 0 included (its 4-D
    # state is (w1p, Im w1, u/2, Im w2)); the node coefficients are the
    # array lookups of H2 and G1/2 along the plane
    rng = np.random.default_rng(23)
    ks = np.arange(9)
    xs = np.log(np.array([0.05, 0.9, 1.3, 2.0, 8.0]))
    H2s, gs = L._node_coefficients(we, xs)
    np.testing.assert_array_equal(H2s, we.H2(np.exp(xs)))
    np.testing.assert_array_equal(2.0 * gs, we.G1(np.exp(xs)))
    for H2, g in zip(H2s, gs):
        G1 = 2.0 * g
        Y = rng.standard_normal((4, ks.size))
        Y[1, 0], Y[3, 0] = 0.0, Y[2, 0]  # block 0: v = 0, w1m = w1p
        for shift in (0.0, -1.0, 1.0):
            A = _node_matrices(ks, shift, H2, g)
            dY = np.array([_dense(A[:, j]) @ Y[:, j] for j in ks]).T
            for k in ks[1:]:
                ref = (_block_matrix(k, G1, H2) + shift * k * np.eye(8)) \
                    @ L._embed(Y[:, k])
                np.testing.assert_allclose(L._embed(dY[:, k]), ref,
                                           rtol=0.0, atol=1e-13)
            u, v, p, m = Y[:, 0]
            ref0 = _block_matrix(0, G1, H2) @ [p, 0.0, 0.5 * u, 0.0]
            np.testing.assert_allclose([dY[2, 0], 0.0, 0.5 * dY[0, 0], 0.0],
                                       ref0, rtol=0.0, atol=1e-13)
            assert dY[1, 0] == 0.0 and dY[3, 0] == dY[2, 0]
            # the 8-D norm of either copy
            for k in ks[1:]:
                E = L._embed(Y[:, k])
                np.testing.assert_allclose(
                    np.linalg.norm(E, axis=0), L._norms(Y[:, k:k + 1])[0],
                    rtol=1e-15)


def test_principal_angles_resolve_small_angles():
    # a 1e-10 angle beside a large one: an arccos of the cosine reads 0
    e = np.eye(4)
    U = e[:, :2]
    V = np.column_stack([e[:, 0] + 1e-10 * e[:, 2], e[:, 3] + 0.5 * e[:, 1]])
    _, angles, gaps = L._match_spans([np.eye(4), U], [np.eye(4), V], 1e-12)
    np.testing.assert_allclose(angles[1], [1e-10, math.atan(2.0)],
                               rtol=1e-12)
    assert gaps[1] == angles[1][0]


# ----------------------------------------------------------------------
# oracle: the array assembly against per-point loops
# ----------------------------------------------------------------------


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
    # applied to each block's columns, at random states, at random
    # coefficients and at those of Magnus nodes along the plane
    rng = np.random.default_rng(17)
    blocks = tuple(range(9))
    x = np.linspace(-1.0, 6.0, 5)[:, None] + 0.1 * np.array(M.GAUSS3)
    H2s, gs = L._node_coefficients(we, x.ravel())
    coefficients = [tuple(rng.uniform(-3.0, 3.0, 2)) for _ in range(5)]
    coefficients += list(zip(2.0 * gs, H2s))
    for ncols in ((4, 6, 4, 4, 4, 4, 4, 4, 4), (2, 4, 3, 1, 4, 2, 3, 4, 4)):
        shapes = tuple((4 if b == 0 else 8, c) for b, c in zip(blocks, ncols))
        system = _stacked_system(blocks, shapes)
        for G1, H2 in coefficients:
            Ys = [rng.standard_normal(shape) for shape in shapes]
            got = _apply_stacked(system, G1, H2,
                                   np.concatenate([Y.ravel() for Y in Ys]))
            ref = np.concatenate([(_block_matrix(b, G1, H2) @ Y).ravel()
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


# ----------------------------------------------------------------------
# the reduced shooting against the 8-D stacked oracle
# ----------------------------------------------------------------------

@pytest.mark.parametrize("text,rtol,scales", [
    (MODES_CONFIG, 0.0, (0.8, 1.0, 1.2)),
    (COLLAR_CONFIG, 1e-11, (1.0,)),
], ids=["modes", "collar"])
def test_reduced_shooting_matches_stacked_oracle(text, rtol, scales):
    # the table and the kernel count (per-mode counts, principal angles
    # and angle gaps at the given multiples of the default delta) of the
    # forward/backward passes against the stacked 8-D shooting they
    # replaced.  Along the collar's 384 units of plane the oracle's
    # e^{kx} columns drift by about 4e-12 of their log-norm (3.5e-9 at
    # 837 for k = 5): its w1p columns miss their closed form
    # k(x - x_a)/ln 10 by as much as its w2p columns miss the reduced
    # ones, hence the relative term there.  Neither pass depends on
    # delta; one delta keeps the collar case short
    model = cli.Model(parse_config(text))
    we, k_max = model.we, model.cfg.k_max
    deltas = [c * we.default_delta() for c in scales]
    reports = [L.kernel_dimension(we, delta=d, k_max=k_max) for d in deltas]
    _, rows = L.mode_shooting_table(we, reports[0].forward)
    got = np.array([r[3] for r in rows])
    ref = _stacked_table(we, k_max)
    np.testing.assert_allclose(got, ref, rtol=rtol, atol=1e-9)
    Us, Vs = _stacked_spans(we, k_max, deltas)
    for d, new in zip(deltas, reports):
        per_mode, angles, conditioning = L._match_spans(Us, Vs[d], 1e-6)
        assert new.per_mode == per_mode
        assert per_mode[0] == 3 and per_mode[-1] == 2
        assert new.total == sum(per_mode.values()) == 5
        assert new.angles.keys() == angles.keys()
        for block in angles:
            np.testing.assert_allclose(new.angles[block], angles[block],
                                       rtol=0.0, atol=1e-8)
            np.testing.assert_allclose(new.conditioning[block],
                                       conditioning[block],
                                       rtol=0.0, atol=1e-8)


# Magnus steps of one kernel count and one growth table on the default
# config, probes included: 1,806 (the DOP853 passes they replaced made
# 3,356 right-hand side calls); the ceiling leaves 5% for the last digits
# of the Richardson estimates, which pick the levels
STEP_CEILING = 1900


def test_shooting_solver_work_stays_reduced(we, monkeypatch):
    # one kernel count and one table, as stage_lincr runs them: no
    # solve_ivp call through lincr's module attribute ``integrate``, and
    # a bounded number of Magnus steps
    real = L.integrate
    calls, steps = [], [0]

    class Counting:
        def __getattr__(self, name):
            return getattr(real, name)

        def solve_ivp(self, *args, **kwargs):
            calls.append(args[1])
            return real.solve_ivp(*args, **kwargs)

    exponent = M._exponent

    def counted(k, shift, h, H2, g):
        steps[0] += h.size
        return exponent(k, shift, h, H2, g)

    monkeypatch.setattr(L, "integrate", Counting())
    monkeypatch.setattr(M, "_exponent", counted)
    report = L.kernel_dimension(we, k_max=5)
    L.mode_shooting_table(we, report.forward)
    assert calls == []
    assert 0 < steps[0] <= STEP_CEILING, steps


@pytest.mark.parametrize("text", ["", MODES_CONFIG], ids=["default", "modes"])
def test_shared_forward_pass_matches_separate_pass(text):
    # the kernel count read from the stage's one forward pass (x_a to
    # x_b) against a pass of its own from x_a to x_mid on the same chunk
    # edges: principal angles and angle gaps bit for bit
    model = cli.Model(parse_config(text))
    we, k_max = model.we, model.cfg.k_max
    report = L.kernel_dimension(we, k_max=k_max)
    x_mid = L._ends(we)[1]
    edges = report.forward.edges
    Y = np.zeros((4, k_max + 1))
    Y[0] = 1.0
    Y[1, 1:] = 1.0
    states, _, _ = L._shoot(we, range(k_max + 1), Y / L._norms(Y),
                            edges[edges <= x_mid], -1.0)
    Yf, Yb = states[-1], L._backward(we, k_max)[0]
    w1p, w1m = np.eye(8)[:, 0:2], np.eye(8)[:, 2:4]
    Us, Vs = [np.eye(4)], [np.eye(4)[:, :3]]
    for k in range(1, k_max + 1):
        Us.append(np.hstack([w1p] + [w1m] * (k == 1) + [L._embed(Yf[:, k])]))
        Vs.append(np.hstack([L._embed(Yb[:, k - 1]), w1m]))
    per_mode, angles, gaps = L._match_spans(Us, Vs, 1e-6)
    assert report.per_mode == per_mode
    assert report.angles == angles
    assert report.conditioning.keys() == gaps.keys()
    np.testing.assert_array_equal(list(report.conditioning.values()),
                                  list(gaps.values()))


@pytest.mark.parametrize("text,crossed", [("", 1), (COLLAR_CONFIG, 3)],
                         ids=["default", "collar"])
def test_forward_edges_sit_on_the_crossed_breaks(text, crossed):
    # every profile break the plane crosses between x_a and x_b is a
    # chunk edge of the forward pass, located here by a root of the
    # plane's own r(rho); the default plane crosses its core edge only,
    # the collar plane the core edge and the junctions at 1.02 and 1.11
    model = cli.Model(parse_config(text))
    we, bp, sol = model.we, model.bp, model.sol
    x_a, x_mid, x_b = L._ends(we)
    edges = L._forward(we, 0).edges
    r_a, r_b = (sol.r_of_rho(math.exp(x)) for x in (x_a, x_b))
    breaks = [b for b in set(bp.h1.breaks + bp.h2.breaks) if r_a < b < r_b]
    assert len(breaks) == crossed
    for b in breaks:
        x = math.log(rho_at_r(sol, b))
        assert np.min(np.abs(edges - x)) <= 1e-9, (b, x)
    assert x_mid in edges
    assert set(np.linspace(x_a, x_b, L.N_SAMPLES)) <= set(edges)
    assert len(edges) == L.N_SAMPLES + 1 + crossed


# ----------------------------------------------------------------------
# the Magnus step against dense matrix algebra
# ----------------------------------------------------------------------

def _reduced_matrix(k, shift, H2, g):
    """A_k + shift*k*I on (u, v, w1p, w1m), written out densely."""
    sk = shift * k
    return np.array([[H2 + sk, k, 0.0, 0.0], [k, sk, 0.0, 0.0],
                     [g, 0.0, (1.0 + shift) * k, 0.0],
                     [g, 0.0, 0.0, (shift - 1.0) * k]])


def _commutator_exponent(k, shift, h, H2, g):
    """Omega of the sixth-order Magnus step by the commutator formula of
    Blanes, Casas & Ros on dense matrices, from the coefficients at the
    three Gauss nodes."""
    A = [_reduced_matrix(k, shift, H2[i], g[i]) for i in range(3)]
    a1 = h * A[1]
    a2 = math.sqrt(15.0) / 3.0 * h * (A[2] - A[0])
    a3 = 10.0 / 3.0 * h * (A[2] - 2.0 * A[1] + A[0])

    def com(X, Y):
        return X @ Y - Y @ X
    c1 = com(a1, a2)
    c2 = -com(a1, 2.0 * a3 + c1) / 60.0
    return a1 + a3 / 12.0 + com(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0


def _cubic_nodes(cH, cg, h):
    """H2 and G1/2 at the Gauss nodes of a step of length h from x = 0,
    both cubics in x with coefficients cH and cg."""
    t = h * np.array(M.GAUSS3)
    poly = np.polynomial.polynomial.polyval
    return poly(t, cH)[:, None], poly(t, cg)[:, None]


@pytest.mark.parametrize("shift", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("k", [0, 1, 8])
def test_magnus_exponent_matches_commutator_formula(k, shift):
    # the closed-form exponent drops only terms of order h^7 and higher:
    # its gap to the commutator formula falls by about 2^7 (at least
    # 2^6.5) per halving of h
    rng = np.random.default_rng(100 + 10 * k + int(shift))
    for _ in range(3):
        cH, cg = rng.uniform(-3.0, 3.0, 4), rng.uniform(-1.0, 1.0, 4)
        gaps = []
        for h in (0.1, 0.05):
            H2, g = _cubic_nodes(cH, cg, h)
            got = M._exponent(np.array([[float(k)]]), shift,
                                     np.array([h]), H2, g)[:, 0, 0]
            ref = _commutator_exponent(k, shift, h, H2[:, 0], g[:, 0])
            gaps.append(np.max(np.abs(_dense(got) - ref)))
        assert gaps[1] <= gaps[0] / 90.0 + 1e-15, gaps


def _expm_case(rng, k, shift, core):
    """One Magnus exponent at random coefficients (H2 = G1 = 0 where
    ``core``) and a random step up to 1."""
    h = rng.uniform(0.01, 1.0)
    H2, g = _cubic_nodes(rng.uniform(-3.0, 1.0, 4), rng.uniform(-1.0, 1.0, 4),
                         h)
    if core:
        H2, g = 0.0 * H2, 0.0 * g
    return M._exponent(np.array([[float(k)]]), shift, np.array([h]),
                              H2, g)[:, 0, 0]


@pytest.mark.parametrize("core", [False, True], ids=["random", "core"])
@pytest.mark.parametrize("shift", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("k", [0, 1, 8])
def test_magnus_step_matches_dense_expm(k, shift, core):
    # e^Omega in closed form against scipy's expm of the dense Omega; in
    # the core P's eigenvalues (s +- 1) k h meet the diagonal h D.  On
    # the k = 8 steps scipy's scaled Pade approximant itself misses
    # 40-digit arithmetic by up to 1.3e-12 of the largest entry, the
    # closed form by 2.3e-16
    from scipy.linalg import expm
    rng = np.random.default_rng(200 + 10 * k + int(shift) + 5 * core)
    for _ in range(5):
        Om = _expm_case(rng, k, shift, core)
        ref = expm(_dense(Om))
        got = _dense(M._expm(Om.copy()[:, None])[:, 0])
        np.testing.assert_allclose(got, ref, rtol=0.0,
                                   atol=4e-12 * np.abs(ref).max())


def test_expm_confluent_and_complex_entries():
    # the lower rows where P's eigenvalues meet the diagonal entries
    # (H2 = 0 with G1 != 0), a P with mu = 0, and P's with complex
    # eigenvalues (mu^2 < 0), all in one batch: each entry against
    # scipy's expm, and bit for bit against the entry done alone
    from scipy.linalg import expm
    rng = np.random.default_rng(31)
    cases = []
    for k in (1.0, 8.0):
        Om = M._exponent(np.array([[k]]), -1.0, np.array([0.3]),
                                np.zeros((3, 1)), np.full((3, 1), 0.7))
        cases.append(Om[:, 0, 0])
    cases.append(np.array([0.0, 0.0, 0.0, 0.0, 0.5, -0.2, 0.3, 0.1,
                           0.0, -0.4]))
    for _ in range(4):
        X = rng.uniform(-1.0, 1.0, 10)
        X[1], X[2] = abs(X[1]) + 1.0, -abs(X[2]) - 1.0
        cases.append(X)
    W = np.array(cases).T
    assert (((W[0] - W[3]) / 2) ** 2 + W[1] * W[2] < 0).sum() == 4
    got = M._expm(W.copy())
    for j, Om in enumerate(cases):
        ref = expm(_dense(Om))
        np.testing.assert_allclose(_dense(got[:, j]), ref, rtol=0.0,
                                   atol=4e-12 * np.abs(ref).max())
        np.testing.assert_array_equal(got[:, j],
                                      M._expm(Om.copy()[:, None])[:, 0])


def test_magnus_steps_have_order_six(we):
    # one chunk's propagator on 2^L steps: the Richardson differences of
    # successive levels fall by about 2^6
    k = np.arange(6.0)
    a, b = np.array([0.347]), np.array([0.842])
    coefficients = functools.partial(L._node_coefficients, we)
    P = [M._propagators(coefficients, k, -1.0, a, b, np.array([lev]))
         for lev in (3, 4, 5)]
    d1, d2 = (np.abs(P[1] - P[0]).max(), np.abs(P[2] - P[1]).max())
    assert 40.0 <= d1 / d2 <= 100.0, (d1, d2)


@pytest.mark.parametrize("text", ["", COLLAR_CONFIG],
                         ids=["default", "collar"])
def test_richardson_estimate_bounds_the_shooting_error(text, monkeypatch):
    # both passes against passes with a hundredfold tighter step rule:
    # every log-norm and state at every edge within the number of chunks
    # times the reported estimate
    model = cli.Model(parse_config(text))
    we, k_max = model.we, model.cfg.k_max
    report = L.kernel_dimension(we, k_max=k_max)
    fwd = report.forward
    back, _ = L._backward(we, k_max)
    assert 0.0 < report.richardson <= M.SHOOT_TOL
    monkeypatch.setattr(M, "SHOOT_TOL", M.SHOOT_TOL / 100.0)
    ref = L._forward(we, k_max)
    ref_back, _ = L._backward(we, k_max)
    bound = len(fwd.edges) * report.richardson
    assert np.max(np.abs(fwd.logs - ref.logs)) <= bound
    assert np.max(np.abs(fwd.states - ref.states)) <= bound
    assert np.max(np.abs(back - ref_back)) <= bound


def test_kernel_dimension_working_set():
    # the Magnus batches bound the working set: one warm kernel count on
    # the modes config peaks at or below the 354 KB of the DOP853 passes
    import tracemalloc
    we = cli.Model(parse_config(MODES_CONFIG)).we
    L.kernel_dimension(we, k_max=8)
    tracemalloc.start()
    try:
        L.kernel_dimension(we, k_max=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 354 * 1024, peak

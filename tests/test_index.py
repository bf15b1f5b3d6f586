import copy
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from reebtwist import orbits as O
from reebtwist.index import (IndexError_, _robbin_salamon, loop_maslov,
                             make_path, product_path,
                             random_symplectic_path, robbin_salamon_index,
                             rotation_loop, sft_degree, skew_path,
                             standard_omega, degree_table, total_orbit_index)


# The model's linearized Reeb flow and the full index bookkeeping of an
# orbit: oracles for the closed forms the degree table uses.

def linearized_reeb_flow(tp, level, t: float, n: int = 2) -> np.ndarray:
    """Linearized Reeb flow along a closed orbit at the given level, in
    the frame (P, Q, r_l dp, r_l dq).

    The leading 2x2 block is the skew [[1, 0], [-g' t, 1]]; the normal
    directions rotate with the twist angle, which is zero at the
    principal level, and carry |p| factors off the unit level.
    """
    if level.p_level <= 0:
        raise IndexError_("frame singular at |p| = 0")
    m = n - 1  # (P,Q) pair plus n-2 rotation pairs
    dim = 2 * m
    gp = tp.g.d1(level.p_level)
    g = tp.g(level.p_level)
    s = level.p_level
    M = np.eye(dim)
    M[1, 0] = -gp * t
    th = g * t
    for j in range(n - 2):
        o = 2 + 2 * j
        M[o, o] = math.cos(th)
        M[o, o + 1] = s * math.sin(th)
        M[o + 1, o] = -math.sin(th) / s
        M[o + 1, o + 1] = math.cos(th)
    return M


@dataclass
class IndexResult:
    rs_index: Fraction
    loop_contribution: int
    total: Fraction
    crossings: list = field(default_factory=list)  # (time, signature)

    def __post_init__(self):
        if self.total != self.rs_index + self.loop_contribution:
            raise IndexError_("total != rs_index + loop contribution")


def orbit_index_result(tp, level, i: int | None = None) -> IndexResult:
    """Full index bookkeeping of an orbit with turn count i: the skew
    part from the crossing form of the sampled linearized flow, the
    loop contribution from the disk-extending frame rotation."""
    if i is None:
        i = level.i
    gp = tp.g.d1(level.p_level)
    path = skew_path(gp * level.period * i)
    rs, crossings = _robbin_salamon(path)
    return IndexResult(rs_index=rs, loop_contribution=loop_maslov(i),
                       total=rs + loop_maslov(i), crossings=crossings)


def test_skew_path_half_sign():
    assert robbin_salamon_index(skew_path(2.5)) == Fraction(1, 2)
    assert robbin_salamon_index(skew_path(-2.5)) == Fraction(-1, 2)
    assert robbin_salamon_index(skew_path(0.3, t_end=4.0)) == Fraction(1, 2)


def test_identity_path_zero():
    ident = make_path(2, lambda ts: np.broadcast_to(np.eye(2), (len(ts), 2, 2)))
    assert robbin_salamon_index(ident) == 0


@pytest.mark.parametrize("i", [1, 2, 3])
def test_rotation_loops(i):
    assert robbin_salamon_index(rotation_loop(i)) == loop_maslov(i) == 2 * i


@pytest.mark.parametrize("c", [1.0, 0.1, 1e-2, 1e-3, 1e-4, 1e-5, -1e-3])
@pytest.mark.parametrize("i", [1, 2, 3])
def test_skewed_loop_index(i, c):
    # near each full turn det(Psi - 1) ~ delta^2 + c t_k delta has two
    # zeros c t_k / (2 pi i) apart, for small c closer than the scan
    # spacing: both count, for sign(c)/2 + 2i
    path = product_path(rotation_loop(i), skew_path(c))
    assert robbin_salamon_index(path) == Fraction(int(math.copysign(1, c)),
                                                  2) + loop_maslov(i)


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("dim", [4, 6])
def test_rotation_loops_of_higher_dimension(dim, i):
    # each full turn is a tangential zero of det(Psi - 1) of order dim,
    # the flattest the crossing locator meets
    assert robbin_salamon_index(rotation_loop(i, dim=dim)) == i * dim


def test_locator_keeps_the_sample_where_rounding_undoes_the_bracket():
    # half a turn, then a rest near the identity whose angle the scan
    # (one batch of all its times) sees with a V-shaped minimum at
    # t = 3/4 and the pointwise evaluations (batches of one or two)
    # rising through it: a rounding-sized disagreement that leaves the
    # slope of d with one sign on the minimum's bracket, where brentq
    # would raise.  The sample stands for the extremum, and d there is
    # no crossing
    def ev(ts):
        tilt = np.abs(ts - 0.75) if len(ts) > 2 else ts - 0.75
        th = np.where(ts < 0.5, 2.0 * math.pi * ts, 0.01 + 1e-12 * tilt)
        M = np.zeros((len(ts), 2, 2))
        M[:, 0, 0] = M[:, 1, 1] = np.cos(th)
        M[:, 0, 1] = np.sin(th)
        M[:, 1, 0] = -np.sin(th)
        return M

    path = make_path(2, ev)
    dt = 1.0 / 2000
    d = [float(np.linalg.det(ev(np.array([t])) - np.eye(2))[0])
         for t in (0.75 - dt, 0.75, 0.75 + dt)]
    assert d[0] < d[1] < d[2]
    mu, crossings = _robbin_salamon(path)
    assert mu == 1 and crossings == [(0.0, 2)]


def test_loop_crossing_count_matches_maslov():
    # consistency example: the sampled i=2 loop equals loop_maslov(2)
    assert robbin_salamon_index(rotation_loop(2)) == loop_maslov(2) == 4


def test_loop_axiom_additivity_on_random_compositions():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 20:
        dim = 2 * int(rng.integers(1, 3))
        path = random_symplectic_path(dim, rng, scale=0.8)
        # skip paths whose endpoint is itself a crossing (additivity
        # needs a clean endpoint stratum)
        if abs(np.linalg.det(path.at(1.0) - np.eye(dim))) < 1e-6:
            continue
        i = int(rng.integers(1, 4))
        loop = rotation_loop(i, dim=dim)
        mu_p = robbin_salamon_index(path)
        mu_lp = robbin_salamon_index(product_path(loop, path))
        assert mu_lp == mu_p + 2 * i * (dim // 2)
        checked += 1


def test_symplecticity_validation():
    with pytest.raises(IndexError_, match="not symplectic"):
        make_path(2, lambda ts: np.eye(2) * (1.0 + ts[:, None, None]))
    with pytest.raises(IndexError_, match="identity"):
        make_path(2, lambda ts: np.eye(2) + np.multiply.outer(
            1.0 + ts, [[0.0, 0.0], [1.0, 0.0]]))


def test_degenerate_plateau_with_active_block_raises():
    # identity block masking a rotating block: the determinant vanishes
    # identically while an interior crossing form is nonzero
    def ev(ts):
        th = 4.0 * math.pi * ts
        M = np.broadcast_to(np.eye(4), (len(ts), 4, 4)).copy()
        M[:, 2, 2] = M[:, 3, 3] = np.cos(th)
        M[:, 2, 3] = np.sin(th)
        M[:, 3, 2] = -np.sin(th)
        return M

    path = make_path(4, ev)
    with pytest.raises(IndexError_, match="refine"):
        robbin_salamon_index(path)


def test_plateau_with_silent_interior_is_summed_at_ends():
    # identity block plus a single positive turn: ends contribute 2
    def ev(ts):
        th = 2.0 * math.pi * ts
        M = np.broadcast_to(np.eye(4), (len(ts), 4, 4)).copy()
        M[:, 2, 2] = M[:, 3, 3] = np.cos(th)
        M[:, 2, 3] = np.sin(th)
        M[:, 3, 2] = -np.sin(th)
        return M

    assert robbin_salamon_index(make_path(4, ev)) == 2


def test_linearized_flow_structure(tp):
    level = O.find_principal_level(tp)
    M0 = linearized_reeb_flow(tp, level, 0.0, n=3)
    assert np.allclose(M0, np.eye(4))
    T = level.period
    M = linearized_reeb_flow(tp, level, T, n=3)
    # skew entry: -g'(p0) T < 0 since the twist angle rises through 0
    assert M[1, 0] == pytest.approx(-tp.g.d1(tp.p0) * T)
    assert M[1, 0] < 0.0
    # rotation blocks are the identity at the principal level (g = 0)
    assert np.allclose(M[2:, 2:], np.eye(2))
    assert np.allclose(M[:2, 2:], 0.0) and np.allclose(M[2:, :2], 0.0)


def test_linearized_flow_product_property(tp):
    level = O.find_principal_level(tp)
    # exercise the rotating blocks at a non-principal rational level
    other = O.enumerate_orbit_levels(tp, action_bound=1e6, denom_cap=3)[1]
    for lvl in (level, other):
        t1, t2 = 0.7, 1.9
        M1 = linearized_reeb_flow(tp, lvl, t1, n=3)
        M2 = linearized_reeb_flow(tp, lvl, t2, n=3)
        M12 = linearized_reeb_flow(tp, lvl, t1 + t2, n=3)
        assert np.max(np.abs(M12 - M2 @ M1)) <= 1e-10


def test_linearized_flow_symplectic(tp):
    level = O.find_principal_level(tp)
    Om = standard_omega(4)
    worst = 0.0
    for t in np.linspace(0.0, 3 * level.period, 25):
        M = linearized_reeb_flow(tp, level, float(t), n=3)
        worst = max(worst, float(np.max(np.abs(M.T @ Om @ M - Om))))
    assert worst <= 1e-9


def test_orbit_index_result(tp):
    level = O.find_principal_level(tp)
    res = orbit_index_result(tp, level, i=1)
    assert res.rs_index == Fraction(1, 2)
    assert res.loop_contribution == 2
    assert res.total == Fraction(5, 2) == total_orbit_index(tp, level, 1)


def test_orbit_index_crossings_without_side_channel(tp):
    # the crossings come back in the result, not through an attribute of
    # robbin_salamon_index, and a later index computation leaves them be
    level = O.find_principal_level(tp)
    res = orbit_index_result(tp, level, i=1)
    assert res.crossings == [(0.0, 1), (1.0, 0)]
    assert robbin_salamon_index(rotation_loop(2)) == 4
    assert res.crossings == [(0.0, 1), (1.0, 0)]
    assert not hasattr(robbin_salamon_index, "last_crossings")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_degree_one_generator(tp, n):
    level = O.find_principal_level(tp)
    assert sft_degree(level, n, 0, tp=tp, i=1) == 1


@pytest.mark.parametrize("i", [1, 2, 3])
def test_degree_formula(tp, i):
    level = O.find_principal_level(tp)
    assert sft_degree(level, 3, 0, tp=tp, i=i) == 2 * i - 1
    # family maximum shifts by the orbit-space dimension
    n = 3
    assert sft_degree(level, n, 2 * n - 3, tp=tp, i=i) == 2 * i - 1 + 2 * n - 3


def test_degree_parity_is_odd(tp):
    level = O.find_principal_level(tp)
    for i in (1, 2, 3, 4):
        for n in (2, 3, 4):
            assert sft_degree(level, n, 0, tp=tp, i=i) % 2 == 1


def test_degree_requires_principal_level(tp):
    others = O.enumerate_orbit_levels(tp, action_bound=1e6, denom_cap=3)
    other = next(L for L in others if not L.is_principal)
    with pytest.raises(IndexError_, match="principal"):
        sft_degree(other, 3, 0, tp=tp)


def test_degree_table_cross_checks_path_index(tp):
    level = O.find_principal_level(tp)
    rows = degree_table(tp, level, 3, turn_counts=(1, 2), morse_indices=(0,))
    assert [r["degree"] for r in rows] == [1, 3]
    assert [r["mu"] for r in rows] == [Fraction(5, 2), Fraction(9, 2)]


def test_linearized_flow_against_numerical_flow_oracle(tp):
    # independent oracle: differentiate the exact torus Reeb flow
    #   (phi, q, p) -> (phi + N t, sigma_{g_reeb t}(q, p))
    # along the symplectic frame at a principal-level point and read the
    # matrix off the symplectic pairings.  The honest matrix is the
    # lower skew with entry +g'(p0) t / h_k(p0) (the Reeb coefficient
    # g_reeb = -g/h_k drives the geodesic angle, so its derivative
    # carries the opposite sign and the 1/h_k factor); the model path
    # displays the skew in the oppositely co-oriented frame pair, and
    # the two agree after the anti-symplectic flip diag(1, -1), which
    # also exchanges the compatible crossing-form conventions.  Both
    # descriptions therefore produce the same index +1/2.
    import numpy as np
    from reebtwist import geometry as G

    level = O.find_principal_level(tp)
    s = level.p_level
    n = 3
    q0 = np.array([1.0, 0.0, 0.0])
    p0 = s * np.array([0.0, 1.0, 0.0])
    frame, c = G.symplectic_frame(tp, q0, p0, 0.0)
    assert c == pytest.approx(1.0, abs=1e-12)  # h_k = h~_k at the zero
    t_flow = 0.8 * level.period

    def flow(q, p):
        ss = float(np.linalg.norm(p))
        d = G.tilde_reeb_data(tp, ss)
        th = d.g * t_flow
        qq = math.cos(th) * q - math.sin(th) * p / ss
        pp = ss * math.sin(th) * q + math.cos(th) * p
        phi_adv = d.N * t_flow
        return phi_adv, qq, pp

    def push(vec, eps=1e-6):
        # frame vectors are laid out (dphi, dq, dp)
        dphi, dq, dp = vec[0], vec[1:n + 1], vec[n + 1:]

        def diff(e):
            fp, qp, pp = flow(q0 + e * dq, p0 + e * dp)
            fm, qm, pm = flow(q0 - e * dq, p0 - e * dp)
            return np.concatenate([[(fp - fm) / (2 * e) + dphi],
                                   (qp - qm) / (2 * e), (pp - pm) / (2 * e)])
        return (4 * diff(eps / 2) - diff(eps)) / 3

    dim = 2 * n - 2
    M_num = np.zeros((dim, dim))
    for j, v in enumerate(frame):
        img = push(v)
        # coefficients in a symplectic frame; the Reeb direction is
        # annihilated by the pairing, so no explicit projection needed
        for i in range(0, dim, 2):
            M_num[i, j] = G.dalpha_tilde(tp, q0, p0, img, frame[i + 1])
            M_num[i + 1, j] = -G.dalpha_tilde(tp, q0, p0, img, frame[i])

    a = tp.g.d1(s) / tp.hk(s)
    expected = np.eye(dim)
    expected[1, 0] = a * t_flow
    assert np.max(np.abs(M_num - expected)) <= 1e-7

    # flipping the co-orientation of the pair recovers the model display
    M_model = linearized_reeb_flow(tp, level, t_flow, n=n)
    assert M_model[1, 0] == pytest.approx(-tp.g.d1(s) * t_flow)
    flip = np.diag([1.0, -1.0] + [1.0] * (dim - 2))
    M_flipped = flip @ M_num @ flip
    assert M_flipped[1, 0] < 0.0  # same sign pattern as the display

    # and both paths carry index +1/2 in their compatible conventions
    mu_model = robbin_salamon_index(skew_path(tp.g.d1(s) * t_flow))
    mu_honest = robbin_salamon_index(skew_path(a * t_flow))
    assert mu_model == mu_honest == Fraction(1, 2)


# Scalar oracles: the per-time evaluators the batched ones replaced, one
# matrix per float t with expm and math.cos/math.sin.

def _skew_at(c, t):
    return np.array([[1.0, 0.0], [-c * t, 1.0]])


def _rotation_at(i, dim, t):
    th = 2.0 * math.pi * i * t
    R = np.array([[math.cos(th), math.sin(th)],
                  [-math.sin(th), math.cos(th)]])
    M = np.eye(dim)
    for j in range(0, dim, 2):
        M[j:j + 2, j:j + 2] = R
    return M


def _pointwise_path(dim, matrix_at, n_samples):
    def ev(ts):
        return np.stack([matrix_at(float(t)) for t in ts])
    return make_path(dim, ev, 1.0, n_samples)


def _oracle_pairs(tp):
    """(batched, scalar) pairs: criterion 03's 20 random paths times its
    rotation loops, against the closed-form rotation times expm(t A) of
    the same draw, and degree_table's paths for i = 1, 2, 3, against the
    closed-form rotation times skew.  The rotation is orthogonal, so the
    product's stack bounds the random path's own error."""
    rng = np.random.default_rng(2)
    pairs = []
    while len(pairs) < 20:
        dim = 2 * int(rng.integers(1, 3))
        twin = copy.deepcopy(rng)
        path = random_symplectic_path(dim, rng, scale=0.8)
        S = twin.standard_normal((dim, dim))
        A = np.linalg.solve(standard_omega(dim), 0.8 * (S + S.T) / 2.0)
        if abs(np.linalg.det(path.at(1.0) - np.eye(dim))) < 1e-6:
            continue
        i = int(rng.integers(1, 4))
        pairs.append((
            product_path(rotation_loop(i, dim=dim), path),
            _pointwise_path(dim, lambda t, i=i, dim=dim, A=A:
                            _rotation_at(i, dim, t) @ expm(t * A), 513)))
    level = O.find_principal_level(tp)
    gp = tp.g.d1(level.p_level)
    for i in (1, 2, 3):
        c = gp * level.period * i
        pairs.append((
            product_path(rotation_loop(i), skew_path(c)),
            _pointwise_path(2, lambda t, i=i, c=c:
                            _rotation_at(i, 2, t) @ _skew_at(c, t), 513)))
    return pairs


def test_batched_evaluation_matches_scalar_oracle(tp):
    for path, oracle in _oracle_pairs(tp):
        assert np.max(np.abs(path.samples - oracle.samples)) <= 1e-13 * max(
            1.0, float(np.max(np.abs(oracle.samples))))
        # same crossing times, identical signatures and index
        mu, crossings = _robbin_salamon(path)
        mu_o, crossings_o = _robbin_salamon(oracle)
        assert mu == mu_o
        assert [s for _, s in crossings] == [s for _, s in crossings_o]
        assert np.allclose([t for t, _ in crossings],
                           [t for t, _ in crossings_o], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("i", [1, 2, 3])
@pytest.mark.parametrize("dim", [2, 4])
def test_rotation_and_skew_closed_forms_match_scalar(i, dim):
    ts = np.linspace(0.0, 1.0, 2001)
    rot = rotation_loop(i, dim=dim).evaluator(ts)
    assert np.max(np.abs(rot - np.stack(
        [_rotation_at(i, dim, t) for t in ts]))) <= 1e-15
    skew = skew_path(-1.7).evaluator(ts)
    assert np.array_equal(skew, np.stack([_skew_at(-1.7, t) for t in ts]))


def test_samples_are_one_array():
    path = rotation_loop(2, dim=4)
    assert path.samples.shape == (513, 4, 4)
    assert np.array_equal(path.samples, path.evaluator(path.times))
    assert path.t_end == 1.0 and path.symplectic_residual <= 1e-15
    with pytest.raises(IndexError_, match="shape"):
        make_path(2, lambda ts: np.eye(2))

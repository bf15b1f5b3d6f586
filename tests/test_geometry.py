import math

import numpy as np
import pytest

from reebtwist import geometry as G
from reebtwist import profiles as P


@pytest.fixture(scope="module")
def purequad():
    # direct construction: the pure model h1 = 1 - r^2, h2 = r^2 has no
    # interior h2-maximum, so it bypasses the builder on purpose
    h1 = P.SmoothProfile(0.0, 1.0, lambda r: 1 - r * r, lambda r: -2 * r,
                         lambda r: -2.0)
    h2 = P.SmoothProfile(0.0, 1.0, lambda r: r * r, lambda r: 2 * r,
                         lambda r: 2.0)
    return P.BindingProfile(h1=h1, h2=h2, r0=0.99, r_max=1.0,
                            quadratic_core=True, core_end=1.0, shape="custom")


def _point(n, r, rng=None):
    rng = rng or np.random.default_rng(0)
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    p = rng.standard_normal(n)
    p -= (p @ q) * q
    p /= np.linalg.norm(p)
    return G.BindingPoint(q=q, p=p, r=r, phi=0.3)


def test_point_constraints_enforced():
    with pytest.raises(G.GeometryError):
        G.BindingPoint(q=np.array([1.0, 0.1]), p=np.array([0.0, 1.0]),
                       r=0.2, phi=0.0)


def test_reeb_on_quadratic_core_is_geodesic_plus_angle(purequad):
    # (2r R_lambda + 2r dphi)/(2r): coefficients exactly (1, 1)
    x = _point(2, 0.3)
    R = G.reeb_field_binding(purequad, x)
    assert R.dphi == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(R.dq, x.p, atol=1e-14)
    assert np.allclose(R.dp, -x.q, atol=1e-14)
    assert R.dr == 0.0


def test_reeb_pure_angle_at_r0(bp):
    # h2'(r0) = 0 kills the geodesic part
    x = _point(2, bp.r0)
    R = G.reeb_field_binding(bp, x)
    assert np.max(np.abs(R.dq)) <= 1e-12
    assert np.max(np.abs(R.dp)) <= 1e-12
    assert R.dphi == pytest.approx(1.0 / bp.h2(bp.r0), rel=1e-12)


def test_alpha_of_reeb_at_random_points(bp):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        x = G.random_binding_point(2, bp, rng)
        R = G.reeb_field_binding(bp, x)
        worst = max(worst, abs(G.alpha_binding(bp, x, R) - 1.0))
    assert worst <= 1e-10


def test_reeb_contracts_dalpha(bp):
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = G.random_binding_point(2, bp, rng)
        R = G.reeb_field_binding(bp, x)
        v = G.random_tangent(x, rng)
        assert abs(G.dalpha_binding(bp, x, R, v)) <= 1e-9


def test_dalpha_exact_matches_fd(bp):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = G.random_binding_point(2, bp, rng)
        u, v = G.random_tangent(x, rng), G.random_tangent(x, rng)
        u = u.scaled(1.0 / u.norm())
        v = v.scaled(1.0 / v.norm())
        ex = G.dalpha_binding(bp, x, u, v)
        fd = G.dalpha_binding_fd(bp, x, u, v, step=1e-5)
        assert abs(ex - fd) <= 1e-9 * max(1.0, abs(ex))


def test_J_dt_is_reeb_and_J_dr_is_geofield(bp):
    rng = np.random.default_rng(4)
    n = 2
    for _ in range(25):
        x = G.random_binding_point(n, bp, rng)
        dt = G.TangentVector(0.0, np.zeros(n), np.zeros(n), 0.0, 1.0)
        R = G.reeb_field_binding(bp, x)
        assert G.apply_J(bp, x, dt).plus(R.scaled(-1.0)).norm() <= 1e-12
        dr = G.TangentVector(0.0, np.zeros(n), np.zeros(n), 1.0, 0.0)
        Gf = G.geo_field_binding(bp, x)
        assert G.apply_J(bp, x, dr).plus(Gf.scaled(-1.0)).norm() <= 1e-12


def test_J_squares_to_minus_one(bp):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        x = G.random_binding_point(2, bp, rng)
        v = G.random_tangent(x, rng)
        JJv = G.apply_J(bp, x, G.apply_J(bp, x, v))
        worst = max(worst, JJv.plus(v).norm() / v.norm())
    assert worst <= 1e-9


def test_J_compatibility_on_contact_plane(bp):
    rng = np.random.default_rng(6)
    for _ in range(1000):
        x = G.random_binding_point(2, bp, rng)
        v = G.random_tangent(x, rng)
        R = G.reeb_field_binding(bp, x)
        vxi = v.plus(R.scaled(-G.alpha_binding(bp, x, v)))
        if vxi.norm() < 1e-8:
            continue
        assert G.dalpha_binding(bp, x, vxi, G.apply_J(bp, x, vxi)) > 0.0


def test_apply_J_rejects_non_tangent(bp):
    x = _point(2, 0.3)
    bad = G.TangentVector(0.0, x.q.copy(), np.zeros(2), 0.0, 0.0)
    with pytest.raises(G.GeometryError, match="not tangent"):
        G.apply_J(bp, x, bad)


def test_tilde_reeb_identities(tp):
    for s in np.linspace(1e-4, tp.s_max, 1000):
        d = G.tilde_reeb_data(tp, float(s))
        ht, htd = tp.htilde(s), tp.htilde.d1(s)
        assert abs(d.N * (ht - s * htd) - 1.0) <= 1e-10
        assert abs(d.g - d.N * htd) <= 1e-10


def test_tilde_reeb_special_values(tp):
    d0 = G.tilde_reeb_data(tp, 0.0)
    assert d0.N == pytest.approx(1.0, abs=1e-12)
    dz = G.tilde_reeb_data(tp, tp.p0)
    assert abs(dz.g) <= 1e-12
    assert dz.N == pytest.approx(1.0 / tp.htilde(tp.p0), rel=1e-12)


def test_tilde_reeb_singularity_reported(tp):
    # the builder already refuses twists whose h_k loses positivity
    with pytest.raises(P.ProfileError):
        P.build_twist_profile(k=1, eps=0.01, p_plateau=0.9)
    # a hand-made profile with htilde proportional to s has a vanishing
    # Reeb denominator everywhere; the evaluator must report it
    lin = P.SmoothProfile(0.0, 1.0, lambda s: s, lambda s: 1.0, lambda s: 0.0)
    fake = P.TwistProfile(k=-1, eps=0.1, p_plateau=0.5, s_max=1.0,
                          shape="cos2", g=tp.g, f=tp.f, hk=tp.hk,
                          htilde=lin, p0=tp.p0)
    with pytest.raises(G.GeometryError, match="denominator"):
        G.tilde_reeb_data(fake, 0.5)


def test_frame_rotation_endpoints(tp):
    rng = np.random.default_rng(7)
    q = np.array([1.0, 0.0, 0.0])
    p = np.array([0.0, 0.6, 0.0])
    f0, c = G.symplectic_frame(tp, q, p, 0.0)
    fhalf, _ = G.symplectic_frame(tp, q, p, 0.5)
    for a, b in zip(f0, fhalf[:2]):
        assert abs(a[0] + b[0]) <= 1e-12
        assert np.allclose(a[1], -b[1], atol=1e-12)
        assert np.allclose(a[2], -b[2], atol=1e-12)
    # recorded normalization: dalpha(P, Q) = h_k / htilde_k at the level
    s = np.linalg.norm(p)
    assert c == pytest.approx(tp.hk(s) / tp.htilde(s), rel=1e-12)


def test_frame_is_symplectic_at_random_points(tp):
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        q = rng.standard_normal(n)
        q /= np.linalg.norm(q)
        p = rng.standard_normal(n)
        p -= (p @ q) * q
        p *= rng.uniform(0.2, 0.95) / np.linalg.norm(p)
        frame, _ = G.symplectic_frame(tp, q, p, rng.uniform(0, 1))
        assert len(frame) == 2 * n - 2
        Gm = G.frame_gram(tp, q, p, frame)
        worst = max(worst, float(np.max(np.abs(Gm - G.standard_gram(len(frame))))))
    assert worst <= 1e-9


def test_frame_singular_at_zero_level(tp):
    with pytest.raises(G.GeometryError, match="singular"):
        G.symplectic_frame(tp, np.array([1.0, 0.0]), np.zeros(2), 0.0)


def test_reeb_push_agreement_on_collar(tp, matched):
    lo, hi = matched.collar
    lo = max(lo, 1.0 / tp.s_max) * (1 + 1e-9)
    worst = max(G.push_reeb_to_tilde(tp, matched, float(r))
                for r in np.linspace(lo, hi, 60))
    assert worst <= 1e-8


def test_identity_suite_summary(tp, bp):
    suite = G.identity_suite(tp, bp, n=2, n_points=100, seed=0)
    assert suite["alpha_of_reeb_minus_1"] <= 1e-10
    assert suite["dalpha_reeb_contraction"] <= 1e-9
    assert suite["J_squared_plus_id"] <= 1e-9
    assert suite["min_compatibility_quotient"] > 0.0
    assert suite["frame_gram_vs_standard"] <= 1e-9


def test_reeb_field_domain_error(bp):
    x = _point(2, 0.3)
    bad = G.BindingPoint(q=x.q, p=x.p, r=bp.r_max + 0.5, phi=0.0)
    with pytest.raises(G.GeometryError, match="outside"):
        G.reeb_field_binding(bp, bad)


def test_reeb_field_binding_core_limit(bp):
    # r -> 0: both coefficients extend continuously (even profiles),
    # to the geodesic-plus-angle field of the quadratic core
    x = _point(2, 0.0)
    R = G.reeb_field_binding(bp, x)
    assert R.dphi == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(R.dq, x.p) and np.allclose(R.dp, -x.q)


def test_reeb_push_collar_mismatch_alone(tp, matched):
    # the collar-push residual needs no identity suite: the same value
    # for any seed and point count of the suite it used to be read from
    value = G.reeb_push_collar_mismatch(tp, matched)
    assert 0.0 <= value <= 1e-8
    for seed, n_points in ((0, 5), (3, 12)):
        suite = G.identity_suite(tp, matched, n=2, n_points=n_points,
                                 seed=seed)
        assert suite["reeb_push_collar_mismatch"] == value


# ----------------------------------------------------------------------
# batch forms against the scalar oracle
# ----------------------------------------------------------------------

_FIELDS = ("dphi", "dq", "dp", "dr", "dt")


def _stack_points(xs):
    return G.PointBatch(q=np.array([x.q for x in xs]),
                        p=np.array([x.p for x in xs]),
                        r=np.array([x.r for x in xs]),
                        phi=np.array([x.phi for x in xs]))


def _stack_tangents(vs):
    return G.TangentBatch(*(np.array([getattr(v, f) for v in vs], float)
                            for f in _FIELDS))


def _rows(values):
    """(N, k) rows of a batch result: a TangentBatch or an (N,) array."""
    if isinstance(values, G.TangentBatch):
        return np.column_stack(values)
    return np.asarray(values, float).reshape(-1, 1)


def _assert_batch_matches(batch, scalar):
    # per point, relative to the larger of 1 and the scalar value's max norm
    b, s = _rows(batch), _rows(scalar)
    scale = np.maximum(np.max(np.abs(s), axis=1), 1.0)
    assert np.max(np.max(np.abs(b - s), axis=1) / scale) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 5])
def test_batch_draws_reproduce_scalar_points(bp, n):
    rng_s, rng_b = np.random.default_rng(n), np.random.default_rng(n)
    xs = [G.random_binding_point(n, bp, rng_s) for _ in range(1000)]
    batch = G.random_binding_batch(n, bp, rng_b, 1000)
    ref = _stack_points(xs)
    for f in ("q", "p", "r", "phi"):
        assert np.array_equal(getattr(batch, f), getattr(ref, f))
    # the two generators stand at the same state afterwards
    assert rng_s.random() == rng_b.random()


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("profile", ["fig2", "collar"])
def test_batch_forms_match_scalar_oracle(request, profile, n):
    bp = request.getfixturevalue("bp" if profile == "fig2" else "matched")
    rng = np.random.default_rng(n)
    xs = [G.random_binding_point(n, bp, rng) for _ in range(1000)]
    us = [G.random_tangent(x, rng) for x in xs]
    vs = [G.random_tangent(x, rng) for x in xs]
    X, U, V = _stack_points(xs), _stack_tangents(us), _stack_tangents(vs)
    Rs = [G.reeb_field_binding(bp, x) for x in xs]
    R = G.reeb_field_batch(bp, X)
    _assert_batch_matches(R, _stack_tangents(Rs))
    _assert_batch_matches(G.alpha_batch(bp, X, R),
                          [G.alpha_binding(bp, x, r) for x, r in zip(xs, Rs)])
    _assert_batch_matches(G.alpha_batch(bp, X, V),
                          [G.alpha_binding(bp, x, v) for x, v in zip(xs, vs)])
    _assert_batch_matches(G.dalpha_batch(bp, X, U, V),
                          [G.dalpha_binding(bp, x, u, v)
                           for x, u, v in zip(xs, us, vs)])
    _assert_batch_matches(G.geo_field_batch(bp, X), _stack_tangents(
        [G.geo_field_binding(bp, x) for x in xs]))
    _assert_batch_matches(G.apply_J_batch(bp, X, V), _stack_tangents(
        [G.apply_J(bp, x, v) for x, v in zip(xs, vs)]))


def _scalar_main_loop(bp, n, n_points, rng):
    """The identity suite's main loop one point at a time, through the
    scalar forms (the loop the batch replaced)."""
    worst = dict.fromkeys(("alpha_of_reeb_minus_1", "dalpha_reeb_contraction",
                           "J_squared_plus_id", "J_dt_minus_reeb",
                           "J_dr_minus_geofield"), 0.0)
    compat = math.inf
    dt_vec = G.TangentVector(0.0, np.zeros(n), np.zeros(n), 0.0, 1.0)
    dr_vec = G.TangentVector(0.0, np.zeros(n), np.zeros(n), 1.0, 0.0)
    for _ in range(n_points):
        x = G.random_binding_point(n, bp, rng)
        R = G.reeb_field_binding(bp, x)
        v = G.random_tangent(x, rng)
        JJv = G.apply_J(bp, x, G.apply_J(bp, x, v))
        vxi = v.plus(R.scaled(-G.alpha_binding(bp, x, v)))
        if vxi.norm() > 1e-8:
            compat = min(compat, G.dalpha_binding(bp, x, vxi, G.apply_J(
                bp, x, vxi)) / vxi.norm() ** 2)
        for key, val in (
                ("alpha_of_reeb_minus_1", abs(G.alpha_binding(bp, x, R) - 1.0)),
                ("dalpha_reeb_contraction", abs(G.dalpha_binding(bp, x, R, v))),
                ("J_squared_plus_id", JJv.plus(v).norm() / max(v.norm(), 1e-30)),
                ("J_dt_minus_reeb",
                 G.apply_J(bp, x, dt_vec).plus(R.scaled(-1.0)).norm()),
                ("J_dr_minus_geofield", G.apply_J(bp, x, dr_vec).plus(
                    G.geo_field_binding(bp, x).scaled(-1.0)).norm())):
            worst[key] = max(worst[key], val)
    return {**worst, "min_compatibility_quotient": compat}


@pytest.mark.parametrize("profile", ["fig2", "collar"])
def test_identity_suite_batch_matches_scalar_loop(request, tp, profile):
    bp = request.getfixturevalue("bp" if profile == "fig2" else "matched")
    n, seed = 3, 5
    suite = G.identity_suite(tp, bp, n=n, n_points=150, seed=seed)
    rng = np.random.default_rng(seed)
    ref = _scalar_main_loop(bp, n, 150, rng)
    for key, val in ref.items():
        assert suite[key] == pytest.approx(val, rel=0.0, abs=1e-15), key
    # the batch drew what the loop drew: the scalar FD check after it
    # starts from the same generator state and gives the same bits
    worst_fd = 0.0
    for _ in range(20):
        x = G.random_binding_point(n, bp, rng)
        u, v = G.random_tangent(x, rng), G.random_tangent(x, rng)
        ex = G.dalpha_binding(bp, x, u, v)
        worst_fd = max(worst_fd, abs(ex - G.dalpha_binding_fd(bp, x, u, v))
                       / max(abs(ex), 1.0))
    assert suite["dalpha_exact_vs_fd"] == worst_fd


def test_batch_reeb_core_limit_and_errors(bp):
    x, y = _point(3, 0.0), _point(3, 0.3, np.random.default_rng(1))
    X = _stack_points([x, y])
    _assert_batch_matches(G.reeb_field_batch(bp, X), _stack_tangents(
        [G.reeb_field_binding(bp, x), G.reeb_field_binding(bp, y)]))
    far = G.PointBatch(q=X.q, p=X.p, r=np.array([0.1, bp.r_max + 0.5]),
                       phi=X.phi)
    with pytest.raises(G.GeometryError, match="outside"):
        G.reeb_field_batch(bp, far)
    with pytest.raises(G.GeometryError, match="constraint"):
        G.PointBatch(q=X.q, p=X.q, r=X.r, phi=X.phi)
    V = _stack_tangents([G.TangentVector(0.0, x.q, np.zeros(3), 0.0),
                         G.TangentVector(0.0, np.zeros(3), np.zeros(3), 0.0)])
    with pytest.raises(G.GeometryError, match="not tangent"):
        G.apply_J_batch(bp, X, V)

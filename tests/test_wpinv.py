import tracemalloc

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from glskit import (
    GlsProblem,
    RankTolerance,
    certify_solution,
    check_gls_criterion,
    check_gmpe,
    glsqr_solve,
    gsvd_pair,
    pinv,
    wpinv_apply,
    wpinv_elden,
    wpinv_limit,
    wpinv_matrix,
    wpinv_via_gsvd,
)
from glskit.problems import generate, make_l1
from glskit.wpinv import FactorStore
from helpers import nullspace_basis, random_gls_problem, random_matrix


def hand_problem(b=2.0):
    # One equation, two unknowns: least squares set is x1 + x2 = b, and
    # minimizing |x1 - x2| forces x1 = x2 = b / 2.
    return GlsProblem([[1.0, 1.0]], None, [[1.0, -1.0]], [b])


@pytest.mark.parametrize("q", [None, 40], ids=["identity", "weighted"])
def test_identity_weight_forms_no_m_by_m_matrix(q):
    # P = M'M (I_m when M = None) is never formed: a tall problem does not
    # pay m^2 memory for it, neither at construction nor in a gLSQR solve
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3000, 20))
    M = rng.standard_normal((q, 3000)) if q is not None else None
    b = np.ones(3000)
    tracemalloc.start()
    try:
        prob = GlsProblem(A, M, np.eye(20), b)
        report = glsqr_solve(prob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert report.iterations > 0


@pytest.mark.parametrize("q", [None, 40], ids=["identity", "weighted"])
def test_certifying_a_tall_problem_forms_no_m_by_m_factor(q):
    # the SVDs of MA and M' behind certify_solution keep U thin (m x n and
    # m x q), so a tall problem does not pay m^2 memory for singular vectors
    # nobody reads
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3000, 20))
    M = rng.standard_normal((q, 3000)) if q is not None else None
    prob = GlsProblem(A, M, np.eye(20), np.ones(3000))
    report = glsqr_solve(prob)
    tracemalloc.start()
    try:
        certified = certify_solution(prob, report)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert certified


def test_elden_reduces_to_pinv_for_trivial_regularizers():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 4))
    expected = pinv(A)
    for L in (np.zeros((1, 4)), np.eye(4)):
        prob = GlsProblem(A, None, L)
        np.testing.assert_allclose(wpinv_elden(prob), expected, atol=1e-12)


def test_elden_hand_case():
    X = wpinv_elden(hand_problem())
    np.testing.assert_allclose(X, [[0.5], [0.5]], atol=1e-14)


def test_limit_scaling_law_when_l_zero():
    # With L = 0 and M = I, pinv((1 + delta) A'A) A' = pinv(A) / (1 + delta).
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 3))
    prob = GlsProblem(A, None, np.zeros((1, 3)))
    for delta in (0.5, 1e-3):
        np.testing.assert_allclose(
            wpinv_limit(prob, delta), pinv(A) / (1.0 + delta), atol=1e-12
        )


def test_limit_approaches_hand_value():
    X = wpinv_limit(hand_problem(), 1e-8)
    np.testing.assert_allclose(X, [[0.5], [0.5]], atol=1e-6)


def test_limit_g_and_q_forms_are_equivalent():
    # A'PA + delta G = (1 + delta) (A'PA + delta/(1+delta) L'L), so the two
    # regularized formulas agree after the (1 + delta) rescaling.
    prob = random_gls_problem(123, m=5, n=4, p=3)  # M = I, so P = I
    A, L = prob.A, prob.L
    delta = 1e-4
    lhs = wpinv_limit(prob, delta)
    core = pinv(A.T @ A + (delta / (1 + delta)) * (L.T @ L))
    rhs = core @ A.T / (1 + delta)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)


def test_limit_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        wpinv_limit(hand_problem(), 0.0)


def test_apply_linearity_and_reduction():
    prob = hand_problem(0.0)
    np.testing.assert_allclose(wpinv_apply(prob), np.zeros(2), atol=1e-15)

    rng = np.random.default_rng(2)
    A = rng.standard_normal((7, 5))
    b = rng.standard_normal(7)
    prob = GlsProblem(A, None, np.zeros((1, 5)), b)
    np.testing.assert_allclose(wpinv_apply(prob), pinv(A) @ b, atol=1e-12)


def test_apply_recovers_planted_solution():
    rng = np.random.default_rng(30)
    A = random_matrix(rng, 22, 30, rank=15)
    gen = generate(A, "l1", "ramp", seed=30)
    x = wpinv_apply(gen.problem)
    assert np.linalg.norm(x - gen.x_true) <= 1e-10 * np.linalg.norm(gen.x_true)


def test_apply_rejects_an_unknown_method():
    prob = random_gls_problem(5, q=6)
    with pytest.raises(ValueError):
        wpinv_apply(prob, method="nope")


@pytest.mark.parametrize(
    "config",
    [
        dict(m=10, n=8, p=3, q=6, rank_a=6),
        dict(m=9, n=7, p=4, q=12),
        dict(m=9, n=7, p=3, q=8, rank_a=4, rank_m=5),
        dict(m=10, n=8, p=3, q=11, rank_a=5, shared_null=True),
    ],
    ids=["q<m", "q>m", "rank-deficient M", "shared null"],
)
def test_gsvd_route_agrees_with_elden_for_every_m(config):
    # the GSVD closed form of the pair {MA, L}, times M
    for seed in range(20):
        prob = random_gls_problem(seed, **config)
        X_e = wpinv_elden(prob)
        X_g = wpinv_matrix(prob, "gsvd")
        assert X_g.shape == (prob.n, prob.m)
        assert np.linalg.norm(X_g - X_e) <= 1e-9 * np.linalg.norm(X_e)


def test_apply_dispatches_to_gsvd_and_limit_routes():
    prob = random_gls_problem(11, m=7, n=5, p=3, rank_a=4)
    X_gsvd = wpinv_via_gsvd(gsvd_pair(prob.A, prob.L), prob.G)
    np.testing.assert_array_equal(wpinv_apply(prob, "gsvd"), X_gsvd @ prob.b)
    np.testing.assert_array_equal(
        wpinv_apply(prob, "limit", delta=1e-4), wpinv_limit(prob, 1e-4) @ prob.b
    )


@pytest.mark.parametrize(
    "tol", [RankTolerance(), RankTolerance(value=1e-15)], ids=["default", "1e-15"]
)
def test_explicit_rank_tolerance_keeps_ln_at_product_floor(tol):
    # N(MA) and N(L) share a vector, so L N has a roundoff singular value
    # (4.4e-16 on seed 4) above a cutoff relative to its own 3 x 3 shape;
    # ranking L N at its product floor on both paths keeps X the same
    for seed in range(160):
        prob = random_gls_problem(seed, m=10, n=8, p=3, rank_a=5, shared_null=True)
        X = wpinv_elden(prob, tol)
        assert check_gmpe(prob, X).all_passed, seed
        X_default = wpinv_elden(prob)
        assert np.linalg.norm(X - X_default) <= 1e-12 * np.linalg.norm(X_default), seed


def test_gmpe_passes_for_weighted_pseudoinverse():
    prob = random_gls_problem(17, m=6, n=4, p=3, rank_a=3)
    report = check_gmpe(prob, wpinv_elden(prob), tol=1e-9)
    assert report.all_passed
    parsed = report.as_dict()
    assert len(parsed["identities"]) == 5
    assert parsed["tol"] == 1e-9


def test_gmpe_detects_plain_pinv_when_l_matters():
    rng = np.random.default_rng(23)
    A = random_matrix(rng, 6, 4, rank=2)
    L = random_matrix(rng, 3, 4)
    prob = GlsProblem(A, None, L)
    report = check_gmpe(prob, pinv(A), tol=1e-9)
    assert not report.passed[3]  # the G-adjoint identity singles out A_ML


def test_gmpe_trivial_when_l_zero():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((5, 3))
    prob = GlsProblem(A, None, np.zeros((1, 3)))
    assert check_gmpe(prob, pinv(A), tol=1e-9).all_passed


def test_gmpe_with_weighting_matrix():
    prob = random_gls_problem(31, m=7, n=5, p=4, q=6, rank_m=4)
    report = check_gmpe(prob, wpinv_elden(prob), tol=1e-9)
    assert report.all_passed


@pytest.mark.parametrize("seed", range(100))
def test_gmpe_uniqueness_rejects_perturbations(seed):
    prob = random_gls_problem(77, m=8, n=6, p=4, rank_a=4)
    X = wpinv_elden(prob)
    rng = np.random.default_rng(seed)
    E = rng.standard_normal(X.shape)
    E *= 1e-3 * np.linalg.norm(X) / np.linalg.norm(E)
    report = check_gmpe(prob, X + E, tol=1e-6)
    assert not report.all_passed


def c1_problem(seed, cond):
    # M A has a genuine small singular value (near 1e-7 at cond=1e4), which
    # G = (MA)'(MA) + L'L squares: a check through pinv(G) works at its square
    return random_gls_problem(seed, m=6, n=9, p=2, q=4, rank_a=3, cond=cond)


@pytest.mark.parametrize("seed", [44, 57, 65, 185])
def test_gmpe_accepts_the_direct_route_on_weighted_rank_deficient_seeds(seed):
    # identity 4 through pinv(G) rejected these (residuals up to 1.0e-7)
    prob = random_gls_problem(seed, m=9, n=7, p=3, q=8, rank_a=4, rank_m=5)
    assert check_gmpe(prob, wpinv_elden(prob)).all_passed


def test_gmpe_accepts_the_direct_route_on_c1_at_cond_1e2():
    # identity 4 through pinv(G) rejected 97 of these 200
    for s in range(200):
        prob = c1_problem(s, 1e2)
        assert check_gmpe(prob, wpinv_elden(prob)).all_passed, s


def test_gmpe_identity_4_rejects_at_most_10_direct_routes_on_c1_at_cond_1e3():
    # through pinv(G) all 200 failed, and 27 with G X A's asymmetry measured
    # against ||G X A||; none fails now (largest residual 5.4e-10). The bound
    # is the 10 seeds whose residual exceeds tol / 10, the ones another BLAS
    # could push over tol; the other four identities pass on every seed
    failed = 0
    for s in range(200):
        prob = c1_problem(s, 1e3)
        passed = check_gmpe(prob, wpinv_elden(prob)).passed
        assert passed[:3] + passed[4:] == (True,) * 4, s
        failed += not passed[3]
    assert failed <= 10


@pytest.mark.parametrize("cond", [1e2, 1e3, 1e4])
def test_gmpe_identity_4_rejects_the_unregularized_pinv_on_c1(cond):
    # pinv(MA) M satisfies identities 1, 2, 3 and 5; only identity 4 tells it
    # from A_ML^+
    for s in range(200):
        prob = c1_problem(s, cond)
        assert not check_gmpe(prob, pinv(prob.MA) @ prob.M).passed[3], s


@pytest.mark.parametrize("scale", [1e-5, 1e5])
def test_gmpe_identity_4_does_not_depend_on_the_scale_of_l(scale):
    # A_ML^+ is the same for c L as for L, so the verdicts must be too; a
    # residual measured against ||G X A|| would let pinv(A) through at 1e-5
    rng = np.random.default_rng(23)
    A = random_matrix(rng, 6, 4, rank=2)
    L = random_matrix(rng, 3, 4)
    prob = GlsProblem(A, None, scale * L)
    assert not check_gmpe(prob, pinv(A), tol=1e-9).passed[3]
    assert check_gmpe(prob, wpinv_elden(prob), tol=1e-9).all_passed


def test_gmpe_identity_4_range_test_rejects_a_null_space_shift():
    # X + N_G E has the same G X A as X, so the symmetric test alone passes
    # it; only N_G' X = 0 rejects it
    for s in range(20):
        prob = random_gls_problem(s, m=10, n=8, p=3, rank_a=5, shared_null=True)
        X = wpinv_elden(prob)
        N_g = prob.factors.nullspace_g
        E = np.random.default_rng(s).standard_normal((N_g.shape[1], prob.m))
        shifted = X + N_g @ (1e-3 * np.linalg.norm(X) * E / np.linalg.norm(E))
        GXA = prob.G @ shifted @ prob.A
        S = GXA - GXA @ N_g @ N_g.T
        assert np.linalg.norm(S - S.T) <= 1e-12 * np.linalg.norm(S), s
        assert not check_gmpe(prob, shifted, tol=1e-6).passed[3], s


def test_check_gmpe_never_factors_g(monkeypatch):
    # the QR of [MA; L; N_G'] is the problem's only source of pinv(G)
    def no_pinv_of_g(self):
        raise AssertionError("check_gmpe built pinv(G)")

    monkeypatch.setattr(FactorStore, "kn", property(no_pinv_of_g))
    base = random_gls_problem(66, m=8, n=6, p=3, rank_a=4)
    problems = [
        base,
        random_gls_problem(67, q=7, rank_a=4, rank_m=5, shared_null=True),
        GlsProblem(base.A, None, make_l1(base.n), base.b),
        GlsProblem(base.A, None, None, base.b),
    ]
    for prob in problems:
        assert check_gmpe(prob, wpinv_elden(prob)).all_passed


def test_criterion_accepts_solution_and_flags_coset():
    # the second problem has a rank-deficient M (q < m, rank_m < q), whose
    # N(A'PA) comes from the SVD of M A
    for q, rank_m in ((None, None), (7, 5)):
        prob = random_gls_problem(
            11, m=8, n=6, p=3, q=q, rank_a=4, rank_m=rank_m, shared_null=True
        )
        x = wpinv_apply(prob)
        report = check_gls_criterion(prob, x, tol=1e-8)
        assert report and report.in_range_g

        Z = nullspace_basis(prob.G)
        assert Z.shape[1] >= 1
        shifted = x + Z[:, 0]
        report = check_gls_criterion(prob, shifted, tol=1e-8)
        assert report.satisfied and not report.in_range_g
        assert np.linalg.norm(shifted) >= np.linalg.norm(x) - 1e-12


def test_criterion_rejects_zero_when_data_inconsistent():
    prob = hand_problem()
    assert not check_gls_criterion(prob, np.zeros(2), tol=1e-8)


def test_solution_is_orthogonal_to_joint_null_space():
    prob = random_gls_problem(41, m=9, n=7, p=4, q=8, rank_a=5, rank_m=6, shared_null=True)
    x = wpinv_apply(prob)
    MA = prob.M @ prob.A
    joint = nullspace_basis(np.vstack([MA, prob.L]))
    assert joint.shape[1] >= 1
    assert np.abs(joint.T @ x).max() <= 1e-10 * np.linalg.norm(x)


def _cross_method_cases():
    cases = []
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        m = int(rng.integers(3, 40))
        n = int(rng.integers(2, 40))
        p = int(rng.integers(1, 40))
        rank_a = int(rng.integers(1, min(m, n) + 1))
        cases.append(
            dict(seed=1000 + i, m=m, n=n, p=p, rank_a=rank_a, shared_null=i % 5 == 0)
        )
    return cases


@pytest.mark.parametrize("case", _cross_method_cases())
def test_cross_method_agreement(case):
    seed = case.pop("seed")
    prob = random_gls_problem(seed, **case)
    X_e = wpinv_elden(prob)
    scale = max(np.linalg.norm(X_e), 1e-30)

    X_g = wpinv_via_gsvd(gsvd_pair(prob.A, prob.L), prob.G)
    assert np.linalg.norm(X_e - X_g) <= 1e-9 * scale

    errs = [np.linalg.norm(wpinv_limit(prob, d) - X_e) for d in (1e-2, 1e-4, 1e-6)]
    assert errs[0] > errs[1] > errs[2]
    for hi, lo in zip(errs, errs[1:]):
        assert 50.0 <= hi / lo <= 200.0  # linear-in-delta decay


def test_with_b_reuses_cached_matrices():
    prob = random_gls_problem(3, m=6, n=5, p=3)
    _ = prob.factors.nullspace_g  # populate a cached property
    other = prob.with_b(np.ones(6))
    assert other.G is prob.G
    assert other.factors.nullspace_g is prob.factors.nullspace_g
    np.testing.assert_array_equal(other.b, np.ones(6))
    np.testing.assert_array_equal(prob.b, random_gls_problem(3, m=6, n=5, p=3).b)
    # the factor store is shared, so a factor first made through the copy
    # is the parent's too
    from_copy = other.factors.ma
    assert prob.factors.ma is from_copy


# name -> (random_gls_problem keywords, drop L); with L dropped, N(G) = N(MA)
NULLSPACE_SHAPES = {
    "full rank": (dict(), False),
    "shared null": (dict(rank_a=4, shared_null=True), False),
    "singular M": (dict(q=7, rank_a=4, rank_m=5), False),
    "singular M, shared null": (dict(q=7, rank_a=4, rank_m=5, shared_null=True), False),
    "m<n, shared null": (dict(m=5, n=9, p=3, rank_a=4, shared_null=True), False),
    "m<n, singular M, shared null": (dict(m=5, n=9, p=3, q=4, rank_m=3, shared_null=True), False),
    "L=None": (dict(rank_a=4), True),
    "L=None, m<n, singular M": (dict(m=5, n=9, q=4, rank_m=3), True),
}


@pytest.mark.parametrize("name", list(NULLSPACE_SHAPES))
def test_nullspace_g_is_the_null_space_of_g(name):
    # N(G) comes from the SVDs of M A and L N, not from G; it must be the
    # subspace an SVD of G itself finds
    shape, drop_l = NULLSPACE_SHAPES[name]
    prob = random_gls_problem(60, **shape)
    if drop_l:
        prob = GlsProblem(prob.A, prob.M, None, prob.b)
    N_g = prob.factors.nullspace_g
    Z = nullspace_basis(prob.G)
    assert N_g.shape == Z.shape
    if shape.get("shared_null") or drop_l:
        assert N_g.shape[1] >= 1
    np.testing.assert_allclose(N_g.T @ N_g, np.eye(N_g.shape[1]), atol=1e-12)
    if Z.shape[1]:
        assert subspace_angles(N_g, Z).max() <= 1e-8


def test_routes_and_checks_do_not_factor_g():
    # the planted solution, the direct route and both certifications read
    # N(G) from the same factors; only pinv(G) needs an SVD of G
    rng = np.random.default_rng(62)
    prob = generate(random_matrix(rng, 12, 16, rank=8), "l1", "trig", seed=62).problem
    weighted = random_gls_problem(63, q=7, rank_a=4, rank_m=5, shared_null=True)
    for p in (prob, weighted):
        x = wpinv_elden(p) @ p.b
        assert check_gls_criterion(p, x, tol=1e-8).in_range_g
        assert certify_solution(p, glsqr_solve(p, tol=1e-12))
        assert "g" not in p.factors.__dict__


def test_rank_floors_compute_no_spectral_norm(monkeypatch):
    # the product floors of M A and L N scale with Frobenius norms, so no
    # SVD is made only to size a cutoff; M' is factored for identity 5 alone.
    # norm is patched, not svd: its internal SVD bypasses the public name
    spectral = []
    original = np.linalg.norm

    def recording(x, ord=None, *args, **kwargs):
        if ord == 2:
            spectral.append(np.shape(x))
        return original(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", recording)
    rng = np.random.default_rng(64)
    generate(random_matrix(rng, 12, 16, rank=8), "l1", "trig", seed=64)
    prob = random_gls_problem(65, q=7, rank_a=4, rank_m=5, shared_null=True)
    X = wpinv_elden(prob)
    assert check_gls_criterion(prob, X @ prob.b, tol=1e-8)
    assert "m" not in prob.factors.__dict__
    assert check_gmpe(prob, X).all_passed
    assert "m" in prob.factors.__dict__
    assert spectral == []


@pytest.mark.parametrize("q, rank_m", [(None, None), (7, 5)])
def test_factorizations_do_not_grow_with_right_hand_sides(monkeypatch, q, rank_m):
    calls = []
    for name in ("svd", "eigh"):
        original = getattr(np.linalg, name)

        def counting(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)

    def factorizations(n_rhs):
        prob = random_gls_problem(19, m=8, n=6, p=3, q=q, rank_a=4, rank_m=rank_m)
        calls.clear()
        X = wpinv_elden(prob)
        assert check_gmpe(prob, X).all_passed
        rng = np.random.default_rng(n_rhs)
        for _ in range(n_rhs):
            child = prob.with_b(rng.standard_normal(prob.m))
            assert check_gls_criterion(child, X @ child.b)
        return len(calls)

    assert factorizations(1) == factorizations(5)


def test_shapes_validated():
    prob = random_gls_problem(3)
    with pytest.raises(ValueError):
        check_gmpe(prob, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        GlsProblem(np.eye(3), M=np.eye(2))
    with pytest.raises(ValueError):
        GlsProblem(np.eye(3), L=np.eye(2))
    with pytest.raises(ValueError):
        GlsProblem(np.eye(3), b=np.ones(2))

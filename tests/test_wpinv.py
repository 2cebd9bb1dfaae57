import numpy as np
import pytest
from scipy.linalg import subspace_angles

from glskit import (
    GlsProblem,
    certify_solution,
    check_gls_criterion,
    check_gmpe,
    glsqr_solve,
    gsvd_pair,
    nullspace_basis,
    pinv,
    wpinv_apply,
    wpinv_elden,
    wpinv_limit,
    wpinv_via_gsvd,
)
from glskit.problems import generate
from helpers import random_gls_problem, random_matrix


def hand_problem(b=2.0):
    # One equation, two unknowns: least squares set is x1 + x2 = b, and
    # minimizing |x1 - x2| forces x1 = x2 = b / 2.
    return GlsProblem([[1.0, 1.0]], None, [[1.0, -1.0]], [b])


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
    # A'PA + delta G = (1 + delta) (A'PA + delta/(1+delta) Q), so the two
    # regularized formulas agree after the (1 + delta) rescaling.
    prob = random_gls_problem(123, m=5, n=4, p=3)
    delta = 1e-4
    lhs = wpinv_limit(prob, delta)
    core = pinv(prob.ApA + (delta / (1 + delta)) * prob.Q)
    rhs = core @ prob.A.T @ prob.P / (1 + delta)
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


def test_apply_gsvd_requires_identity_m():
    prob = random_gls_problem(5, q=6)
    with pytest.raises(ValueError):
        wpinv_apply(prob, method="gsvd")
    with pytest.raises(ValueError):
        wpinv_apply(prob, method="nope")


def test_gmpe_passes_for_weighted_pseudoinverse():
    prob = random_gls_problem(17, m=6, n=4, p=3, rank_a=3)
    report = check_gmpe(prob, wpinv_elden(prob), tol=1e-9)
    assert report.all_passed
    parsed = report.as_dict()
    assert len(parsed["identities"]) == 5
    assert parsed["tol"] == 1e-9
    # the historical regularizer-symmetry residual is reported for
    # information but stays out of pass/fail and out of the JSON payload
    assert report.regularizer_symmetry <= 1e-9
    assert "regularizer_symmetry" not in report.to_json()


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

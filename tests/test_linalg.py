import math

import numpy as np
import pytest
import scipy.sparse

from glskit import (
    GlsProblem,
    IndefiniteMatrixError,
    InnerLsqrStrategy,
    RankTolerance,
    cholesky_spd,
    lsqr,
    pinv,
    svd,
)
from glskit.problems import generate, random_sparse_matrix
from helpers import nullspace_basis, orthogonal, projector_range, reconstruct, spd_matrix


def test_svd_identity():
    f = svd(np.eye(3))
    assert f.rank == 3
    np.testing.assert_allclose(f.singular_values, np.ones(3))
    np.testing.assert_allclose(reconstruct(f), np.eye(3), atol=1e-15)


def test_svd_rank_deficient_diagonal():
    f = svd(np.diag([3.0, 0.0]))
    np.testing.assert_allclose(f.singular_values, [3.0, 0.0])
    assert f.rank == 1


def test_svd_golden_ratio_singular_values():
    # Oracle: the characteristic polynomial of A'A = [[1,1],[1,2]] solved in
    # closed form, lambda = (3 +- sqrt(5)) / 2, so sigma = (phi, phi - 1).
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    tr, det = 3.0, 1.0
    lam_hi = (tr + math.sqrt(tr**2 - 4 * det)) / 2
    lam_lo = (tr - math.sqrt(tr**2 - 4 * det)) / 2
    expected = np.sqrt([lam_hi, lam_lo])
    np.testing.assert_allclose(expected, [1.618033988749895, 0.6180339887498949])

    f = svd(A)
    np.testing.assert_allclose(f.singular_values, expected, rtol=1e-14)
    assert np.linalg.norm(reconstruct(f) - A) <= 1e-14


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("shape", [(10, 10), (40, 25), (100, 100), (25, 40)])
def test_svd_reconstruction_random(seed, shape):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal(shape)
    f = svd(A)
    assert np.linalg.norm(reconstruct(f) - A) <= 1e-13 * np.linalg.norm(A)
    assert np.linalg.norm(f.U.T @ f.U - np.eye(min(shape))) <= 1e-13
    assert np.linalg.norm(f.V.T @ f.V - np.eye(shape[1])) <= 1e-13
    assert np.all(np.diff(f.singular_values) <= 0)


def test_rank_tolerance_modes():
    A = np.diag([1.0, 1e-5])
    assert svd(A).rank == 2
    assert svd(A, RankTolerance("absolute", 1e-4)).rank == 1
    assert svd(A, RankTolerance("relative", 1e-3)).rank == 1
    with pytest.raises(ValueError):
        RankTolerance("absolute")
    with pytest.raises(ValueError):
        RankTolerance("relative", -1.0)


def test_pinv_identity_and_diagonal():
    np.testing.assert_allclose(pinv(np.eye(4)), np.eye(4), atol=1e-14)
    np.testing.assert_allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-15)


def test_pinv_full_column_rank_oracle():
    # Oracle for full column rank: pinv(A) = inv(A'A) A' = A' / (A'A).
    a = np.array([[3.0], [4.0]])
    expected = a.T / float(a[:, 0] @ a[:, 0])
    np.testing.assert_allclose(expected, [[3 / 25, 4 / 25]])
    np.testing.assert_allclose(pinv(a), expected, rtol=1e-14)


@pytest.mark.parametrize("seed", range(100))
def test_pinv_involution_and_moore_penrose(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((8, 5))
    Ap = pinv(A)
    scale = np.linalg.norm(A)
    assert np.linalg.norm(pinv(Ap) - A) <= 1e-10 * scale
    assert np.linalg.norm(A @ Ap @ A - A) <= 1e-12 * scale
    assert np.linalg.norm(Ap @ A @ Ap - Ap) <= 1e-12 * np.linalg.norm(Ap)
    for proj in (A @ Ap, Ap @ A):
        assert np.linalg.norm(proj - proj.T) <= 1e-12


def test_cholesky_identity_and_hand_case():
    np.testing.assert_allclose(cholesky_spd(np.eye(3)), np.eye(3), atol=1e-15)
    # Hand expansion of the 2x2 recursion: c11 = 2, c21 = 1, c22 = 1.
    C = cholesky_spd(np.array([[4.0, 2.0], [2.0, 2.0]]))
    np.testing.assert_allclose(C, [[2.0, 0.0], [1.0, 1.0]], atol=1e-15)


def test_cholesky_rejects_indefinite():
    with pytest.raises(IndefiniteMatrixError):
        cholesky_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
    with pytest.raises(ValueError):
        cholesky_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric


def test_cholesky_psd_singular_raises():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((4, 2))
    with pytest.raises(IndefiniteMatrixError):
        cholesky_spd(B @ B.T)


def test_projector_range_cases():
    np.testing.assert_allclose(projector_range(np.eye(4)), np.eye(4), atol=1e-14)
    np.testing.assert_allclose(
        projector_range(np.array([[1.0], [0.0]])), np.diag([1.0, 0.0]), atol=1e-14
    )
    # Oracle v v' / ||v||^2 for a single column.
    v = np.array([[1.0], [1.0]])
    expected = (v @ v.T) / 2.0
    np.testing.assert_allclose(projector_range(v), expected, atol=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_projector_properties(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((6, 3))
    P = projector_range(A)
    assert np.linalg.norm(P @ P - P) <= 1e-12
    assert np.linalg.norm(P - P.T) <= 1e-13
    assert np.linalg.norm(P @ A - A) <= 1e-12 * np.linalg.norm(A)


def test_nullspace_basis_cases():
    assert nullspace_basis(np.eye(3)).shape == (3, 0)
    B = nullspace_basis(np.array([[1.0, 1.0]]))
    assert B.shape == (2, 1)
    expected = np.array([1.0, -1.0]) / math.sqrt(2)
    assert min(
        np.linalg.norm(B[:, 0] - expected), np.linalg.norm(B[:, 0] + expected)
    ) <= 1e-14


def test_nullspace_basis_planted_rank():
    rng = np.random.default_rng(5)
    # rank-2 4x4 built by construction
    A = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
    B = nullspace_basis(A)
    assert B.shape == (4, 2)
    assert np.linalg.norm(B.T @ B - np.eye(2)) <= 1e-13
    assert np.linalg.norm(A @ B) <= 1e-12 * np.linalg.norm(A)


def test_lsqr_identity_one_iteration():
    res = lsqr(np.eye(3), np.array([1.0, 0.0, 0.0]), tau=1e-12)
    np.testing.assert_allclose(res.x, [1.0, 0.0, 0.0], atol=1e-15)
    assert res.iterations == 1
    assert res.converged


def test_lsqr_consistent_singular_min_norm():
    res = lsqr(np.diag([1.0, 0.0]), np.array([2.0, 0.0]))
    np.testing.assert_allclose(res.x, [2.0, 0.0], atol=1e-14)


def test_lsqr_matches_cholesky_oracle():
    rng = np.random.default_rng(20)
    G = spd_matrix(rng, 20, cond=100.0)
    rhs = rng.standard_normal(20)
    C = cholesky_spd(G)
    expected = np.linalg.solve(C.T, np.linalg.solve(C, rhs))
    res = lsqr(G, rhs, tau=1e-12)
    assert res.converged
    assert np.linalg.norm(res.x - expected) <= 1e-10 * np.linalg.norm(expected)


def test_lsqr_accepts_callables_and_caps():
    rng = np.random.default_rng(4)
    G = spd_matrix(rng, 15, cond=1e4)
    rhs = rng.standard_normal(15)
    res = lsqr(lambda v: G @ v, rhs, tau=1e-14, max_iter=2)
    assert res.iterations == 2
    assert not res.converged  # cap reached is a status, not an error


def test_lsqr_converges_at_the_cg_rate():
    # conjugate gradients on G converge at a rate set by cond(G)^(1/2): the
    # textbook bound sqrt(k) ln(2 sqrt(k) / tau) is ~260 iterations here,
    # and a solve on the Krylov space of G^2 needs several times that
    rng = np.random.default_rng(7)
    kappa, tau = 100.0, 1e-10
    G = spd_matrix(rng, 400, cond=kappa)
    rhs = rng.standard_normal(400)
    res = lsqr(G, rhs, tau=tau)
    assert res.converged
    assert res.iterations <= math.sqrt(kappa) * math.log(2 * math.sqrt(kappa) / tau)
    assert np.linalg.norm(G @ res.x - rhs) <= 2 * tau * np.linalg.norm(rhs)


def test_lsqr_curvature_breakdown_is_reported():
    # d'Gd = -1 on the first search direction: G is not PSD, and the solve
    # stops unconverged, never claiming convergence; the strategy latches it
    G = np.diag([1.0, 1.0, -1.0])
    e3 = np.array([0.0, 0.0, 1.0])
    assert not lsqr(G, e3).converged
    strategy = InnerLsqrStrategy(G)
    strategy.bind(GlsProblem(np.eye(3)))  # MA = I, so apply hands CG e3 itself
    strategy.apply(e3)
    assert strategy.hit_cap


@pytest.mark.parametrize("seed", range(8))
def test_lsqr_solution_orthogonal_to_nullspace(seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((12, 7))
    G = B @ B.T  # PSD, rank 7
    target = rng.standard_normal(12)
    rhs = G @ target  # consistent by construction
    res = lsqr(G, rhs, tau=1e-14)
    N = nullspace_basis(G)
    assert N.shape[1] == 5
    assert np.abs(N.T @ res.x).max() <= 1e-8 * np.linalg.norm(res.x)


@pytest.mark.parametrize("tau", [-1e-10, 0.0, math.nan])
def test_lsqr_rejects_a_tau_that_is_not_positive(tau):
    with pytest.raises(ValueError, match="tau"):
        lsqr(np.diag([1.0, 2.0, 3.0]), np.ones(3), tau=tau)


@pytest.fixture(scope="module")
def generated_problem():
    # a glsqr_inner-sized problem: G is 220 x 220, C-ordered and bitwise
    # symmetric, and positive definite; L is the l1 stencil
    return generate(random_sparse_matrix(165, 220, density=0.05, seed=1), "l1", "trig", 1).problem


@pytest.fixture(scope="module")
def generated_g(generated_problem):
    # G and a first gGKB right-hand side (MA)' b
    prob = generated_problem
    return prob.G, prob.MA.T @ prob.b


@pytest.fixture(scope="module")
def band_factor(generated_problem):
    # the upper banded Cholesky factor of L'L + cI that the inner strategy binds
    strategy = InnerLsqrStrategy(generated_problem.G)
    strategy.bind(generated_problem)
    return strategy.precond


def g_forms(G):
    """G stored C-ordered, F-ordered, as a strided view, sparse and as a product."""
    wide = np.zeros((G.shape[0], 2 * G.shape[1]))
    wide[:, ::2] = G
    return {
        "C": np.ascontiguousarray(G),
        "F": np.asfortranarray(G),
        "strided": wide[:, ::2],
        "sparse": scipy.sparse.csr_array(G),
        "callable": lambda v: G @ v,
    }


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_lsqr_dense_layouts_match_sparse_and_callable_g(generated_g, layout):
    # symv reads one triangle of a dense G, in whatever layout it comes;
    # sparse and callable G keep their own product, so only rounding differs
    G, rhs = generated_g
    forms = g_forms(G)
    rhs_before = rhs.copy()
    dense = lsqr(forms[layout], rhs, tau=1e-12)
    np.testing.assert_array_equal(rhs, rhs_before)
    assert dense.converged
    assert np.linalg.norm(G @ dense.x - rhs) <= 2e-12 * np.linalg.norm(rhs)
    for name in ("sparse", "callable"):
        other = lsqr(forms[name], rhs, tau=1e-12)
        assert other.iterations == dense.iterations, name
        assert np.linalg.norm(other.x - dense.x) <= 1e-12 * np.linalg.norm(dense.x), name


@pytest.mark.parametrize("form", ["C", "F", "strided", "sparse", "callable"])
def test_lsqr_cap_reports_the_evaluated_residual(generated_g, form):
    # with tau out of reach CG runs its 4n cap into stagnation, where the
    # recursive residual keeps falling far below what G x - rhs shows
    G, rhs = generated_g
    operator = g_forms(G)[form]
    rhs_before = rhs.copy()
    res = lsqr(operator, rhs, tau=1e-300)
    np.testing.assert_array_equal(rhs, rhs_before)
    assert (res.iterations, res.converged) == (4 * rhs.size, False)
    direct = np.linalg.norm(G @ res.x - rhs) / np.linalg.norm(rhs)
    assert 1e-16 < direct < 1e-13
    assert 0.5 * direct <= res.relative_residual <= 2.0 * direct
    early = lsqr(operator, rhs, tau=1e-300, max_iter=5)
    direct = np.linalg.norm(G @ early.x - rhs) / np.linalg.norm(rhs)
    assert early.relative_residual == pytest.approx(direct, rel=1e-12)


def test_orthogonal_helper():
    Q = orthogonal(np.random.default_rng(0), 6)
    assert np.linalg.norm(Q.T @ Q - np.eye(6)) <= 1e-13


@pytest.mark.parametrize("form", ["C", "sparse", "callable"])
def test_preconditioned_lsqr_matches_plain_cg(generated_g, band_factor, form):
    G, rhs = generated_g
    operator = g_forms(G)[form]
    rhs_before = rhs.copy()
    plain = lsqr(operator, rhs, tau=1e-12)
    pcg = lsqr(operator, rhs, tau=1e-12, precond=band_factor)
    np.testing.assert_array_equal(rhs, rhs_before)
    assert plain.converged and pcg.converged
    assert 3 * pcg.iterations <= plain.iterations
    assert np.linalg.norm(pcg.x - plain.x) <= 1e-10 * np.linalg.norm(plain.x)


@pytest.mark.parametrize("tau", [1e-6, 1e-10])
def test_preconditioned_lsqr_stops_on_the_true_residual(generated_g, band_factor, tau):
    # the stop test reads the residual of G s = rhs, not of P^-1 (G s - rhs)
    G, rhs = generated_g
    res = lsqr(G, rhs, tau=tau, precond=band_factor)
    assert res.converged and res.relative_residual <= tau
    direct = np.linalg.norm(G @ res.x - rhs) / np.linalg.norm(rhs)
    assert 1e-3 * tau <= direct <= 2 * tau


def test_preconditioned_lsqr_cap_reports_the_evaluated_residual(generated_g, band_factor):
    G, rhs = generated_g
    early = lsqr(G, rhs, tau=1e-300, max_iter=5, precond=band_factor)
    assert (early.iterations, early.converged) == (5, False)
    direct = np.linalg.norm(G @ early.x - rhs) / np.linalg.norm(rhs)
    assert early.relative_residual == pytest.approx(direct, rel=1e-12)


def test_lsqr_rejects_a_precond_of_another_size():
    with pytest.raises(ValueError, match="precond"):
        lsqr(np.eye(3), np.ones(3), precond=np.ones((2, 4)))

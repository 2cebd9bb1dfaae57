import ast
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from glskit import (
    GlsProblem,
    IndefiniteMatrixError,
    InnerLsqrStrategy,
    RankTolerance,
    cholesky_spd,
    SvdFactors,
    lsqr,
    pinv,
    ranked_factor,
    svd,
)
from glskit import linalg
from glskit.linalg import EPS, norm_product, stacked_factor
from glskit.problems import generate, random_sparse_matrix, regularizer
from glskit.wpinv import _product_tolerance
from helpers import (
    STACKED_KINDS,
    counted_factorizations,
    matrix_with_spectrum,
    nullspace_basis,
    orthogonal,
    projector_range,
    random_gls_problem,
    reconstruct,
    reference_pcg,
    spd_matrix,
    stacked_oracle,
    stacked_pair,
    z_b,
)

# the seeded problem families C1, C2 and W (random_gls_problem's keywords)
FAMILIES = {
    "C1": dict(m=6, n=9, p=2, q=4, rank_a=3, cond=1e4),
    "C2": dict(m=30, n=40, p=5, q=25, rank_a=12, shared_null=True, cond=1e3),
    "W": dict(m=9, n=7, p=3, q=8, rank_a=4, rank_m=5),
}


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
    # an infinite value would rank every matrix at 0
    for value in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            RankTolerance("relative", value)
        with pytest.raises(ValueError):
            RankTolerance("absolute", value)


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


def test_cholesky_spd_refuses_by_the_pivot_rule_of_check_pivots():
    # the first pivot at or below 1e-14 max(diag(G)), with the message,
    # pivot and index that CholeskyStrategy.bind raises through the same
    # rule; powers of 2 make the pivots exactly the squared diagonal of C
    G = np.diag([4.0, 1.0, 2.0**-50, 2.0**-54])
    with pytest.raises(IndefiniteMatrixError) as spd:
        cholesky_spd(G)
    with pytest.raises(IndefiniteMatrixError) as rule:
        linalg.check_pivots(G.diagonal(), G.diagonal())
    assert str(spd.value) == str(rule.value) == "nonpositive pivot 8.882e-16 at column 2"
    assert spd.value.pivot == rule.value.pivot == 2.0**-50
    assert spd.value.index == rule.value.index == 2
    linalg.check_pivots(np.ones(3), np.ones(3))


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


@pytest.mark.parametrize("tau", [-1e-10, 0.0, math.nan, math.inf])
def test_lsqr_rejects_a_tau_that_is_not_positive(tau):
    with pytest.raises(ValueError, match="tau"):
        lsqr(np.diag([1.0, 2.0, 3.0]), np.ones(3), tau=tau)


@pytest.mark.parametrize("max_iter", [0, -3, math.nan, math.inf, 2.5])
def test_lsqr_rejects_a_max_iter_that_is_not_an_integer_of_at_least_1(max_iter):
    # 2.5 would run 3 iterations, and 0, -3 or NaN none, as converged=False
    with pytest.raises(ValueError, match="max_iter"):
        lsqr(np.diag([1.0, 2.0, 3.0]), np.ones(3), max_iter=max_iter)


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


@pytest.mark.parametrize("tau", [1e-15, 1e-150, 1e-300])
def test_lsqr_below_the_rounding_floor_reports_the_evaluated_residual(generated_g, band_factor, tau):
    # tau < n eps: the preconditioned run stops converged once its
    # recursive residual passes tau (with the dense G: 9.7e-16 at 1e-15,
    # 4.8e-151 at 1e-150, 0.0 at 1e-300), far below the 3.9e-15 to 4.1e-15
    # that G x - rhs shows, so it reports the evaluated residual, at the
    # cost of one more product
    G, rhs = generated_g
    products = []

    def operator(v):
        products.append(1)
        return G @ v

    res = lsqr(operator, rhs, tau=tau, precond=band_factor)
    assert res.converged and len(products) == res.iterations + 1
    direct = np.linalg.norm(G @ res.x - rhs) / np.linalg.norm(rhs)
    assert 1e-16 < direct < 1e-13
    assert res.relative_residual == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("precond, iterations", [(True, 28), (False, 106)])
def test_lsqr_above_the_rounding_floor_reports_the_recursive_residual(
    generated_g, band_factor, precond, iterations
):
    # tau = 1e-10, the glsqr_inner workload's, is above n eps: the stop
    # costs no product beyond the iterations', and the recursive residual
    # that passed the stop test is what is reported
    G, rhs = generated_g
    products = []

    def operator(v):
        products.append(1)
        return G @ v

    res = lsqr(operator, rhs, tau=1e-10, precond=band_factor if precond else None)
    assert res.converged and res.iterations == iterations
    assert len(products) == iterations
    assert res.relative_residual <= 1e-10
    direct = np.linalg.norm(G @ res.x - rhs) / np.linalg.norm(rhs)
    assert res.relative_residual == pytest.approx(direct, rel=1e-4)


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


@pytest.fixture(scope="module")
def band_factors(generated_problem, band_factor):
    # the bound factor of L'L + cI for the problem's MA with three sparse
    # L: the identity, l1 (the problem's own) and l2, of half-bandwidth 0,
    # 1 and 2
    prob, factors = generated_problem, {"l1": band_factor}
    for kind in ("identity", "l2"):
        strategy = InnerLsqrStrategy(prob.G)
        strategy.bind(GlsProblem(prob.A, prob.M, regularizer(kind, prob.n)))
        factors[kind] = strategy.precond
    return factors


@pytest.mark.parametrize("kind, w", [("identity", 0), ("l1", 1), ("l2", 2)])
@pytest.mark.parametrize("tau", [1e-6, 1e-10])
def test_preconditioned_lsqr_matches_the_reference_pcg(generated_g, band_factors, kind, w, tau):
    # w <= 1 is solved by pttrs on the factor's LDL' form, w = 2 by pbtrs;
    # near 1e-12 the residual nears its rounding floor, where the solves'
    # different roundings can move the stop by an iteration
    G, rhs = generated_g
    factor = band_factors[kind]
    assert factor.shape == (w + 1, rhs.size)
    res = lsqr(G, rhs, tau=tau, precond=factor)
    x, iterations = reference_pcg(G, rhs, factor, tau, 4 * rhs.size)
    assert res.converged
    assert res.iterations == iterations
    assert np.linalg.norm(res.x - x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("w", [0, 1])
def test_preconditioned_lsqr_on_the_smallest_tridiagonal_factors(n, w):
    # at n = 1 the f2py pttrs wrapper refuses an empty off-diagonal
    rng = np.random.default_rng(10 * n + w)
    G, rhs = spd_matrix(rng, n, cond=10.0), rng.standard_normal(n)
    band = np.zeros((w + 1, n))
    band[w] = 2.0 + rng.random(n)
    if w:
        band[0, 1:] = rng.uniform(-1.0, 1.0, n - 1)
    factor = scipy.linalg.cholesky_banded(band)
    res = lsqr(G, rhs, tau=1e-12, precond=factor)
    x, iterations = reference_pcg(G, rhs, factor, 1e-12, 4 * n)
    assert res.converged and res.iterations == iterations
    assert np.linalg.norm(res.x - x) <= 1e-12 * np.linalg.norm(x)
    assert np.linalg.norm(G @ res.x - rhs) <= 1e-12 * np.linalg.norm(rhs)


@pytest.mark.parametrize("preconditioned", [False, True])
def test_lsqr_memory_does_not_grow_with_its_iterations(generated_g, band_factor, preconditioned):
    # with a dense G the loop works in buffers made before it, so running
    # 4n iterations instead of 5 adds less than one n-vector to the peak
    G, rhs = generated_g
    precond = band_factor if preconditioned else None
    lsqr(G, rhs, max_iter=1, precond=precond)  # any first-call set-up
    peaks, iterations = [], []
    for max_iter in (5, 4 * rhs.size):
        tracemalloc.start()
        try:
            res = lsqr(G, rhs, tau=1e-300, max_iter=max_iter, precond=precond)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        iterations.append(res.iterations)
    # the preconditioned run stops short of its cap, after about 300
    # iterations, when its recursive residual underflows to zero; like the
    # capped runs it then reports the evaluated residual, whose temporary
    # sets both runs' peaks
    assert iterations[0] == 5 and iterations[1] >= 300
    assert peaks[1] - peaks[0] < 8 * rhs.size


@pytest.mark.parametrize(
    "name, signature",
    [
        ("daxpy", "z = daxpy(x,y,[n,a,offx,incx,offy,incy])"),
        ("dsymv", "y = dsymv(alpha,a,x,[beta,y,offx,incx,offy,incy,lower,overwrite_y])"),
        ("dpbtrs", "x,info = dpbtrs(ab,b,[lower,ldab,overwrite_b])"),
        ("dpttrs", "x,info = dpttrs(d,e,b,[overwrite_b])"),
        ("dormqr", "cq,work,info = dormqr(side,trans,a,tau,c,lwork,[overwrite_c])"),
        ("dtpqrt", "a,b,t,info = dtpqrt(l,nb,a,b,[overwrite_a,overwrite_b])"),
        ("dtpmqrt", "a,b,info = dtpmqrt(l,v,t,a,b,[side,trans,overwrite_a,overwrite_b])"),
        ("dtrmv", "x = dtrmv(a,x,[offx,incx,lower,trans,diag,overwrite_x])"),
    ],
)
def test_positionally_called_wrappers_keep_their_argument_order(name, signature):
    # linalg passes these f2py wrappers' optional arguments by position, so
    # a scipy whose wrapper orders them otherwise would bind them silently
    assert getattr(linalg, name).__doc__.splitlines()[0] == signature


def test_the_floor_comment_names_every_blas_and_lapack_import():
    # pyproject.toml's floor comment lists the BLAS and LAPACK wrappers
    # that src/glskit calls, so a raised floor can be checked against them
    root = pathlib.Path(__file__).resolve().parents[1]
    comment = " ".join(
        line for line in (root / "pyproject.toml").read_text().splitlines()
        if line.startswith("#")
    )
    imported = {
        alias.name
        for path in (root / "src" / "glskit").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and node.module in ("scipy.linalg.blas", "scipy.linalg.lapack")
        for alias in node.names
    }
    assert imported
    assert {name for name in imported if not re.search(rf"\b{name}\b", comment)} == set()


def test_lsqr_rejects_a_precond_of_another_size():
    with pytest.raises(ValueError, match="precond"):
        lsqr(np.eye(3), np.ones(3), precond=np.ones((2, 4)))


@pytest.mark.parametrize("kind", STACKED_KINDS)
def test_stacked_factor_matches_the_qr_of_the_staged_stack(kind):
    L, B = stacked_pair(kind)
    s = stacked_factor(L, B, l_rows=True)
    Z_o, F_o, F_pinv_o, N_o, certified_o = stacked_oracle(L, B)
    assert s.certified == certified_o == (kind not in ("wide", "shared_null"))
    K = np.vstack([L.toarray() if scipy.sparse.issparse(L) else L, B])
    k_norm = np.linalg.norm(K)
    # R'R = G, and [Z_L; Z_B] has orthonormal columns with K = Z F
    G = GlsProblem(B, None, L).G
    assert np.linalg.norm(s.F.T @ s.F - G) <= 1e-14 * k_norm**2
    Z = np.vstack([s.Z_L, s.Z_B])
    assert Z.shape[1] == Z_o.shape[1]
    assert np.linalg.norm(Z.T @ Z - np.eye(Z.shape[1])) <= 1e-14 * Z.size
    assert np.linalg.norm(Z @ s.F - K) <= 1e-14 * k_norm
    # W = F_pinv Z_B' = pinv(G) B', and N(K), do not depend on the basis
    W, W_o = s.F_pinv @ s.Z_B.T, F_pinv_o @ Z_o[L.shape[0] :].T
    assert np.linalg.norm(W - W_o) <= 1e-12 * np.linalg.norm(W_o)
    assert np.linalg.norm(s.N @ s.N.T - N_o @ N_o.T) <= 1e-12


@pytest.mark.parametrize("kind", STACKED_KINDS)
def test_stacked_factor_factors_l_only_when_it_is_not_its_own_triangle(monkeypatch, kind):
    # a wide stack makes no QR, the SVD of the stack ranks it; a shared
    # null space adds the SVD of R
    L, B = stacked_pair(kind)
    calls = counted_factorizations(monkeypatch, ("qr", "svd"))
    stacked_factor(L, B)
    if kind == "wide":
        assert calls == ["numpy.linalg.svd"]
    elif kind in ("l1", "l2", "identity", "p0"):
        assert calls == ["dtpqrt"]
    else:
        svd_of_r = ["numpy.linalg.svd"] if kind == "shared_null" else []
        assert calls == ["scipy.linalg.qr", "dtpqrt", *svd_of_r]


@pytest.mark.parametrize("family", ["C1", "C2", "W"])
def test_gdag_w_matches_the_oracle_across_a_family(family):
    # W = pinv(G) (MA)' is determined by the problem, so two backward stable
    # factorizations of the stack differ by about eps cond(K) (Wedin's
    # bound on pinv(K)); C1's cond(K) of about 1e7 puts that above 1e-12
    kwargs = FAMILIES[family]
    ratios = []
    for seed in range(200):
        prob = random_gls_problem(seed, **kwargs)
        Z_o, F_o, F_pinv_o, _, _ = stacked_oracle(prob.L, prob.MA)
        W_o = F_pinv_o @ Z_o[prob.L.shape[0] :].T
        sig = np.linalg.svd(F_o, compute_uv=False)
        gdag = prob.factors.gdag
        gap = np.linalg.norm(gdag.F_pinv @ z_b(gdag).T - W_o) / np.linalg.norm(W_o)
        ratios.append(gap / max(1e-12, EPS * sig[0] / sig[-1]))
    assert max(ratios) <= 1.0


def test_norm_product_leaves_the_double_range_only_with_its_result():
    # each norm scaled where the unscaled sum of squares overflows (1e300)
    # or underflows (1e-300), and a product whose partial products would
    big, tiny = np.full((4, 5), 1e300), np.full(3, 1e-300)
    assert norm_product(big) == pytest.approx(math.sqrt(20) * 1e300, rel=1e-15)
    assert norm_product(tiny) == pytest.approx(math.sqrt(3) * 1e-300, rel=1e-15)
    assert norm_product(big, big, tiny, scale=1e-20) == pytest.approx(20 * math.sqrt(3) * 1e280, rel=1e-14)
    assert norm_product(tiny, tiny, big) == pytest.approx(3 * math.sqrt(20) * 1e-300, rel=1e-14)
    assert norm_product(big, big) == math.inf
    assert norm_product(tiny, tiny) == 0.0
    assert norm_product(scipy.sparse.csr_array(big)) == norm_product(big)
    assert norm_product(np.zeros((0, 3)), big) == 0.0
    # the product floor of two factors whose norms' plain product overflows
    floor = _product_tolerance(big, np.full((5, 2), 1e-290))
    assert floor.value == pytest.approx(8 * 5 * EPS * math.sqrt(20) * math.sqrt(10) * 1e10, rel=1e-14)


@st.composite
def ranked_problems(draw):
    """``(A, tol)``: A m x n (1 <= m, n <= 12) of a planted rank
    with singular values in [1e-8, 1] times a scale of 10^k, |k| <= 300 (a
    rank of 0 gives A = 0); tol None, or relative or absolute with its
    cutoff halfway (geometrically) across a gap of at least 2x below a
    planted singular value, or above them all."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rank = min(m, n) - draw(st.integers(0, min(m, n)))
    exponents = draw(st.lists(st.floats(0.0, 8.0), min_size=rank, max_size=rank))
    sigma = np.sort(10.0 ** -np.array(exponents, dtype=np.float64))[::-1]
    scale = 10.0 ** draw(st.integers(-300, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = scale * matrix_with_spectrum(rng, m, n, sigma)
    mode = draw(st.sampled_from([None, "relative", "absolute"]))
    if mode is None:
        return A, None
    # the planted values, padded by one above and one far below the least
    bounds = np.concatenate([[10.0 * sigma.max(initial=1.0)], sigma, [1e-3 * sigma.min(initial=1.0)]])
    j = draw(st.integers(1, bounds.size - 1))
    assume(bounds[j - 1] >= 2.0 * bounds[j])
    cutoff = math.sqrt(bounds[j - 1] * bounds[j])
    if mode == "relative":
        return A, RankTolerance("relative", cutoff / sigma.max(initial=1.0))
    return A, RankTolerance("absolute", cutoff * scale)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(ranked_problems())
@example((np.zeros((4, 7)), None))
@example((np.zeros((7, 4)), RankTolerance("absolute", 1e-3)))
@example((np.zeros((0, 5)), None))
@example((np.zeros((5, 0)), RankTolerance("relative", 1e-3)))
@example((np.zeros((0, 0)), RankTolerance("absolute", 1.0)))
@example((np.random.default_rng(0).standard_normal((5, 3)) * 1e160, None))
@example((1e300 * matrix_with_spectrum(np.random.default_rng(0), 12, 9, np.logspace(0, -8, 9)), None))
@example((1e-300 * matrix_with_spectrum(np.random.default_rng(0), 12, 9, np.logspace(0, -8, 9)), None))
def test_ranked_factor_ranks_as_the_svd_does(problem):
    # a certified QR or the SVD of R, with Q applied: the same rank as the
    # SVD of A, and the same N(A) and pinv(A) to within eps cond(A); the
    # explicit examples add A = 0, the empty shapes, a norm whose unscaled
    # sum of squares overflows, and both ends of the scales. Below 1e-300
    # the oracle's own pinv overflows: 1 / (1e-301 * 1e-8) is past 1.8e308
    A, tol = problem
    got, want = ranked_factor(A, tol), svd(A, tol)
    assert got.rank == want.rank
    N, Z = got.nullspace(), want.nullspace()
    assert N.shape == Z.shape
    assert np.linalg.norm(N @ N.T - Z @ Z.T) <= 1e-6
    X, Y = got.pinv(), want.pinv()
    assert X.shape == Y.shape == A.T.shape
    # divided by its largest entry first, as pinv(A) reaches 1e308 and
    # the sum of its squares would overflow
    unit = np.abs(Y).max(initial=0.0) or 1.0
    assert np.linalg.norm((X - Y) / unit) <= 1e-6 * np.linalg.norm(Y / unit)
    if not isinstance(got, SvdFactors):
        assert got.rank == min(A.shape)

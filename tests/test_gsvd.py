import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse

import glskit.linalg
from glskit import (
    GlsProblem,
    RankTolerance,
    gsvd_pair,
    pinv,
    sigma_max_ca,
    wpinv_elden,
    wpinv_matrix,
    wpinv_via_gsvd,
)
from helpers import (
    STACKED_KINDS,
    matrix_with_spectrum,
    projector_range,
    random_gls_problem,
    random_matrix,
    stacked_oracle,
    stacked_pair,
)


def padded(block, n):
    """Sigma_A or Sigma_L: the m x r or p x r diagonal block, zero-padded to
    n columns."""
    S = np.zeros((block.shape[0], n))
    S[:, : block.shape[1]] = block
    return S


def check_factors(A, L, f, rtol=1e-10):
    A, L = np.atleast_2d(A), np.atleast_2d(L)
    assert f.q1 + f.q2 + f.q3 == f.r
    assert np.linalg.norm(f.U_A.T @ f.U_A - np.eye(f.U_A.shape[0])) <= 1e-12
    assert np.linalg.norm(f.U_L.T @ f.U_L - np.eye(f.U_L.shape[0])) <= 1e-12
    pyth = f.C_A.T @ f.C_A + f.S_L.T @ f.S_L - np.eye(f.r)
    assert np.linalg.norm(pyth) <= 1e-12
    n = f.X.shape[0]
    assert np.linalg.norm(A @ f.X - f.U_A @ padded(f.C_A, n)) <= rtol * max(np.linalg.norm(A), 1e-30)
    assert np.linalg.norm(L @ f.X - f.U_L @ padded(f.S_L, n)) <= rtol * max(np.linalg.norm(L), 1e-30)
    assert np.linalg.norm(f.X @ f.X_inv - np.eye(f.X.shape[0])) <= 1e-10
    cq2 = np.diag(f.C_A)[f.q1 : f.q1 + f.q2]
    assert np.all((cq2 > 0.0) & (cq2 < 1.0))
    sq2 = [f.S_L[:, j].max() for j in range(f.q1, f.q1 + f.q2)]
    assert all(0.0 < s < 1.0 for s in sq2)


def planted_joint_null_pair(seed, m=6, p=3, n=4):
    """{A, L} sharing one planted null vector, so rank([A; L]) = n - 1."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n)
    e /= np.linalg.norm(e)
    killer = np.eye(n) - np.outer(e, e)
    return rng.standard_normal((m, n)) @ killer, rng.standard_normal((p, n)) @ killer


def test_l_zero_forces_unit_block():
    f = gsvd_pair(np.eye(2), np.zeros((1, 2)))
    assert (f.r, f.q1, f.q2, f.q3) == (2, 2, 0, 0)
    np.testing.assert_allclose(f.C_A, np.eye(2), atol=1e-14)
    check_factors(np.eye(2), np.zeros((1, 2)), f)


def test_a_zero_mirror_case():
    f = gsvd_pair(np.zeros((1, 2)), np.eye(2))
    assert (f.r, f.q1, f.q2, f.q3) == (2, 0, 0, 2)
    np.testing.assert_allclose(f.S_L, np.eye(2), atol=1e-14)
    check_factors(np.zeros((1, 2)), np.eye(2), f)


def test_diagonal_pair_hand_values():
    # By hand from c^2 + s^2 = 1 and c/s = sigma(A)/sigma(L) per column:
    # column 1: (2, 1) -> c = 2/sqrt(5); column 2: (1, 1) -> c = 1/sqrt(2).
    A, L = np.diag([2.0, 1.0]), np.eye(2)
    f = gsvd_pair(A, L)
    assert (f.r, f.q1, f.q2, f.q3) == (2, 0, 2, 0)
    np.testing.assert_allclose(
        np.diag(f.C_A), [2 / math.sqrt(5), 1 / math.sqrt(2)], rtol=1e-14
    )
    check_factors(A, L, f)


def test_partition_widths():
    f = gsvd_pair(np.eye(2), np.zeros((1, 2)))
    assert (f.q1, f.q2, f.q3, f.X.shape[1] - f.r) == (2, 0, 0, 0)

    f = gsvd_pair(np.diag([2.0, 1.0]), np.eye(2))
    assert (f.q1, f.q2, f.q3, f.X.shape[1] - f.r) == (0, 2, 0, 0)


def test_partition_planted_joint_null_space():
    A, L = planted_joint_null_pair(42)
    f = gsvd_pair(A, L)
    X4 = f.X[:, f.r :]
    assert X4.shape[1] == 1
    G = A.T @ A + L.T @ L
    assert np.linalg.norm(G @ X4) <= 1e-10 * np.linalg.norm(G)
    check_factors(A, L, f)


def test_leading_x_columns_lie_in_range_of_g():
    # wpinv_via_gsvd skips the projector onto R(G) because the first r
    # columns of X lie in R(G) by construction; a planted N(G) must see none
    rng = np.random.default_rng(42)
    e = rng.standard_normal(4)
    e /= np.linalg.norm(e)
    killer = np.eye(4) - np.outer(e, e)
    A = rng.standard_normal((6, 4)) @ killer
    L = rng.standard_normal((3, 4)) @ killer
    f = gsvd_pair(A, L)
    assert f.r == 3
    lead = f.X[:, : f.r]
    assert np.linalg.norm(e @ lead) <= 1e-12 * np.linalg.norm(lead)


@pytest.mark.parametrize("seed", range(50))
def test_random_pairs_reconstruction(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 50))
    n = int(rng.integers(2, 40))
    p = int(rng.integers(1, 30))
    rank_a = int(rng.integers(1, min(m, n) + 1))
    A = random_matrix(rng, m, n, rank=rank_a, cond=50.0)
    L = random_matrix(rng, p, n, cond=50.0)
    f = gsvd_pair(A, L)
    check_factors(A, L, f)


@pytest.mark.parametrize("seed", range(10))
def test_x_blocks_g_orthonormal(seed):
    rng = np.random.default_rng(seed)
    A = random_matrix(rng, 7, 5, rank=3)
    L = random_matrix(rng, 4, 5, rank=2)
    f = gsvd_pair(A, L)
    G = A.T @ A + L.T @ L
    Xr = f.X[:, : f.r]
    assert np.linalg.norm(Xr.T @ G @ Xr - np.eye(f.r)) <= 1e-10
    X4 = f.X[:, f.r :]
    if X4.size:
        assert np.linalg.norm(G @ X4) <= 1e-10 * np.linalg.norm(G)


def test_sigma_max_ca_cases():
    assert sigma_max_ca(gsvd_pair(np.eye(2), np.zeros((1, 2)))) == 1.0
    f = gsvd_pair(np.diag([2.0, 1.0]), np.eye(2))
    assert abs(sigma_max_ca(f) - 2 / math.sqrt(5)) <= 1e-14
    assert sigma_max_ca(gsvd_pair(np.zeros((2, 2)), np.eye(2))) == 0.0


def test_sigma_max_is_operator_norm_bound():
    # sigma_max(C_A) equals max ||proj_R(P) A v||_P / ||v||_G over R(G).
    # Sampled ratios stay below the value; the maximizing X column attains it.
    rng = np.random.default_rng(3)
    A = random_matrix(rng, 6, 5, rank=4)
    L = random_matrix(rng, 3, 5)
    f = gsvd_pair(A, L)
    value = sigma_max_ca(f)
    G = A.T @ A + L.T @ L
    PG = projector_range(G)
    best = 0.0
    for _ in range(1000):
        v = PG @ rng.standard_normal(5)
        vg = math.sqrt(v @ G @ v)
        if vg == 0.0:
            continue
        best = max(best, np.linalg.norm(A @ v) / vg)
    assert best <= value * (1 + 1e-6)
    j = int(np.argmax(np.diag(f.C_A)))
    v_star = PG @ f.X[:, j]
    attained = np.linalg.norm(A @ v_star) / math.sqrt(v_star @ G @ v_star)
    assert attained >= value - 1e-6


def test_wpinv_via_gsvd_identity_cases():
    A, L = np.eye(3), np.zeros((1, 3))
    f = gsvd_pair(A, L)
    np.testing.assert_allclose(wpinv_via_gsvd(f, A.T @ A), np.eye(3), atol=1e-12)

    A = np.array([[1.0, 0.0]])
    L = np.array([[0.0, 1.0]])
    f = gsvd_pair(A, L)
    G = A.T @ A + L.T @ L
    np.testing.assert_allclose(wpinv_via_gsvd(f, G), [[1.0], [0.0]], atol=1e-13)


@pytest.mark.parametrize("seed", range(10))
def test_wpinv_via_gsvd_matches_direct_formula(seed):
    rng = np.random.default_rng(seed)
    A = random_matrix(rng, 5, 4, rank=3)
    L = random_matrix(rng, 3, 4, rank=2)
    prob = GlsProblem(A, None, L)
    f = gsvd_pair(A, L)
    X_gsvd = wpinv_via_gsvd(f, prob.G)
    X_elden = wpinv_elden(prob)
    scale = np.linalg.norm(X_elden)
    assert np.linalg.norm(X_gsvd - X_elden) <= 1e-10 * scale
    # output lies in R(G)
    PG = projector_range(prob.G)
    assert np.linalg.norm(X_gsvd - PG @ X_gsvd) <= 1e-10 * np.linalg.norm(X_gsvd)


def test_wpinv_via_gsvd_rejects_wrong_gram_matrix():
    rng = np.random.default_rng(1)
    e = rng.standard_normal(4)
    e /= np.linalg.norm(e)
    killer = np.eye(4) - np.outer(e, e)
    A = rng.standard_normal((5, 4)) @ killer
    L = rng.standard_normal((2, 4)) @ killer
    f = gsvd_pair(A, L)
    with pytest.raises(ValueError):
        wpinv_via_gsvd(f, np.eye(4))


def test_column_count_mismatch_rejected():
    with pytest.raises(ValueError):
        gsvd_pair(np.eye(2), np.zeros((1, 3)))


def test_pinv_reduction_when_l_spans_everything():
    # With L = I the weighted pseudoinverse reduces to the classical pinv.
    rng = np.random.default_rng(9)
    A = random_matrix(rng, 6, 4, rank=2)
    f = gsvd_pair(A, np.eye(4))
    G = A.T @ A + np.eye(4)
    np.testing.assert_allclose(wpinv_via_gsvd(f, G), pinv(A), atol=1e-11)


def test_orthonormal_completion_block_structure():
    # p > r: the leading p - r + q1 columns of U_L pair with zero rows of S_L.
    rng = np.random.default_rng(14)
    A = random_matrix(rng, 4, 3)
    L = random_matrix(rng, 6, 3)
    f = gsvd_pair(A, L)
    assert f.S_L.shape == (6, f.r)
    lead = f.S_L[: 6 - (f.r - f.q1), :]
    assert np.linalg.norm(lead) == 0.0
    check_factors(A, L, f)


@pytest.fixture
def factorizations(monkeypatch):
    """(name, shape of the factored matrix) of every numpy and scipy svd and
    qr call, in call order, and ("tpqrt", shape of the rows folded into the
    triangle) of every LAPACK ``dtpqrt`` call, through ``scipy.linalg.lapack``
    or the name ``glskit.linalg`` imports it by; a test clears it before the
    call it counts."""
    calls = []

    def counting(name, factorize, matrix=0):
        def counted(*args, **kwargs):
            calls.append((name, np.shape(args[matrix])))
            return factorize(*args, **kwargs)

        return counted

    for owner in (np.linalg, scipy.linalg):
        for name in ("svd", "qr"):
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    fold = counting("tpqrt", scipy.linalg.lapack.dtpqrt, matrix=3)
    monkeypatch.setattr(scipy.linalg.lapack, "dtpqrt", fold)
    monkeypatch.setattr(glskit.linalg, "dtpqrt", fold)
    return calls


def test_full_column_rank_pair_makes_one_qr_and_one_svd(factorizations):
    # the QR of [L; A] certifies full rank, so only the rows of Q that
    # belong to A are factored by SVD; the last QR completes U_L. L is not
    # triangular, so the stack's QR is one QR of L and the fold of A's rows
    # into its R
    rng = np.random.default_rng(5)
    m, p, n = 7, 6, 9
    A, L = random_matrix(rng, m, n, rank=5), random_matrix(rng, p, n)
    factorizations.clear()
    f = gsvd_pair(A, L)
    assert f.r == n
    assert factorizations == [
        ("qr", (p, n)), ("tpqrt", (m, n)), ("svd", (m, n)), ("qr", (p, n - f.q1))
    ]
    check_factors(A, L, f)


@pytest.mark.parametrize(
    "shape, seed", [((3, 2, 8), 0), ((1, 3, 5), 1), ((6, 3, 4), 7), ((5, 2, 4), 1)]
)
def test_wide_stack_and_joint_null_space_take_the_svd_of_r(shape, seed, factorizations):
    # a joint null space fails the QR's certificate and takes the SVD of
    # its n x n R; a wide stack, which has a null space by its shape, is
    # ranked by the SVD of the (m + p) x n stack itself, with no QR
    m, p, n = shape
    if m + p < n:
        rng = np.random.default_rng(seed)
        A, L = random_matrix(rng, m, n), random_matrix(rng, p, n)
        r = m + p
    else:
        A, L = planted_joint_null_pair(seed, m, p, n)
        r = n - 1
    factorizations.clear()
    f = gsvd_pair(A, L)
    assert f.r == r
    svds = [shape for name, shape in factorizations if name == "svd"]
    assert svds == [(min(m + p, n), n), (m, r)]
    if m + p < n:
        assert factorizations[0] == ("svd", (m + p, n))
    check_factors(A, L, f)


@pytest.mark.parametrize("scale", [0.0, 1e-200])
def test_a_singular_r_fails_the_certificate_quietly(scale, factorizations):
    # a shared zero (or 1e-200) column gives R a zero (tiny) last pivot:
    # trtri reports it (or returns an inverse whose norm overflows), and the
    # pair goes to R's SVD without an exception or a warning
    rng = np.random.default_rng(3)
    A, L = rng.standard_normal((5, 4)), rng.standard_normal((3, 4))
    A[:, -1] *= scale
    L[:, -1] *= scale
    factorizations.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = gsvd_pair(A, L)
    assert f.r == 3
    assert sum(name == "svd" for name, _ in factorizations) == 2
    check_factors(A, L, f)


@pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0, 100.0])
def test_rank_at_an_absolute_cutoff_matches_the_svd_of_the_stack(factor, factorizations):
    # sigma_min(K) = 1e-13 under two more small values, so the cutoff
    # crosses one, two or three of them; up to 0.9 sigma_min the QR
    # certifies full rank (1 / ||R^-1||_F is 0.95 sigma_min) and R's SVD is
    # skipped
    rng = np.random.default_rng(8)
    m, p, n = 6, 4, 6
    K = matrix_with_spectrum(rng, m + p, n, [1.0, 0.5, 0.2, 5e-12, 3e-13, 1e-13])
    A, L = K[:m], K[m:]
    s = np.linalg.svd(K, compute_uv=False)
    cutoff = factor * s[-1]
    factorizations.clear()
    f = gsvd_pair(A, L, RankTolerance("absolute", cutoff))
    assert f.r == np.count_nonzero(s > cutoff)
    svds = sum(name == "svd" for name, _ in factorizations)
    assert svds == (1 if factor < 1.0 else 2)


# seeded problem families (see test_glsqr.FAMILIES), each with the relative
# gap to wpinv_elden that the GSVD route must meet and the number of seeds
# 0-199 that must meet it; through the SVD of the stack, C1 had one seed at
# 1.06e-8. No seed may be off by more than 1e-6: a q3 cosine (exactly 0)
# whose roundoff crosses the 1e-12 snap is inverted, as with the QR of
# [A; L] on C1 seed 132, at a gap of 1e8
GSVD_FAMILIES = {
    "C1": (dict(m=6, n=9, p=2, q=4, rank_a=3, cond=1e4), 1e-8, 199),
    "C2": (dict(m=30, n=40, p=5, q=25, rank_a=12, shared_null=True, cond=1e3), 1e-10, 200),
    "W": (dict(m=9, n=7, p=3, q=8, rank_a=4, rank_m=5), 1e-10, 200),
}


@pytest.mark.parametrize("family", GSVD_FAMILIES)
def test_gsvd_route_agrees_with_elden_across_a_family(family):
    kwargs, gap, need = GSVD_FAMILIES[family]
    gaps = []
    for seed in range(200):
        prob = random_gls_problem(seed, **kwargs)
        X = wpinv_elden(prob)
        gaps.append(np.linalg.norm(wpinv_matrix(prob, "gsvd") - X) / np.linalg.norm(X))
    assert sum(g <= gap for g in gaps) >= need
    assert max(gaps) <= 1e-6


@pytest.mark.parametrize("kind", [*STACKED_KINDS, "m0", "a0"])
def test_gsvd_factors_on_every_path_of_the_stacked_factor(kind):
    # each path of linalg.stacked_factor (L its own triangle, L factored
    # first, p = 0, R's SVD), and A with no rows or no nonzero entry
    L, A = stacked_pair("dense" if kind in ("m0", "a0") else kind)
    A = {"m0": A[:0], "a0": 0.0 * A}.get(kind, A)
    L = L.toarray() if scipy.sparse.issparse(L) else L
    f = gsvd_pair(A, L)
    assert f.r == stacked_oracle(L, A)[1].shape[0]
    check_factors(A, L, f)

import json

import numpy as np
import pytest

from glskit import (
    DensePinvStrategy,
    certify_solution,
    generate,
    glsqr_solve,
    load_problem,
    make_l1,
    make_l2,
    sample_function,
    random_sparse_matrix,
    regularizer,
    save_problem,
    wpinv_elden,
)
from glskit.linalg import QrFactors
from glskit.wpinv import check_gls_criterion
from helpers import (
    counted_factorizations, counted_orgqr, nullspace_basis, projector_range, random_matrix,
)


def test_l1_stencil():
    L = make_l1(3).toarray()
    np.testing.assert_allclose(L, [[1, -1, 0], [0, 1, -1]])
    n = 9
    L = make_l1(n)
    assert np.linalg.norm(L @ np.ones(n)) == 0.0
    assert np.linalg.matrix_rank(L.toarray()) == n - 1
    with pytest.raises(ValueError):
        make_l1(1)


def test_l2_stencil():
    L = make_l2(4).toarray()
    np.testing.assert_allclose(L, [[-1, 2, -1, 0], [0, -1, 2, -1]])
    n = 9
    L = make_l2(n)
    ramp = np.linspace(-3.0, 5.0, n)
    assert np.linalg.norm(L @ ramp) <= 1e-13
    assert np.linalg.matrix_rank(L.toarray()) == n - 2
    with pytest.raises(ValueError):
        make_l2(2)


def test_sample_function_values():
    np.testing.assert_allclose(sample_function("ramp", 3), [0.0, 0.5, 1.0])
    cubic = sample_function("cubic", 5)
    assert cubic[-1] == pytest.approx(0.0)  # t^3 - t^2 at t = 1
    trig = sample_function("trig", 5)
    assert trig[2] == pytest.approx(-2.0)  # sin(0) - 2 cos(0)
    with pytest.raises(ValueError):
        sample_function("step", 4)
    with pytest.raises(ValueError):
        sample_function("ramp", 3, interval=(1.0, 0.0))


def test_regularizer_dispatch():
    assert regularizer("identity", 4).shape == (4, 4)
    custom = regularizer(np.array([[1.0, 2.0, 3.0]]), 3)
    assert custom.shape == (1, 3)
    with pytest.raises(ValueError):
        regularizer("banded", 4)
    with pytest.raises(ValueError):
        regularizer(np.ones((2, 5)), 4)


def test_generate_identity_matrix_trivial_spaces():
    gen = generate(np.eye(6), "l1", "ramp", seed=1)
    np.testing.assert_allclose(gen.x_true, gen.w, atol=1e-14)
    np.testing.assert_allclose(gen.z, np.zeros(6), atol=1e-14)


def test_generate_construction_invariants():
    rng = np.random.default_rng(77)
    A = random_matrix(rng, 12, 8, rank=5)
    gen = generate(A, "l1", "ramp", seed=77)
    prob = gen.problem

    report = check_gls_criterion(prob, gen.x_true, tol=1e-10)
    assert report and report.in_range_g

    # z is orthogonal to the range of A
    assert np.linalg.norm(prob.A.T @ gen.z) <= 1e-10 * np.linalg.norm(prob.A) * np.linalg.norm(gen.z)
    np.testing.assert_allclose(prob.b, prob.A @ gen.x_true + gen.z, atol=1e-14)

    # end to end: the iterative solver recovers the plant
    solved = glsqr_solve(prob, tol=1e-12)
    assert np.linalg.norm(solved.x - gen.x_true) <= 1e-8 * np.linalg.norm(gen.x_true)


def test_generate_singular_gram_matrix_falls_back():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 8))
    A -= A.mean(axis=1, keepdims=True)  # rows sum to zero: ones spans N(A) & N(L1)
    gen = generate(A, "l1", "trig", seed=5)
    G = gen.problem.G
    assert np.linalg.matrix_rank(G) < 8
    PG = projector_range(G)
    assert np.linalg.norm(gen.x_true - PG @ gen.x_true) <= 1e-12
    report = check_gls_criterion(gen.problem, gen.x_true, tol=1e-9)
    assert report and report.in_range_g


@pytest.mark.parametrize("kind,func", [("l1", "ramp"), ("l2", "cubic"), ("identity", "trig")])
def test_generated_solution_is_unique_min_norm(kind, func):
    rng = np.random.default_rng(hash((kind, func)) % 2**32)
    A = random_matrix(rng, 14, 18, rank=10)
    gen = generate(A, kind, func, seed=3)
    x_direct = wpinv_elden(gen.problem) @ gen.problem.b
    x_iter = glsqr_solve(gen.problem, tol=1e-12).x
    scale = np.linalg.norm(gen.x_true)
    assert np.linalg.norm(x_direct - gen.x_true) <= 1e-8 * scale
    assert np.linalg.norm(x_iter - gen.x_true) <= 1e-8 * scale


def test_generate_full_column_rank_keeps_w():
    rng = np.random.default_rng(21)
    A = random_matrix(rng, 10, 6)
    gen = generate(A, "l2", "cubic", seed=21)
    assert nullspace_basis(gen.problem.A).shape[1] == 0
    np.testing.assert_allclose(gen.x_true, gen.w, atol=1e-14)


def test_random_sparse_matrix_rank_and_reproducibility():
    A1 = random_sparse_matrix(12, 9, rank=4, density=0.4, seed=8)
    A2 = random_sparse_matrix(12, 9, rank=4, density=0.4, seed=8)
    assert (A1 != A2).nnz == 0
    assert np.linalg.matrix_rank(A1.toarray()) == 4
    with pytest.raises(ValueError):
        random_sparse_matrix(5, 5, rank=9)


@pytest.mark.parametrize("density", [float("nan"), -1.0, 0.0, 2.0, float("inf")])
def test_random_sparse_matrix_refuses_a_density_outside_0_1(density):
    # a NaN density would draw an empty mask 50 times and end in a
    # RuntimeError; the others would be taken as targets without complaint
    with pytest.raises(ValueError, match="density"):
        random_sparse_matrix(6, 5, density=density)


def test_save_and_load_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    A = random_matrix(rng, 9, 12, rank=6)
    gen = generate(A, "l2", "cubic", seed=13)
    save_problem(gen, tmp_path)

    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["seed"] == 13
    assert meta["func"] == "cubic"
    assert meta["Lkind"] == "l2"
    assert "criterion" in meta["tolerancesUsed"]

    loaded = load_problem(tmp_path)
    np.testing.assert_allclose(loaded.problem.A, gen.problem.A, atol=1e-15)
    np.testing.assert_allclose(loaded.problem.L.toarray(), gen.problem.L.toarray(), atol=1e-15)
    np.testing.assert_allclose(loaded.problem.b, gen.problem.b, atol=1e-15)
    np.testing.assert_allclose(loaded.x_true, gen.x_true, atol=1e-15)


def test_a_full_row_rank_problem_is_generated_solved_and_certified_without_an_svd(monkeypatch):
    # the certified QR of A' gives N(A) and proves R(A) = R^45, so z is
    # exactly 0 and no U is formed; L N is tall and certified too, so the
    # three factorizations are the QRs of A' and L N and the stack [L; A],
    # whose QR folds A into the l1 stencil, its own triangle
    A = random_sparse_matrix(45, 60, density=0.05, seed=4)  # draws by SVD itself
    calls = counted_factorizations(monkeypatch, ("svd", "qr"))
    gen = generate(A, "l1", "trig", seed=4)
    report = glsqr_solve(gen.problem, DensePinvStrategy(gen.problem.G), tol=1e-10)
    assert certify_solution(gen.problem, report)
    assert calls.count("numpy.linalg.svd") == 0
    assert calls == ["scipy.linalg.qr"] * 2 + ["dtpqrt", "scipy.linalg.qr"]
    np.testing.assert_array_equal(gen.z, np.zeros(45))
    assert np.linalg.norm(report.x - gen.x_true) <= 1e-6 * np.linalg.norm(gen.x_true)


def test_generate_forms_no_whole_q_for_a_wide_a(monkeypatch):
    # A' and the tall L N keep their reflectors: N(A) = Q[:, 45:] and
    # pinv(L N) are formed by applying them, and Q is never formed whole
    A = random_sparse_matrix(45, 60, density=0.05, seed=4)
    orgqr = counted_orgqr(monkeypatch)
    gen = generate(A, "l1", "trig", seed=4)
    assert orgqr == []
    ma, ln = gen.problem.factors.ma, gen.problem.factors.ln
    assert isinstance(ma, QrFactors) and ma.wide and ma.rank == 45
    assert isinstance(ln, QrFactors) and not ln.wide

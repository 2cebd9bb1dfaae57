import gc
import math
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import glskit.ggkb as ggkb_module
from glskit import (
    CholeskyStrategy,
    DensePinvStrategy,
    GlsProblem,
    IndefiniteMatrixError,
    InnerLsqrStrategy,
    ggkb_init,
    ggkb_step,
    glsqr_solve,
    pinv,
)
from glskit.linalg import EPS, norm_product, stacked_factor
from glskit.problems import make_l1, make_l2
from helpers import (
    StackRowsStrategy,
    bidiagonal,
    counted_factorizations,
    family_problem,
    krylov_subspace_check,
    nullspace_basis,
    projector_range,
    random_gls_problem,
    random_matrix,
    run_ggkb,
    z_b,
)


def identity_problem(n=4, e=0):
    b = np.zeros(n)
    b[e] = 1.0
    return GlsProblem(np.eye(n), None, np.zeros((1, n)), b)


def bound(strategy, prob):
    strategy.bind(prob)
    return strategy


def test_strategies_dispatch_and_validate():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((6, 6))
    G = B @ B.T + np.eye(6)
    # an infinite tau would end every inner solve at once, and gGKB at k = 0
    for tau in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="tau"):
            InnerLsqrStrategy(G, tau=tau)
    # an inner cap of 0 would make every apply return 0 and end gGKB at
    # k = 0; an infinite or fractional one would reach lsqr as it is
    for max_iter in (np.inf, np.nan, 2.5, 0):
        with pytest.raises(ValueError, match="max_iter"):
            InnerLsqrStrategy(G, max_iter=max_iter)
    # cholesky refuses, when bound, a PSD-singular G (G = C'C of rank 3), a G
    # whose pivot is at the floor 1e-14 max(diag(G)), and a G singular
    # through a null space that MA and a nonempty L share
    C = rng.standard_normal((3, 6))
    problems = (
        GlsProblem(C, None, None, np.ones(3)),
        GlsProblem(np.diag([1.0, 1e-8])),
        random_gls_problem(1, m=7, n=6, p=2, rank_a=3, shared_null=True),
    )
    for prob in problems:
        with pytest.raises(IndefiniteMatrixError):
            CholeskyStrategy(prob.G).bind(prob)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_strategies_check_the_shape_of_g_at_bind(sparse):
    # a G that is not n x n is refused when bound, before any apply, with
    # the same error by every strategy, for a singular G (the second
    # problem) too; a callable G is not checked
    wrong = np.eye(11)
    if sparse:
        wrong = scipy.sparse.csr_array(wrong)
    for prob in (
        random_gls_problem(3, m=12, n=10, p=6),
        random_gls_problem(1, m=12, n=10, p=2, rank_a=3, shared_null=True),
    ):
        for strategy_class in (DensePinvStrategy, CholeskyStrategy, InnerLsqrStrategy):
            with pytest.raises(ValueError, match="G must be 10 x 10"):
                strategy_class(wrong).bind(prob)
        bound(InnerLsqrStrategy(lambda v: prob.G @ v), prob)


MAP_STRATEGIES = {
    "dense": DensePinvStrategy,
    "cholesky": CholeskyStrategy,
    "inner": InnerLsqrStrategy,
    "stack_rows": lambda G: StackRowsStrategy(),
}


@pytest.mark.parametrize("family", ["C2", "W", "prescribed"])
@pytest.mark.parametrize("kind", MAP_STRATEGIES)
def test_every_strategy_binds_a_map_whose_image_and_to_x_agree(family, kind):
    # with x = to_x(s), image(s) is (MA x, ||x||_G) for any coordinates s,
    # and apply returns coordinates of the map's dim; the Cholesky strategy
    # refuses a singular G: every C2 seed, and prescribed pairs with n > r
    for seed in range(4):
        prob = family_problem(family, seed)
        strategy = MAP_STRATEGIES[kind](prob.G)
        if kind == "cholesky" and not prob.factors.gdag.certified:
            with pytest.raises(IndefiniteMatrixError):
                strategy.bind(prob)
            continue
        strategy.bind(prob)
        rng = np.random.default_rng(seed)
        s = rng.standard_normal(strategy.dim)
        x = strategy.to_x(np.asfortranarray(s[:, None]))[:, 0]
        ma_s, g_norm = strategy.image(s)
        ma_x = prob.MA @ x
        assert np.linalg.norm(ma_s - ma_x) <= 1e-12 * np.linalg.norm(ma_x), seed
        # ||x||_G as (||MA x||^2 + ||L x||^2)^(1/2): x'Gx with the formed G
        # loses cond(K)^2 eps relative, 1.6e-11 on C2 seed 0
        g_norm_x = math.hypot(np.linalg.norm(ma_x), np.linalg.norm(prob.L @ x))
        assert g_norm == pytest.approx(g_norm_x, rel=1e-12), seed
        assert strategy.apply(rng.standard_normal(prob.q)).size == strategy.dim


def test_a_solved_strategy_is_freed_with_its_last_reference():
    # no strategy, bound and run, is part of a reference cycle: an inner
    # strategy that held itself as its map kept its G and MA alive until a
    # full garbage collection (the glsqr_inner benchmark's 20-s run peaked
    # at 180 MiB of RSS instead of 68)
    prob = random_gls_problem(0, m=30, n=24, p=10)
    gc.disable()
    try:
        for strategy_class in (DensePinvStrategy, CholeskyStrategy, InnerLsqrStrategy):
            strategy = strategy_class(prob.G)
            report = glsqr_solve(prob, strategy, tol=1e-8)
            freed = weakref.ref(strategy)
            del strategy, report
            assert freed() is None, strategy_class.__name__
    finally:
        gc.enable()


def test_dense_strategy_noise_is_read_off_the_factor():
    # max(1e-12, 4 eps ||F||_F ||F_pinv||_F) of the factor of [L; MA], F
    # read off a factor made apart from the problem's, which keeps only the
    # scalar: above the floor on a C1 problem, whose cond(K) is about 1e7,
    # and at it on a well-conditioned one
    for prob, above_floor in (
        (random_gls_problem(0, m=6, n=9, p=2, q=4, rank_a=3, cond=1e4), True),
        (random_gls_problem(3, m=12, n=10, p=6), False),
    ):
        strategy = bound(DensePinvStrategy(prob.G), prob)
        stack = stacked_factor(prob.L, prob.MA)
        noise = norm_product(stack.F, stack.F_pinv, scale=4.0 * EPS)
        assert strategy.relative_noise == prob.factors.gdag.noise == max(1e-12, noise)
        assert (noise > 1e-12) == above_floor


def test_cholesky_refuses_a_certified_g_at_its_pivot_floor():
    # column 4 of A and L scaled by 1e-7: the QR of [L; MA] still certifies
    # full column rank, but the pivot r_44^2 lies below 1e-14 max(diag(G))
    base = random_gls_problem(3, m=12, n=10, p=6)
    A, L = base.A.copy(), base.L.copy()
    A[:, 4] *= 1e-7
    L[:, 4] *= 1e-7
    prob = GlsProblem(A, None, L, base.b)
    with pytest.raises(IndefiniteMatrixError, match="at column 4") as refused:
        CholeskyStrategy(prob.G).bind(prob)
    assert prob.factors.gdag.certified
    # the pivot is read off R^-1; the R of the staged stack's own QR gives it
    R = scipy.linalg.qr(np.vstack([L, A]), mode="r")[0]
    assert refused.value.index == 4
    assert refused.value.pivot == pytest.approx(R[4, 4] ** 2, rel=1e-12)
    assert refused.value.pivot == pytest.approx(1.046e-15, rel=1e-3)
    assert refused.value.pivot <= 1e-14 * prob.G.diagonal().max()


def test_cholesky_refuses_a_singular_g_from_the_one_cached_factor(monkeypatch):
    # the refusal reads the problem's one factor of [L; MA], made by the QR
    # of L, the fold of MA into its R, the SVD of that R and the QR of
    # Z_B', and caches nothing else; a dense bind then binds that factor
    # and factors nothing
    prob = random_gls_problem(1, m=7, n=6, p=2, rank_a=3, shared_null=True)
    calls = counted_factorizations(monkeypatch, ("svd", "qr"))
    with pytest.raises(IndefiniteMatrixError, match="singular"):
        CholeskyStrategy(prob.G).bind(prob)
    assert calls == ["scipy.linalg.qr", "dtpqrt", "numpy.linalg.svd", "scipy.linalg.qr"]
    cached = {k: v for k, v in vars(prob.factors).items() if not k.startswith("_")}
    assert list(cached) == ["gdag"]
    calls.clear()
    strategy = DensePinvStrategy(prob.G)
    strategy.bind(prob)
    assert calls == []
    assert strategy.gdag is cached["gdag"]


def test_the_dense_factors_keep_no_view_of_a_larger_array():
    # C2 seed 1: the QR of [L; MA] does not certify, and the SVD of its R
    # leaves N(K) as a view of R's n x n V, which the problem must not keep
    prob = random_gls_problem(1, m=30, n=40, p=5, q=25, rank_a=12, shared_null=True, cond=1e3)
    glsqr_solve(prob, DensePinvStrategy(prob.G))
    gdag = prob.factors.gdag
    assert not gdag.certified
    held = [a for a in vars(gdag).values() if isinstance(a, np.ndarray)]
    assert len(held) == 4
    for a in held:
        assert a.base is None or a.base.size <= a.size


def test_dense_strategy_satisfies_moore_penrose():
    # G PSD singular: W = pinv(G) (MA)', from the QR of [L; MA] and the SVD
    # of its R, matches the pseudoinverse of the formed G
    prob = random_gls_problem(1, m=7, n=6, p=2, rank_a=3, shared_null=True)
    factor = bound(DensePinvStrategy(prob.G), prob).gdag
    W = factor.F_pinv @ z_b(factor).T
    expected = pinv(prob.G) @ prob.MA.T
    assert np.linalg.norm(W - expected) <= 1e-10 * np.linalg.norm(expected)


def in_x_space(strategy, u):
    """The strategy's apply of u, mapped from its coordinates to x-space."""
    s = np.asfortranarray(strategy.apply(u)[:, None])
    return strategy.to_x(s)[:, 0]


def test_strategies_agree_on_spd_solve():
    rng = np.random.default_rng(2)
    prob = GlsProblem(rng.standard_normal((8, 8)), None, np.eye(8), rng.standard_normal(8))
    u = rng.standard_normal(8)
    dense = in_x_space(bound(DensePinvStrategy(prob.G), prob), u)
    chol = in_x_space(bound(CholeskyStrategy(prob.G), prob), u)
    inner = in_x_space(bound(InnerLsqrStrategy(prob.G, tau=1e-14), prob), u)
    assert np.linalg.norm(dense - chol) <= 1e-12 * np.linalg.norm(dense)
    assert np.linalg.norm(dense - inner) <= 1e-10 * np.linalg.norm(dense)


def test_inner_strategy_takes_g_as_a_product():
    # CG reads G only through products, so sparse and callable G give the
    # dense result, and max_iter caps all three alike
    rng = np.random.default_rng(3)
    prob = GlsProblem(rng.standard_normal((8, 8)), None, np.eye(8), rng.standard_normal(8))
    G = prob.G
    u = rng.standard_normal(8)
    dense = bound(InnerLsqrStrategy(G, tau=1e-14), prob).apply(u)
    for form in (scipy.sparse.csr_array(G), lambda v: G @ v):
        x = bound(InnerLsqrStrategy(form, tau=1e-14), prob).apply(u)
        np.testing.assert_allclose(x, dense, rtol=1e-12)
        capped = bound(InnerLsqrStrategy(form, tau=1e-14, max_iter=2), prob)
        capped.apply(u)
        assert capped.hit_cap


def test_inner_strategy_rejects_an_asymmetric_dense_g():
    # lsqr reads a dense G through one triangle, so the strategy checks
    # symmetry once, to rtol 1e-10; sparse and callable G are kept as given
    rng = np.random.default_rng(5)
    B = rng.standard_normal((8, 8))
    G = B @ B.T + np.eye(8)
    skew = np.zeros((8, 8))
    skew[0, 1] = np.linalg.norm(G)
    with pytest.raises(ValueError, match="symmetric"):
        InnerLsqrStrategy(G + 1e-8 * skew)
    with pytest.raises(ValueError, match="symmetric"):
        InnerLsqrStrategy(np.asfortranarray(G + 1e-8 * skew))
    near = G + 1e-12 * skew
    strategy = InnerLsqrStrategy(near)
    assert strategy.G is near  # checked, not replaced by a symmetrized copy
    for form in (scipy.sparse.csr_array(G + 1e-8 * skew), lambda v: (G + 1e-8 * skew) @ v):
        InnerLsqrStrategy(form)


def test_init_unit_setup():
    prob = identity_problem()
    state = ggkb_init(prob, DensePinvStrategy(prob.G))
    assert state.betas[0] == pytest.approx(1.0)
    np.testing.assert_allclose(state.MU[:, 0], prob.b, atol=1e-15)
    assert state.alphas[0] == pytest.approx(1.0)
    assert not state.terminated


def test_init_terminates_when_projected_b_vanishes():
    # b in the null space of M: P b = 0, the whole problem is trivial.
    M = np.array([[1.0, 0.0, 0.0]])
    prob = GlsProblem(np.eye(3), M, np.eye(3), [0.0, 2.0, -1.0])
    state = ggkb_init(prob, DensePinvStrategy(prob.G))
    assert state.terminated and state.k == 0
    assert state.betas == state.alphas == [0.0]

    # a computed null vector of a rank-deficient M: M b is roundoff, not 0,
    # yet beta_1 is stored as 0.0 like every terminating coefficient
    prob = random_gls_problem(74, m=8, n=6, p=3, q=7, rank_a=4, rank_m=5)
    prob = prob.with_b(nullspace_basis(prob.M)[:, 0])
    assert 0.0 < np.linalg.norm(prob.M @ prob.b) <= 1e-14
    state = ggkb_init(prob, DensePinvStrategy(prob.G))
    assert state.terminated and state.k == 0
    assert state.betas == state.alphas == [0.0]


def test_init_beta1_matches_direct_formula():
    prob = random_gls_problem(10, m=10, n=8, p=5, q=9)
    state = ggkb_init(prob, DensePinvStrategy(prob.G))
    P = prob.M.T @ prob.M
    expected = float(np.sqrt(prob.b @ P @ prob.b))
    assert abs(state.betas[0] - expected) <= 1e-14 * expected


def test_identity_problem_terminates_immediately():
    prob = identity_problem()
    state, V = run_ggkb(prob, DensePinvStrategy(prob.G), steps=5)
    assert state.terminated and state.k == 1
    np.testing.assert_allclose(V[:, 0], prob.b, atol=1e-14)


def test_step_rejects_terminated_state():
    prob = identity_problem()
    state, _ = run_ggkb(prob, DensePinvStrategy(prob.G), steps=5)
    with pytest.raises(ValueError):
        ggkb_step(state, DensePinvStrategy(prob.G))


def full_rank_problem(seed=12, m=12, n=8):
    rng = np.random.default_rng(seed)
    A = random_matrix(rng, m, n)
    L = random_matrix(rng, 3, n)
    b = rng.standard_normal(m)
    return GlsProblem(A, None, L, b)


def test_full_rank_run_structure():
    prob = full_rank_problem()
    strategy = DensePinvStrategy(prob.G)
    state, V = run_ggkb(prob, strategy, steps=20)
    assert state.terminated and state.k <= 8
    gram = V.T @ prob.G @ V
    assert np.abs(gram - np.eye(V.shape[1])).max() <= 1e-10


def test_matrix_form_relations_hold_each_step():
    singular_m = random_gls_problem(21, m=14, n=10, p=6, q=12, rank_m=10)
    for prob in (full_rank_problem(), singular_m):
        strategy = DensePinvStrategy(prob.G)
        state, V_all = run_ggkb(prob, strategy, steps=5)
        assert V_all.shape[1] > 1
        for k in range(1, V_all.shape[1]):
            B = bidiagonal(state, k)
            V = V_all[:, :k]
            U = state.MU[:, : k + 1]

            # M A maps V_k onto (M U~_{k+1}) B_k
            lhs = prob.MA @ V
            assert np.linalg.norm(lhs - U @ B) <= 1e-12 * max(np.linalg.norm(lhs), 1.0)

            # the adjoint map returns V_k B_k' plus the next direction
            target = pinv(prob.G) @ prob.MA.T @ U
            expect = V @ B.T
            expect[:, -1] += state.alphas[k] * V_all[:, k]
            assert np.linalg.norm(target - expect) <= 1e-10 * max(np.linalg.norm(target), 1.0)


def test_u_vectors_p_orthonormal():
    prob = random_gls_problem(21, m=14, n=10, p=6, q=12, rank_m=10)
    strategy = DensePinvStrategy(prob.G)
    state, _ = run_ggkb(prob, strategy, steps=30)
    U = state.MU
    gram = U.T @ U
    assert np.abs(gram - np.eye(U.shape[1])).max() <= 1e-10


def test_v_vectors_stay_in_range_g():
    prob = random_gls_problem(33, m=10, n=8, p=4, rank_a=5, shared_null=True)
    strategy = DensePinvStrategy(prob.G)
    _, V = run_ggkb(prob, strategy, steps=30)
    PG = projector_range(prob.G)
    for v in V.T:
        assert np.linalg.norm(v - PG @ v) <= 1e-10


def test_termination_bound_and_rank():
    for seed in range(6):
        prob = random_gls_problem(seed, m=9, n=7, p=3, rank_a=4, shared_null=seed % 2 == 0)
        strategy = DensePinvStrategy(prob.G)
        state, _ = run_ggkb(prob, strategy, steps=40)
        assert state.terminated
        rank_g = np.linalg.matrix_rank(prob.G)
        rank_p = prob.m  # M = I, so P = I_m
        assert state.k <= min(rank_g, rank_p)


def test_data_side_stays_orthonormal_over_fifty_steps():
    prob = random_gls_problem(55, m=70, n=60, p=60, cond=30.0)
    state, _ = run_ggkb(prob, DensePinvStrategy(prob.G), steps=50)
    U = state.MU
    assert np.abs(U.T @ U - np.eye(U.shape[1])).max() <= 1e-12


def exhaustion_problems():
    # rank-deficient A with singular P (rank 30 of 40): the last directions
    # emerge from heavy cancellation; without reorthogonalization the run
    # loses orthogonality completely and never terminates
    for seed in range(4):
        yield random_gls_problem(
            400 + seed, m=40, n=30, p=30, q=36, rank_a=20, rank_m=30,
            shared_null=seed % 2 == 0, cond=100.0,
        )


def test_data_side_reorthogonalization_reaches_krylov_exhaustion():
    # projecting M U~ alone keeps the bidiagonal accurate: the run ends at
    # k = rank(A), and V, never projected, drifts from G-orthonormality
    # by 1.4e-11 at most on these problems
    for prob in exhaustion_problems():
        state, V = run_ggkb(prob, DensePinvStrategy(prob.G), steps=60)
        assert state.terminated and state.k == 20
        U = state.MU
        assert np.abs(U.T @ U - np.eye(U.shape[1])).max() <= 1e-12
        assert np.abs(V.T @ prob.G @ V - np.eye(V.shape[1])).max() <= 1e-10


def test_step_updates_one_workspace_in_place():
    prob = random_gls_problem(55, m=70, n=60, p=60, cond=30.0)
    strategy = DensePinvStrategy(prob.G)
    state = ggkb_init(prob, strategy)
    for _ in range(5):
        before = state.MU
        assert ggkb_step(state, strategy) is state
        assert state.k == before.shape[1] + 1
        assert np.shares_memory(state.MU, before)
        assert np.shares_memory(state.MU, state.u.X)


def test_workspace_growth_keeps_the_recurrence(monkeypatch):
    prob = random_gls_problem(55, m=70, n=60, p=60, cond=30.0)
    strategy = DensePinvStrategy(prob.G)
    grown, V_grown = run_ggkb(prob, strategy, steps=50)
    assert grown.k == 51 > 2 * ggkb_module.INITIAL_COLUMNS
    monkeypatch.setattr(ggkb_module, "INITIAL_COLUMNS", 1000)
    sized, V_sized = run_ggkb(prob, strategy, steps=50)
    assert sized.u.X.shape[1] == min(prob.m, prob.n) + 1
    assert grown.alphas == sized.alphas and grown.betas == sized.betas
    np.testing.assert_array_equal(V_grown, V_sized)
    np.testing.assert_array_equal(grown.MU, sized.MU)


def _mgs_project_out(basis, x):
    # reference: two modified Gram-Schmidt passes, one column at a time
    for _ in range(2):
        for j in range(basis.k):
            x -= (basis.X[:, j] @ x) * basis.X[:, j]


def test_block_cgs2_matches_column_mgs2(monkeypatch):
    prob = random_gls_problem(55, m=70, n=60, p=60, q=65, rank_m=55, cond=30.0)
    strategy = DensePinvStrategy(prob.G)
    cgs, V_cgs = run_ggkb(prob, strategy, steps=50)
    monkeypatch.setattr(ggkb_module.Basis, "project_out", _mgs_project_out)
    mgs, V_mgs = run_ggkb(prob, strategy, steps=50)
    assert cgs.k == mgs.k == 51
    np.testing.assert_allclose(cgs.alphas, mgs.alphas, rtol=1e-10)
    np.testing.assert_allclose(cgs.betas, mgs.betas, rtol=1e-10)
    np.testing.assert_allclose(V_cgs, V_mgs, atol=1e-8 * np.abs(V_mgs).max())


def test_basis_doubles_up_to_its_limit_then_past_it():
    basis = ggkb_module.Basis.empty(3, limit=5)
    capacities = []
    for j in range(12):
        basis.append(np.full(3, j))
        capacities.append(basis.X.shape[1])
    assert capacities == [5] * 5 + [10] * 5 + [20] * 2
    np.testing.assert_array_equal(basis.cols, np.tile(np.arange(12.0), (3, 1)))
    assert basis.X.flags.f_contiguous and basis.cols.flags.f_contiguous


def test_project_out_repeats_its_pass_only_after_heavy_cancellation():
    rng = np.random.default_rng(3)
    X, _ = np.linalg.qr(rng.standard_normal((50, 8)))
    basis = ggkb_module.Basis.empty(50, limit=9)
    for col in X.T:
        basis.append(col)

    # x = X c + 1e-10 w cancels to a part of 1e-20 of its squared norm: one
    # pass leaves components along X at roundoff of ||X c||, the second
    # takes them to roundoff of the result
    x = X @ rng.standard_normal(8) + 1e-10 * rng.standard_normal(50)
    one_pass = x - X @ (X.T @ x)
    assert np.linalg.norm(X.T @ one_pass) > 1e-14 * np.linalg.norm(one_pass)
    basis.project_out(x)
    assert np.linalg.norm(X.T @ x) <= 1e-14 * np.linalg.norm(x)

    # a generic x keeps most of its norm, so one pass is all it gets
    y = rng.standard_normal(50)
    one_pass = y - basis.cols @ (basis.cols.T @ y)
    basis.project_out(y)
    np.testing.assert_array_equal(y, one_pass)


class _Unreadable:
    """Stands in for a problem's G: any use of it fails."""

    def __getattr__(self, name):
        raise AssertionError(f"G.{name} was read")

    def __array__(self, *args, **kwargs):
        raise AssertionError("G was converted to an array")

    def __matmul__(self, other):
        raise AssertionError("G was multiplied")

    __rmatmul__ = __mul__ = __rmul__ = __matmul__


def inner(G):
    return InnerLsqrStrategy(G, tau=1e-12)


@pytest.mark.parametrize(
    "make, stencil",
    [(DensePinvStrategy, False), (CholeskyStrategy, False), (inner, False), (inner, True)],
    ids=["dense", "cholesky", "inner", "inner-banded"],
)
def test_the_recurrence_never_reads_g(make, stencil):
    # the strategy is built from G; after that the recurrence, the solve and
    # the inner strategy's bind read only MA, L and the strategy
    prob = full_rank_problem(seed=21)
    if stencil:
        prob = GlsProblem(prob.A, None, make_l1(prob.n), prob.b)
    strategy = make(prob.G)
    prob.G = _Unreadable()
    state, _ = run_ggkb(prob, strategy, steps=3 * prob.n)
    assert state.terminated
    assert (getattr(strategy, "precond", None) is not None) == stencil
    report = glsqr_solve(prob, strategy)
    assert report.iterations >= 1


def wide_stencil(n, offset):
    """(n - offset) x n rows (..., 1, 0, ..., 0, -1, ...): L'L has
    half-bandwidth ``offset``."""
    ones = np.ones(n - offset)
    return scipy.sparse.csr_array(
        scipy.sparse.diags([ones, -ones], offsets=[0, offset], shape=(n - offset, n))
    )


@pytest.mark.parametrize(
    "L, band, scale",
    [
        (make_l1(30), 1, 1.0),
        (make_l2(30), 2, 1.0),
        (wide_stencil(30, InnerLsqrStrategy.MAX_BANDWIDTH), InnerLsqrStrategy.MAX_BANDWIDTH, 1.0),
        (wide_stencil(30, InnerLsqrStrategy.MAX_BANDWIDTH + 1), None, 1.0),
        (make_l1(30).toarray(), None, 1.0),
        (scipy.sparse.csr_array((0, 30)), None, 1.0),
        # c = 0 leaves P = L'L, singular for a stencil
        (make_l1(30), None, 0.0),
    ],
    ids=["l1", "l2", "widest", "too-wide", "dense", "p=0", "ma=0"],
)
def test_bind_factors_the_shifted_band_of_a_narrow_sparse_stencil(L, band, scale):
    rng = np.random.default_rng(3)
    A = scale * rng.standard_normal((20, 30))
    prob = GlsProblem(A, None, L, rng.standard_normal(20))
    strategy = InnerLsqrStrategy(prob.G)
    ggkb_init(prob, strategy)
    if band is None:
        assert strategy.precond is None
        return
    # the upper factor R, R'R = L'L + c I, in LAPACK band storage
    R = strategy.precond
    assert R.shape == (band + 1, prob.n)
    dense = np.zeros((prob.n, prob.n))
    for k in range(band + 1):
        dense += np.diag(R[band - k, k:], k)
    P = (L.T @ L).toarray() + np.linalg.norm(prob.MA) ** 2 / prob.n * np.eye(prob.n)
    assert np.linalg.norm(dense.T @ dense - P) <= 1e-13 * np.linalg.norm(P)


def test_strategy_equivalence_alpha_beta_sequences():
    prob = random_gls_problem(66, m=45, n=40, p=40, cond=20.0)
    dense_state, _ = run_ggkb(prob, DensePinvStrategy(prob.G), steps=30)
    chol_state, _ = run_ggkb(prob, CholeskyStrategy(prob.G), steps=30)
    lsqr_state, _ = run_ggkb(prob, InnerLsqrStrategy(prob.G, tau=1e-12), steps=30)

    a_d, b_d = np.array(dense_state.alphas), np.array(dense_state.betas)
    for other, tol in ((chol_state, 1e-10), (lsqr_state, 1e-8)):
        a_o, b_o = np.array(other.alphas), np.array(other.betas)
        k = min(a_d.size, a_o.size)
        assert np.abs(a_d[:k] - a_o[:k]).max() <= tol * np.abs(a_d[:k]).max()
        assert np.abs(b_d[:k] - b_o[:k]).max() <= tol * np.abs(b_d[:k]).max()


def test_krylov_subspace_angles():
    prob = full_rank_problem(seed=5)
    strategy = DensePinvStrategy(prob.G)
    state, V = run_ggkb(prob, strategy, steps=6)
    assert krylov_subspace_check(V, prob, 1) <= 1e-12
    assert krylov_subspace_check(V, prob, 4) <= 1e-8
    with pytest.raises(ValueError):
        krylov_subspace_check(V, prob, state.k + 1)


def test_inner_cap_latches_into_state():
    prob = full_rank_problem(seed=9)
    strategy = InnerLsqrStrategy(prob.G, tau=1e-14, max_iter=1)
    state, _ = run_ggkb(prob, strategy, steps=3)
    assert state.inner_capped

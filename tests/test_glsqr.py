import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from glskit import (
    CholeskyStrategy,
    DensePinvStrategy,
    GlsProblem,
    InnerLsqrStrategy,
    certify_solution,
    check_gls_criterion,
    generate,
    glsqr_solve,
    operator_norm,
    random_sparse_matrix,
    save_history,
    wpinv_apply,
    wpinv_elden,
)
from helpers import (
    bidiagonal,
    prescribed_gsvd_pair,
    projector_range,
    random_gls_problem,
    random_matrix,
    run_ggkb,
    seminorm_p,
)


def planted_problem(seed=50, m=40, n=50, rank=30, kind="l1", func="ramp"):
    rng = np.random.default_rng(seed)
    A = random_matrix(rng, m, n, rank=rank)
    return generate(A, kind, func, seed=seed)


def test_identity_system_one_iteration():
    b = np.array([3.0, -1.0, 2.0])
    prob = GlsProblem(np.eye(3), None, np.zeros((1, 3)), b)
    report = glsqr_solve(prob)
    np.testing.assert_allclose(report.x, b, atol=1e-12)
    assert report.iterations == 1
    assert report.stop_reason == "ggkb_terminated"


def test_recovers_planted_solution_with_exact_gdag():
    gen = planted_problem()
    report = glsqr_solve(gen.problem, tol=1e-12)
    err = np.linalg.norm(report.x - gen.x_true) / np.linalg.norm(gen.x_true)
    assert err <= 1e-8
    assert certify_solution(gen.problem, report)


def trivial_rhs_problem():
    # M b = 0: ggkb_init terminates before the first step
    M = np.array([[1.0, 0.0, 0.0]])
    return GlsProblem(np.eye(3), M, np.eye(3), [0.0, 2.0, -1.0])


def degenerate_column_problem():
    # at tol=1e-300 the last column of B_k, at k = 21, is numerically zero
    return planted_problem(seed=44, m=28, n=34, rank=20).problem


@pytest.mark.parametrize(
    "make, kwargs, stop_reason",
    [
        pytest.param(trivial_rhs_problem, {}, "ggkb_terminated", id="init"),
        pytest.param(
            degenerate_column_problem, {"tol": 1e-300}, "ggkb_terminated",
            id="degenerate_column",
        ),
        pytest.param(
            lambda: planted_problem(seed=7, m=20, n=25, rank=15).problem,
            {"tol": 1e-6}, "tolerance_met", id="tolerance_met",
        ),
        pytest.param(
            lambda: planted_problem(seed=7, m=20, n=25, rank=15).problem,
            {"tol": 1e-300, "max_iter": 5}, "max_iter", id="max_iter",
        ),
    ],
)
def test_histories_conform_to_iteration_count(make, kwargs, stop_reason):
    report = glsqr_solve(make(), debug=True, **kwargs)
    k = report.iterations
    assert report.stop_reason == stop_reason
    assert len(report.residual_estimate_history) == k
    assert len(report.true_residual_history) == k
    assert len(report.x_norm_history) == k
    assert report.norm_estimate.iterations == k
    assert report.norm_estimate.source == "bidiagonal"
    if k == 0:
        assert not report.x.any()
        assert report.norm_estimate.value == 0.0
    else:
        assert report.x_norm_history[-1] == np.linalg.norm(report.x)
    if make is degenerate_column_problem:
        # the last step records an estimate of 0 and keeps the previous iterate
        assert report.residual_estimate_history[-1] == 0.0
        assert report.x_norm_history[-1] == report.x_norm_history[-2]
    if stop_reason == "tolerance_met":
        assert report.residual_estimate_history[-1] <= kwargs["tol"]
    if stop_reason == "max_iter":
        assert k == kwargs["max_iter"]


def test_trivial_rhs_terminates_at_zero():
    prob = trivial_rhs_problem()
    report = glsqr_solve(prob)
    np.testing.assert_allclose(report.x, np.zeros(3))
    assert report.iterations == 0
    assert report.stop_reason == "ggkb_terminated"
    assert certify_solution(prob, report)


def test_residual_estimate_matches_direct_evaluation():
    gen = planted_problem(seed=3, m=25, n=30, rank=18)
    report = glsqr_solve(gen.problem, tol=1e-14, debug=True)
    est = np.array(report.residual_estimate_history)
    direct = np.array(report.true_residual_history)
    # k = 1 agreement is tight; along the run it only degrades near roundoff
    assert abs(est[0] - direct[0]) <= 1e-10 * direct[0]
    floor = 1e-11 * max(direct.max(), 1.0)
    mask = direct > floor
    assert np.abs(est[mask] - direct[mask]).max() <= 1e-8 * direct[mask].max()
    # at termination the estimate collapses
    if report.stop_reason == "ggkb_terminated":
        assert est[-1] <= 1e-10 * max(est.max(), 1.0)


def test_estimate_not_required_monotone_but_contracted():
    # the estimate may plateau; the contract is agreement, not monotonicity
    gen = planted_problem(seed=13, m=18, n=22, rank=12)
    report = glsqr_solve(gen.problem, tol=1e-14, debug=True)
    assert report.iterations >= 2


def test_operator_norm_cases():
    b = np.ones(3)
    prob = GlsProblem(np.eye(3), None, np.zeros((1, 3)), b)
    assert operator_norm(prob, method="gsvd").value == pytest.approx(1.0)

    prob = GlsProblem(np.diag([2.0, 1.0]), None, np.eye(2), np.ones(2))
    exact = operator_norm(prob, method="gsvd")
    power = operator_norm(prob, method="power")
    assert exact.value == pytest.approx(2 / math.sqrt(5), abs=1e-12)
    assert abs(power.value - exact.value) <= 1e-8 * exact.value

    prob = GlsProblem(np.zeros((2, 2)), None, np.eye(2), np.ones(2))
    assert operator_norm(prob, method="gsvd").value == 0.0
    assert operator_norm(prob, method="power").value == 0.0


def test_operator_norm_power_handles_general_m():
    prob = random_gls_problem(19, m=10, n=8, p=5, q=9, rank_m=7)
    exact = operator_norm(prob, method="gsvd")
    est = operator_norm(prob, method="power")
    assert exact.source == "gsvd_exact"
    assert est.source == "power_iteration"
    # oracle: largest generalized singular value of the pair {sqrt(P) A-ish}
    # computed densely from the operator pinv(G) A'PA restricted to R(G)
    MA = prob.M @ prob.A
    T = np.linalg.pinv(prob.G) @ (MA.T @ MA)
    eigs = np.linalg.eigvals(T)
    expected = math.sqrt(max(abs(eigs)))
    assert abs(exact.value - expected) <= 1e-10 * expected
    assert abs(est.value - expected) <= 1e-6 * expected


def test_operator_norm_flags_power_iteration_cap(caplog):
    prob = random_gls_problem(19, m=10, n=8, p=5, q=9, rank_m=7)
    with caplog.at_level(logging.WARNING, logger="glskit"):
        capped = operator_norm(prob, method="power", max_iters=2)
    assert capped.iterations == 2 and not capped.converged
    assert [r.name for r in caplog.records] == ["glskit"]
    assert "max_iters=2" in caplog.records[0].getMessage()

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="glskit"):
        assert operator_norm(prob, method="power").converged
        square = GlsProblem(np.diag([2.0, 1.0]), None, np.eye(2), np.ones(2))
        assert operator_norm(square, method="gsvd").converged
    assert not caplog.records


def iterate_prefix(prob, k, strategy=None):
    return glsqr_solve(
        prob,
        strategy=strategy or DensePinvStrategy(prob.G),
        tol=1e-300,
        max_iter=k,
    )


def test_subspace_optimality_and_membership():
    gen = planted_problem(seed=21, m=16, n=20, rank=11)
    prob = gen.problem
    full = glsqr_solve(prob, tol=1e-300, max_iter=30, debug=True)
    PG = projector_range(prob.G)
    beta1 = full.beta1
    for k in range(1, full.iterations + 1):
        partial = iterate_prefix(prob, k)
        x_k = partial.x
        # membership in R(G)
        assert np.linalg.norm(x_k - PG @ x_k) <= 1e-10 * max(np.linalg.norm(x_k), 1.0)
        # optimality over span{V_k}: compare against the dense solve of B_k
        B = bidiagonal(partial.state, min(k, len(partial.alphas) - 1))
        e1 = np.zeros(B.shape[0])
        e1[0] = beta1
        y, *_ = np.linalg.lstsq(B, e1, rcond=None)
        best = np.linalg.norm(B @ y - e1)
        achieved = seminorm_p(prob, prob.A @ x_k - prob.b)
        assert abs(achieved - best) <= 1e-10 * max(best, 1.0)


def test_residual_seminorm_monotone():
    gen = planted_problem(seed=33, m=22, n=26, rank=14)
    prob = gen.problem
    values = []
    for k in range(1, 16):
        partial = iterate_prefix(prob, k)
        values.append(seminorm_p(prob, prob.A @ partial.x - prob.b))
        if partial.stop_reason == "ggkb_terminated":
            break
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-12 * max(values))


def test_recursive_update_matches_explicit_solve():
    gen = planted_problem(seed=44, m=28, n=34, rank=20)
    prob = gen.problem
    for k in (1, 3, 7, 15, 30):
        partial = iterate_prefix(prob, k)
        _, V = run_ggkb(prob, DensePinvStrategy(prob.G), steps=k)
        kk = min(k, partial.iterations)
        B = bidiagonal(partial.state, min(kk, len(partial.alphas) - 1))
        e1 = np.zeros(B.shape[0])
        e1[0] = partial.beta1
        y, *_ = np.linalg.lstsq(B, e1, rcond=None)
        explicit = V[:, : B.shape[1]] @ y
        assert np.linalg.norm(partial.x - explicit) <= 1e-10 * max(
            np.linalg.norm(explicit), 1.0
        )
        if partial.stop_reason == "ggkb_terminated":
            break


class CountingStrategy(DensePinvStrategy):
    """The dense strategy, its ``bind`` inherited, counting its applications."""

    applies = 0

    def apply(self, u):
        self.applies += 1
        return super().apply(u)


def test_solve_applies_pinv_g_once_per_expansion():
    prob = random_gls_problem(19, m=30, n=24, p=10, q=28, rank_m=20)
    for debug in (False, True):
        strategy = CountingStrategy(prob.G)
        report = glsqr_solve(prob, strategy, tol=1e-300, max_iter=6, debug=debug)
        assert report.stop_reason == "max_iter"
        # one apply in ggkb_init, one per step: no norm pre-pass, and the
        # debug residual does not go through the strategy
        assert strategy.applies == report.iterations + 1


def test_debug_residual_does_not_steer_a_capped_inner_solve():
    # an inner solver capped at 8 steps: its relative_noise and hit_cap
    # move with every apply, so a debug residual through it would change
    # the run's degeneracy cutoff
    prob = random_gls_problem(0, m=30, n=24, p=10, cond=100.0)
    plain, debug = (
        glsqr_solve(prob, InnerLsqrStrategy(prob.G, tau=1e-10, max_iter=8), tol=1e-10, debug=d)
        for d in (False, True)
    )
    assert plain.state.inner_capped
    assert debug.iterations == plain.iterations
    assert debug.x.tobytes() == plain.x.tobytes()


def test_a_debug_solve_factors_what_a_plain_one_does(monkeypatch):
    # the debug residual reads the problem's QR of [MA; L; N_G'], the factor
    # the dense strategy binds, and factors nothing of its own
    calls = []

    def counting(name, factorize):
        def counted(*args, **kwargs):
            calls.append(name)
            return factorize(*args, **kwargs)

        return counted

    for owner in (np.linalg, scipy.linalg):
        for name in ("svd", "qr", "cholesky"):
            label = f"{owner.__name__}.{name}"
            monkeypatch.setattr(owner, name, counting(label, getattr(owner, name)))
    made = {}
    for debug in (False, True):
        calls.clear()
        glsqr_solve(random_gls_problem(0, m=30, n=24, p=10), debug=debug)
        made[debug] = sorted(calls)
    assert made[False] and made[True] == made[False]


# seeded problem families, each with the number of seeds 0-199 whose dense
# solve must land within 1e-8 of the direct route; with the SVD of the formed
# G, C1 (cond(G) near 1e14, cond([MA; L]) near 1e7) landed none, C2 70
FAMILIES = {
    "C1": (dict(m=6, n=9, p=2, q=4, rank_a=3, cond=1e4), 195),
    "C2": (dict(m=30, n=40, p=5, q=25, rank_a=12, shared_null=True, cond=1e3), 200),
    "W": (dict(m=9, n=7, p=3, q=8, rank_a=4, rank_m=5), 200),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_dense_solve_lands_on_the_direct_route_across_a_family(family):
    # judged by the gap to wpinv_apply, not by the certificate alone
    kwargs, need = FAMILIES[family]
    within = 0
    for seed in range(200):
        prob = random_gls_problem(seed, **kwargs)
        report = glsqr_solve(prob, tol=1e-12)
        assert certify_solution(prob, report), seed
        x_ref = wpinv_apply(prob)
        within += bool(np.linalg.norm(report.x - x_ref) <= 1e-8 * np.linalg.norm(x_ref))
    assert within >= need


def test_reported_norm_matches_gsvd_oracle_at_termination():
    for i in range(20):
        prob = prescribed_gsvd_pair(7000 + i)
        report = glsqr_solve(prob, tol=1e-300)
        assert report.stop_reason == "ggkb_terminated"
        est = report.norm_estimate
        assert est.source == "bidiagonal" and est.iterations == report.iterations
        exact = operator_norm(prob, method="gsvd").value
        assert abs(est.value - exact) <= 1e-10 * exact
        assert est.value <= exact * (1 + 1e-12)


def test_reported_norm_is_nondecreasing_in_k():
    prob = planted_problem(seed=33, m=22, n=26, rank=14).problem
    values = []
    for k in range(1, 40):
        partial = iterate_prefix(prob, k)
        values.append(partial.norm_estimate.value)
        if partial.stop_reason == "ggkb_terminated":
            break
    assert len(values) > 8
    # exact in exact arithmetic (B_k is a leading block of B_{k+1}); once
    # converged, the computed eigenvalue may move by an ulp either way
    eps = np.finfo(np.float64).eps
    assert np.all(np.diff(values) >= -4 * eps * values[-1])


@pytest.mark.parametrize("seed", range(8))
def test_exact_termination_certifies(seed):
    shared = seed % 2 == 0
    prob = random_gls_problem(
        100 + seed, m=12, n=10, p=6, rank_a=6, shared_null=shared, cond=20.0
    )
    report = glsqr_solve(prob, tol=1e-300, max_iter=60)
    assert report.stop_reason == "ggkb_terminated"
    assert certify_solution(prob, report, tol=1e-8)
    x_ref = wpinv_elden(prob) @ prob.b
    assert np.linalg.norm(report.x - x_ref) <= 1e-8 * max(np.linalg.norm(x_ref), 1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_data_side_solve_matches_the_direct_route(seed):
    # V is not projected, and drifts from G-orthonormality (up to 3e-3 on
    # these problems), yet the iterates stay those of the direct route
    prob = random_gls_problem(seed, m=120, n=90, p=40, q=100, rank_a=70, rank_m=95)
    x_ref = wpinv_apply(prob)
    report = glsqr_solve(prob, DensePinvStrategy(prob.G))
    assert np.linalg.norm(report.x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    report = glsqr_solve(prob, InnerLsqrStrategy(prob.G, tau=1e-10))
    assert not report.state.inner_capped
    assert certify_solution(prob, report)


def test_a_solve_to_exhaustion_keeps_no_solution_side_basis():
    # 60 x 2000: a basis of the v_i would hold 2000 x 61 doubles (0.93 MiB);
    # the solve keeps the latest v_i, w, x and the 60 x 61 data side
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    V, _ = np.linalg.qr(rng.standard_normal((2000, 60)))
    A = (U * np.logspace(0.0, 3.0, 60)) @ V.T
    prob = GlsProblem(A, None, np.eye(2000), rng.standard_normal(60))
    strategy = CholeskyStrategy(prob.G)
    # bound first: the problem's QR of [MA; L; N_G'] is set-up, and the
    # traced solve is the recurrence alone
    strategy.bind(prob)
    tracemalloc.start()
    try:
        report = glsqr_solve(prob, strategy, tol=1e-300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.stop_reason == "ggkb_terminated" and report.state.k == 60
    assert peak < 0.5 * 2**20


def sparse_and_dense_l_problems():
    yield planted_problem(seed=52).problem
    # an L of full column rank keeps the generalized singular values apart;
    # a cluster leaves the coefficients after its exhaustion to roundoff,
    # where no two evaluations of L'L and L s agree to 1e-12
    yield random_gls_problem(0, m=30, n=24, p=30, q=26)


@pytest.mark.parametrize("prob", sparse_and_dense_l_problems(), ids=["generated", "weighted"])
def test_a_sparse_l_matches_a_dense_one(prob):
    L = scipy.sparse.csr_array(prob.L)
    sparse = GlsProblem(prob.A, prob.M, L, prob.b)
    dense = GlsProblem(prob.A, prob.M, L.toarray(), prob.b)
    assert scipy.sparse.issparse(sparse.L) and sparse.L.format == "csr"
    assert isinstance(dense.L, np.ndarray)

    def close(a, b):
        a, b = np.asarray(a), np.asarray(b)
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    close(wpinv_elden(sparse) @ sparse.b, wpinv_elden(dense) @ dense.b)
    r_sparse, r_dense = glsqr_solve(sparse), glsqr_solve(dense)
    close(r_sparse.x, r_dense.x)
    close(r_sparse.alphas, r_dense.alphas)
    close(r_sparse.betas, r_dense.betas)

    L = L.copy()
    L.data[0] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        GlsProblem(prob.A, prob.M, L, prob.b)
    with pytest.raises(ValueError, match="columns"):
        GlsProblem(prob.A, prob.M, scipy.sparse.csr_array(np.ones((2, prob.n + 1))), prob.b)


def test_band_preconditioner_cuts_inner_iterations():
    # one generated l1 problem built twice: its sparse L lets the inner
    # strategy precondition CG by the band of L'L + cI, the dense copy not
    prob = generate(random_sparse_matrix(90, 120, density=0.05, seed=1), "l1", "trig", 1).problem
    runs = {}
    for kind, L in (("sparse", prob.L), ("dense", prob.L.toarray())):
        built = GlsProblem(prob.A, None, L, prob.b)
        strategy = InnerLsqrStrategy(built.G, tau=1e-10)
        report = glsqr_solve(built, strategy, tol=1e-10)
        assert not report.state.inner_capped
        assert (strategy.precond is not None) == (kind == "sparse")
        runs[kind] = report.x, strategy.inner_iterations
    (x_sparse, it_sparse), (x_dense, it_dense) = runs["sparse"], runs["dense"]
    assert np.linalg.norm(x_sparse - x_dense) <= 1e-8 * np.linalg.norm(x_dense)
    assert 0 < 3 * it_sparse <= it_dense


@pytest.mark.parametrize("seed", range(3))
def test_band_preconditioned_solve_of_a_singular_g_stays_in_its_range(seed):
    # centered rows put the constants in N(A), and they span N(L) for the
    # first-difference stencil, so N(G) is the constants. P = L'L + cI is
    # c I on N(G), so PCG never leaves R(G): no projection off N(G) is made
    A = random_sparse_matrix(60, 80, density=0.05, seed=seed).toarray()
    prob = generate(A - A.mean(axis=1, keepdims=True), "l1", "trig", seed).problem
    N_g = prob.factors.nullspace_g
    assert N_g.shape[1] == 1
    strategy = InnerLsqrStrategy(prob.G, tau=1e-13)
    report = glsqr_solve(prob, strategy, tol=1e-12)
    assert strategy.precond is not None
    assert certify_solution(prob, report)
    assert check_gls_criterion(prob, report.x).in_range_g
    assert np.linalg.norm(N_g.T @ report.x) <= 1e-10 * np.linalg.norm(report.x)


def test_inexact_inner_solver_caps_accuracy():
    # inner tolerance caps the resolvable outer residual, so the outer
    # stopping tolerance is paired with it
    gen = planted_problem(seed=61, m=30, n=40, rank=24)
    prob = gen.problem
    errors = []
    for tau in (1e-4, 1e-8):
        strategy = InnerLsqrStrategy(prob.G, tau=tau)
        report = glsqr_solve(prob, strategy, tol=tau, max_iter=150)
        errors.append(
            np.linalg.norm(report.x - gen.x_true) / np.linalg.norm(gen.x_true)
        )
    assert errors[1] < errors[0]
    assert errors[0] > 1e-7  # loose inner solves genuinely limit accuracy


def test_max_iter_is_status_not_error():
    gen = planted_problem(seed=5, m=20, n=24, rank=16)
    report = glsqr_solve(gen.problem, tol=1e-300, max_iter=3)
    assert report.iterations == 3
    assert report.stop_reason == "max_iter"


def test_save_history_layout(tmp_path):
    gen = planted_problem(seed=9, m=14, n=16, rank=10)
    report = glsqr_solve(gen.problem, tol=1e-12, debug=True)
    path = tmp_path / "history.csv"
    save_history(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,res_estimate,res_true,x_norm,alpha,beta"
    assert len(lines) == report.iterations + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == report.residual_estimate_history[0]


def test_report_coefficients_are_the_state_record():
    gen = planted_problem(seed=9, m=14, n=16, rank=10)
    report = glsqr_solve(gen.problem, tol=1e-12)
    assert report.alphas is report.state.alphas
    assert report.betas is report.state.betas
    assert report.beta1 == report.state.betas[0]
    with pytest.raises(AttributeError):
        report.alphas = []


def test_rejects_bad_tolerance():
    gen = planted_problem(seed=2, m=10, n=12, rank=8)
    with pytest.raises(ValueError):
        glsqr_solve(gen.problem, tol=0.0)


@pytest.mark.parametrize("max_iter", [0, -3])
def test_rejects_an_explicit_max_iter_below_one(max_iter):
    gen = planted_problem(seed=2, m=10, n=12, rank=8)
    with pytest.raises(ValueError, match="max_iter"):
        glsqr_solve(gen.problem, max_iter=max_iter)


@pytest.mark.parametrize("seed", range(20))
def test_no_silent_garbage_under_bad_conditioning(seed):
    # strategies can be pushed past their accuracy (severely conditioned G,
    # inner tolerances the inner iteration cannot deliver); results may then
    # be wrong, but they must never wrongly certify
    from glskit import CholeskyStrategy, IndefiniteMatrixError, wpinv_elden

    rng = np.random.default_rng(80_000 + seed)
    m = int(rng.integers(10, 60))
    n = int(rng.integers(8, 60))
    p = int(rng.integers(2, 40))
    rank_a = int(rng.integers(1, min(m, n) + 1))
    prob = random_gls_problem(
        80_000 + seed, m=m, n=n, p=p, rank_a=rank_a,
        cond=[5.0, 50.0, 500.0][seed % 3], shared_null=seed % 4 == 0,
    )
    x_ref = wpinv_elden(prob) @ prob.b
    scale = max(np.linalg.norm(x_ref), 1e-12)
    strategies = [
        DensePinvStrategy(prob.G),
        InnerLsqrStrategy(prob.G, tau=1e-12, max_iter=8 * prob.n),
        CholeskyStrategy(prob.G),
    ]
    for strategy in strategies:
        try:
            report = glsqr_solve(prob, strategy, tol=1e-11, max_iter=400)
        except IndefiniteMatrixError:
            # only the Cholesky option refuses, and only a singular G
            assert isinstance(strategy, CholeskyStrategy)
            continue
        err = np.linalg.norm(report.x - x_ref) / scale
        if err > 1e-6:
            assert not certify_solution(prob, report, tol=1e-8)

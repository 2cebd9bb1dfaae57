import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

import glskit.linalg
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
    FAMILIES,
    SPECTRUM_GAP,
    StackRowsStrategy,
    bidiagonal,
    counted_factorizations,
    counted_orgqr,
    family_problem,
    prescribed_gsvd_pair,
    projector_range,
    random_gls_problem,
    random_matrix,
    run_ggkb,
    seminorm_p,
    spectrum_gap,
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
    # no step, no estimate: max_iters=0 would report 0.0; and the cap is
    # an integer, not a float that range() refuses with a TypeError
    for max_iters in (0, 2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="max_iters"):
            operator_norm(prob, method="power", max_iters=max_iters)

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


def test_a_debug_dense_solve_writes_the_plain_x():
    # the debug residual reads MA x off the coordinates, so the iterates,
    # and the blocks that map them to x-space, are those of a plain run
    prob = planted_problem(seed=44, m=70, n=80, rank=60).problem
    plain, debug = (glsqr_solve(prob, tol=1e-12, debug=d) for d in (False, True))
    assert debug.iterations == plain.iterations > 32
    assert debug.x.tobytes() == plain.x.tobytes()
    assert debug.x_norm_history == plain.x_norm_history


def test_x_norm_history_is_the_norm_of_each_iterate():
    # the norms come from blocks of 32 iterates mapped to x-space at once;
    # each matches the x of a run stopped at that iterate, mapped on its own
    prob = planted_problem(seed=44, m=90, n=100, rank=80).problem
    full = glsqr_solve(prob, tol=1e-300, max_iter=70)
    assert full.iterations == 70
    for k in range(1, full.iterations + 1):
        x_norm = np.linalg.norm(iterate_prefix(prob, k).x)
        assert abs(full.x_norm_history[k - 1] - x_norm) <= 1e-12 * x_norm


def test_a_dense_solve_and_its_certificate_form_no_w(monkeypatch):
    # the benchmark's glsqr_dense shape: the solve runs in the coordinates
    # of the certified factor of [L; MA] and maps its iterates back by one
    # trmm with R^-1 per block of 32, so W = pinv(G) (MA)', n x q, is never
    # formed, by a trmm or otherwise
    seed = 1
    A = random_sparse_matrix(450, 600, density=0.05, seed=seed)
    prob = generate(A, "l1", "trig", seed).problem
    trmm, blocks = glskit.linalg.dtrmm, []

    def recording(alpha, a, b, **kwargs):
        blocks.append(b.shape)
        return trmm(alpha, a, b, **kwargs)

    monkeypatch.setattr(glskit.linalg, "dtrmm", recording)
    report = glsqr_solve(prob, DensePinvStrategy(prob.G), tol=1e-10)
    assert certify_solution(prob, report)
    k = report.iterations
    assert blocks == [(600, 32)] * (k // 32) + [(600, k % 32)] * (k % 32 > 0)


def test_a_debug_solve_factors_what_a_plain_one_does(monkeypatch):
    # the debug residual reads the problem's factor of [L; MA], the one the
    # dense strategy binds, and factors nothing of its own
    calls = counted_factorizations(monkeypatch, ("svd", "qr", "cholesky"))
    made = {}
    for debug in (False, True):
        calls.clear()
        glsqr_solve(random_gls_problem(0, m=30, n=24, p=10), debug=debug)
        made[debug] = sorted(calls)
    assert made[False] and made[True] == made[False]


# the dense solve of every seed 0-199 of each of FAMILIES must land within
# 1e-8 of the direct route; with the SVD of the formed G, C1 (cond(G) near
# 1e14, cond([MA; L]) near 1e7) landed none, C2 70
@pytest.mark.parametrize("family", [*FAMILIES, "prescribed"])
def test_dense_solve_lands_on_the_direct_route_across_a_family(family):
    # judged by the gap to wpinv_apply, not by the certificate alone
    for seed in range(200):
        prob = family_problem(family, seed)
        report = glsqr_solve(prob, tol=1e-12)
        assert certify_solution(prob, report), seed
        x_ref = wpinv_apply(prob)
        assert np.linalg.norm(report.x - x_ref) <= 1e-8 * np.linalg.norm(x_ref), seed


@pytest.mark.parametrize("family", [*FAMILIES, "prescribed"])
def test_terminated_bidiagonal_has_the_gsvd_cosines_across_a_family(family):
    # every seed 0-199 that ends ggkb_terminated. C1, C2 and W have every
    # cosine 1 (q2 = 0), so their runs end at k = 1 and B_1 has one singular
    # value; the prescribed pairs have 2-5 cosines in (0, 1) and end at
    # k = 2-6
    terminated = 0
    for seed in range(200):
        prob = family_problem(family, seed)
        report = glsqr_solve(prob, tol=1e-14)
        if report.stop_reason == "ggkb_terminated":
            terminated += 1
            assert spectrum_gap(prob, report) <= SPECTRUM_GAP, seed
    assert terminated >= 150


def glsqr_dense_problem(seed=1):
    """The benchmark's ``glsqr_dense`` problem at ``seed``, 450 x 600."""
    A = random_sparse_matrix(450, 600, density=0.05, seed=seed)
    return generate(A, "l1", "trig", seed).problem


def test_the_dense_bind_drops_the_stack_before_the_qr_of_z_b():
    # n = 600: the stack's Z_B, F and N are freed before the QR of the
    # staged Z_B', so the bind's traced peak is 10.69 MB; with Z_B and the
    # n x n F alive beside that QR it was 11.98 MB
    prob = glsqr_dense_problem(1)
    tracemalloc.start()
    try:
        DensePinvStrategy(prob.G).bind(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10.7e6


@pytest.mark.parametrize("family", [*FAMILIES, "prescribed", "glsqr_dense"])
def test_the_triangle_of_z_b_runs_the_process_of_z_b(family):
    # gGKB on the triangle R of Z_B' = Q [R; 0] against the plain process of
    # Z_B itself: the same steps, coefficients and x. On C1, 7 of 200 seeds
    # have an alpha_2 of 1e-12 to 5e-12, at the degeneracy cutoff, where the
    # stop reason of either run may be either, so only k and x are compared,
    # x to eps cond(K), cond(K) near 1e7 (measured 2.1e-12 at most)
    if family == "glsqr_dense":
        cases = [(glsqr_dense_problem(), 1e-10)]
    else:
        cases = ((family_problem(family, seed), 1e-14) for seed in range(200))
    for seed, (prob, tol) in enumerate(cases):
        report = glsqr_solve(prob, DensePinvStrategy(prob.G), tol=tol)
        oracle = glsqr_solve(prob, StackRowsStrategy(), tol=tol)
        assert report.iterations == oracle.iterations, seed
        gap = np.linalg.norm(report.x - oracle.x)
        assert gap <= (1e-10 if family == "C1" else 1e-12) * np.linalg.norm(oracle.x), seed
        if family == "C1":
            continue
        assert report.stop_reason == oracle.stop_reason, seed
        for got, want in ((report.alphas, oracle.alphas), (report.betas, oracle.betas)):
            got, want = np.array(got), np.array(want)
            assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want)), seed


@pytest.mark.parametrize("family", [*FAMILIES, "prescribed"])
@pytest.mark.parametrize("inner", [False, True], ids=["dense", "inner"])
def test_solve_scales_with_b(family, inner):
    # A_ML^+ is linear, and only beta_1 = ||M b|| carries the scale of b:
    # every cutoff reads the entries of B_k, so b scaled by a power of 2
    # gives x scaled by it bitwise, in the same steps, with the same stop
    # and certificate
    for seed in range(20):
        prob = family_problem(family, seed)
        runs = []
        for c in (1.0, 2.0**40, 2.0**-40):
            scaled = prob.with_b(c * prob.b)
            strategy = InnerLsqrStrategy(prob.G, tau=1e-12) if inner else None
            report = glsqr_solve(scaled, strategy, tol=1e-12)
            runs.append((c, report, certify_solution(scaled, report)))
        _, base, certified = runs[0]
        for c, report, scaled_certified in runs[1:]:
            np.testing.assert_array_equal(report.x, c * base.x, err_msg=f"seed {seed}")
            assert report.iterations == base.iterations, seed
            assert report.stop_reason == base.stop_reason, seed
            assert scaled_certified == certified, seed


@pytest.mark.parametrize("scale, certified", [(1e150, True), (1e155, False)])
def test_a_solve_is_certified_only_where_its_norms_are_finite(scale, certified):
    # at b 1e155, ||M b|| overflows: gGKB terminates at k = 0 with x = 0,
    # and the criterion's normal residual and its scale are both inf, which
    # pass inf <= tol inf, so only their finiteness refuses x
    base = random_gls_problem(3, m=12, n=10, p=6)
    prob = base.with_b(scale * base.b)
    with np.errstate(all="ignore"):
        report = glsqr_solve(prob)
        crit = check_gls_criterion(prob, report.x, tol=1e-8)
        assert certify_solution(prob, report) == certified
    assert crit.satisfied == crit.in_range_g == certified
    if not certified:
        assert report.iterations == 0 and not report.x.any()
        assert crit.normal_residual == crit.normal_scale == np.inf


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


def wide_problem_with_identity_l():
    """60 x 2000 A of cond 1e3 and L = I: N(A) has dimension 1940, G is SPD."""
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    V, _ = np.linalg.qr(rng.standard_normal((2000, 60)))
    A = (U * np.logspace(0.0, 3.0, 60)) @ V.T
    return GlsProblem(A, None, np.eye(2000), rng.standard_normal(60))


def test_a_dense_bind_factors_only_the_stack(monkeypatch):
    # one QR of [L; MA] certifies G nonsingular and gives W: L = I is its
    # own triangle, so the QR folds MA's 60 rows into it and hands no
    # factorization a larger block; the factors of MA and L N, and the null
    # space of G, are not made for it
    prob = wide_problem_with_identity_l()
    calls = counted_factorizations(monkeypatch, ("svd", "qr"))
    fold, rows_below = glskit.linalg.dtpqrt, []

    def recording(l, nb, a, b, **kwargs):
        rows_below.append(b.shape[0])
        return fold(l, nb, a, b, **kwargs)

    monkeypatch.setattr(glskit.linalg, "dtpqrt", recording)
    CholeskyStrategy(prob.G).bind(prob)
    assert calls == ["dtpqrt", "scipy.linalg.qr"]
    assert rows_below == [60]
    assert not {"ma", "ln", "nullspace_g"} & set(vars(prob.factors))


def test_certification_after_a_dense_bind_factors_only_ma(monkeypatch):
    # the bind's certified QR of [L; MA] proves N(G) empty, so neither L N
    # nor N(MA) is factored or formed: the coupling test applies the
    # reflectors of MA's one QR to G x
    prob = wide_problem_with_identity_l()
    report = glsqr_solve(prob, DensePinvStrategy(prob.G))
    calls = counted_factorizations(monkeypatch, ("svd", "qr"))
    orgqr = counted_orgqr(monkeypatch)
    assert certify_solution(prob, report)
    assert calls == ["scipy.linalg.qr"]
    assert orgqr == []
    assert "ln" not in vars(prob.factors)
    assert prob.factors.nullspace_g.shape == (2000, 0)
    held = [*vars(prob.factors).values(), *vars(prob.factors.ma).values()]
    assert not any(np.shape(array) == (2000, 1940) for array in held)


def test_a_solve_to_exhaustion_keeps_no_solution_side_basis():
    # 60 x 2000: a basis of the v_i would hold 2000 x 61 doubles (0.93 MiB);
    # the solve keeps the latest v_i, w, x, the 60 x 61 data side and a
    # block of at most 2^15 doubles of iterates to map to x-space
    prob = wide_problem_with_identity_l()
    strategy = CholeskyStrategy(prob.G)
    # bound first: the problem's QR of [L; MA] is set-up, and the traced
    # solve is the recurrence alone
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


def test_a_reused_inner_strategy_solves_as_a_fresh_one():
    # C2 seed 1 with six right-hand sides: an inner CG capped at 100 steps
    # caps on some of them only, so a strategy bound again must not carry a
    # cap, a worst residual or a count over from an earlier solve
    prob = random_gls_problem(1, m=30, n=40, p=5, q=25, rank_a=12, shared_null=True, cond=1e3)
    rng = np.random.default_rng(0)
    shared = InnerLsqrStrategy(prob.G, tau=1e-10, max_iter=100)
    capped = []
    for _ in range(6):
        rhs = prob.with_b(rng.standard_normal(prob.m))
        fresh_strategy = InnerLsqrStrategy(prob.G, tau=1e-10, max_iter=100)
        fresh = glsqr_solve(rhs, fresh_strategy)
        reused = glsqr_solve(rhs, shared)
        assert np.array_equal(reused.x, fresh.x)
        assert reused.state.inner_capped == fresh.state.inner_capped
        assert reused.noise_floor == fresh.noise_floor
        assert shared.inner_iterations == fresh_strategy.inner_iterations
        capped.append(fresh.state.inner_capped)
    assert 0 < sum(capped) < 6


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


def test_the_report_records_the_noise_floor_of_its_cutoffs():
    # 10 relative_noise: of the factor of [L; MA] on a dense run, where
    # every kept coefficient of B_k lies above it, and of the worst inner
    # residual on a capped inner run
    prob = random_gls_problem(0, m=30, n=24, p=10, cond=100.0)
    dense = glsqr_solve(prob, tol=1e-300)
    assert dense.stop_reason == "ggkb_terminated"
    assert dense.noise_floor == 10.0 * prob.factors.gdag.noise
    assert min(c for c in dense.alphas + dense.betas[1:] if c) > dense.noise_floor
    inner = InnerLsqrStrategy(prob.G, tau=1e-10, max_iter=8)
    capped = glsqr_solve(prob, inner, tol=1e-10)
    assert capped.noise_floor == 10.0 * inner.relative_noise > 10.0 * inner.tau


def test_rejects_bad_tolerance():
    # an infinite tol would be met at once: x = 0, "tolerance_met", 0 steps
    gen = planted_problem(seed=2, m=10, n=12, rank=8)
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol"):
            glsqr_solve(gen.problem, tol=tol)


# an infinite cap would overflow int(), and a fractional one be truncated
@pytest.mark.parametrize("max_iter", [0, -3, math.inf, math.nan, 2.5])
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

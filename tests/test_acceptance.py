"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import json
import os
import time

import numpy as np
import pytest

from glskit import (
    InnerLsqrStrategy,
    check_gmpe,
    generate,
    ggkb_init,
    ggkb_step,
    glsqr_solve,
    gsvd_pair,
    operator_norm,
    wpinv_elden,
    wpinv_limit,
    wpinv_via_gsvd,
)
from glskit.cli import main as cli_main
from glskit.ggkb import DensePinvStrategy
from helpers import (
    krylov_subspace_check,
    prescribed_gsvd_pair,
    random_gls_problem,
    random_matrix,
    run_ggkb,
)


def test_criterion_1_exact_termination_on_generated_problems():
    # 50 generated problems, n in 20..100, mixed ranks, L in {l1, l2, identity},
    # singular-G cases included, dense pinv(G): relative error <= 1e-8 on all.
    start = time.time()
    kinds = ["l1", "l2", "identity"]
    funcs = ["ramp", "cubic", "trig"]
    worst = 0.0
    for i in range(50):
        n = 20 + (i * 80) // 49
        rng = np.random.default_rng(9000 + i)
        m = int(np.ceil(n * (0.55 + 0.45 * rng.random())))
        if i % 5 == 0:
            # rows sum to zero, so N(A) and N(l1) share the constant vector
            # and G is singular
            A = rng.standard_normal((m, n))
            A -= A.mean(axis=1, keepdims=True)
            kind = "l1"
        else:
            rank = min(m, n) if i % 3 else int(np.ceil(0.6 * min(m, n)))
            A = random_matrix(rng, m, n, rank=rank, cond=30.0)
            kind = kinds[i % 3]
        gen = generate(A, kind, funcs[i % 3], seed=9000 + i)
        report = glsqr_solve(gen.problem, tol=1e-12)
        err = np.linalg.norm(report.x - gen.x_true) / np.linalg.norm(gen.x_true)
        worst = max(worst, err)
        assert err <= 1e-8, f"instance {i} (n={n}, L={kind}): error {err:.3e}"
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\n[criterion 1] PASS exact termination: worst error {worst:.3e} "
          f"over 50 problems in {elapsed:.1f}s")


def test_criterion_2_cross_method_oracle_equivalence():
    # elden vs gsvd closed form <= 1e-9 pairwise; delta-limit route <= 1e-5
    # at delta=1e-7 with O(delta) decay (ratio ~100 per two decades).
    start = time.time()
    worst_pair = worst_raw = 0.0
    ratios = []
    for i in range(50):
        rng = np.random.default_rng(2000 + i)
        m = int(rng.integers(4, 41))
        n = int(rng.integers(3, 41))
        p = int(rng.integers(2, 41))
        rank_a = int(rng.integers(max(1, min(m, n) // 2), min(m, n) + 1))
        prob = random_gls_problem(
            2000 + i, m=m, n=n, p=p, rank_a=rank_a, shared_null=(i % 5 == 0), cond=8.0
        )
        X_e = wpinv_elden(prob)
        scale = max(np.linalg.norm(X_e), 1e-300)
        X_g = wpinv_via_gsvd(gsvd_pair(prob.A, prob.L), prob.G)
        worst_pair = max(worst_pair, np.linalg.norm(X_e - X_g) / scale)
        raw = np.linalg.norm(wpinv_limit(prob, 1e-7) - X_e) / scale
        worst_raw = max(worst_raw, raw)
        err_hi = np.linalg.norm(wpinv_limit(prob, 1e-3) - X_e) / scale
        err_lo = np.linalg.norm(wpinv_limit(prob, 1e-5) - X_e) / scale
        ratios.append(err_hi / err_lo)
    assert worst_pair <= 1e-9
    assert worst_raw <= 1e-5
    assert all(20.0 <= r <= 500.0 for r in ratios)  # linear-in-delta decay
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\n[criterion 2] PASS cross-method equivalence: elden-gsvd {worst_pair:.3e}, "
          f"limit(1e-7) {worst_raw:.3e}, decay ratios "
          f"[{min(ratios):.0f}, {max(ratios):.0f}] in {elapsed:.1f}s")


def test_criterion_3_generalized_moore_penrose_certification():
    # all five identities <= 1e-9 on 100 seeded problems (including M != I
    # with rank-deficient M); perturbed candidates fail >= 1 identity at 1e-6.
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(5, 13))
        n = int(rng.integers(4, 11))
        p = int(rng.integers(2, 9))
        kwargs = dict(m=m, n=n, p=p, cond=10.0)
        if seed % 3 == 0:
            q = int(rng.integers(4, 14))
            kwargs.update(q=q, rank_m=max(2, min(q, m) - int(rng.integers(1, 3))))
        if seed % 4 == 0:
            kwargs.update(rank_a=max(1, min(m, n) - 2))
        if seed % 7 == 0:
            kwargs.update(shared_null=True)
        prob = random_gls_problem(seed, **kwargs)
        X = wpinv_elden(prob)
        report = check_gmpe(prob, X, tol=1e-9)
        worst = max(worst, max(report.residuals))
        assert report.all_passed, f"seed {seed}: residuals {report.residuals}"

        prng = np.random.default_rng(10_000 + seed)
        E = prng.standard_normal(X.shape)
        E *= 1e-3 * np.linalg.norm(X) / np.linalg.norm(E)
        perturbed = check_gmpe(prob, X + E, tol=1e-6)
        assert not perturbed.all_passed, f"seed {seed}: perturbation undetected"
    print(f"\n[criterion 3] PASS generalized Moore-Penrose certification: "
          f"worst residual {worst:.3e} over 100 problems, all perturbations rejected")


def test_criterion_4_residual_estimate_fidelity():
    # n = 200 problem run for 100 iterations with the direct residual on:
    # max relative discrepancy between the recursive estimate and the
    # directly computed seminorm <= 1e-6.
    rng = np.random.default_rng(4)
    A = rng.standard_normal((150, 200))
    U, _, Vt = np.linalg.svd(A, full_matrices=False)
    A = (U * np.logspace(0, -3, 150)) @ Vt  # slow decay keeps 100 steps busy
    gen = generate(A, "l1", "trig", seed=4)
    report = glsqr_solve(gen.problem, tol=1e-300, max_iter=100, debug=True)
    assert report.iterations == 100
    est = np.array(report.residual_estimate_history)
    direct = np.array(report.true_residual_history)
    discrepancy = float(np.max(np.abs(est - direct) / direct))
    assert discrepancy <= 1e-6
    print(f"\n[criterion 4] PASS residual-estimate fidelity: "
          f"max relative discrepancy {discrepancy:.3e} over 100 iterations")


def test_criterion_5_inexact_inner_solver_envelope():
    # E(tau) within [1e-2 tau, 1e2 tau] for tau in {1e-4, 1e-6, 1e-8} and
    # monotone decreasing; the outer stopping tolerance is paired with tau
    # since the inner accuracy caps the resolvable residual.
    rng = np.random.default_rng(61)
    A = random_matrix(rng, 30, 40, rank=24)
    gen = generate(A, "l1", "ramp", seed=61)
    errors = []
    for tau in (1e-4, 1e-6, 1e-8):
        strategy = InnerLsqrStrategy(gen.problem.G, tau=tau)
        report = glsqr_solve(gen.problem, strategy, tol=tau, max_iter=300)
        err = np.linalg.norm(report.x - gen.x_true) / np.linalg.norm(gen.x_true)
        assert 1e-2 * tau <= err <= 1e2 * tau, f"tau={tau}: E={err:.3e}"
        errors.append(err)
    assert errors[0] > errors[1] > errors[2]
    ratios = ", ".join(f"{e / t:.1f}" for e, t in zip(errors, (1e-4, 1e-6, 1e-8)))
    print(f"\n[criterion 5] PASS O(tau) envelope: E/tau = {ratios}, monotone")


def test_criterion_6_ggkb_structural_invariants():
    # orthonormality drift <= 1e-10 over 50 reorthogonalized steps, Krylov
    # principal angles <= 1e-8 for k <= 6, termination within the rank bound.
    prob = random_gls_problem(55, m=70, n=60, p=60, cond=30.0)
    state, V = run_ggkb(prob, DensePinvStrategy(prob.G), steps=50)
    U = state.MU
    drift_v = float(np.abs(V.T @ prob.G @ V - np.eye(V.shape[1])).max())
    drift_u = float(np.abs(U.T @ U - np.eye(U.shape[1])).max())
    assert drift_v <= 1e-10 and drift_u <= 1e-10

    small = random_gls_problem(56, m=14, n=10, p=6, cond=10.0)
    sstate, sV = run_ggkb(small, DensePinvStrategy(small.G), steps=6)
    worst_angle = max(
        krylov_subspace_check(sV, small, k) for k in range(1, min(6, sstate.k) + 1)
    )
    assert worst_angle <= 1e-8

    bound_ok = True
    for seed in range(8):
        p2 = random_gls_problem(
            300 + seed, m=10, n=8, p=5, rank_a=5, shared_null=seed % 2 == 0
        )
        strategy = DensePinvStrategy(p2.G)
        st = ggkb_init(p2, strategy)
        for _ in range(40):
            if st.terminated:
                break
            st = ggkb_step(st, strategy)
        rank_bound = min(np.linalg.matrix_rank(p2.G), p2.m)  # M = I, so rank P = m
        bound_ok = bound_ok and st.terminated and st.k <= rank_bound
    assert bound_ok
    print(f"\n[criterion 6] PASS gGKB invariants: drift G {drift_v:.2e} / P {drift_u:.2e} "
          f"over 50 steps, Krylov angle {worst_angle:.2e}, termination within rank bound")


def test_criterion_7_operator_norm_agreement():
    worst = 0.0
    for i in range(20):
        prob = prescribed_gsvd_pair(7000 + i)
        exact = operator_norm(prob, method="gsvd").value
        power = operator_norm(prob, method="power").value
        rel = abs(power - exact) / exact
        worst = max(worst, rel)
        assert rel <= 1e-8, f"pair {i}: gsvd {exact:.12f} vs power {power:.12f}"
    print(f"\n[criterion 7] PASS operator-norm agreement: worst relative "
          f"difference {worst:.3e} over 20 pairs")


SUITESPARSE_NAMES = ("lp_bnl2", "TF15", "ch")


def _suitesparse_dir():
    root = os.environ.get("GLSKIT_SUITESPARSE_DIR", os.path.join(os.getcwd(), "data"))
    if all(os.path.exists(os.path.join(root, f"{n}.mtx")) for n in SUITESPARSE_NAMES):
        return root
    return None


def test_criterion_8_full_scale_experiments_optional(tmp_path):
    # only runs when the user supplies the collection matrices; asserts
    # qualitatively decreasing convergence histories, no numeric tolerance.
    root = _suitesparse_dir()
    if root is None:
        pytest.skip("full-scale matrices not supplied (set GLSKIT_SUITESPARSE_DIR)")
    for name, kind in (("lp_bnl2", "l1"), ("TF15", "l2"), ("ch", "l1")):
        gen_dir = tmp_path / name
        assert cli_main(
            [
                "gen-problem", "--A", os.path.join(root, f"{name}.mtx"),
                "--L", kind, "--func", "trig", "--seed", "1",
                "--out-dir", str(gen_dir),
            ]
        ) == 0
        out = tmp_path / f"{name}_run"
        assert cli_main(
            [
                "solve",
                "--A", str(gen_dir / "A.mtx"), "--L", str(gen_dir / "L.mtx"),
                "--b", str(gen_dir / "b.mtx"), "--x-true", str(gen_dir / "x_true.mtx"),
                "--gdag", "lsqr:1e-8", "--tol", "1e-8", "--max-iter", "500",
                "--out-dir", str(out),
            ]
        ) == 0
        rows = (out / "history.csv").read_text().splitlines()[1:]
        estimates = [float(r.split(",")[1]) for r in rows]
        assert min(estimates) < 0.1 * estimates[0]  # qualitative decrease
        summary = json.loads((out / "summary.json").read_text())
        print(f"\n[criterion 8] {name}: {summary['iterations']} iterations, "
              f"final estimate {summary['final_estimate']:.3e}")
    print("\n[criterion 8] PASS full-scale experiments (qualitative)")

"""The four benchmark workloads.

Each workload has ``operations`` (right-hand sides taken to a solution per
pass) and three steps, which the runner times:

- ``inputs(seed)`` draws the matrices and vectors the package receives
  (untimed);
- ``setup(inputs)`` does everything before the first right-hand side is
  solved and returns the state ``solve`` needs;
- ``solve(state)`` takes every right-hand side to a solution, checks it, and
  returns ``(failed operations, forward error against the planted solution)``.

They call only the package's public functions, looked up as module
attributes at call time so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import glskit.cli
import glskit.ggkb
import glskit.glsqr
import glskit.gsvd
import glskit.problems
import glskit.wpinv

# relative disagreement allowed between the elden and gsvd routes
ROUTE_AGREEMENT = 1e-9


class _GlsqrWorkload:
    """Planted problem from ``generate``, one gLSQR solve, certification."""

    operations = 1
    shape: tuple

    def inputs(self, seed):
        m, n = self.shape
        return seed, glskit.problems.random_sparse_matrix(m, n, density=0.05, seed=seed)

    def strategy(self, G):
        raise NotImplementedError

    def setup(self, inputs):
        seed, A = inputs
        gen = glskit.problems.generate(A, "l1", "trig", seed)
        return gen, self.strategy(gen.problem.G)

    def solve(self, state):
        gen, strategy = state
        report = glskit.glsqr.glsqr_solve(gen.problem, strategy, tol=1e-10)
        certified = glskit.glsqr.certify_solution(gen.problem, report)
        ok = certified and not report.state.inner_capped
        error = np.linalg.norm(report.x - gen.x_true) / np.linalg.norm(gen.x_true)
        return int(not ok), float(error)


class GlsqrDense(_GlsqrWorkload):
    shape = (450, 600)

    def strategy(self, G):
        return glskit.ggkb.DensePinvStrategy(G)


class GlsqrInner(_GlsqrWorkload):
    # n > 200 puts operator_norm on its power path
    shape = (165, 220)

    def strategy(self, G):
        return glskit.ggkb.InnerLsqrStrategy(G, tau=1e-10)


class DirectMultiRhs:
    """Two dense problems, 20 right-hand sides each, through the direct route.

    Problem (a) has ``M = None`` and is cross-checked against the gsvd route;
    problem (b) has a rank-deficient ``M`` (rank m - 20 with m - 10 rows), so
    ``P`` is singular.
    """

    m, n, rank, n_rhs = 300, 400, 150, 20
    operations = 2 * n_rhs

    def inputs(self, seed):
        m, n = self.m, self.n
        rng = np.random.default_rng(seed)
        A = glskit.problems.random_sparse_matrix(
            m, n, rank=self.rank, density=1.0, seed=seed
        ).toarray()
        M = rng.standard_normal((m - 10, m - 20)) @ rng.standard_normal((m - 20, m))
        L = glskit.problems.make_l1(n)
        rhs = rng.standard_normal((2, self.n_rhs, m))
        return [(A, None, L, rhs[0]), (A, M, L, rhs[1])]

    def setup(self, inputs):
        routes = []
        for A, M, L, rhs in inputs:
            prob = glskit.wpinv.GlsProblem(A, M, L)
            X = glskit.wpinv.wpinv_elden(prob)
            X_gsvd = None
            if M is None:
                factors = glskit.gsvd.gsvd_pair(prob.A, prob.L)
                X_gsvd = glskit.gsvd.wpinv_via_gsvd(factors, prob.G)
            glskit.wpinv.check_gmpe(prob, X)
            routes.append((prob, X, X_gsvd, rhs))
        return routes

    def solve(self, routes):
        failed = 0
        for prob, X, X_gsvd, rhs in routes:
            for b in rhs:
                x = X @ b
                ok = True
                if X_gsvd is not None:
                    gap = np.linalg.norm(X_gsvd @ b - x)
                    ok = gap <= ROUTE_AGREEMENT * np.linalg.norm(x)
                crit = glskit.wpinv.check_gls_criterion(prob.with_b(b), x)
                failed += int(not (ok and crit and crit.in_range_g))
        return failed, 0.0


class CliCholesky:
    """``gen-problem`` then ``solve --gdag cholesky`` through ``glskit.cli.main``."""

    operations = 1

    def __init__(self, scratch):
        self.problem_dir = os.path.join(scratch, "problem")
        self.out_dir = os.path.join(scratch, "out")

    def inputs(self, seed):
        return seed

    def setup(self, seed):
        with contextlib.redirect_stdout(io.StringIO()):
            return glskit.cli.main([
                "gen-problem", "--n", "500", "--L", "l2", "--func", "cubic",
                "--seed", str(seed), "--out-dir", self.problem_dir,
            ])

    def solve(self, rc_gen):
        if rc_gen != 0:
            return 1, 0.0
        files = {k: os.path.join(self.problem_dir, f"{k}.mtx") for k in ("A", "L", "b", "x_true")}
        with contextlib.redirect_stdout(io.StringIO()):
            rc = glskit.cli.main([
                "solve", "--gdag", "cholesky",
                "--A", files["A"], "--L", files["L"], "--b", files["b"],
                "--x-true", files["x_true"], "--out-dir", self.out_dir,
            ])
        if rc != 0:
            return 1, 0.0
        with open(os.path.join(self.out_dir, "summary.json")) as fh:
            summary = json.load(fh)
        return int(summary["certified"] is not True), float(summary["relative_error"])


# name -> factory taking the directory for the workload's temporary files
WORKLOADS = {
    "glsqr_dense": lambda scratch: GlsqrDense(),
    "glsqr_inner": lambda scratch: GlsqrInner(),
    "direct_multi_rhs": lambda scratch: DirectMultiRhs(),
    "cli_cholesky": CliCholesky,
}

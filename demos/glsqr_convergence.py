"""Convergence of the iterative solver on a problem with a planted solution.

A test problem is constructed so its minimum 2-norm solution is known in
closed form, then solved iteratively. The cheap recursive residual estimate
is printed next to the directly evaluated residual seminorm; with an exact
pinv(G) application the two agree to many digits, and at the termination
step the iterate is the exact solution.
"""

import numpy as np

import glskit as gk


def main():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((40, 26)) @ rng.standard_normal((26, 50))  # rank 26
    gen = gk.generate(A, "l1", "trig", seed=42)
    prob = gen.problem
    print(f"problem: A {prob.m} x {prob.n}, L = first-difference stencil, "
          f"rank(A) = 26, planted solution certified at construction")

    report = gk.glsqr_solve(prob, tol=1e-12, debug=True)
    norm = report.norm_estimate
    print(f"\nstop: {report.stop_reason} after {report.iterations} iterations "
          f"(operator norm {norm.value:.4f} = sigma_max(B_{norm.iterations}), "
          f"from the {norm.source})\n")

    print("  k   estimate      direct        ||x_k||")
    step = max(1, report.iterations // 12)
    shown = sorted(set(range(0, report.iterations, step)) | {report.iterations - 1})
    for k in shown:
        print(f"{k + 1:4d}  {report.residual_estimate_history[k]:.4e}"
              f"  {report.true_residual_history[k]:.4e}"
              f"  {report.x_norm_history[k]:.6f}")

    err = np.linalg.norm(report.x - gen.x_true) / np.linalg.norm(gen.x_true)
    print(f"\nrelative error vs planted solution: {err:.3e}")
    print("certified min-norm solution:", gk.certify_solution(prob, report))

    gk.save_history(report, "glsqr_history_demo.csv")
    print("history written to ./glsqr_history_demo.csv")


if __name__ == "__main__":
    main()

"""How inner-solver accuracy caps the outer solution accuracy.

Each bidiagonalization step applies pinv(G). When that application is
itself an inner conjugate-gradient run with relative-residual tolerance
tau, the final accuracy of the outer iteration lands on the order of tau.
The outer stopping tolerance is paired with tau, since iterating below the
inner accuracy only accumulates noise.

The second half shows the failure mode: on a badly conditioned G, an inner
iteration cap too small for cond(G) stops the inner solves before they reach
tau, the run latches a warning flag, and certification of the result fails
rather than silently returning junk.
"""

import numpy as np

import glskit as gk


def conditioned_matrix(rng, m, n, rank, cond=10.0):
    U, _ = np.linalg.qr(rng.standard_normal((m, rank)))
    V, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    return (U * np.logspace(0, -np.log10(cond), rank)) @ V.T


def main():
    rng = np.random.default_rng(61)
    A = conditioned_matrix(rng, 30, 40, rank=24)
    gen = gk.generate(A, "l1", "ramp", seed=61)
    prob = gen.problem
    print(f"problem: A {prob.m} x {prob.n}, cond(G) = {np.linalg.cond(prob.G):.1f}\n")

    print("  tau      final relative error    E/tau   iterations")
    for tau in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        strategy = gk.InnerLsqrStrategy(prob.G, tau=tau)
        report = gk.glsqr_solve(prob, strategy, tol=tau, max_iter=300)
        err = np.linalg.norm(report.x - gen.x_true) / np.linalg.norm(gen.x_true)
        print(f"  {tau:7.0e}  {err:.6e}        {err / tau:7.1f}  {report.iterations:5d}")

    exact = gk.glsqr_solve(prob, tol=1e-12)
    err = np.linalg.norm(exact.x - gen.x_true) / np.linalg.norm(gen.x_true)
    print(f"\nexact pinv(G) for reference: error {err:.3e} "
          f"after {exact.iterations} iterations ({exact.stop_reason})")

    # failure mode: raw Gaussian products give cond(G) in the thousands, and
    # 20 inner iterations (the default cap is 4n = 160) cannot deliver
    # tau = 1e-8 there
    rng = np.random.default_rng(61)
    A_hard = rng.standard_normal((30, 24)) @ rng.standard_normal((24, 40))
    gen = gk.generate(A_hard, "l1", "ramp", seed=61)
    prob = gen.problem
    strategy = gk.InnerLsqrStrategy(prob.G, tau=1e-8, max_iter=20)
    report = gk.glsqr_solve(prob, strategy, tol=1e-8, max_iter=300)
    print(f"\nhard problem (cond(G) = {np.linalg.cond(prob.G):.0f}) with tau = 1e-8"
          " and an inner cap of 20:")
    print(f"  inner iteration capped: {report.state.inner_capped}")
    print(f"  result certified:       {gk.certify_solution(prob, report)}")
    print("  -> raise the inner cap or loosen tau when the flag is set")


if __name__ == "__main__":
    main()

"""Compute a weighted pseudoinverse three independent ways and cross-check.

The problem:  min ||L x||  subject to  ||M (A x - b)|| = min.
The matrix mapping b to its minimum 2-norm solution is computed by
  * the direct formula (projector algebra on pinv(MA)),
  * the GSVD closed form of the pair {M A, L}, times M,
  * the regularized limit pinv(A'PA + delta G) A'P for shrinking delta,
and certified through the five generalized Moore-Penrose identities.
"""

import numpy as np

import glskit as gk


def main():
    rng = np.random.default_rng(0)
    m, n, p = 8, 6, 4
    A = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))  # rank 3
    L = rng.standard_normal((p, n))
    prob = gk.GlsProblem(A, None, L, rng.standard_normal(m))

    X_direct = gk.wpinv_elden(prob)
    X_gsvd = gk.wpinv_via_gsvd(gk.gsvd_pair(A, L), prob.G)
    print("direct vs gsvd closed form:",
          np.linalg.norm(X_direct - X_gsvd) / np.linalg.norm(X_direct))

    # with a weight M the GSVD route factors {M A, L} and multiplies by M
    M = np.random.default_rng(1).standard_normal((10, m))
    weighted = gk.GlsProblem(A, M, L, prob.b)
    X_w = gk.wpinv_elden(weighted)
    print("weighted (M 10 x 8), direct vs gsvd route:",
          np.linalg.norm(X_w - gk.wpinv_matrix(weighted, "gsvd")) / np.linalg.norm(X_w))

    print("\nregularized limit route, error vs delta (linear decay):")
    for delta in (1e-2, 1e-4, 1e-6):
        err = np.linalg.norm(gk.wpinv_limit(prob, delta) - X_direct)
        print(f"  delta = {delta:8.0e}   error = {err:.3e}")

    print("\ngeneralized Moore-Penrose identities for the direct route:")
    report = gk.check_gmpe(prob, X_direct, tol=1e-9)
    for i, (res, ok) in enumerate(zip(report.residuals, report.passed), start=1):
        print(f"  identity {i}: residual {res:.3e}  {'PASS' if ok else 'FAIL'}")

    print("\na perturbed candidate is rejected:")
    E = rng.standard_normal(X_direct.shape)
    E *= 1e-3 * np.linalg.norm(X_direct) / np.linalg.norm(E)
    bad = gk.check_gmpe(prob, X_direct + E, tol=1e-6)
    print("  identities passed:", sum(bad.passed), "of 5")

    x = gk.wpinv_apply(prob)
    crit = gk.check_gls_criterion(prob, x, tol=1e-9)
    print("\nminimum-norm solution certified:",
          bool(crit), "| in range of G:", crit.in_range_g)


if __name__ == "__main__":
    main()

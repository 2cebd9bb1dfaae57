"""Block anatomy of the generalized SVD of a pair {A, L}.

The invertible factor X splits into four column groups: directions seen
only by A (q1), mixed directions (q2), directions seen only by L (q3), and
the common null space (n - r). The cosine/sine blocks satisfy
C'C + S'S = I exactly, and the largest cosine is the operator norm used by
the iterative solver's stopping rule.
"""

import numpy as np

import glskit as gk


def describe(A, L, label):
    f = gk.gsvd_pair(A, L)
    print(f"{label}: r={f.r}  q1={f.q1}  q2={f.q2}  q3={f.q3}")
    c = np.diag(f.C_A)
    if c.size:
        print("  cosines:", np.array2string(c, precision=4))
    pyth = np.linalg.norm(f.C_A.T @ f.C_A + f.S_L.T @ f.S_L - np.eye(f.r))
    print(f"  ||C'C + S'S - I|| = {pyth:.2e}")
    print(f"  operator norm sigma_max(C_A) = {gk.sigma_max_ca(f):.6f}")
    X4 = f.X[:, f.r :]
    G = A.T @ A + L.T @ L
    if X4.size:
        print(f"  ||G X4|| / ||G|| = {np.linalg.norm(G @ X4) / np.linalg.norm(G):.2e}")
    print()


def main():
    describe(np.eye(3), np.zeros((1, 3)), "identity vs zero regularizer")
    describe(np.diag([2.0, 1.0]), np.eye(2), "diagonal pair")

    # a pair with a planted joint null direction (singular G)
    rng = np.random.default_rng(7)
    e = rng.standard_normal(5)
    e /= np.linalg.norm(e)
    killer = np.eye(5) - np.outer(e, e)
    describe(rng.standard_normal((6, 5)) @ killer,
             rng.standard_normal((3, 5)) @ killer,
             "planted joint null space")

    # factors can be exported as Matrix Market files + a JSON block summary
    f = gk.gsvd_pair(np.diag([2.0, 1.0]), np.eye(2))
    gk.save_factors(f, "gsvd_factors_demo")
    print("factors written to ./gsvd_factors_demo/")


if __name__ == "__main__":
    main()

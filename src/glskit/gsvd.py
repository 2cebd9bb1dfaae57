"""Generalized singular value decomposition of a matrix pair {A, L}.

The pair is factored as ``A = U_A @ Sigma_A @ inv(X)`` and
``L = U_L @ Sigma_L @ inv(X)`` with orthogonal U_A, U_L and invertible X,
where the diagonal blocks satisfy ``C_A.T @ C_A + S_L.T @ S_L = I_r`` and
``r = rank([A; L])``. Columns of X are grouped into four blocks: q1 columns
where A dominates (unit generalized singular value), q2 mixed columns, q3
columns where L dominates, and n - r columns spanning the common null space.

The construction is the classical one (Paige & Saunders, SIAM J. Numer.
Anal. 18(3), 1981): one QR of the stacked pair ``[L; A]``
(``linalg.stacked_factor``, which folds A's rows into a triangle of L, L
itself when it is upper trapezoidal and else the R of a QR of L) and one
SVD of the rows of its Q that belong to A. Of Q only the rows of its first
n columns are formed, those of A and those of L. An SVD of R is added only
when the QR cannot certify full column rank; only a wide stack, which has
a null space by its shape, is factored by an SVD of its own instead of the
QR. The first r columns of X are ``R^-1 Vhat``, or ``W diag(1/sig) Vhat``
on an SVD; both lie in R(G), G = A'A + L'L.

For a weighted problem the pair is {M A, L}: A_ML^+ = (MA)_{I,L}^+ M, so the
closed form of :func:`wpinv_via_gsvd`, applied after M, covers every M.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .linalg import FactorizationError, RankTolerance, as_matrix, stacked_factor

__all__ = [
    "GsvdFactors",
    "gsvd_pair",
    "sigma_max_ca",
    "wpinv_via_gsvd",
    "save_factors",
]

@dataclass
class GsvdFactors:
    U_A: np.ndarray  # m x m orthogonal
    U_L: np.ndarray  # p x p orthogonal
    X: np.ndarray  # n x n invertible
    C_A: np.ndarray  # m x r diagonal block
    S_L: np.ndarray  # p x r diagonal block
    r: int
    q1: int
    q2: int
    q3: int


def _complete_basis(T):
    """Orthonormal basis of R^p whose last k columns QR-orthonormalize the
    p x k near-orthonormal T, keeping column order and sign."""
    Q, R = np.linalg.qr(T, mode="complete")
    k = T.shape[1]
    signs = np.sign(np.diag(R)[:k])
    signs[signs == 0] = 1.0
    Q[:, :k] *= signs
    return np.hstack([Q[:, k:], Q[:, :k]])


def gsvd_pair(A, L, tol=None):
    """GSVD of the pair {A, L} via one QR of the stack and a CS-style split.

    The stack ``K = [L; A]`` is factored ``K = Z F`` by
    :func:`~glskit.linalg.stacked_factor` at ``tol`` (L goes first because
    the cosines that are exactly 0, those of the q3 block, then carry less
    roundoff: about half of the ``[A; L]`` order's on the C1 family of the
    tests, and none crosses the snap below): ``Z = Q[:, :n]``, ``F = R``
    when the QR certifies full column rank, else ``Z = Q[:, :n] U_R[:,
    :r]``, ``F = diag(sig) W'`` from R's SVD (K's own, with Z = ``U_R[:,
    :r]``, when K is wide), r the rank of K that the SVD of K would give,
    and N an orthonormal basis of the null space of K. Z is formed as its
    rows, ``Z_L`` and ``Z_A``.

    Z has orthonormal columns; the SVD of ``Z_A`` delivers U_A together
    with the cosine values. Sines are recovered as the column norms of
    ``Z_L @ Vhat``, whose normalized columns (placed last, after an
    orthonormal completion) form U_L. ``X = [F_pinv Vhat, N]`` (``R^-1
    Vhat`` when certified); of inv(X) only the rows ``Vhat' F`` are formed,
    those the reconstruction check reads, and they are not kept. Z's rows
    are dropped once Z_L Vhat is taken, and every other intermediate before
    the reconstruction is checked.

    Cosines within ``10 noise`` of 1 (0) are snapped into the q1 (q3)
    block so the factors carry the exact block structure, ``noise`` being
    the relative roundoff of the stack's factor
    (:class:`~glskit.linalg.StackedFactors`). The cosines are the singular
    values of Z_A, which carries that roundoff, so a rank-deficient A
    leaves no cosine of roundoff in the q2 block to be inverted.
    """
    A = as_matrix(A, "A")
    L = as_matrix(L, "L")
    if A.shape[1] != L.shape[1]:
        raise ValueError("A and L must have the same number of columns")
    if (A.shape[0] + L.shape[0]) * A.shape[1] == 0:
        raise ValueError("gsvd_pair requires a nonempty stack [A; L]")
    f, rows = _factor(A, L, tol if tol is not None else RankTolerance())
    _check_reconstruction(A, L, f, rows)
    return f


def _factor(A, L, tol):
    """The factors of :func:`gsvd_pair`, unchecked, and the r x n rows
    ``Vhat' F`` of inv(X) that the check reads; every other intermediate is
    freed on return."""
    (m, n), p = A.shape, L.shape[0]
    K = stacked_factor(L, A, tol, l_rows=True)
    Z_A, Z_L, F, F_pinv, N, snap = K.Z_B, K.Z_L, K.F, K.F_pinv, K.N, 10.0 * K.noise
    del K
    r = Z_A.shape[1]
    try:
        Ua, c_part, Vhat_t = np.linalg.svd(Z_A, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD of the stacked split failed: {exc}") from exc
    Vhat = Vhat_t.T

    c = np.zeros(r)
    c[: min(m, r)] = np.clip(c_part, 0.0, 1.0)
    q1 = int(np.count_nonzero(1.0 - c <= snap))
    q3 = int(np.count_nonzero(c <= snap))
    q2 = r - q1 - q3
    k, nz = q1 + q2, r - q1
    c[:q1] = 1.0
    C_A = np.zeros((m, r))
    C_A[np.arange(k), np.arange(k)] = c[:k]

    # Columns q1..r of Z_L @ Vhat are orthogonal with norms sqrt(1 - c_i^2);
    # normalized, they become the trailing columns of U_L after a completion.
    # The sines of the q3 block are 1 by the block definition.
    T = Z_L @ Vhat[:, q1:]
    del Z_A, Z_L
    s = np.linalg.norm(T, axis=0)
    T /= s
    U_L = _complete_basis(T)
    s[q2:] = 1.0
    S_L = np.zeros((p, r))
    S_L[np.arange(p - nz, p), np.arange(q1, r)] = s

    # the first r columns of X are F_pinv Vhat and the rest N; the first r
    # rows of inv(X) are Vhat' F
    X = np.empty((n, n))
    np.matmul(F_pinv, Vhat, out=X[:, :r])
    X[:, r:] = N
    f = GsvdFactors(U_A=Ua, U_L=U_L, X=X, C_A=C_A, S_L=S_L, r=r, q1=q1, q2=q2, q3=q3)
    return f, Vhat.T @ F


def _check_reconstruction(A, L, f, rows):
    """FactorizationError unless ``A = U_A C_A rows`` and ``L = U_L S_L
    rows`` hold to 1e-10 of ``||A|| + ||L||``, ``rows`` = Vhat' F being the
    first r rows of inv(X), read on the nonzero blocks only."""
    p = L.shape[0]
    k, nz = f.q1 + f.q2, f.r - f.q1
    c = f.C_A[np.arange(k), np.arange(k)]
    s = f.S_L[np.arange(p - nz, p), np.arange(f.q1, f.r)]
    E_A = (f.U_A[:, :k] * c) @ rows[:k]
    E_A -= A
    E_L = (f.U_L[:, p - nz :] * s) @ rows[f.q1 :]
    E_L -= L
    resid = max(np.linalg.norm(E_A), np.linalg.norm(E_L))
    scale = np.linalg.norm(A) + np.linalg.norm(L)
    if resid > 1e-10 * max(scale, 1e-300):
        raise FactorizationError(
            f"GSVD reconstruction residual {resid:.3e} exceeds tolerance", residual=resid
        )


def sigma_max_ca(f: GsvdFactors) -> float:
    """Largest diagonal entry of C_A, the norm of v -> A v from (R(G), G),
    G = A'A + L'L, to the 2-norm; for {M A, L} that of v -> M A v."""
    d = np.diag(f.C_A)
    return float(d.max()) if d.size else 0.0


def wpinv_via_gsvd(f: GsvdFactors, G) -> np.ndarray:
    """Closed-form weighted pseudoinverse of the factored pair {A, L} with
    identity weight: proj_R(G) X pinv(Sigma_A) U_A.T. For a weight M, factor
    {M A, L} and multiply the result by M on the right.

    pinv(Sigma_A) keeps only the k = q1 + q2 nonzero cosines, so the product
    is ``X[:, :k] diag(1/c) U_A[:, :k].T``; the q1 cosines are exactly 1, so
    no singular values are inverted beyond the q2 block. The projector is
    the identity on these columns, so it is not applied: ``gsvd_pair`` builds
    them as ``R^-1 Vhat`` when K = [L; A] = QR has full column rank, so that
    R(G) is all of R^n, and otherwise as ``W diag(1/sig) Vhat``, W an
    orthonormal basis of R(G). ``G`` must be the Gram matrix
    ``A.T A + L.T L`` of the factored pair; its null space is checked
    against the last n - r columns of X.
    """
    G = as_matrix(G, "G")
    n = f.X.shape[0]
    if G.shape != (n, n):
        raise ValueError(f"G must be {n} x {n}, got {G.shape}")
    X4 = f.X[:, f.r :]
    if X4.size:
        gnorm = np.linalg.norm(G)
        if gnorm and np.linalg.norm(G @ X4) > 1e-6 * gnorm * max(np.linalg.norm(X4), 1.0):
            raise ValueError("G is inconsistent with the factored pair (X4 not in its null space)")
    k = f.q1 + f.q2
    return (f.X[:, :k] / np.diag(f.C_A)[:k]) @ f.U_A[:, :k].T


def save_factors(f: GsvdFactors, directory):
    """Write the factors as Matrix Market files plus a JSON block summary."""
    from .mmio import write_matrix_market

    os.makedirs(directory, exist_ok=True)
    write_matrix_market(os.path.join(directory, "U_A.mtx"), f.U_A)
    write_matrix_market(os.path.join(directory, "U_L.mtx"), f.U_L)
    write_matrix_market(os.path.join(directory, "X.mtx"), f.X)
    write_matrix_market(os.path.join(directory, "CA.mtx"), f.C_A)
    write_matrix_market(os.path.join(directory, "SL.mtx"), f.S_L)
    sidecar = {"r": f.r, "q1": f.q1, "q2": f.q2, "q3": f.q3}
    with open(os.path.join(directory, "gsvd.json"), "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")

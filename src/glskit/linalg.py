"""Dense linear-algebra kernels shared by the rest of the package.

All routines operate on float64 numpy arrays (scipy sparse inputs are
densified on entry). Rank decisions are made explicit through
:class:`RankTolerance` so every routine that truncates singular values
documents its cutoff. Pseudoinverses and null-space bases are read off one
:class:`SvdFactors` (U thin, V square); no projector is formed here, its
users apply the singular vectors as products. The one iterative kernel,
:func:`lsqr`, solves a symmetric positive semidefinite system by conjugate
gradients and needs the operator only as a product: a dense matrix is read
through one triangle by BLAS ``symv``, while sparse matrices and callables
are kept as given. With a dense matrix its loop allocates nothing per
iteration: dot products go through BLAS ``ddot`` and the updates through
one preallocated buffer. It may be preconditioned by an upper banded
Cholesky factor in LAPACK ``pbtrf`` layout, applied by ``dpbtrs`` into a
preallocated buffer; the stop test stays on the unpreconditioned residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.blas import ddot, dscal, dsymv
from scipy.linalg.lapack import dpbtrs

EPS = float(np.finfo(np.float64).eps)

__all__ = [
    "EPS",
    "FactorizationError",
    "IndefiniteMatrixError",
    "RankTolerance",
    "SvdFactors",
    "LsqrResult",
    "as_matrix",
    "as_vector",
    "svd",
    "pinv",
    "cholesky_spd",
    "lsqr",
]


class FactorizationError(RuntimeError):
    """A factorization did not converge or failed its residual check."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class IndefiniteMatrixError(RuntimeError):
    """A matrix required to be SPD (or PSD) turned out not to be."""

    def __init__(self, message, pivot=None, index=None):
        super().__init__(message)
        self.pivot = pivot
        self.index = index


def as_matrix(a, name="matrix"):
    """Coerce ``a`` to a finite float64 2-D array. Accepts scipy sparse."""
    if hasattr(a, "toarray"):
        a = a.toarray()
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def as_vector(v, length=None, name="vector"):
    """Coerce ``v`` to a finite float64 1-D array, optionally of fixed length."""
    if hasattr(v, "toarray"):
        v = v.toarray()
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if length is not None and v.size != length:
        raise ValueError(f"{name} must have length {length}, got {v.size}")
    if v.size and not np.isfinite(v).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return v


@dataclass(frozen=True)
class RankTolerance:
    """Cutoff rule for numerical rank decisions.

    ``relative`` mode uses ``value * sigma_max`` with ``value`` defaulting to
    ``max(m, n) * eps``; ``absolute`` mode uses ``value`` directly.
    """

    mode: str = "relative"
    value: float | None = None

    def __post_init__(self):
        if self.mode not in ("relative", "absolute"):
            raise ValueError(f"unknown rank tolerance mode {self.mode!r}")
        if self.mode == "absolute" and self.value is None:
            raise ValueError("absolute rank tolerance needs an explicit value")
        if self.value is not None and not self.value > 0:
            raise ValueError("rank tolerance value must be positive")

    def cutoff(self, shape, sigma_max):
        if self.mode == "absolute":
            return float(self.value)
        rel = self.value if self.value is not None else max(shape) * EPS
        return float(rel * sigma_max)


@dataclass
class SvdFactors:
    """SVD ``A = U @ Sigma @ V.T`` plus the numerical rank of A.

    ``V`` is n x n, so :meth:`nullspace` can read N(A) off it; ``U`` is
    m x min(m, n), so a tall A costs no m x m factor. The derived
    operations keep the leading ``rank`` singular triplets; :meth:`ranked`
    re-decides the rank under another tolerance without refactoring, so one
    SVD serves every caller's cutoff.
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray
    rank: int

    def ranked(self, tol=None):
        """These factors, sharing their arrays, with the rank decided by
        ``tol`` (None: the default :class:`RankTolerance`)."""
        tol = tol if tol is not None else RankTolerance()
        s = self.singular_values
        cutoff = tol.cutoff((self.U.shape[0], self.V.shape[0]), float(s[0]))
        return replace(self, rank=int(np.count_nonzero(s > cutoff)))

    def pinv(self):
        """Moore-Penrose pseudoinverse with the trailing singular values zeroed."""
        r = self.rank
        return (self.V[:, :r] / self.singular_values[:r]) @ self.U[:, :r].T

    def nullspace(self):
        """Orthonormal basis of the null space of A, an n x (n - rank) view of V."""
        return self.V[:, self.rank :]


def svd(A, tol=None):
    """SVD with an explicit numerical-rank decision.

    Only a wide A gets full factors, to keep V square. The factors are
    read-only, because callers may share them. Raises
    :class:`FactorizationError` if the underlying iteration fails to
    converge.
    """
    A = as_matrix(A, "A")
    if A.size == 0:
        raise ValueError("svd requires a nonempty matrix")
    try:
        U, s, Vt = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD did not converge: {exc}") from exc
    for factor in (U, s, Vt):
        factor.flags.writeable = False
    return SvdFactors(U=U, singular_values=s, V=Vt.T, rank=s.size).ranked(tol)


def pinv(A, tol=None):
    """Moore-Penrose pseudoinverse with singular values <= cutoff zeroed."""
    A = as_matrix(A, "A")
    if A.size == 0:
        return np.zeros((A.shape[1], A.shape[0]))
    return svd(A, tol).pinv()


def check_symmetric(G):
    """``G`` as a float64 array; ValueError unless it is square and
    ``||G - G'|| <= 1e-10 ||G||`` (Frobenius)."""
    G = as_matrix(G, "G")
    if G.shape[0] != G.shape[1]:
        raise ValueError(f"G must be square, got shape {G.shape}")
    scale = np.linalg.norm(G)
    if scale and np.linalg.norm(G - G.T) > 1e-10 * scale:
        raise ValueError("G is not symmetric")
    return G


def cholesky_spd(G):
    """Lower-triangular C with ``C @ C.T == G`` for SPD ``G`` (LAPACK potrf).

    A failed factorization, or a pivot ``C[j, j]**2`` at or below
    ``1e-14 * max(diag(G))``, raises :class:`IndefiniteMatrixError`. No
    package code calls it: ``CholeskyStrategy`` applies the same pivot rule
    to the R of the problem's QR of ``[MA; L; N_G']``, which is the
    Cholesky factor of ``G`` when G is nonsingular.
    """
    G = check_symmetric(G)
    G = 0.5 * (G + G.T)
    try:
        C = scipy.linalg.cholesky(G, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteMatrixError(f"G is not positive definite: {exc}") from exc
    threshold = 1e-14 * max(float(G.diagonal().max(initial=0.0)), 0.0)
    pivots = C.diagonal() ** 2
    small = np.flatnonzero(pivots <= threshold)
    if small.size:
        j = int(small[0])
        raise IndefiniteMatrixError(
            f"nonpositive pivot {pivots[j]:.3e} at column {j}", pivot=float(pivots[j]), index=j
        )
    return C


@dataclass
class LsqrResult:
    x: np.ndarray
    iterations: int
    converged: bool
    relative_residual: float


def _symmetric_product(G, n):
    """``v -> G v`` for :func:`lsqr`, G symmetric.

    A dense G is read through one triangle by BLAS ``symv``, which wants a
    Fortran-ordered operand: a C-ordered G passes as its transpose, equal
    to G by symmetry, and any other layout is copied once here. The dense
    product writes into one buffer, overwritten by the next call. Sparse
    and callable G are applied as given.
    """
    if callable(G):
        return lambda v: np.asarray(G(v), dtype=np.float64)
    if scipy.sparse.issparse(G):
        return lambda v: np.asarray(G @ v, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    if G.shape != (n, n):
        raise ValueError(f"G must have shape ({n}, {n}), got {G.shape}")
    a = G if G.flags.f_contiguous else G.T if G.flags.c_contiguous else np.asfortranarray(G)
    gv = np.empty(n)
    # positional (beta, y, offx, incx, offy, incy, lower, overwrite_y):
    # keyword parsing in the f2py wrapper costs about 15% of the product at
    # n = 220
    return lambda v: dsymv(1.0, a, v, 0.0, gv, 0, 1, 0, 1, 0, 1)


def _preconditioned(factor, r, z):
    """``z = P^-1 r`` in place by LAPACK ``pbtrs``, P given by its upper
    banded Cholesky ``factor``; returns ``r'z``."""
    np.copyto(z, r)
    # positional (lower, ldab, overwrite_b): z is solved in place
    dpbtrs(factor, z, 0, factor.shape[0], 1)
    return ddot(r, z)


def lsqr(G, rhs, tau=1e-12, max_iter=None, precond=None):
    """Conjugate gradients for ``G s = rhs``, G symmetric positive semidefinite.

    Precondition: ``rhs`` lies in R(G). ``G`` may be a dense array, a scipy
    sparse matrix, or a callable implementing the matrix-vector product. A
    dense G must be symmetric: BLAS ``symv`` reads one triangle of it and
    never looks at the other.
    Iteration starts from zero, so the iterates stay in R(G) and the result
    is the minimum 2-norm solution. It stops once the recursive residual
    satisfies ``||r_k|| <= tau ||rhs||``, for ``tau > 0``; the rate is set
    by cond(G)^(1/2) (the Krylov space of G, not of G^2). Hitting
    ``max_iter``, or a curvature ``d'Gd <= 0`` (G not positive definite on
    the search direction), is reported through ``converged=False``, not an
    error. ``rhs`` is not modified.

    ``precond``, if given, is the upper Cholesky factor of an SPD matrix P
    in LAPACK banded layout (``scipy.linalg.cholesky_banded``), and the
    loop is preconditioned CG (Saad, *Iterative Methods for Sparse Linear
    Systems*, 2nd ed., 2003, Alg. 9.1): the rate is then set by the
    spectrum of P^-1 G. The stop test is unchanged, on the residual of
    ``G s = rhs`` itself, so ``tau`` keeps its meaning. The iterates lie in
    the span of ``(P^-1 G)^j P^-1 rhs``, which stays in R(G), and so keeps
    the result minimum-norm, when P maps N(G) into itself (as ``P = L'L +
    cI`` does for ``G = (MA)'MA + L'L``); for another P it may not.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    rhs = as_vector(rhs, name="rhs")
    n = rhs.size
    matvec = _symmetric_product(G, n)
    if max_iter is None:
        max_iter = 4 * n
    if precond is not None and precond.shape[1:] != (n,):
        raise ValueError(f"precond must have {n} columns, got shape {precond.shape}")

    x = np.zeros(n)
    beta1 = float(np.linalg.norm(rhs))
    if beta1 == 0.0:
        return LsqrResult(x=x, iterations=0, converged=True, relative_residual=0.0)
    r = rhs.copy()
    rr = beta1 * beta1
    if precond is None:
        # z = P^-1 r is r itself, and z'r is r'r
        z, rz = r, rr
    else:
        z = np.empty(n)
        rz = _preconditioned(precond, r, z)
    d = z.copy()
    # a * d, then a * gd: each update rounds the product, then the sum
    step = np.empty(n)
    stop = (tau * beta1) ** 2

    iterations = 0
    converged = False
    while iterations < max_iter:
        iterations += 1
        gd = matvec(d)
        curvature = ddot(d, gd)
        if not curvature > 0.0:
            break
        a = rz / curvature
        x += np.multiply(d, a, out=step)
        r -= np.multiply(gd, a, out=step)
        rr = ddot(r, r)
        if rr <= stop:
            converged = True
            break
        rz_old, rz = rz, rr if precond is None else _preconditioned(precond, r, z)
        dscal(rz / rz_old, d)  # in place, the rounding of d *= rz / rz_old
        d += z

    if converged:
        relres = math.sqrt(rr) / beta1
    else:
        # after stagnation the recursive residual under-reports; callers
        # that stop unconverged get the directly evaluated value
        relres = float(np.linalg.norm(matvec(x) - rhs)) / beta1

    return LsqrResult(x=x, iterations=iterations, converged=converged, relative_residual=relres)

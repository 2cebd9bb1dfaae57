"""Dense linear-algebra kernels shared by the rest of the package.

All routines operate on float64 numpy arrays. A scipy sparse matrix is
densified on entry by :func:`as_matrix`; :func:`stacked_factor` reads a
sparse top block's entries where it stages them, and :func:`lsqr` applies
a sparse operator as given. Rank decisions are made explicit through
:class:`RankTolerance` so every routine that truncates singular values
documents its cutoff. Pseudoinverses and null-space bases are read off the
one factor that :func:`ranked_factor` makes from a Householder QR of the
matrix's tall side: a :class:`QrFactors` when the QR certifies full rank,
which keeps its reflectors and forms only the columns of Q that are read,
else the :class:`SvdFactors` (U thin, V square) built from the SVD of its
R. No factor keeps a reference to its matrix. A stack ``[L; B]`` is
factored around a triangle of L, into which B's rows are folded
(:func:`stacked_factor`), and only the rows of its Q that a caller reads
are formed; :func:`gdag_factors` makes that factor and factors its rows of
B once more, by a QR of their transpose, into the triangle that dense gGKB
runs on. No projector is formed here, its users apply the factors as
products. The one iterative kernel, :func:`lsqr`, solves a symmetric
positive semidefinite system by conjugate gradients and needs the operator
only as a product: a dense matrix is read through one triangle by BLAS
``symv``, while sparse matrices and callables are kept as given. With a
dense matrix its loop allocates nothing per iteration: dot products go
through BLAS ``ddot``, and each update of the iterate, the residual and
(preconditioned) the direction is one in-place BLAS ``daxpy``. It may be
preconditioned by an upper banded Cholesky factor in LAPACK ``pbtrf``
layout, solved in place in a preallocated buffer: by LAPACK ``pttrs`` on
its LDL' form when the band is tridiagonal or diagonal, else by ``pbtrs``.
The stop test stays on the unpreconditioned residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.blas import daxpy, ddot, dnrm2, dscal, dsymv, dtrmm, dtrmv
from scipy.linalg.lapack import dormqr, dpbtrs, dpttrs, dtpmqrt, dtpqrt, dtrtri

EPS = float(np.finfo(np.float64).eps)

__all__ = [
    "EPS",
    "FactorizationError",
    "IndefiniteMatrixError",
    "RankTolerance",
    "SvdFactors",
    "QrFactors",
    "StackedFactors",
    "GdagFactors",
    "LsqrResult",
    "as_matrix",
    "as_vector",
    "svd",
    "ranked_factor",
    "stacked_factor",
    "gdag_factors",
    "norm_product",
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
        if self.value is not None:
            check_tolerance(self.value, "rank tolerance value")

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
        cutoff = tol.cutoff((self.U.shape[0], self.V.shape[0]), float(s.max(initial=0.0)))
        return replace(self, rank=int(np.count_nonzero(s > cutoff)))

    def pinv(self):
        """Moore-Penrose pseudoinverse with the trailing singular values zeroed."""
        r = self.rank
        return (self.V[:, :r] / self.singular_values[:r]) @ self.U[:, :r].T

    def nullspace(self):
        """Orthonormal basis of the null space of A, an n x (n - rank) view of V."""
        return self.V[:, self.rank :]

    def nullspace_norm(self, y):
        """``||N' y||``, N = :meth:`nullspace`."""
        return float(np.linalg.norm(self.nullspace().T @ y))

    def range_basis(self):
        """Orthonormal basis of the range of A, an m x rank view of U."""
        return self.U[:, : self.rank]


def svd(A, tol=None):
    """SVD with an explicit numerical-rank decision.

    Only a wide A gets full factors, to keep V square. An empty A has rank
    0, no singular values and V = I. The factors are read-only, because
    callers may share them. Raises :class:`FactorizationError` if the
    underlying iteration fails to converge.
    """
    A = as_matrix(A, "A")
    m, n = A.shape
    if A.size == 0:
        U, s, Vt = np.eye(m, min(m, n)), np.zeros(0), np.eye(n)
    else:
        try:
            U, s, Vt = np.linalg.svd(A, full_matrices=m < n)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(f"SVD did not converge: {exc}") from exc
    for factor in (U, s, Vt):
        factor.flags.writeable = False
    return SvdFactors(U=U, singular_values=s, V=Vt.T, rank=s.size).ranked(tol)


def _certified_inverse(R, cutoff):
    """R^-1 (LAPACK ``trtri``) if it certifies full column rank, else None.

    ``1 / ||R^-1||_F <= sigma_min(R)``, so full rank holds when that bound
    exceeds ``cutoff``, R square. A singular R (``trtri`` reports a zero
    pivot) or a nearly singular one (an inverse too large, or overflowed)
    fails without an exception or a warning.
    """
    R_inv, info = dtrtri(R)
    return R_inv if info == 0 and _certifies(R_inv, cutoff) else None


def _certifies(R_inv, cutoff):
    """Whether ``1 / ||R^-1||_F`` exceeds ``cutoff``; an overflowed inverse
    has an inf or NaN norm, and fails without a warning."""
    return norm_product(R_inv, scale=cutoff) < 1.0


def norm_product(*factors, scale=1.0):
    """``scale`` times the product of the Frobenius norms of ``factors``
    (dense, or scipy sparse with no duplicate entries). It is inf, or 0
    with no zero factor, only when the product itself leaves the double
    range.

    Each norm is BLAS ``dnrm2`` of the entries, which scales its sum of
    squares: it is finite for every finite factor, where the unscaled sum
    in ``np.linalg.norm`` overflows once the norm passes about 1.3e154.
    The product multiplies the norms' mantissas and adds their exponents
    (``math.frexp``), so no partial product overflows or underflows.
    """
    mantissa, exponent = math.frexp(scale)
    for f in factors:
        entries = f.data if scipy.sparse.issparse(f) else np.asarray(f).ravel(order="K")
        m, e = math.frexp(float(dnrm2(entries)) if entries.size else 0.0)
        mantissa, exponent = mantissa * m, exponent + e
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.inf


def _apply_reflectors(reflectors, tau, C, trans="N"):
    """``Q C`` (``trans="T"``: ``Q' C``) by LAPACK ``ormqr``, Q given by the
    Householder ``reflectors`` and ``tau`` of a raw QR, in the array of C, a
    fresh Fortran-ordered matrix with as many rows as Q."""
    # one column gets the minimum workspace, so the reflectors are
    # applied one at a time: forming their blocks costs more than that
    args = ("L", trans, reflectors[:, : tau.size], tau, C)
    # the workspace query too is told it may overwrite C, or f2py copies it
    lwork = 1 if C.shape[1] == 1 else int(dormqr(*args, -1, overwrite_c=1)[1][0])
    QC, _, info = dormqr(*args, lwork, overwrite_c=1)
    if info != 0:
        raise FactorizationError(f"ormqr failed with info {info}")
    return QC


@dataclass(frozen=True)
class QrFactors:
    """A full-rank A from one Householder QR of its tall side, ``r = min(m, n)``.

    A wide A (m < n) is factored as ``A' = Q R`` with Q n x n orthogonal,
    any other A as ``A = Q R`` with Q m x m. Q is kept as LAPACK ``geqrf``
    leaves it, its Householder vectors (``reflectors``, rows x r, with R in
    their upper triangle) and ``tau``, and is never formed whole: the
    columns a caller reads are formed by applying the reflectors to a
    matrix (LAPACK ``ormqr``), not by ``orgqr`` (Bjorck, *Numerical Methods
    for Least Squares Problems*, 1996, 2.4; Golub and Van Loan, *Matrix
    Computations*, 4th ed., 5.1.6). ``R_inv = R^-1`` (r x r) certified full
    rank: ``1 / ||R^-1||_F``, a lower bound on sigma_min(A), exceeded the
    rank cutoff computed with ``||A||_F = ||R||_F``, an upper bound on
    sigma_max(A), so an SVD ranks A at r too (Bjorck, 1.3 and 2.2). Then
    N(A) is ``Q[:, r:]`` (empty unless A is wide), formed on first read and
    cached; :meth:`nullspace_norm` reads ``||N' y||`` off ``Q' y`` with no
    basis formed; R(A) is R^m for a wide A and ``Q[:, :r]`` otherwise;
    pinv(A) is ``Q[:, :r] R^-T`` (formed as ``Q [R^-T; 0]``) or ``R^-1
    Q[:, :r]'``. It reads like :class:`SvdFactors`, and keeps no reference
    to A: :meth:`ranked` reads R off the reflectors. The arrays are
    read-only.
    """

    reflectors: np.ndarray
    tau: np.ndarray
    R_inv: np.ndarray
    wide: bool

    @property
    def rank(self):
        return self.R_inv.shape[0]

    def ranked(self, tol=None):
        """These factors if the certificate clears the cutoff of ``tol``
        (None: the default :class:`RankTolerance`), else the SVD of A,
        ranked by ``tol``, from the SVD of R (:func:`ranked_factor`)."""
        tol = tol if tol is not None else RankTolerance()
        R = np.triu(self.reflectors[: self.rank])
        # the reflectors are A's shape or its transpose's, and the cutoff
        # reads only the larger dimension
        if _certifies(self.R_inv, tol.cutoff(self.reflectors.shape, norm_product(R))):
            return self
        return _svd_of_r(self.reflectors, self.tau, R, self.wide, tol)

    def _q_columns(self, first, count):
        """``Q[:, first:first + count]``, formed from the reflectors."""
        C = np.eye(self.reflectors.shape[0], count, -first, order="F")
        return _apply_reflectors(self.reflectors, self.tau, C)

    def pinv(self):
        """Moore-Penrose pseudoinverse: ``Q[:, :r] R^-T``, formed as ``Q
        [R^-T; 0]``, when A is wide, else ``R^-1 Q[:, :r]'`` with the thin
        Q formed for the call."""
        r = self.rank
        if not self.wide:
            return self.R_inv @ self._q_columns(0, r).T
        return _q_times(self.reflectors, self.tau, self.R_inv.T)

    def nullspace(self):
        """Orthonormal basis of the null space of A: ``Q[:, r:]``, n x (n - r)
        and cached, when A is wide, else ``R_inv[:, :0]``."""
        return self._nullspace if self.wide else self.R_inv[:, :0]

    @cached_property
    def _nullspace(self):
        rows, r = self.reflectors.shape
        N = self._q_columns(r, rows - r)
        N.flags.writeable = False
        return N

    def nullspace_norm(self, y):
        """``||N' y||``, N = :meth:`nullspace`: the norm of the trailing
        n - r entries of ``Q' y``, so no basis is formed."""
        if not self.wide:
            return 0.0
        y = np.array(y, dtype=np.float64).reshape(-1, 1)
        Qty = _apply_reflectors(self.reflectors, self.tau, y, "T")
        return float(np.linalg.norm(Qty[self.rank :]))

    def range_basis(self):
        """Orthonormal basis of the range of A: I_m when A is wide, else
        ``Q[:, :r]``, formed on each call."""
        return np.eye(self.rank) if self.wide else self._q_columns(0, self.rank)


def _staged(block, rows):
    """A fresh zeroed Fortran-ordered ``rows x n`` array whose leading rows
    hold ``block`` (dense, or scipy sparse with no duplicate entries)."""
    staged = np.zeros((rows, block.shape[1]), order="F")
    if scipy.sparse.issparse(block):
        entries = block.tocoo()
        staged[entries.row, entries.col] = entries.data
    else:
        staged[: block.shape[0]] = block
    return staged


def _q_times(reflectors, tau, T):
    """``Q [T; 0]``, Q given by the Householder ``reflectors`` and ``tau``
    of a raw QR, for a block T (as :func:`_staged` takes it) of at most as
    many rows as Q, in a fresh Fortran-ordered array."""
    C = _staged(T, reflectors.shape[0])
    return _apply_reflectors(reflectors, tau, C) if tau.size else C


def _householder_qr(K):
    """The raw Householder QR of K, a fresh Fortran-ordered array that it
    overwrites: ``((reflectors, tau), R)``, as LAPACK ``geqrf`` leaves it."""
    return scipy.linalg.qr(K, mode="raw", overwrite_a=True, check_finite=False)


def _svd_of_r(reflectors, tau, R, wide, tol):
    """The :class:`SvdFactors` of A, ranked by ``tol``, from the SVD ``R =
    U_R diag(sig) V_R'`` of the R of its QR (Q given by ``reflectors`` and
    ``tau``): ``U = Q [U_R; 0]`` and ``V = V_R`` for a tall A; for a wide
    A, ``A = R' Q'``, so ``U = V_R`` and ``V = Q diag(U_R, I)``, square."""
    rows, r = reflectors.shape
    rf = svd(R)
    C = np.eye(rows, rows if wide else r, order="F")
    C[:r, :r] = rf.U
    QU = _apply_reflectors(reflectors, tau, C)
    QU.flags.writeable = False
    U, V = (rf.V, QU) if wide else (QU, rf.V)
    return SvdFactors(U=U, singular_values=rf.singular_values, V=V, rank=r).ranked(tol)


def ranked_factor(A, tol=None):
    """A factor of A with the rank that ``tol`` (default
    :class:`RankTolerance`) decides: :class:`QrFactors` when the QR of A's
    tall side certifies full rank, else :class:`SvdFactors`.

    A' (when A is wide) or A is staged in a fresh Fortran-ordered array,
    rows x r, which one raw Householder QR overwrites with its reflectors.
    The cutoff is the one ``tol`` gives at A's shape with ``||A||_F``
    (:func:`norm_product`, finite for a finite A) for sigma_max. When
    ``1 / ||R^-1||_F`` clears it, no column of Q is formed here. Otherwise
    the SVD of the r x r R, with Q applied to its singular vectors, gives
    the SVD of A, ranked at the same cutoff with its own sigma_max, so r is
    the rank :func:`svd` of A gives, and the QR's arrays are freed on
    return. An empty A is ranked at 0 by :func:`svd`.
    """
    A = as_matrix(A, "A")
    m, n = A.shape
    if A.size == 0:
        return svd(A, tol)
    wide = m < n
    (reflectors, tau), R = _householder_qr(_staged(A.T if wide else A, max(m, n)))
    tol = tol if tol is not None else RankTolerance()
    R_inv = _certified_inverse(R, tol.cutoff(A.shape, norm_product(A)))
    if R_inv is None:
        return _svd_of_r(reflectors, tau, R, wide, tol)
    for factor in (reflectors, tau, R_inv):
        factor.flags.writeable = False
    return QrFactors(reflectors, tau, R_inv, wide)


@dataclass(frozen=True)
class StackedFactors:
    """``K = Z F`` for the stack ``K = [L; B]`` (:func:`stacked_factor`).

    Z has r = rank K orthonormal columns and is kept only as its rows:
    ``Z_B`` (q x r), those of B, and ``Z_L`` (p x r), those of L, or None
    when the caller did not ask for them. F is r x n with pseudoinverse
    ``F_pinv`` and ``N`` an orthonormal basis of N(K). When ``certified``,
    the QR ``K = Q [R; 0]`` proved full column rank: Z is ``Q[:, :n]``, F
    is R and ``F_pinv`` R^-1, both upper triangular. Otherwise an SVD
    ``U_R diag(sig) V_R'`` of R (of K itself when K is wide) ranked K: Z is
    ``Q[:, :n] U_R[:, :r]`` (``U_R[:, :r]``), F ``diag(sig) W'`` and
    ``F_pinv`` ``W diag(1/sig)``, ``W = V_R[:, :r]``, and N is ``V_R[:,
    r:]``. Either way G = K'K = F'F, and B' = F' Z_B', so pinv(G) B' =
    F_pinv Z_B', with columns in R(F') = R(G), at cond(K), not at the
    cond(K)^2 of a factorization of the formed G (Bjorck, *Numerical
    Methods for Least Squares Problems*, 1996, 2.2). :func:`gdag_factors`
    keeps that product as the map of coordinates that dense gGKB binds.

    ``noise``, ``max(1e-12, 4 eps ||F||_F ||F_pinv||_F)``, is the relative
    roundoff of the factor: ``||F||_F ||F_pinv||_F`` bounds cond(K) from
    above with the norms of what the factor holds. Every decision about the
    stack treats a value within ``10 noise`` as roundoff: the GSVD's snap
    of its cosines to 0 or 1, and gGKB's cutoffs on its coefficients.
    """

    Z_L: np.ndarray | None
    Z_B: np.ndarray
    F: np.ndarray
    F_pinv: np.ndarray
    N: np.ndarray
    certified: bool

    noise = property(lambda self: max(1e-12, norm_product(self.F, self.F_pinv, scale=4.0 * EPS)))


def _triangle_product(R, x, trans):
    """``R x`` (``trans=1``: ``R' x``) in a fresh array: BLAS ``trmv`` when
    R is a nonempty C-ordered upper triangle, read as its transpose, a
    Fortran-ordered lower one; else a product."""
    if R.shape[0] != R.shape[1] or not R.size:
        return R.T @ x if trans else R @ x
    # positional (offx, incx, lower, trans): keyword parsing in the f2py
    # wrapper is a visible share of a product this small
    return dtrmv(R.T, x, 0, 1, 1, 1 - trans)


@dataclass(frozen=True)
class GdagFactors:
    """pinv(G) B' = F_pinv Z_B' of ``K = [L; B] = Z F`` (a
    :class:`StackedFactors`), with Z_B' factored as ``Z_B' = Q [R; 0]`` by
    one Householder QR (:func:`gdag_factors`).

    Q (r x r) is kept as the ``reflectors`` (r x q) and ``tau`` of that
    QR, never formed, and R, C-ordered, is q x q upper triangular when q
    <= r, else r x q upper trapezoidal; d = min(r, q) is its number of
    rows. ``F_pinv``, ``certified`` and the scalar ``noise`` are the
    stack's; F, Z_B and N are not kept. Z_B' = Q_1 R, Q_1 = ``Q[:, :d]``,
    so pinv(G) B' = F_pinv Q_1 R.

    The factor is the map of coordinates that dense gGKB binds, with B =
    MA (:mod:`glskit.ggkb`): in the coordinates ``t = Q_1' F s`` of R(G)
    (s = F_pinv Q_1 t), the G-norm of s is ``||t||``, B s is ``R' t`` and
    pinv(G) B' u has the coordinates ``R u``. gGKB there is the plain
    Golub-Kahan process of R', as of Z_B, whose coefficients an orthogonal
    change of coordinates leaves as they are (Paige & Saunders, ACM TOMS
    8(1), 1982), on d x q entries in place of q x r. The map is ``dim`` =
    d, :meth:`image` and :meth:`to_x`; :meth:`apply` gives ``R u``.
    """

    reflectors: np.ndarray
    tau: np.ndarray
    R: np.ndarray
    F_pinv: np.ndarray
    certified: bool
    noise: float

    @property
    def dim(self):
        """d = min(r, q), the dimension of the coordinates."""
        return self.R.shape[0]

    def apply(self, u):
        """``R u``, the coordinates of pinv(G) B' u = F_pinv Q_1 R u."""
        return _triangle_product(self.R, u, 0)

    def image(self, t):
        """``(B s, ||s||_G)`` for the coordinates t = ``t`` of s: ``R' t``
        and ``||t||``."""
        return _triangle_product(self.R, t, 1), math.sqrt(float(t @ t))

    def to_x(self, S):
        """``F_pinv Q [S; 0]`` for a d x k block S of coordinates: LAPACK
        ``ormqr``, then one BLAS ``trmm`` when certified, else one
        product."""
        C = _q_times(self.reflectors, self.tau, S)
        if self.certified:
            return dtrmm(1.0, self.F_pinv, C, overwrite_b=1)
        return self.F_pinv @ C


def gdag_factors(L, B):
    """The :class:`GdagFactors` of ``K = [L; B]``, L and B as
    :func:`stacked_factor` takes them, which factors K.

    Z_B' is staged in a fresh Fortran-ordered array, and the stack's Z_B,
    F and N are dropped before one raw Householder QR overwrites it, so
    the QR runs beside no other copy of Z_B and no n x n F. The QR's R is
    kept as it is returned, C-ordered, so no copy of it is made. The
    arrays are read-only, as callers may share them.
    """
    stack = stacked_factor(L, B)
    Z_Bt = np.array(stack.Z_B.T, order="F")
    F_pinv, certified, noise = stack.F_pinv, stack.certified, stack.noise
    del stack
    (reflectors, tau), R = _householder_qr(Z_Bt)
    R = np.ascontiguousarray(R)
    for factor in (reflectors, tau, R, F_pinv):
        factor.flags.writeable = False
    return GdagFactors(reflectors, tau, R, F_pinv, certified, noise)


# reflectors per block of LAPACK tpqrt and tpmqrt
_FOLD_BLOCK = 32


def _upper_trapezoidal(block):
    """Whether ``block`` has no nonzero entry below its diagonal."""
    if scipy.sparse.issparse(block):
        entries = block.tocoo()
        return not np.any((entries.row > entries.col) & (entries.data != 0))
    return not np.tril(block, -1).any()


def _fold_rows(V, T, top_rows):
    """The rows of ``Q[:, :n]``, Q from LAPACK ``tpqrt`` (reflectors ``V``,
    q x n, and block factors ``T``), as (its first ``top_rows`` triangle
    rows, its q rows of B).

    ``Q [I_n; 0]`` is formed by ``tpmqrt``, one reflector block at a time
    from the last: block j leaves the columns before its first one as they
    are, so it is applied to the columns from there on only, and the
    triangle's rows it reaches are its own, which no earlier block touches.
    """
    q, n = V.shape
    bottom = np.zeros((q, n), order="F")
    if q == 0:  # Q is the identity, and tpmqrt refuses an empty B
        return np.eye(top_rows, n, order="F"), bottom
    top = np.zeros((top_rows, n), order="F")
    for j0 in reversed(range(0, n, _FOLD_BLOCK)):
        j1 = min(j0 + _FOLD_BLOCK, n)
        # a column range of a Fortran array is contiguous, so tpmqrt
        # overwrites those columns of bottom in place
        slab, _, info = dtpmqrt(
            0, V[:, j0:j1], T[: j1 - j0, j0:j1], np.eye(j1 - j0, n - j0, order="F"),
            bottom[:, j0:], overwrite_a=1, overwrite_b=1,
        )
        if info != 0:
            raise FactorizationError(f"tpmqrt failed with info {info}")
        kept = max(min(j1, top_rows) - j0, 0)
        top[j0 : j0 + kept, j0:] = slab[:kept]
    return top, bottom


def _ranked(rf, shape, tol):
    """``(U_r, diag(sig) W', W diag(1/sig), V[:, r:])``, ``W = V[:, :r]``,
    from the SVD ``rf``, r its rank at the cutoff of ``tol`` at ``shape``."""
    sig = rf.singular_values
    r = int(np.count_nonzero(sig > tol.cutoff(shape, float(sig.max(initial=0.0)))))
    sig, W = sig[:r], rf.V[:, :r]
    return rf.U[:, :r], sig[:, None] * W.T, W / sig, rf.V[:, r:]


def stacked_factor(L, B, tol=None, l_rows=False):
    """:class:`StackedFactors` of ``K = [L; B]``, L p x n (dense, or scipy
    sparse with no duplicate entries) and B q x n dense.

    The QR of K starts from a triangle R0 of L and folds B's rows into it
    (Elden, *BIT* 17, 1977). R0 is L itself, padded with zero rows, when L
    is upper trapezoidal with at most n rows, as a difference stencil or
    the identity is; otherwise it is the R of one raw QR of L, ``L = Q_L
    [R0; 0]``, the Householder QR that :func:`ranked_factor` makes. LAPACK
    ``tpqrt`` then folds B into R0, ``[R0; B] = Q [R; 0]``, at O(q n^2)
    flops, not the O((p + q) n^2) of a QR of the staged stack (Demmel,
    Grigori, Hoemmen and Langou, *SIAM J. Sci. Comput.* 34(1), 2012). Q is
    never formed whole: ``tpmqrt`` forms the rows of ``Q[:, :n]`` that
    belong to B, and with ``l_rows`` those of L, applying ``Q_L`` to them
    when L was factored.

    When ``1 / ||R^-1||_F``, a lower bound on sigma_min(K), exceeds the
    rank cutoff that ``tol`` (default :class:`RankTolerance`) gives at K's
    shape with ``||K||_F`` (the blocks' norms by :func:`norm_product`) for
    sigma_max, the QR has certified full column rank. Otherwise (a null
    space, or sigma_min near the cutoff) R's SVD is ranked at that cutoff
    with its own sigma_max, so r is the rank the SVD of K would give. A
    wide K (p + q < n) has a null space by its shape: it is staged and its
    own SVD ranks it, with no QR; a K with no rows has r = 0, so Z_B is 0
    x 0, F_pinv n x 0 and N = I.
    """
    (p, n), q = L.shape, B.shape[0]
    tol = tol if tol is not None else RankTolerance()
    if p + q < n:
        # a wide stack has a null space, so no certificate can pass: the
        # SVD of K ranks it at once, as R's would after a QR whose n x n R
        # costs O(n^3) to factor
        K = _staged(L, p + q)
        K[p:] = B
        U, F, F_pinv, N = _ranked(svd(K), K.shape, tol)
        Z_L = U[:p] if l_rows else None
        return StackedFactors(Z_L, U[p:], F, F_pinv, N, certified=False)
    Q_L = None
    if p <= n and _upper_trapezoidal(L):
        R0 = _staged(L, n)
    else:
        Q_L, R_L = _householder_qr(_staged(L, p))
        R0 = _staged(R_L, n)
    R, V, T, info = dtpqrt(
        0, min(_FOLD_BLOCK, n), R0, np.array(B, order="F"), overwrite_a=1, overwrite_b=1
    )
    if info != 0:
        raise FactorizationError(f"tpqrt failed with info {info}")
    k_norm = math.hypot(norm_product(L), norm_product(B))
    R_inv = _certified_inverse(R, tol.cutoff((p + q, n), k_norm))
    top, Z_B = _fold_rows(V, T, min(p, n) if l_rows else 0)
    del V, T
    if R_inv is not None:
        F, F_pinv, N, U = R, R_inv, np.zeros((n, 0)), None
    else:
        U, F, F_pinv, N = _ranked(svd(R), (p + q, n), tol)
        top, Z_B = top @ U, Z_B @ U
    Z_L = None
    if l_rows:
        Z_L = top if Q_L is None else _q_times(*Q_L, top)
    return StackedFactors(Z_L, Z_B, F, F_pinv, N, certified=U is None)


def pinv(A, tol=None):
    """Moore-Penrose pseudoinverse with singular values <= cutoff zeroed."""
    return svd(A, tol).pinv()


def check_tolerance(value, name):
    """``value`` as a float; ValueError unless it is positive and finite:
    an infinite tolerance passes every test, a NaN one none."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


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
    ``1e-14 * max(diag(G))`` (:func:`check_pivots`), raises
    :class:`IndefiniteMatrixError`. No package code calls it:
    ``CholeskyStrategy`` applies the same rule to the R of the problem's QR
    of ``[L; MA]`` (:func:`stacked_factor`), which is the Cholesky factor
    of ``G = (MA)'MA + L'L`` when that QR certifies full column rank.
    """
    G = check_symmetric(G)
    G = 0.5 * (G + G.T)
    try:
        C = scipy.linalg.cholesky(G, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteMatrixError(f"G is not positive definite: {exc}") from exc
    check_pivots(C.diagonal() ** 2, G.diagonal())
    return C


def check_pivots(pivots, diagonal):
    """The pivot rule of a Cholesky factorization of G: raise
    :class:`IndefiniteMatrixError` at the first of the squared ``pivots``
    at or below ``1e-14 max(diagonal)``, ``diagonal`` that of G, with the
    pivot and its index."""
    small = np.flatnonzero(pivots <= 1e-14 * max(float(diagonal.max(initial=0.0)), 0.0))
    if small.size:
        j = int(small[0])
        pivot = float(pivots[j])
        raise IndefiniteMatrixError(
            f"nonpositive pivot {pivot:.3e} at column {j}", pivot=pivot, index=j
        )


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


def _preconditioned(factor):
    """``(r, z) -> r'z`` after ``z = P^-1 r``, solved in place, P given by
    its upper banded Cholesky ``factor``.

    A tridiagonal P (half-bandwidth w <= 1) is converted once to its LDL'
    form, ``d_i = r_ii^2`` and ``e_i = r_{i,i+1} / r_ii`` (e = 0 when w =
    0), and solved by LAPACK ``pttrs`` (Golub and Van Loan, *Matrix
    Computations*, 4th ed., 4.3.6); a wider band by ``pbtrs``, whose two
    banded triangular solves cost about twice as much at w = 1. Both are
    O(n).
    """
    w = factor.shape[0] - 1
    if w > 1:

        def solve(r, z):
            np.copyto(z, r)
            # positional (lower, ldab, overwrite_b): z is solved in place
            dpbtrs(factor, z, 0, w + 1, 1)
            return ddot(r, z)

        return solve
    n = factor.shape[1]
    diagonal = factor[w]
    d = diagonal * diagonal
    # the f2py wrapper wants e of length max(n - 1, 1): at n = 1 it
    # refuses an empty one
    e = np.zeros(max(n - 1, 1))
    if w:
        e[: n - 1] = factor[0, 1:] / diagonal[:-1]

    def solve(r, z):
        np.copyto(z, r)
        # positional (overwrite_b): z is solved in place
        dpttrs(d, e, z, 1)
        return ddot(r, z)

    return solve


def lsqr(G, rhs, tau=1e-12, max_iter=None, precond=None):
    """Conjugate gradients for ``G s = rhs``, G symmetric positive semidefinite.

    Precondition: ``rhs`` lies in R(G). ``G`` may be a dense array, a scipy
    sparse matrix, or a callable implementing the matrix-vector product. A
    dense G must be symmetric: BLAS ``symv`` reads one triangle of it and
    never looks at the other.
    Iteration starts from zero, so the iterates stay in R(G) and the result
    is the minimum 2-norm solution. It stops once the recursive residual
    satisfies ``||r_k|| <= tau ||rhs||``, for a finite ``tau > 0``; the
    rate is set by cond(G)^(1/2) (the Krylov space of G, not of G^2). Hitting
    ``max_iter``, or a curvature ``d'Gd <= 0`` (G not positive definite on
    the search direction), is reported through ``converged=False``, not an
    error. The reported ``relative_residual`` is the recursive one, except
    on those exits and on a converged one with ``tau < n eps``, below the
    rounding floor of ``G x - rhs``: those cost one more product with G,
    to report the evaluated ``||G x - rhs|| / ||rhs||``. ``rhs`` is not
    modified.

    Besides its product with G, an iteration makes two BLAS ``ddot`` and
    updates x and r by one in-place BLAS ``daxpy`` each; with a dense G it
    allocates nothing.

    ``precond``, if given, is the upper Cholesky factor of an SPD matrix P
    in LAPACK banded layout (``scipy.linalg.cholesky_banded``), and the
    loop is preconditioned CG (Saad, *Iterative Methods for Sparse Linear
    Systems*, 2nd ed., 2003, Alg. 9.1): the rate is then set by the
    spectrum of P^-1 G. Each iteration adds one O(n) solve with P (see
    :func:`_preconditioned`: LDL' by ``pttrs`` at half-bandwidth <= 1,
    else ``pbtrs``), and the new direction ``z + (r'z / r'z_old) d`` is
    one ``daxpy`` into z's buffer, which then trades places with d's. The
    stop test is unchanged, on the residual of ``G s = rhs`` itself, so
    ``tau`` keeps its meaning. The iterates lie in the span of ``(P^-1
    G)^j P^-1 rhs``, which stays in R(G), and so keeps the result
    minimum-norm, when P maps N(G) into itself (as ``P = L'L + cI`` does
    for ``G = (MA)'MA + L'L``); for another P it may not.
    """
    check_tolerance(tau, "tau")
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
        solve = _preconditioned(precond)
        z = np.empty(n)
        rz = solve(r, z)
    d = z.copy()
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
        # positional (n, a): y += a x in place, one pass each
        daxpy(d, x, n, a)
        daxpy(gd, r, n, -a)
        rr = ddot(r, r)
        if rr <= stop:
            converged = True
            break
        rz_old = rz
        if precond is None:
            rz = rr
            dscal(rz / rz_old, d)  # in place, the rounding of d *= rz / rz_old
            d += z
        else:
            rz = solve(r, z)
            # the new direction z + (rz / rz_old) d is formed in z's
            # buffer; the old direction's becomes the next solve's z
            daxpy(d, z, n, rz / rz_old)
            d, z = z, d

    if converged and tau >= n * EPS:
        relres = math.sqrt(rr) / beta1
    else:
        # after stagnation, or past the rounding floor n eps that a tau
        # below it asks for, the recursive residual under-reports (it may
        # underflow to 0): those exits get the directly evaluated value
        relres = float(np.linalg.norm(matvec(x) - rhs)) / beta1

    return LsqrResult(x=x, iterations=iterations, converged=converged, relative_residual=relres)

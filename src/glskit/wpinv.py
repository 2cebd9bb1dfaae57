"""Weighted pseudoinverses for the generalized least squares problem

    min ||L x||_2   subject to   ||M (A x - b)||_2 = min.

The matrix mapping b to the minimum 2-norm solution is computed three
independent ways (direct formula, GSVD closed form, and a delta-limit
formula), and any candidate can be certified against the five generalized
Moore-Penrose identities that characterize it uniquely.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.lapack import dtrcon

from .gsvd import gsvd_pair, wpinv_via_gsvd
from .linalg import EPS, RankTolerance, SvdFactors, as_matrix, as_vector, pinv, svd

__all__ = [
    "GlsProblem",
    "MpeReport",
    "GlsCriterionReport",
    "wpinv_elden",
    "wpinv_limit",
    "wpinv_matrix",
    "wpinv_apply",
    "check_gmpe",
    "check_gls_criterion",
]


class FactorStore:
    """The factorizations of one problem's fixed matrices, made on first use.

    Holds at most one SVD each of ``M A`` (the problem's ``MA``, ranked at
    the direct route's cutoff), ``M'`` (so U is thin for a wide M; made only
    for identity 5 of ``check_gmpe``, which reads its leading left singular
    vectors as the projector onto R(M')) and ``L N``, N the basis of N(MA)
    that ``ma`` ranks, so N(G) = N(MA) & N(L) = N N(L N); and one QR of
    ``K_N = [MA; L; N_G']`` (``kn``), the only source of pinv(G). The
    formed ``G`` is never factored. Other rank decisions of M A apply their
    own tolerance through ``SvdFactors.ranked``; L N is always ranked at its
    product floor.
    """

    def __init__(self, A, M, MA, L):
        self._A, self._M, self._MA, self._L = A, M, MA, L

    @cached_property
    def ma(self):
        """The SVD of M A ranked at its product floor (``_product_tolerance``
        of M and A), not at a fraction of sigma_max(MA), which may itself be
        tiny (the default cutoff when M = I)."""
        if self._M is None:
            return svd(self._MA)
        return svd(self._MA, _product_tolerance(self._M, self._A))

    @cached_property
    def m(self):
        return svd(self._M.T)

    @cached_property
    def ln(self):
        """The SVD of ``L N``, N = ``ma.nullspace()``, ranked by ``_ln_svd``."""
        return _ln_svd(self._L, self.ma.nullspace())

    @cached_property
    def nullspace_g(self):
        """Orthonormal basis of N(G) = N(MA) & N(L)."""
        return self.ma.nullspace() @ self.ln.nullspace()

    @cached_property
    def kn(self):
        """pinv(G) (MA)' from one QR of ``K_N = [MA; L; N_G']``, a
        :class:`KnFactor`. K_N is stacked in place in one Fortran-ordered
        array (a sparse L densified there) that the QR overwrites; Q is
        dropped once W is formed."""
        MA, L, N_g = self._MA, self._L, self.nullspace_g
        q, n = MA.shape
        p = L.shape[0]
        K = np.empty((q + p + N_g.shape[1], n), order="F")
        K[:q] = MA
        if sp.issparse(L):
            K[q : q + p] = 0.0
            entries = L.tocoo()
            K[q + entries.row, entries.col] = entries.data
        else:
            K[q : q + p] = L
        K[q + p :] = N_g.T
        diagonal_max = float(np.einsum("ij,ij->j", K, K).max(initial=0.0))
        Q, R = scipy.linalg.qr(K, mode="economic", overwrite_a=True, check_finite=False)
        W = scipy.linalg.solve_triangular(R, Q[:q].T, check_finite=False)
        if N_g.size:
            W -= N_g @ (N_g.T @ W)
        W.flags.writeable = False
        rcond, _ = dtrcon(R)
        return KnFactor(
            W=W,
            relative_noise=max(1e-12, 4.0 * EPS / rcond),
            pivots=R.diagonal() ** 2,
            diagonal_max=diagonal_max,
        )


@dataclass(frozen=True)
class KnFactor:
    """What is kept of the QR ``K_N = Q R`` of ``K_N = [MA; L; N_G']``.

    ``K_N'K_N = G + N_G N_G'`` has full column rank, and equals G on R(G),
    where ``(MA)'u`` lies; so pinv(G) (MA)' u is pinv(K_N) [u; 0; 0], and a
    QR of the stacked operator works at cond(K_N), not at the cond(K_N)^2
    of any factorization of the formed G (Bjorck, *Numerical Methods for
    Least Squares Problems*, 1996, 2.2).

    ``W = R^-1 Q_1'``, Q_1 the first q rows of Q, is pinv(G) (MA)', an
    n x q matrix restricted once to R(G) (read-only: every copy of the
    problem shares it). ``relative_noise`` is ``max(1e-12, 4 eps / rcond)``,
    with ``rcond`` LAPACK ``dtrcon``'s 1-norm reciprocal condition estimate
    of R. ``pivots`` are the ``r_jj^2``, the Cholesky pivots of ``G + N_G
    N_G'``, and ``diagonal_max`` its largest diagonal entry, the largest
    squared column norm of K_N.
    """

    W: np.ndarray
    relative_noise: float
    pivots: np.ndarray
    diagonal_max: float


class GlsProblem:
    """Problem data (A, M, L, b) with the two derived matrices ``MA`` and ``G``.

    ``M=None`` means the identity weight (P = I); ``MA`` is then the same
    array as ``A``. ``L=None`` means no regularizer (a 0 x n matrix). ``A``
    and ``M`` are stored dense; a scipy sparse ``L`` stays sparse, as a
    canonical CSR array, and any other ``L`` is stored dense. ``MA = M A``
    is formed once and every product with A'P reads it, as
    A'P u = (MA)'(M u). ``G = (MA)'(MA) + L'L`` is dense (L'L is formed in
    L's kind) and symmetrized once at construction. No other Gram matrix or
    projector is stored: P = M'M, A'PA and L'L are applied as products where
    they are read. Instances are treated as immutable. ``factors`` is the
    problem's :class:`FactorStore`: every route and check derives its
    pseudoinverses and null spaces from it, so each matrix is factored at
    most once per problem.
    """

    def __init__(self, A, M=None, L=None, b=None):
        self.A = as_matrix(A, "A")
        m, n = self.A.shape
        self.M = as_matrix(M, "M") if M is not None else None
        if self.M is not None and self.M.shape[1] != m:
            raise ValueError(f"M must have {m} columns, got {self.M.shape[1]}")
        if sp.issparse(L):
            self.L = sp.csr_array(L, dtype=np.float64, copy=True)
            self.L.sum_duplicates()
            as_vector(self.L.data, name="L")  # rejects NaN and Inf entries
        else:
            self.L = as_matrix(L if L is not None else np.zeros((0, n)), "L")
        if self.L.shape[1] != n:
            raise ValueError(f"L must have {n} columns, got {self.L.shape[1]}")
        self.b = as_vector(b, m, "b") if b is not None else None

        self.MA = self.A if self.M is None else self.M @ self.A
        LtL = self.L.T @ self.L
        G = self.MA.T @ self.MA + (LtL.toarray() if sp.issparse(LtL) else LtL)
        self.G = 0.5 * (G + G.T)
        self.factors = FactorStore(self.A, self.M, self.MA, self.L)

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]

    @property
    def q(self):
        return self.M.shape[0] if self.M is not None else self.m

    def with_b(self, b):
        """A copy of the problem with a (new) right-hand side.

        A, M and L never change, so the copy shares the derived matrices and
        the factor store by reference: a factor computed through any copy is
        seen by all of them.
        """
        prob = copy.copy(self)
        prob.b = as_vector(b, self.m, "b")
        return prob

    def mult_M(self, u):
        """M u, or u itself when M is None."""
        return u if self.M is None else self.M @ u


def wpinv_elden(prob: GlsProblem, tol=None) -> np.ndarray:
    """Direct weighted pseudoinverse

        (I - pinv(L @ P_null) @ L) @ pinv(M A) @ M

    with ``P_null`` the orthogonal projector onto the null space of M A.
    With N an orthonormal basis of that null space, ``pinv(L @ N @ N.T)``
    equals ``N @ pinv(L @ N)`` exactly; the latter form is used because the
    explicit product L @ P_null carries roundoff of size eps * ||L|| that a
    rank cutoff relative to its own (possibly tiny) top singular value would
    mistake for signal. The projector ``I - N pinv(L N) L`` is applied to
    pinv(M A) as products, never formed. ``tol`` ranks M A only: L N is
    ranked at its product floor on every path, as a cutoff relative to its
    own shape keeps roundoff when N(MA) and N(L) share a vector.
    """
    ma = prob.factors.ma if tol is None else prob.factors.ma.ranked(tol)
    N = ma.nullspace()
    ln = prob.factors.ln if tol is None else _ln_svd(prob.L, N)
    X = ma.pinv()
    X = X - N @ (ln.pinv() @ (prob.L @ X))
    if prob.M is not None:
        X = X @ prob.M
    return X


def _product_tolerance(*factors):
    """Absolute rank cutoff ``8 dim eps prod ||F||_F`` at the roundoff floor
    of the product of ``factors``, after ``||fl(AB) - AB||_F <= gamma_n
    ||A||_F ||B||_F`` (Higham, Accuracy and Stability, 2nd ed., 3.5). It
    scales with the factors, not with the product's own (possibly tiny) top
    singular value; the margin 8 covers error inherited from upstream
    null-space computations. None (the default cutoff) for a zero factor.
    A sparse factor is canonical, so its stored entries give its norm.
    """
    scale = math.prod(float(np.linalg.norm(f.data if sp.issparse(f) else f)) for f in factors)
    if scale == 0.0:
        return None
    dim = max(d for f in factors for d in f.shape)
    return RankTolerance("absolute", 8.0 * dim * EPS * scale)


def _ln_svd(L, N):
    """The SVD of ``L N`` for an orthonormal N, ranked at the roundoff floor
    of the product (rank 0 and identity singular vectors when p = 0 or N has
    no columns)."""
    LN = L @ N
    if LN.size == 0:
        return SvdFactors(np.eye(LN.shape[0]), np.zeros(0), np.eye(LN.shape[1]), 0)
    return svd(LN, _product_tolerance(L, N))


def wpinv_limit(prob: GlsProblem, delta, tol=None) -> np.ndarray:
    """Regularized approximation ``pinv(A'PA + delta G) @ A'P``.

    Converges to the weighted pseudoinverse linearly as delta -> 0; used as
    an independent oracle rather than a production route.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    core = pinv(prob.MA.T @ prob.MA + delta * prob.G, tol)
    AtP = prob.A.T if prob.M is None else prob.MA.T @ prob.M
    return core @ AtP


def wpinv_matrix(prob: GlsProblem, method="elden", delta=1e-8, tol=None) -> np.ndarray:
    """The matrix mapping b to the minimum 2-norm solution, by the chosen route.

    ``method`` is one of "elden", "gsvd" or "limit"; the last returns the
    delta approximation :func:`wpinv_limit`. The GSVD route factors the pair
    {MA, L}, as A_ML^+ = (MA)_{I,L}^+ M: the problem weighted by M is the
    unweighted one for MA and M b.
    """
    if method == "elden":
        return wpinv_elden(prob, tol)
    if method == "gsvd":
        X = wpinv_via_gsvd(gsvd_pair(prob.MA, prob.L, tol), prob.G)
        return X if prob.M is None else X @ prob.M
    if method == "limit":
        return wpinv_limit(prob, delta, tol)
    raise ValueError(f"unknown method {method!r}")


def wpinv_apply(prob: GlsProblem, method="elden", delta=1e-8, tol=None) -> np.ndarray:
    """Minimum 2-norm solution x = A_ML^+ b via :func:`wpinv_matrix`."""
    if prob.b is None:
        raise ValueError("problem has no right-hand side b")
    return wpinv_matrix(prob, method, delta, tol) @ prob.b


def _rel(num, den):
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


@dataclass
class MpeReport:
    """Normalized residuals of the five generalized Moore-Penrose identities."""

    residuals: tuple
    passed: tuple
    tol: float

    @property
    def all_passed(self):
        return all(self.passed)

    def as_dict(self):
        return {
            "identities": [
                {"residual": float(r), "passed": bool(p)}
                for r, p in zip(self.residuals, self.passed)
            ],
            "tol": self.tol,
        }

    def to_json(self):
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


def check_gmpe(prob: GlsProblem, X, tol=1e-9) -> MpeReport:
    """Evaluate the five identities that uniquely characterize A_ML^+.

        1.  X A X = X
        2.  M A X A = M A
        3.  (P A X)' = P A X
        4.  (G X A pinv(G))' = X A
        5.  X pinv(M) M = X

    Residuals are Frobenius norms normalized by the scale of the left-hand
    side (0/0 counts as a pass); these five, and nothing else, are computed.
    P A X is evaluated as M'(MA X), so P is not formed, and neither is
    pinv(G) or pinv(M): identity 5 reads pinv(M) M as U_r U_r', U_r the
    leading ``rank`` left singular vectors of M'. Identity 4 is the larger
    residual of two tests, ``T = L'L X A (I - N_G N_G')`` symmetric and
    ``N_G' X = 0`` (N_G = ``prob.factors.nullspace_g``). The split is exact
    given identities 1, 3 and 5: M A N_G = 0, so identity 5 gives
    X A N_G = 0; G X A = A'(P A X)A + L'L X A, whose first term identity 3
    makes symmetric; and pinv(G) (X A)' G = X A holds iff G X A is symmetric
    and N_G' X A = 0, which by identity 1 (X = X A X) is N_G' X = 0. The
    asymmetry of T is normalized by ||L||^2 ||X A||, so the residual does not
    change when L is scaled, as A_ML^+ does not.
    """
    X = as_matrix(X, "X")
    if X.shape != (prob.n, prob.m):
        raise ValueError(f"X must be {prob.n} x {prob.m}, got {X.shape}")
    A = prob.A
    norm = np.linalg.norm

    XA = X @ A
    r1 = _rel(norm(XA @ X - X), norm(X))

    MA = prob.MA
    MAX = MA @ X
    r2 = _rel(norm(MAX @ A - MA), norm(MA))

    PAX = MAX if prob.M is None else prob.M.T @ MAX
    r3 = _rel(norm(PAX.T - PAX), norm(PAX))

    L = prob.L
    N_g = prob.factors.nullspace_g
    T = L.T @ (L @ XA)
    T = T - (T @ N_g) @ N_g.T
    l_norm = norm(L.data if sp.issparse(L) else L)
    r4 = max(_rel(norm(T - T.T), l_norm**2 * norm(XA)), _rel(norm(N_g.T @ X), norm(X)))

    if prob.M is None:
        r5 = 0.0
    else:
        mt = prob.factors.m
        U_r = mt.U[:, : mt.rank]
        r5 = _rel(norm(X - (X @ U_r) @ U_r.T), norm(X))

    residuals = (r1, r2, r3, r4, r5)
    return MpeReport(residuals=residuals, passed=tuple(r <= tol for r in residuals), tol=tol)


@dataclass
class GlsCriterionReport:
    """Outcome of the solution criterion for a candidate x.

    ``satisfied`` certifies x solves the GLS problem; ``in_range_g``
    additionally certifies it is the minimum 2-norm solution. Boolean
    context reduces to ``satisfied``.
    """

    satisfied: bool
    in_range_g: bool
    normal_residual: float
    normal_scale: float
    null_coupling: float
    g_norm_x: float
    tol: float

    def __bool__(self):
        return self.satisfied


def check_gls_criterion(prob: GlsProblem, x, tol=1e-9) -> GlsCriterionReport:
    """Test the two solution conditions for the GLS problem.

    x solves the problem iff ``A'P(Ax - b) = (MA)'(MA x - M b) = 0`` and x is
    G-orthogonal to the null space of A'PA. That null space is read from the
    SVD of ``M A``:
    ``(MA)'(MA) = A'PA``, so it is exact and does not square the condition
    number. Range membership ``x in R(G)``, tested as
    ``||N_G' x|| <= tol ||x||`` with N_G = ``prob.factors.nullspace_g``, is
    reported separately (solutions form a coset of N(G); the one inside R(G)
    is the minimum 2-norm solution).
    """
    if prob.b is None:
        raise ValueError("problem has no right-hand side b")
    x = as_vector(x, prob.n, "x")

    mb = prob.mult_M(prob.b)
    residual = prob.MA.T @ (prob.MA @ x - mb)
    r1 = float(np.linalg.norm(residual))
    scale1 = float(np.linalg.norm(prob.MA.T @ mb))
    ok_normal = r1 <= tol * scale1

    Z = prob.factors.ma.nullspace()
    gx = prob.G @ x
    g_norm_x = math.sqrt(max(float(x @ gx), 0.0))
    coupling = float(np.abs(Z.T @ gx).max()) if Z.size else 0.0
    ok_null = coupling <= tol * g_norm_x

    nx = float(np.linalg.norm(x))
    in_range = float(np.linalg.norm(prob.factors.nullspace_g.T @ x)) <= tol * nx

    return GlsCriterionReport(
        satisfied=bool(ok_normal and ok_null),
        in_range_g=bool(in_range),
        normal_residual=r1,
        normal_scale=scale1,
        null_coupling=coupling,
        g_norm_x=g_norm_x,
        tol=tol,
    )

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

from .gsvd import gsvd_pair, wpinv_via_gsvd
from .linalg import EPS, RankTolerance, SvdFactors, as_matrix, as_vector, pinv, svd

__all__ = [
    "GlsProblem",
    "MpeReport",
    "GlsCriterionReport",
    "wpinv_elden",
    "wpinv_limit",
    "wpinv_apply",
    "check_gmpe",
    "check_gls_criterion",
]


class FactorStore:
    """The factorizations of one problem's fixed matrices, made on first use.

    Holds at most one SVD each of ``M A`` (``A`` when M is None), ``G``, ``M``
    and ``L N``, N the basis of N(MA) at the direct route's cutoff, and the
    spectral norms of A and L. N(G) = N(MA) & N(L) = N N(L N), so ``G`` is
    factored only where pinv(G) itself is needed. Other rank decisions apply
    their own tolerance through ``SvdFactors.ranked``.
    """

    def __init__(self, A, M, L, G):
        self._A, self._M, self._L, self._G = A, M, L, G

    @cached_property
    def ma(self):
        return svd(self._A if self._M is None else self._M @ self._A)

    @cached_property
    def g(self):
        return svd(self._G)

    @cached_property
    def m(self):
        return svd(self._M)

    @cached_property
    def norm_a(self):
        return float(np.linalg.norm(self._A, 2))

    @cached_property
    def norm_l(self):
        return float(np.linalg.norm(self._L, 2)) if self._L.size else 0.0

    @cached_property
    def ma_ranked(self):
        """The SVD of M A ranked at its data error eps*||M||*||A||, not at a
        fraction of sigma_max(MA), which may itself be tiny (the default
        cutoff when M = I)."""
        if self._M is None:
            return self.ma
        norm_m = float(self.m.singular_values[0])
        shape = (self._M.shape[0], self._A.shape[1])
        return self.ma.ranked(_product_tolerance(shape, (self._M, norm_m), (self._A, self.norm_a)))

    @cached_property
    def ln(self):
        """The SVD of ``L N`` ranked at the roundoff floor of the product
        (rank 0 and identity singular vectors when p = 0 or N(MA) = {0})."""
        N = self.ma_ranked.nullspace()
        LN = self._L @ N
        if LN.size == 0:
            return SvdFactors(np.eye(LN.shape[0]), np.zeros(0), np.eye(LN.shape[1]), 0)
        # N has orthonormal columns, so its spectral norm is 1
        return svd(LN, _product_tolerance(LN.shape, (self._L, self.norm_l), (N, 1.0)))

    @cached_property
    def nullspace_g(self):
        """Orthonormal basis of N(G) = N(MA) & N(L)."""
        return self.ma_ranked.nullspace() @ self.ln.nullspace()


class GlsProblem:
    """Problem data (A, M, L, b) with the derived Gram matrices cached.

    ``M=None`` means the identity weight (P = I). ``L=None`` means no
    regularizer (a 0 x n matrix, Q = 0). All derived matrices are
    symmetrized once at construction; instances are treated as immutable.
    ``factors`` is the problem's :class:`FactorStore`: every route and check
    derives its pseudoinverses, projectors and null spaces from it, so each
    matrix is factored at most once per problem.
    """

    def __init__(self, A, M=None, L=None, b=None):
        self.A = as_matrix(A, "A")
        m, n = self.A.shape
        self.M = as_matrix(M, "M") if M is not None else None
        if self.M is not None and self.M.shape[1] != m:
            raise ValueError(f"M must have {m} columns, got {self.M.shape[1]}")
        self.L = as_matrix(L, "L") if L is not None else np.zeros((0, n))
        if self.L.shape[1] != n:
            raise ValueError(f"L must have {n} columns, got {self.L.shape[1]}")
        self.b = as_vector(b, m, "b") if b is not None else None

        if self.M is None:
            self.P = np.eye(m)
            ApA = self.A.T @ self.A
        else:
            P = self.M.T @ self.M
            self.P = 0.5 * (P + P.T)
            ApA = self.A.T @ self.P @ self.A
        self.ApA = 0.5 * (ApA + ApA.T)
        Q = self.L.T @ self.L
        self.Q = 0.5 * (Q + Q.T)
        self.G = 0.5 * ((self.ApA + self.Q) + (self.ApA + self.Q).T)
        self.factors = FactorStore(self.A, self.M, self.L, self.G)

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]

    @property
    def p(self):
        return self.L.shape[0]

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

    def mult_P(self, u):
        return u if self.M is None else self.P @ u

    def apply_At_P(self, u):
        return self.A.T @ self.mult_P(u)

    @cached_property
    def g_norm(self):
        return float(np.linalg.norm(self.G))

    @cached_property
    def p_norm(self):
        return float(np.linalg.norm(self.P))

    @cached_property
    def projector_p(self):
        # R(P) = R(M')
        return np.eye(self.m) if self.M is None else self.factors.m.T.range_projector()

    def seminorm_g(self, x):
        return math.sqrt(max(float(x @ (self.G @ x)), 0.0))

    def seminorm_p(self, u):
        return math.sqrt(max(float(u @ self.mult_P(u)), 0.0))


def wpinv_elden(prob: GlsProblem, tol=None) -> np.ndarray:
    """Direct weighted pseudoinverse

        (I - pinv(L @ P_null) @ L) @ pinv(M A) @ M

    with ``P_null`` the orthogonal projector onto the null space of M A.
    With N an orthonormal basis of that null space, ``pinv(L @ N @ N.T)``
    equals ``N @ pinv(L @ N)`` exactly; the latter form is used because the
    explicit product L @ P_null carries roundoff of size eps * ||L|| that a
    rank cutoff relative to its own (possibly tiny) top singular value would
    mistake for signal.
    """
    ma = prob.factors.ma_ranked if tol is None else prob.factors.ma.ranked(tol)
    N = ma.nullspace()
    pinv_ln = prob.factors.ln.pinv() if tol is None else pinv(prob.L @ N, tol)
    X = (np.eye(prob.n) - N @ pinv_ln @ prob.L) @ ma.pinv()
    if prob.M is not None:
        X = X @ prob.M
    return X


def _product_tolerance(shape, *factors):
    """Absolute rank cutoff at the roundoff floor of a matrix product.

    ``factors`` are ``(matrix, spectral norm)`` pairs. The floor scales with
    the factors' norms and dimensions, not with the product's own (possibly
    tiny) top singular value; the margin factor covers error inherited from
    upstream null-space computations.
    """
    scale = math.prod(norm for _, norm in factors)
    if scale == 0.0 or 0 in shape:
        return None
    dim = max(*shape, *(d for f, _ in factors for d in f.shape))
    return RankTolerance("absolute", 8.0 * dim * EPS * scale)


def wpinv_limit(prob: GlsProblem, delta, tol=None) -> np.ndarray:
    """Regularized approximation ``pinv(A'PA + delta G) @ A'P``.

    Converges to the weighted pseudoinverse linearly as delta -> 0; used as
    an independent oracle rather than a production route.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    core = pinv(prob.ApA + delta * prob.G, tol)
    AtP = prob.A.T if prob.M is None else prob.A.T @ prob.P
    return core @ AtP


def wpinv_apply(prob: GlsProblem, method="elden", delta=1e-8, tol=None) -> np.ndarray:
    """Minimum 2-norm solution x = A_ML^+ b via the chosen route.

    ``method`` is one of "elden", "gsvd" (requires M = I) or "limit".
    """
    if prob.b is None:
        raise ValueError("problem has no right-hand side b")
    if method == "elden":
        X = wpinv_elden(prob, tol)
    elif method == "gsvd":
        if prob.M is not None:
            raise ValueError("the gsvd route requires M = I")
        X = wpinv_via_gsvd(gsvd_pair(prob.A, prob.L, tol), prob.G)
    elif method == "limit":
        X = wpinv_limit(prob, delta, tol)
    else:
        raise ValueError(f"unknown method {method!r}")
    return X @ prob.b


def _rel(num, den):
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


@dataclass
class MpeReport:
    """Normalized residuals of the five generalized Moore-Penrose identities.

    ``regularizer_symmetry`` is the residual of the historical fourth
    identity ``(L'L X A)' = L'L X A``; it is informational only and takes no
    part in pass/fail.
    """

    residuals: tuple
    passed: tuple
    tol: float
    regularizer_symmetry: float

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
    side (0/0 counts as a pass).
    """
    X = as_matrix(X, "X")
    if X.shape != (prob.n, prob.m):
        raise ValueError(f"X must be {prob.n} x {prob.m}, got {X.shape}")
    A = prob.A
    norm = np.linalg.norm

    XA = X @ A
    r1 = _rel(norm(X @ A @ X - X), norm(X))

    MA = A if prob.M is None else prob.M @ A
    r2 = _rel(norm(MA @ X @ A - MA), norm(MA))

    PAX = prob.mult_P(A @ X)
    r3 = _rel(norm(PAX.T - PAX), norm(PAX))

    r4 = _rel(norm((prob.G @ X @ A @ prob.factors.g.pinv()).T - XA), norm(XA))

    if prob.M is None:
        r5 = 0.0
    else:
        r5 = _rel(norm(X @ prob.factors.m.pinv() @ prob.M - X), norm(X))

    QXA = prob.Q @ XA
    info = _rel(norm(QXA.T - QXA), norm(QXA))

    residuals = (r1, r2, r3, r4, r5)
    return MpeReport(
        residuals=residuals,
        passed=tuple(r <= tol for r in residuals),
        tol=tol,
        regularizer_symmetry=info,
    )


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

    x solves the problem iff ``A'P(Ax - b) = 0`` and x is G-orthogonal to the
    null space of A'PA. That null space is read from the SVD of ``M A``:
    ``(MA)'(MA) = A'PA``, so it is exact and does not square the condition
    number. Range membership ``x in R(G)``, tested as
    ``||N_G' x|| <= tol ||x||`` with N_G = ``prob.factors.nullspace_g``, is
    reported separately (solutions form a coset of N(G); the one inside R(G)
    is the minimum 2-norm solution).
    """
    if prob.b is None:
        raise ValueError("problem has no right-hand side b")
    x = as_vector(x, prob.n, "x")

    residual = prob.apply_At_P(prob.A @ x - prob.b)
    r1 = float(np.linalg.norm(residual))
    scale1 = float(np.linalg.norm(prob.apply_At_P(prob.b)))
    ok_normal = r1 <= tol * scale1

    Z = prob.factors.ma_ranked.nullspace()
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

"""Generalized Golub-Kahan bidiagonalization (gGKB).

Starting from b, the process generates vectors v_i that are orthonormal in
the G-inner product and vectors u_tilde_i whose projections onto R(P) are
orthonormal in the P-inner product, together with the coefficients of a
growing lower-bidiagonal matrix:

    beta_1 u~_1 = b
    s_bar = A' P u~_i,          alpha_i v_i = Gdag(s_bar) - beta_i v_{i-1}
    r = A v_i - alpha_i u~_i,   beta_{i+1} u~_{i+1} = r / (r' P r)^(1/2)

Every step applies the pseudoinverse of G = A'PA + L'L once; how that
application is carried out is pluggable (dense pseudoinverse, Cholesky
solve, or an inner LSQR run with its own tolerance). A strategy provides
``apply(rhs)``, pinv(G) rhs or an approximation of it; ``relative_noise``,
the relative accuracy it delivers; and ``hit_cap``, True once an inner
iteration has run out of steps.

The bases V, G V, U~ and P U~ live in one workspace per side (``Basis``)
that ``ggkb_step`` extends in place. Reorthogonalization is two block
classical Gram-Schmidt passes against that workspace (CGS2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .linalg import EPS, as_matrix, cholesky_spd, lsqr, svd
from .wpinv import GlsProblem

__all__ = [
    "NumericalBreakdownError",
    "DensePinvStrategy",
    "CholeskyStrategy",
    "InnerLsqrStrategy",
    "gdag_strategy",
    "BidiagState",
    "ggkb_init",
    "ggkb_step",
]

BREAKDOWN_REL = 1e-13
DEGENERATE_REL = 1e-8
# workspace columns before the first doubling
INITIAL_COLUMNS = 16


class NumericalBreakdownError(RuntimeError):
    """A seminorm radicand went negative beyond roundoff (G lost PSD)."""


class DensePinvStrategy:
    """Apply pinv(G) through an explicitly formed dense pseudoinverse."""

    def __init__(self, G, tol=None):
        f = svd(as_matrix(G, "G"), tol)
        self.G_pinv = f.pinv()
        r = f.rank
        kappa = f.singular_values[0] / f.singular_values[r - 1] if r else 1.0
        self.relative_noise = max(1e-12, 4.0 * EPS * kappa)
        self.hit_cap = False

    def apply(self, rhs):
        return self.G_pinv @ rhs


class CholeskyStrategy:
    """Solve G s = rhs through a cached Cholesky factor (G must be SPD)."""

    def __init__(self, G):
        self.factor = cholesky_spd(G)
        d = np.diag(self.factor)
        # pivot spread as a cheap condition estimate for the solve noise
        self.relative_noise = max(1e-12, 16.0 * EPS * float((d.max() / d.min()) ** 2))
        self.hit_cap = False

    def apply(self, rhs):
        y = solve_triangular(self.factor, rhs, lower=True)
        return solve_triangular(self.factor.T, y, lower=False)


class InnerLsqrStrategy:
    """Approximate pinv(G) rhs by an inner LSQR run on min ||G s - rhs||.

    ``tau`` is the inner relative-residual tolerance; it caps the accuracy
    of everything built on top. Hitting the inner iteration cap latches
    ``hit_cap`` instead of raising.
    """

    def __init__(self, G, tau=1e-12, max_iter=None):
        if not tau > 0:
            raise ValueError("tau must be positive")
        self.G = np.asarray(G, dtype=np.float64)
        self.tau = float(tau)
        self.max_iter = int(max_iter) if max_iter is not None else 4 * self.G.shape[0]
        self.hit_cap = False
        self._worst_achieved = 0.0

    @property
    def relative_noise(self):
        # what the inner solver actually delivered, not just what was asked
        return max(self.tau, self._worst_achieved)

    def apply(self, rhs):
        result = lsqr(self.G, rhs, tau=self.tau, max_iter=self.max_iter)
        if not result.converged:
            self.hit_cap = True
        self._worst_achieved = max(self._worst_achieved, result.relative_residual)
        return result.x


def gdag_strategy(G, kind="dense", **kwargs):
    """Build a pinv(G)-application strategy: dense, cholesky, or lsqr."""
    if kind == "dense":
        return DensePinvStrategy(G, **kwargs)
    if kind == "cholesky":
        return CholeskyStrategy(G, **kwargs)
    if kind == "lsqr":
        return InnerLsqrStrategy(G, **kwargs)
    raise ValueError(f"unknown Gdag strategy {kind!r}")


@dataclass(eq=False)
class Basis:
    """Columns x_1..x_k and their images C x_j in one growable workspace.

    ``X`` and ``CX`` are Fortran-ordered ``(dim, capacity)`` arrays whose
    leading ``k`` columns are in use; the capacity doubles when full, up to
    ``limit`` and past it only if a run outlives its Krylov bound.
    """

    X: np.ndarray
    CX: np.ndarray
    limit: int
    k: int = 0

    @classmethod
    def empty(cls, dim, limit):
        cap = min(INITIAL_COLUMNS, limit)
        return cls(np.empty((dim, cap), order="F"), np.empty((dim, cap), order="F"), limit)

    @property
    def cols(self):
        return self.X[:, : self.k]

    @property
    def images(self):
        return self.CX[:, : self.k]

    def append(self, x, cx):
        cap = self.X.shape[1]
        if self.k == cap:
            grown = 2 * cap if cap >= self.limit else min(2 * cap, self.limit)
            X, CX = self.X, self.CX
            self.X = np.empty((X.shape[0], grown), order="F")
            self.CX = np.empty_like(self.X)
            self.X[:, :cap] = X
            self.CX[:, :cap] = CX
        self.X[:, self.k] = x
        self.CX[:, self.k] = cx
        self.k += 1

    def project_out(self, x, cx=None):
        """Remove from x its C-inner-product components along the basis.

        Two classical Gram-Schmidt passes as matrix-vector products ("twice
        is enough"); one pass is not, when x emerges from heavy cancellation
        near Krylov exhaustion. ``cx`` (C x) is updated alongside.
        """
        X, CX = self.cols, self.images
        for _ in range(2):
            c = CX.T @ x
            x -= X @ c
            if cx is not None:
                cx -= CX @ c


@dataclass(eq=False)
class BidiagState:
    """The bidiagonalization after k completed expansions, updated in place.

    ``alphas`` and ``betas`` always have equal length; a trailing zero in
    either marks termination at step ``k_t`` (the Krylov spaces are
    exhausted and the current gLSQR iterate is exact). ``v`` holds the
    columns v_i with G v_i, ``u`` the columns u~_i with P u~_i, each in one
    workspace (see ``Basis``); ``V`` and ``U_tilde`` are views of their
    leading columns. ``ggkb_step`` mutates the state and returns the same
    object, so a view taken earlier keeps its columns but stops sharing
    memory with the state once the workspace grows.
    """

    m: int
    n: int
    alphas: list
    betas: list
    v: Basis
    u: Basis
    terminated: bool
    k_t: int | None
    breakdown_ref: float
    reorthogonalize: bool = True
    inner_capped: bool = False

    @property
    def k(self):
        return self.v.k

    @property
    def V(self):
        return self.v.cols

    @property
    def U_tilde(self):
        return self.u.cols

    def bidiagonal(self, k=None):
        """The (k+1) x k lower-bidiagonal coefficient matrix B_k."""
        if k is None:
            k = min(len(self.alphas), len(self.betas) - 1)
        B = np.zeros((k + 1, k))
        B[:k] = np.diag(self.alphas[:k])
        B[1:] += np.diag(self.betas[1 : k + 1])
        return B


def _radicand(value, scale, vec_sq):
    """Clamp a roundoff-negative x'Cx to zero; fail if genuinely negative."""
    guard = 1e-14 * scale * vec_sq
    if value < -guard:
        raise NumericalBreakdownError(
            f"seminorm radicand {value:.3e} below -{guard:.3e}; G is not numerically PSD"
        )
    return max(value, 0.0)


def ggkb_init(prob: GlsProblem, strategy, reorthogonalize=True) -> BidiagState:
    """First bidiagonalization vectors from b; may terminate immediately.

    If the P-projection of b vanishes (b in the null space of M) the state
    terminates with k_t = 0 and the downstream solution is zero.
    """
    if prob.b is None:
        raise ValueError("problem has no right-hand side b")
    b = prob.b
    pb = prob.mult_P(b)
    bnorm = float(np.linalg.norm(b))
    beta1 = math.sqrt(_radicand(float(b @ pb), prob.p_norm, bnorm**2))

    # the Krylov spaces hold at most min(m, n) directions, U~ one more
    limit = min(prob.m, prob.n) + 1
    state = BidiagState(
        m=prob.m, n=prob.n, alphas=[0.0], betas=[beta1],
        v=Basis.empty(prob.n, limit), u=Basis.empty(prob.m, limit),
        terminated=True, k_t=0, breakdown_ref=max(beta1, 1.0),
        reorthogonalize=reorthogonalize,
    )
    init_scale = math.sqrt(prob.p_norm) * bnorm
    if beta1 <= BREAKDOWN_REL * init_scale:
        return state

    # keep the u-carrier inside R(P): components in N(P) are invisible to
    # the P-weighted recurrences but amplify by 1/beta each step and
    # eventually poison the computed inner products when P is singular
    u1 = (b if prob.M is None else prob.projector_p @ b) / beta1
    pu1 = pb / beta1
    s = strategy.apply(prob.A.T @ pu1)
    gs = prob.G @ s
    snorm_sq = float(s @ s)
    alpha1 = math.sqrt(_radicand(float(s @ gs), prob.g_norm, snorm_sq))
    state.u.append(u1, pu1)
    state.breakdown_ref = max(alpha1, beta1)
    state.inner_capped = strategy.hit_cap
    if alpha1 <= BREAKDOWN_REL * state.breakdown_ref:
        return state

    state.alphas[0] = alpha1
    state.v.append(s / alpha1, gs / alpha1)
    state.terminated = False
    state.k_t = None
    return state


def ggkb_step(state: BidiagState, prob: GlsProblem, strategy) -> BidiagState:
    """One expansion in place: appends beta_{k+1}, alpha_{k+1}; returns ``state``.

    Either coefficient falling to the breakdown threshold (relative to the
    initial coefficient scale) terminates the process at k_t = k.
    """
    if state.terminated:
        raise ValueError("the bidiagonalization already terminated")
    i = state.k
    threshold = BREAKDOWN_REL * state.breakdown_ref
    # coefficients below the accuracy the strategy actually delivers are
    # indistinguishable from noise, so the degeneracy cutoff scales with it
    degenerate = max(DEGENERATE_REL, 4.0 * strategy.relative_noise)
    alpha = state.alphas[-1]
    v_last = state.V[:, -1]

    r = prob.A @ v_last - alpha * state.U_tilde[:, -1]
    if prob.M is not None:
        r = prob.projector_p @ r  # drop N(P) junk, see ggkb_init
    if state.reorthogonalize:
        state.u.project_out(r)
    pr = prob.mult_P(r)
    beta_next = math.sqrt(_radicand(float(r @ pr), prob.p_norm, float(r @ r)))
    # besides the absolute cutoff, a coefficient vanishing relative to its
    # partner in the three-term identity (||A v_i||_P^2 = alpha_i^2 +
    # beta_{i+1}^2) marks a numerically degenerate rotation: the spaces are
    # exhausted and anything below the cancellation floor is roundoff
    if beta_next <= max(threshold, degenerate * alpha):
        state.alphas.append(0.0)
        state.betas.append(0.0)
        state.terminated, state.k_t = True, i
        return state

    pu_next = pr / beta_next
    state.u.append(r / beta_next, pu_next)

    s = strategy.apply(prob.A.T @ pu_next) - beta_next * v_last
    gs = prob.G @ s
    if state.reorthogonalize:
        state.v.project_out(s, gs)
    value = float(s @ gs)
    if value < 0.0:
        # the maintained gs carries absolute drift from earlier scales; a
        # fresh product restores the ||s||^2-proportional error the
        # negativity guard assumes
        gs = prob.G @ s
        value = float(s @ gs)
    alpha_next = math.sqrt(_radicand(value, prob.g_norm, float(s @ s)))
    state.betas.append(beta_next)
    state.inner_capped = state.inner_capped or strategy.hit_cap
    if alpha_next <= max(threshold, degenerate * beta_next):
        state.alphas.append(0.0)
        state.terminated, state.k_t = True, i
        return state

    state.alphas.append(alpha_next)
    state.v.append(s / alpha_next, gs / alpha_next)
    return state

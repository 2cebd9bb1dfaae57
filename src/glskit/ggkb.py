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
solve, or an inner LSQR run with its own tolerance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


class NumericalBreakdownError(RuntimeError):
    """A seminorm radicand went negative beyond roundoff (G lost PSD)."""


class DensePinvStrategy:
    """Apply pinv(G) through an explicitly formed dense pseudoinverse."""

    kind = "dense"

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

    kind = "cholesky"

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

    kind = "lsqr"

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


@dataclass
class BidiagState:
    """Snapshot of the bidiagonalization after k completed expansions.

    ``alphas`` and ``betas`` always have equal length; a trailing zero in
    either marks termination at step ``k_t`` (the Krylov spaces are
    exhausted and the current gLSQR iterate is exact). ``vs``/``us`` hold
    the generated columns, ``gvs``/``pus`` cache G @ v_i and P @ u~_i for
    reorthogonalization and cheap invariant checks.
    """

    m: int
    n: int
    alphas: list
    betas: list
    vs: list
    us: list
    gvs: list
    pus: list
    terminated: bool
    k_t: int | None
    breakdown_ref: float
    reorthogonalize: bool = True
    inner_capped: bool = False

    @property
    def k(self):
        return len(self.vs)

    @property
    def V(self):
        return np.column_stack(self.vs) if self.vs else np.zeros((self.n, 0))

    @property
    def U_tilde(self):
        return np.column_stack(self.us) if self.us else np.zeros((self.m, 0))

    def bidiagonal(self, k=None):
        """The (k+1) x k lower-bidiagonal coefficient matrix B_k."""
        if k is None:
            k = min(len(self.alphas), len(self.betas) - 1)
        B = np.zeros((k + 1, k))
        for i in range(k):
            B[i, i] = self.alphas[i]
            B[i + 1, i] = self.betas[i + 1]
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

    base = dict(m=prob.m, n=prob.n, reorthogonalize=reorthogonalize)
    init_scale = math.sqrt(prob.p_norm) * bnorm
    if beta1 <= BREAKDOWN_REL * init_scale:
        return BidiagState(
            alphas=[0.0], betas=[beta1], vs=[], us=[], gvs=[], pus=[],
            terminated=True, k_t=0, breakdown_ref=max(beta1, 1.0), **base,
        )

    # keep the u-carrier inside R(P): components in N(P) are invisible to
    # the P-weighted recurrences but amplify by 1/beta each step and
    # eventually poison the computed inner products when P is singular
    u1 = (b if prob.M is None else prob.projector_p @ b) / beta1
    pu1 = pb / beta1
    s = strategy.apply(prob.A.T @ pu1)
    gs = prob.G @ s
    snorm_sq = float(s @ s)
    alpha1 = math.sqrt(_radicand(float(s @ gs), prob.g_norm, snorm_sq))
    ref = max(alpha1, beta1)

    if alpha1 <= BREAKDOWN_REL * ref:
        return BidiagState(
            alphas=[0.0], betas=[beta1], vs=[], us=[u1], gvs=[], pus=[pu1],
            terminated=True, k_t=0, breakdown_ref=ref,
            inner_capped=getattr(strategy, "hit_cap", False), **base,
        )

    return BidiagState(
        alphas=[alpha1], betas=[beta1], vs=[s / alpha1], us=[u1],
        gvs=[gs / alpha1], pus=[pu1], terminated=False, k_t=None,
        breakdown_ref=ref, inner_capped=getattr(strategy, "hit_cap", False), **base,
    )


def ggkb_step(state: BidiagState, prob: GlsProblem, strategy) -> BidiagState:
    """One expansion: returns a new state with beta_{k+1}, alpha_{k+1} appended.

    Either coefficient falling to the breakdown threshold (relative to the
    initial coefficient scale) terminates the process at k_t = k.
    """
    if state.terminated:
        raise ValueError("the bidiagonalization already terminated")
    i = state.k
    threshold = BREAKDOWN_REL * state.breakdown_ref
    # coefficients below the accuracy the strategy actually delivers are
    # indistinguishable from noise, so the degeneracy cutoff scales with it
    degenerate = max(DEGENERATE_REL, 4.0 * getattr(strategy, "relative_noise", 0.0))
    alphas = list(state.alphas)
    betas = list(state.betas)
    vs = list(state.vs)
    us = list(state.us)
    gvs = list(state.gvs)
    pus = list(state.pus)

    r = prob.A @ vs[-1] - alphas[-1] * us[-1]
    if prob.M is not None:
        r = prob.projector_p @ r  # drop N(P) junk, see ggkb_init
    if state.reorthogonalize:
        # two MGS passes; one is not enough when the new direction emerges
        # from heavy cancellation near Krylov exhaustion
        for _ in range(2):
            for u_j, pu_j in zip(us, pus):
                r -= (pu_j @ r) * u_j
    pr = prob.mult_P(r)
    beta_next = math.sqrt(_radicand(float(r @ pr), prob.p_norm, float(r @ r)))
    # besides the absolute cutoff, a coefficient vanishing relative to its
    # partner in the three-term identity (||A v_i||_P^2 = alpha_i^2 +
    # beta_{i+1}^2) marks a numerically degenerate rotation: the spaces are
    # exhausted and anything below the cancellation floor is roundoff
    if beta_next <= max(threshold, degenerate * alphas[-1]):
        alphas.append(0.0)
        betas.append(0.0)
        return replace(
            state, alphas=alphas, betas=betas, terminated=True, k_t=i,
            inner_capped=state.inner_capped or getattr(strategy, "hit_cap", False),
        )

    u_next = r / beta_next
    pu_next = pr / beta_next
    us.append(u_next)
    pus.append(pu_next)

    s = strategy.apply(prob.A.T @ pu_next) - beta_next * vs[-1]
    gs = prob.G @ s
    if state.reorthogonalize:
        for _ in range(2):
            for v_j, gv_j in zip(vs, gvs):
                c = gv_j @ s
                s -= c * v_j
                gs -= c * gv_j
    value = float(s @ gs)
    if value < 0.0:
        # the maintained gs carries absolute drift from earlier scales; a
        # fresh product restores the ||s||^2-proportional error the
        # negativity guard assumes
        gs = prob.G @ s
        value = float(s @ gs)
    alpha_next = math.sqrt(_radicand(value, prob.g_norm, float(s @ s)))
    betas.append(beta_next)
    if alpha_next <= max(threshold, degenerate * beta_next):
        alphas.append(0.0)
        return replace(
            state, alphas=alphas, betas=betas, us=us, pus=pus,
            terminated=True, k_t=i,
            inner_capped=state.inner_capped or getattr(strategy, "hit_cap", False),
        )

    alphas.append(alpha_next)
    vs.append(s / alpha_next)
    gvs.append(gs / alpha_next)
    return replace(
        state, alphas=alphas, betas=betas, vs=vs, us=us, gvs=gvs, pus=pus,
        inner_capped=state.inner_capped or getattr(strategy, "hit_cap", False),
    )

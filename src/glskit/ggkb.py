"""Generalized Golub-Kahan bidiagonalization (gGKB).

Starting from b, the process generates vectors v_i that are orthonormal in
the G-inner product and vectors u~_i that are orthonormal in the
P-seminorm, together with the coefficients of a growing lower-bidiagonal
matrix. M maps (R^m, P-seminorm) isometrically onto R(M) in R^q with the
2-norm, so the data side is carried as u_bar_i = M u~_i, orthonormal in the
Euclidean inner product, and A'P u~_i = (MA)' u_bar_i:

    beta_1 u_bar_1 = M b
    s = Gdag((MA)' u_bar_i) - beta_i v_{i-1}
    alpha_i = (||MA s||^2 + ||L s||^2)^(1/2),  v_i = s / alpha_i
    r = MA v_i - alpha_i u_bar_i,   beta_{i+1} = (r'r)^(1/2),  u_bar_{i+1} = r / beta_{i+1}

alpha_i, the G-norm of s, is a sum of squares as G = (MA)'(MA) + L'L, and
MA v_i = (MA s) / alpha_i is kept for the next r. So a step reads G only
through one application of pinv(G) (MA)', and how that is carried out is
pluggable. A strategy has four members:

- ``bind(prob)``, which ``ggkb_init`` calls once, before the first apply:
  the strategy takes from the problem what its applies read;
- ``apply(u)``, pinv(G) (MA)' u for u in R^q, or an approximation of it;
- ``relative_noise``, the relative accuracy the applies deliver;
- ``hit_cap``, True once an inner iteration has ended unconverged (out of
  steps, or on a curvature breakdown).

The dense strategies apply the problem's ``W = pinv(G) (MA)'``, made from
one QR of the stacked operator (``FactorStore.kn``); the inner one forms
(MA)' u and runs conjugate gradients on G.

``ggkb_init`` is the first expansion (with v_0 = 0) and ``ggkb_step`` each
later one. The data side M U~ lives in one workspace (``Basis``) that each
expansion extends in place; each step reorthogonalizes it, Euclidean in
R^q, by block classical Gram-Schmidt, with a second pass where the first
cancels heavily (see ``Basis.project_out``). One side is enough to keep the
computed bidiagonal accurate (Simon & Zha, SIAM J. Sci. Comput. 21(6),
2000; Barlow, Numer. Math. 124, 2013), so the v_i are never projected, and
the recurrence, like the LSQR recurrence of gLSQR on top of it, reads only
the latest one: no basis V is stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded

# cholesky_spd is not called here; it stays importable because the
# benchmark's tracer (glsbench/spans.py) hooks glskit.ggkb.cholesky_spd
from .linalg import IndefiniteMatrixError, check_symmetric, cholesky_spd, lsqr  # noqa: F401
from .wpinv import GlsProblem

__all__ = [
    "DensePinvStrategy",
    "CholeskyStrategy",
    "InnerLsqrStrategy",
    "BidiagState",
    "ggkb_init",
    "ggkb_step",
]

BREAKDOWN_REL = 1e-13
DEGENERATE_REL = 1e-8
# workspace columns before the first doubling
INITIAL_COLUMNS = 16


class DensePinvStrategy:
    """Apply pinv(G) (MA)' as one n x q product with the problem's W.

    ``G`` is read only for its shape, which ``bind(prob)`` checks against
    ``prob.n``; ``bind`` then takes ``W`` and ``relative_noise`` from the QR
    of ``[MA; L; N_G']`` that the problem's factor store holds
    (``prob.factors.kn``), made once per problem. ``apply(u)`` is ``W u``.
    ``hit_cap`` is always False.
    """

    hit_cap = False

    def __init__(self, G):
        self.shape = np.shape(G)

    def bind(self, prob):
        if self.shape != (prob.n, prob.n):
            raise ValueError(f"G must be {prob.n} x {prob.n}, got shape {self.shape}")
        factor = prob.factors.kn
        self.W = factor.W
        self.relative_noise = factor.relative_noise

    def apply(self, u):
        return self.W @ u


class CholeskyStrategy(DensePinvStrategy):
    """The dense strategy for a nonsingular G only.

    The R of the QR of ``K_N = [MA; L; N_G']`` is the Cholesky factor of
    ``G + N_G N_G'``, so ``bind(prob)`` refuses, with
    :class:`IndefiniteMatrixError`, a G with a nonempty null space N_G or a
    pivot ``r_jj^2`` at or below ``1e-14 max(diag(G))``, the rule of
    ``linalg.cholesky_spd``; otherwise it binds as :class:`DensePinvStrategy`
    does. ``apply(u)``, ``relative_noise`` and ``hit_cap`` are the dense
    strategy's.
    """

    def bind(self, prob):
        super().bind(prob)
        null = prob.factors.nullspace_g.shape[1]
        if null:
            raise IndefiniteMatrixError(f"G is singular: its null space has dimension {null}")
        factor = prob.factors.kn
        small = np.flatnonzero(factor.pivots <= 1e-14 * factor.diagonal_max)
        if small.size:
            j = int(small[0])
            pivot = float(factor.pivots[j])
            raise IndefiniteMatrixError(
                f"nonpositive pivot {pivot:.3e} at column {j}", pivot=pivot, index=j
            )


class InnerLsqrStrategy:
    """Approximate pinv(G) (MA)' u by inner conjugate gradients on G s = rhs.

    ``apply(u)`` forms ``rhs = (MA)' u``, in R(G), so CG from zero returns
    the minimum-norm solution. ``tau`` is the inner relative-residual
    tolerance, ``||G s - rhs|| <= tau ||rhs||``; it caps the accuracy of
    everything built on top, and ``relative_noise`` is the larger of ``tau``
    and the worst residual an apply delivered. CG reads ``G`` only through
    products: a dense ``G`` through one triangle, by BLAS ``symv``, so it
    must be symmetric (checked here once, to rtol 1e-10), while scipy sparse
    and callable ``G`` are kept as given and applied as they are.
    ``max_iter`` defaults to the ``4n`` cap of :func:`lsqr`. An inner solve
    that ends unconverged, at the iteration cap or on a curvature breakdown,
    latches ``hit_cap`` instead of raising. ``inner_iterations`` counts the
    CG iterations of every apply.

    :meth:`bind` takes the problem's ``MA`` and preconditions CG from the
    problem when its ``L`` is a scipy sparse stencil: with ``P = L'L + cI``,
    the shift ``c = ||MA||_F^2 / n`` being the mean eigenvalue of
    ``(MA)'MA``, each apply runs PCG with the banded Cholesky factor of P.
    The stop test is the same, so ``tau`` keeps its meaning. The result
    stays the minimum-norm solution without any projection: N(G) = N(MA) ∩
    N(L), on which ``P z = c z``, so P^-1 maps R(G) into itself and the
    iterates never leave it. A dense ``L``, ``p = 0``, a vanishing ``MA``
    or a bandwidth of ``L'L`` above ``MAX_BANDWIDTH`` leaves CG
    unpreconditioned.
    """

    # half-bandwidth w of L'L at most this: the factor holds (w + 1) n
    # entries and its solve costs about 4 (w + 1) n flops per CG iteration,
    # a small share of the 2 n^2 of a dense product with G at the n where
    # gLSQR is run (l1 and l2 stencils have w = 1 and 2)
    MAX_BANDWIDTH = 8

    def __init__(self, G, tau=1e-12, max_iter=None):
        if not tau > 0:
            raise ValueError("tau must be positive")
        if not callable(G) and not sp.issparse(G):
            check_symmetric(G)
        self.G = G
        self.tau = float(tau)
        self.max_iter = max_iter
        self.precond = None
        self.hit_cap = False
        self.inner_iterations = 0
        self._worst_achieved = 0.0

    @property
    def relative_noise(self):
        # what the inner solver actually delivered, not just what was asked
        return max(self.tau, self._worst_achieved)

    def bind(self, prob):
        """Take ``prob.MA``, and set ``precond`` from ``prob.L`` and
        ``prob.MA`` (see the class docstring): the upper banded Cholesky
        factor of ``L'L + cI``, or None."""
        self.MA = prob.MA
        self.precond = None
        L, n = prob.L, prob.n
        c = float(np.linalg.norm(prob.MA)) ** 2 / n
        if not sp.issparse(L) or L.shape[0] == 0 or not c > 0.0:
            return
        upper = sp.triu(L.T @ L, format="coo")
        w = int((upper.col - upper.row).max(initial=0))
        if w > self.MAX_BANDWIDTH:
            return
        # LAPACK upper band storage: entry (i, j), i <= j, at row w + i - j
        band = np.zeros((w + 1, n))
        band[w + upper.row - upper.col, upper.col] = upper.data
        band[w] += c
        try:
            self.precond = cholesky_banded(band, check_finite=False)
        except np.linalg.LinAlgError:
            pass  # P not numerically positive definite: plain CG

    def apply(self, u):
        result = lsqr(
            self.G, self.MA.T @ u, tau=self.tau, max_iter=self.max_iter, precond=self.precond
        )
        self.inner_iterations += result.iterations
        if not result.converged:
            self.hit_cap = True
        self._worst_achieved = max(self._worst_achieved, result.relative_residual)
        return result.x


@dataclass(eq=False)
class Basis:
    """Columns x_1..x_k in one growable workspace (the data side M U~).

    ``X`` is a Fortran-ordered ``(dim, capacity)`` array whose leading ``k``
    columns are in use; the capacity doubles when full, up to ``limit`` and
    past it only if a run outlives its Krylov bound.
    """

    X: np.ndarray
    limit: int
    k: int = 0

    @classmethod
    def empty(cls, dim, limit):
        cap = min(INITIAL_COLUMNS, limit)
        return cls(np.empty((dim, cap), order="F"), limit)

    @property
    def cols(self):
        return self.X[:, : self.k]

    def append(self, x):
        cap = self.X.shape[1]
        if self.k == cap:
            grown = 2 * cap if cap >= self.limit else min(2 * cap, self.limit)
            self.X = _widened(self.X, grown)
        self.X[:, self.k] = x
        self.k += 1

    def project_out(self, x):
        """Remove from x its Euclidean components along the basis.

        Classical Gram-Schmidt as matrix-vector products, with a second pass
        only when the first leaves less than half of x's squared norm (Daniel,
        Gragg, Kaufman & Stewart, Math. Comp. 30, 1976): such cancellation, as
        near Krylov exhaustion, leaves roundoff along the basis that is large
        relative to the result.
        """
        X = self.cols
        before = float(x @ x)
        x -= X @ (X.T @ x)
        if float(x @ x) < 0.5 * before:
            x -= X @ (X.T @ x)


def _widened(a, cols):
    """A Fortran-ordered copy of ``a`` with room for ``cols`` columns."""
    w = np.empty((a.shape[0], cols), order="F")
    w[:, : a.shape[1]] = a
    return w


@dataclass(eq=False)
class BidiagState:
    """The bidiagonalization after k completed expansions, updated in place.

    ``alphas`` and ``betas`` always have equal length. A kept alpha is
    positive and every termination stores a zero one, so ``terminated`` is
    read off a trailing zero in ``alphas`` (the Krylov spaces are exhausted
    and the current gLSQR iterate is exact), and ``k`` counts the kept
    alphas. A run that terminates in ``ggkb_init`` stores beta_1 = 0.0 as
    well. ``u`` holds the columns M u~_i in R^q, kept orthonormal in the
    Euclidean inner product by reorthogonalization, where the u~_i are the
    P-orthonormal data-side vectors of the recurrence (see the module
    docstring); ``MU`` is a view of its leading columns. The solution side
    keeps only what the recurrence reads: ``v``, the latest v_k (zero before
    the first expansion), which each expansion replaces with a fresh array,
    and ``ma_v`` = MA v_k, overwritten in place. ``ggkb_step`` mutates the
    state and returns the same object, so a view of ``MU`` taken earlier
    keeps its columns but stops sharing memory with the state once the
    workspace grows.
    """

    alphas: list
    betas: list
    v: np.ndarray
    u: Basis
    ma_v: np.ndarray
    inner_capped: bool = False

    @property
    def k(self):
        return len(self.alphas) - self.terminated

    @property
    def terminated(self):
        return self.alphas[-1] == 0.0

    @property
    def MU(self):
        return self.u.cols


def _expand(state, prob, strategy, r, beta_floor, threshold, relative):
    """One expansion from r (projected in place): append beta and u, then
    alpha and v, keeping MA v and latching the strategy's cap.

    The expansion terminates, with a zero beta and alpha, if beta is at or
    below ``beta_floor``, or with a zero alpha if alpha is at or below
    ``max(threshold, relative * beta)``.
    """
    state.u.project_out(r)
    beta = math.sqrt(float(r @ r))
    if beta <= beta_floor:
        state.alphas.append(0.0)
        state.betas.append(0.0)
        return
    u = r / beta
    s = strategy.apply(u) - beta * state.v
    ma_s = prob.MA @ s
    l_s = prob.L @ s
    alpha = math.sqrt(float(ma_s @ ma_s) + float(l_s @ l_s))
    state.betas.append(beta)
    state.u.append(u)
    state.inner_capped = state.inner_capped or strategy.hit_cap
    if alpha <= max(threshold, relative * beta):
        state.alphas.append(0.0)
    else:
        state.alphas.append(alpha)
        state.v = s / alpha
        np.divide(ma_s, alpha, out=state.ma_v)


def ggkb_init(prob: GlsProblem, strategy) -> BidiagState:
    """The first expansion, from M b; may terminate immediately.

    If M b vanishes (b in the null space of M) the state terminates with
    k = 0 and the downstream solution is zero. "Vanishes" means
    ``||M b|| <= BREAKDOWN_REL ||M||_F ||b||`` (``||I_m||_F = sqrt(m)`` when M
    is None), the roundoff floor of the product M b. An alpha_1 at or below
    ``BREAKDOWN_REL beta_1`` terminates at k = 0 too. Either way the
    terminating coefficients are stored as 0.0. The strategy gets
    ``bind(prob)`` first, before its first apply.
    """
    if prob.b is None:
        raise ValueError("problem has no right-hand side b")
    strategy.bind(prob)
    # the Krylov spaces hold at most min(m, n) directions, MU one more
    limit = min(prob.m, prob.n) + 1
    state = BidiagState(
        alphas=[], betas=[],
        v=np.zeros(prob.n),
        u=Basis.empty(prob.q, limit),
        ma_v=np.zeros(prob.q),
    )
    norm_m = math.sqrt(prob.m) if prob.M is None else float(np.linalg.norm(prob.M))
    init_scale = norm_m * float(np.linalg.norm(prob.b))
    # a copy: mult_M returns b itself when M is None, and r is projected in place
    r = prob.mult_M(prob.b).copy()
    _expand(state, prob, strategy, r, BREAKDOWN_REL * init_scale, 0.0, BREAKDOWN_REL)
    return state


def ggkb_step(state: BidiagState, prob: GlsProblem, strategy) -> BidiagState:
    """One expansion in place: appends beta_{k+1}, alpha_{k+1}; returns ``state``.

    Either coefficient falling to the breakdown threshold (relative to the
    initial coefficient scale) terminates the process at the current k.
    """
    if state.terminated:
        raise ValueError("the bidiagonalization already terminated")
    threshold = BREAKDOWN_REL * max(state.alphas[0], state.betas[0])
    # coefficients below the accuracy the strategy actually delivers are
    # indistinguishable from noise, so the degeneracy cutoff scales with it
    degenerate = max(DEGENERATE_REL, 4.0 * strategy.relative_noise)
    alpha = state.alphas[-1]
    r = state.ma_v - alpha * state.MU[:, -1]
    # besides the absolute cutoff, a coefficient vanishing relative to its
    # partner in the three-term identity (||MA v_i||^2 = alpha_i^2 +
    # beta_{i+1}^2) marks a numerically degenerate rotation: the spaces are
    # exhausted and anything below the cancellation floor is roundoff
    _expand(state, prob, strategy, r, max(threshold, degenerate * alpha), threshold, degenerate)
    return state

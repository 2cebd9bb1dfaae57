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
pluggable. A strategy is also the map of the coordinates its applies
return, and has seven members:

- ``bind(prob)``, which ``ggkb_init`` calls once, before the first apply:
  the strategy takes from the problem what its applies and its map read;
- ``dim``, the dimension of the coordinates s^, ``image(s^)``, which
  returns MA s and ||s||_G, and ``to_x(S)``, which maps a block of
  coordinate columns to x-space: a linear map from s^ to x-space that is
  isometric from the 2-norm to the G-norm on R(G);
- ``apply(u)``, pinv(G) (MA)' u for u in R^q, or an approximation of it,
  in those coordinates;
- ``relative_noise``, the relative accuracy the applies deliver, from
  which every cutoff below takes its floor, ``10 relative_noise``;
- ``hit_cap``, True once an inner iteration has ended unconverged (out of
  steps, or on a curvature breakdown).

The recurrence above runs on the coordinates: the s and v_i it keeps are
s^ and v^_i. In x-space itself, the map of the inner strategy, that is
the arithmetic above.

In the coordinates s^ = F s of the problem's factor ``[L; MA] = Z F``,
||s||_G = ||s^||, MA s = Z_B s^ and pinv(G) (MA)' u has the coordinates
Z_B' u, Z_B (q x r) the rows of Z that belong to MA: gGKB is there the
plain Golub-Kahan process of Z_B (LSQR; Paige & Saunders, ACM TOMS 8(1),
1982). The dense strategies run it on the triangle of ``Z_B' = Q [R;
0]``, in the coordinates t = Q_1' s^, whose map is that of
``FactorStore.gdag``, a ``GdagFactors``: ||s||_G = ||t||, MA s = R' t
and the coordinates of pinv(G) (MA)' u are R u, so a step is two BLAS
``trmv`` with the q x q triangle R, and the coefficients are those of
Z_B, as Golub-Kahan's are under an orthogonal change of coordinates. The
inner one's map is x-space itself: it forms (MA)' u and runs conjugate
gradients on G there.

``ggkb_init(prob, strategy)`` binds the strategy and makes the first
expansion (with v_0 = 0); ``ggkb_step(state, strategy)`` makes each later
one, and reads the problem only through what the state holds and the
strategy bound. The data side M U~ lives in one workspace (``Basis``)
that each expansion extends in place; each step reorthogonalizes it,
Euclidean in R^q, by block classical Gram-Schmidt, with a second pass
where the first cancels heavily (see ``Basis.project_out``). One side is
enough to keep the computed bidiagonal accurate (Simon & Zha, SIAM J.
Sci. Comput. 21(6), 2000; Barlow, Numer. Math. 124, 2013), so the v_i are
never projected, and the recurrence, like the LSQR recurrence of gLSQR on
top of it, reads only the latest one: no basis V is stored.

The alphas and the betas from beta_2 on are the entries of the lower
bidiagonal B_k = U' (MA) V of the map v -> MA v from (R(G), G-norm) to R^q,
whose norm, the largest GSVD cosine of {MA, L}, is at most 1. They do not
change when b is scaled; only beta_1 = ||M b|| does. So every cutoff takes
its scale from the entries of B_k, never from beta_1, and scaling b by a
power of 2 scales the iterates by it exactly: a coefficient at or below
``10 relative_noise`` is roundoff of the applies, whatever the scale of b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded

# cholesky_spd is not called here; it stays importable because the
# benchmark's tracer (glsbench/spans.py) hooks glskit.ggkb.cholesky_spd
from .linalg import (  # noqa: F401
    IndefiniteMatrixError, check_count, check_pivots, check_symmetric, check_tolerance,
    cholesky_spd, lsqr,
)
from .wpinv import GlsProblem

__all__ = [
    "DensePinvStrategy",
    "CholeskyStrategy",
    "InnerLsqrStrategy",
    "BidiagState",
    "ggkb_init",
    "ggkb_step",
]

# the roundoff floor of the product M b, relative to ||M||_F ||b||
BREAKDOWN_REL = 1e-13
DEGENERATE_REL = 1e-8
# workspace columns before the first doubling
INITIAL_COLUMNS = 16


def _check_shape(shape, n):
    """ValueError unless ``shape``, that of G, is n x n."""
    if shape != (n, n):
        raise ValueError(f"G must be {n} x {n}, got shape {shape}")


class DensePinvStrategy:
    """Apply pinv(G) (MA)' in the coordinates of the factors of pinv(G) (MA)'.

    ``G`` is read only for its shape, which ``bind(prob)`` checks against
    ``prob.n``; ``bind`` then keeps as ``gdag`` the problem's
    :class:`~glskit.linalg.GdagFactors` (``prob.factors.gdag``, made once
    per problem) and takes its map, ``dim``, ``image`` and ``to_x``: with
    ``[L; MA] = Z F`` and ``Z_B' = Q [R; 0]``, Z_B the rows of Z that
    belong to MA, its coordinates are ``t = Q_1' F s``. ``bind`` sets
    ``relative_noise`` to the factor's ``noise``, the relative roundoff of
    the factor of ``[L; MA]``. ``apply(u)`` is ``R u``, the coordinates of
    pinv(G) (MA)' u: one BLAS ``trmv`` with the q x q triangle R (a
    product when q > rank [L; MA] makes R trapezoidal). ``hit_cap`` is
    always False.
    """

    hit_cap = False

    def __init__(self, G):
        self.shape = np.shape(G)

    def bind(self, prob):
        _check_shape(self.shape, prob.n)
        gdag = self.gdag = prob.factors.gdag
        self.relative_noise = gdag.noise
        self.dim, self.image, self.to_x = gdag.dim, gdag.image, gdag.to_x

    def apply(self, u):
        return self.gdag.apply(u)


class CholeskyStrategy(DensePinvStrategy):
    """The dense strategy for a nonsingular G only.

    The R of a QR of ``K = [L; MA]`` is the Cholesky factor of G = K'K, so
    ``bind(prob)`` refuses, with :class:`IndefiniteMatrixError`, a G whose
    factor (``prob.factors.gdag``, made once per problem) does not certify
    K of full column rank (a wide K is never certified), or a pivot
    ``r_jj^2`` at or below ``1e-14 max(diag(G))``, the rule of
    ``linalg.check_pivots``. A G of the wrong shape it refuses first, with
    the dense strategy's ValueError. The pivots are read off the factor's
    ``F_pinv`` = R^-1, whose diagonal LAPACK ``trtri`` forms as ``1 /
    r_jj``, and diag(G) off the squared column norms of MA and L. It
    refuses before it binds anything; otherwise it binds as
    :class:`DensePinvStrategy` does. Its map, ``apply(u)``,
    ``relative_noise`` and ``hit_cap`` are the dense strategy's.
    """

    def bind(self, prob):
        _check_shape(self.shape, prob.n)
        factor, L = prob.factors.gdag, prob.L
        if not factor.certified:
            raise IndefiniteMatrixError("G is singular: the factor of [L; MA] cannot certify it")
        # the squared column norms of MA and L; a sparse L is canonical CSR
        # (GlsProblem), so its entries in column j are those of index j
        diag_g = np.einsum("ij,ij->j", prob.MA, prob.MA)
        diag_g += (np.bincount(L.indices, L.data**2, prob.n) if sp.issparse(L)
                   else np.einsum("ij,ij->j", L, L))
        check_pivots(factor.F_pinv.diagonal() ** -2.0, diag_g)
        super().bind(prob)


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
    ``max_iter``, an integer of at least 1, defaults to the ``4n`` cap of
    :func:`lsqr`. An inner solve that ends unconverged, at the iteration
    cap or on a curvature breakdown, latches ``hit_cap`` instead of
    raising. ``inner_iterations`` counts the CG iterations of every apply.
    All three start afresh at each :meth:`bind`.

    :meth:`bind` checks an array or scipy sparse ``G`` against ``prob.n``,
    as the dense strategies do (a callable ``G`` is not checked), and takes
    the problem's ``MA`` and ``L``. The strategy's map is that of x-space
    itself: ``dim`` is n, :meth:`image` returns MA s and ``||s||_G =
    (||MA s||^2 + ||L s||^2)^(1/2)``, and :meth:`to_x` its argument.
    :meth:`bind` also preconditions CG from the problem when its ``L`` is
    a scipy sparse stencil: with ``P = L'L + cI``, the shift ``c =
    ||MA||_F^2 / n`` being the mean eigenvalue of ``(MA)'MA``, each apply
    runs PCG with the banded Cholesky factor of P, kept in LAPACK
    ``pbtrf`` layout as ``precond``. :func:`lsqr` solves with P in O(n)
    per iteration: by ``pttrs`` on the factor's LDL' form when P is
    tridiagonal (the l1 stencil) or diagonal (a sparse identity ``L``),
    else by ``pbtrs`` (the l2 stencil). The stop test is the same, so ``tau`` keeps its meaning.
    The result stays the minimum-norm solution without any projection:
    N(G) = N(MA) ∩ N(L), on which ``P z = c z``, so P^-1 maps R(G) into
    itself and the iterates never leave it. A dense ``L``, ``p = 0``, a
    vanishing ``MA`` or a bandwidth of ``L'L`` above ``MAX_BANDWIDTH``
    leaves CG unpreconditioned.
    """

    # half-bandwidth w of L'L at most this: the factor holds (w + 1) n
    # entries and its solve costs about 4 (w + 1) n flops per CG iteration,
    # a small share of the 2 n^2 of a dense product with G at the n where
    # gLSQR is run (l1 and l2 stencils have w = 1 and 2)
    MAX_BANDWIDTH = 8

    def __init__(self, G, tau=1e-12, max_iter=None):
        self.tau = check_tolerance(tau, "tau")
        if not callable(G) and not sp.issparse(G):
            check_symmetric(G)
        self.G = G
        self.max_iter = None if max_iter is None else check_count(max_iter, "max_iter")

    @property
    def relative_noise(self):
        # what the inner solver actually delivered, not just what was asked
        return max(self.tau, self._worst_achieved)

    def bind(self, prob):
        """Check G's shape, take ``prob.MA`` and ``prob.L`` for the
        strategy's own map, and set ``precond`` from them (see the class
        docstring): the upper banded Cholesky factor of ``L'L + cI``, or
        None."""
        if not callable(self.G):
            _check_shape(np.shape(self.G), prob.n)
        L, n = prob.L, prob.n
        self.MA, self.L, self.dim = prob.MA, L, n
        self.precond = None
        self.hit_cap = False
        self.inner_iterations = 0
        self._worst_achieved = 0.0
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

    def image(self, s):
        ma_s = self.MA @ s
        l_s = self.L @ s
        return ma_s, math.sqrt(float(ma_s @ ma_s) + float(l_s @ l_s))

    def to_x(self, S):
        return S


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
    keeps only what the recurrence reads, in the coordinates of the
    strategy that ``ggkb_init`` bound: ``v_hat``, the coordinates of the
    latest v_k (zero before the first expansion), which each expansion
    replaces with a fresh array, and ``ma_v`` = MA v_k, overwritten in
    place; the strategy's ``to_x`` maps ``v_hat`` to v_k itself.
    ``ggkb_step`` mutates the state and returns the same object, so a view
    of ``MU`` taken earlier keeps its columns but stops sharing memory with
    the state once the workspace grows.
    """

    alphas: list
    betas: list
    v_hat: np.ndarray
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


def _expand(state, strategy, r, beta_floor, threshold, relative):
    """One expansion from r (projected in place): append beta and u, then
    alpha and the coordinates of v, keeping MA v and latching the
    strategy's cap.

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
    s = strategy.apply(u) - beta * state.v_hat
    ma_s, alpha = strategy.image(s)
    state.betas.append(beta)
    state.u.append(u)
    state.inner_capped = state.inner_capped or strategy.hit_cap
    if alpha <= max(threshold, relative * beta):
        state.alphas.append(0.0)
    else:
        state.alphas.append(alpha)
        state.v_hat = s / alpha
        np.divide(ma_s, alpha, out=state.ma_v)


def ggkb_init(prob: GlsProblem, strategy) -> BidiagState:
    """The first expansion, from M b; may terminate immediately.

    If M b vanishes (b in the null space of M) the state terminates with
    k = 0 and the downstream solution is zero. "Vanishes" means
    ``||M b|| <= BREAKDOWN_REL ||M||_F ||b||`` (``||I_m||_F = sqrt(m)`` when M
    is None), the roundoff floor of the product M b. An alpha_1 at or below
    ``10 strategy.relative_noise`` terminates at k = 0 too: alpha_1 is an
    entry of B_k, at most 1 whatever the scale of b (see the module
    docstring), which only beta_1 carries. Either way the terminating
    coefficients are stored as 0.0. The strategy gets ``bind(prob)``
    first, before its first apply; ``v_hat`` then has the strategy's
    ``dim``.
    """
    if prob.b is None:
        raise ValueError("problem has no right-hand side b")
    strategy.bind(prob)
    # the Krylov spaces hold at most min(m, n) directions, MU one more
    limit = min(prob.m, prob.n) + 1
    state = BidiagState(
        alphas=[], betas=[],
        v_hat=np.zeros(strategy.dim),
        u=Basis.empty(prob.q, limit),
        ma_v=np.zeros(prob.q),
    )
    norm_m = math.sqrt(prob.m) if prob.M is None else float(np.linalg.norm(prob.M))
    init_scale = norm_m * float(np.linalg.norm(prob.b))
    # a copy: mult_M returns b itself when M is None, and r is projected in place
    r = prob.mult_M(prob.b).copy()
    _expand(state, strategy, r, BREAKDOWN_REL * init_scale, 10.0 * strategy.relative_noise, 0.0)
    return state


def ggkb_step(state: BidiagState, strategy) -> BidiagState:
    """One expansion in place: appends beta_{k+1}, alpha_{k+1}; returns ``state``.

    The problem is not an argument: the expansion reads ``state`` and the
    ``strategy`` that ``ggkb_init`` bound to the problem. Either
    coefficient at or below ``10 strategy.relative_noise``, an absolute
    floor as the entries of B_k are at most 1 (never scaled by beta_1,
    which scales with b), terminates the process at the current k.
    """
    if state.terminated:
        raise ValueError("the bidiagonalization already terminated")
    # coefficients below the accuracy the strategy actually delivers are
    # indistinguishable from noise, so both cutoffs scale with it
    threshold = 10.0 * strategy.relative_noise
    degenerate = max(DEGENERATE_REL, 4.0 * strategy.relative_noise)
    alpha = state.alphas[-1]
    r = state.ma_v - alpha * state.MU[:, -1]
    # besides the absolute cutoff, a coefficient vanishing relative to its
    # partner in the three-term identity (||MA v_i||^2 = alpha_i^2 +
    # beta_{i+1}^2) marks a numerically degenerate rotation: the spaces are
    # exhausted and anything below the cancellation floor is roundoff
    _expand(state, strategy, r, max(threshold, degenerate * alpha), threshold, degenerate)
    return state

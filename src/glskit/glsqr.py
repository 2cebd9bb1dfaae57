"""gLSQR: the LSQR iteration built on generalized Golub-Kahan bidiagonalization.

At step k the iterate x_k minimizes the 2-norm of the weighted residual
M (A x - b) over the Krylov space span{v_1..v_k}. One loop runs the LSQR
recurrence of Paige and Saunders on the gGKB coefficients: each step
extends the bidiagonalization, applies one Givens rotation to the growing
bidiagonal matrix B_k, updates x_k, and makes one exit test. The stopping
quantity is the G-seminorm of the transformed residual (see
:func:`glsqr_solve`), scaled by beta_1 = ||M b|| and by sigma_max(B_k), the
Lanczos estimate of the operator norm. If the bidiagonalization
terminates, the iterate at the termination step is the exact minimum
2-norm solution.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .ggkb import BidiagState, DensePinvStrategy, ggkb_init, ggkb_step
from .gsvd import gsvd_pair, sigma_max_ca
from .linalg import check_count, check_tolerance
from .wpinv import GlsProblem, check_gls_criterion

__all__ = [
    "SolveReport",
    "OperatorNormEstimate",
    "operator_norm",
    "glsqr_solve",
    "certify_solution",
    "save_history",
]

_TINY = float(np.finfo(np.float64).tiny)
_POWER_REL_TOL = 1e-10

logger = logging.getLogger("glskit")


@dataclass
class OperatorNormEstimate:
    """Estimate of the norm of v -> M A v from (R(G), G) to (R^q, 2-norm).

    ``source`` is ``bidiagonal`` (a solve's sigma_max(B_k), ``iterations``
    = k), ``gsvd_exact`` or ``power_iteration``; ``converged`` is False when
    the power iteration used all its steps unconverged.
    """

    value: float
    source: str
    iterations: int | None = None
    converged: bool = True


@dataclass
class SolveReport:
    """Outcome of a gLSQR run.

    Histories have one entry per completed iteration. The residual-estimate
    history stores the normalized stopping quantity; the true-residual
    history (debug mode only) stores the directly evaluated counterpart.
    ``alphas``, ``betas`` and ``beta1`` are read off ``state``, the final
    :class:`BidiagState`, which keeps the coefficients and the data-side
    basis but no basis of the solution side; ``beta1`` is 0.0 when M b
    vanishes. ``noise_floor`` is ``10 relative_noise`` of the strategy at
    the end of the run, the absolute cutoff that gGKB's coefficients and
    the kept-iterate guard were held to (the entries of B_k are at most 1).
    """

    x: np.ndarray
    iterations: int
    stop_reason: str
    residual_estimate_history: list
    true_residual_history: list | None
    x_norm_history: list
    norm_estimate: OperatorNormEstimate
    state: BidiagState
    noise_floor: float

    alphas = property(lambda self: self.state.alphas)
    betas = property(lambda self: self.state.betas)
    beta1 = property(lambda self: self.state.betas[0])


def operator_norm(prob: GlsProblem, method, max_iters=200) -> OperatorNormEstimate:
    """Norm of the map v -> M A v from (R(G), G) to (R^q, 2-norm).

    An oracle for the estimate a solve reports. ``gsvd`` computes it exactly
    as the largest diagonal of C_A of the pair {MA, L}; ``power`` runs a
    power iteration on W MA in the G-inner product, seeded with W M b, W =
    pinv(G) (MA)', for at most ``max_iters`` (an integer, at least 1)
    steps. It runs in the coordinates t of the dense strategies
    (``prob.factors.gdag``; see :mod:`glskit.ggkb`), where ||v||_G =
    ||t||, MA v = R' t and W u has the coordinates R u: each step is ``t <-
    R (R' t) / ||t||``, two products with the q x q triangle R, and no
    iterate is mapped to x-space.
    """
    if method == "gsvd":
        value = sigma_max_ca(gsvd_pair(prob.MA, prob.L))
        return OperatorNormEstimate(value=value, source="gsvd_exact")
    if method != "power":
        raise ValueError(f"unknown operator norm method {method!r}")
    max_iters = check_count(max_iters, "max_iters")

    gdag = prob.factors.gdag
    seed = prob.b if prob.b is not None else np.random.default_rng(0).standard_normal(prob.m)
    t = gdag.apply(prob.mult_M(seed))

    # max_iters >= 1, so the loop sets ``it`` and ``converged``
    estimate = 0.0
    for it in range(1, max_iters + 1):
        ma_v, v_g = gdag.image(t)
        if v_g == 0.0:
            return OperatorNormEstimate(value=0.0, source="power_iteration", iterations=it)
        Av = ma_v / v_g
        new_estimate = math.sqrt(float(Av @ Av))
        converged = abs(new_estimate - estimate) <= _POWER_REL_TOL * new_estimate
        estimate = new_estimate
        if converged:
            break
        t = gdag.apply(Av)
    if not converged:
        logger.warning(
            "operator_norm: power iteration stopped at max_iters=%d without meeting "
            "rel_tol=%.1e; estimate %.17g may be low", max_iters, _POWER_REL_TOL, estimate,
        )
    return OperatorNormEstimate(
        value=estimate, source="power_iteration", iterations=it, converged=converged
    )


# iterates mapped to x-space per block: at most BLOCK_COLUMNS of them, and
# at most BLOCK_DOUBLES entries (256 KiB) of coordinates or of x-space
BLOCK_COLUMNS = 32
BLOCK_DOUBLES = 2**15


def _bidiagonal_norm(state: BidiagState, k: int) -> float:
    """sigma_max(B_k) from the tridiagonal B_k'B_k; B_k is a leading block of
    B_{k+1}, so it never decreases with k nor exceeds the operator norm.
    B_0 is empty, with norm 0."""
    if k == 0:
        return 0.0
    a, b = np.array(state.alphas[:k]), np.array(state.betas[1 : k + 1])
    d, e = a * a + b * b, a[1:] * b[:-1]
    top = eigvalsh_tridiagonal(d, e, select="i", select_range=(k - 1, k - 1))
    return math.sqrt(max(float(top[0]), 0.0))


def _true_residual(prob, gdag, ma_x):
    """||q||_G of q = pinv(G) A'P (A x - b), given MA x: with ``pinv(G)
    (MA)' = F_pinv Z_B'`` and ``Z_B' = Q [R; 0]`` (``prob.factors.gdag``),
    ||F_pinv y||_G = ||y|| for y in R(F) and Q orthogonal, it is ``||Z_B'
    (MA x - M b)|| = ||R (MA x - M b)||``."""
    return float(np.linalg.norm(gdag.apply(ma_x - prob.mult_M(prob.b))))


def _mapped(strategy, block, xnorm_hist):
    """Map the iterates in ``block``'s columns to x-space by the strategy's
    ``to_x``, append their norms to ``xnorm_hist`` and return the last
    one."""
    X = strategy.to_x(block)
    xnorm_hist.extend(float(np.linalg.norm(X[:, j])) for j in range(X.shape[1]))
    return X[:, -1].copy()


def glsqr_solve(
    prob: GlsProblem,
    strategy=None,
    tol=1e-10,
    max_iter=None,
    debug=False,
) -> SolveReport:
    """Iteratively compute the minimum 2-norm GLS solution A_ML^+ b.

    A numerically zero trailing column of B_k keeps x_{k-1} and records an
    estimate of 0. The loop exits at the first of: the bidiagonalization
    terminated (``ggkb_terminated``; before any step, with x = 0, when M b
    vanishes), the normalized estimate at or below ``tol``
    (``tolerance_met``), or ``max_iter`` steps (``max_iter``).

    Parameters
    ----------
    prob : GlsProblem
        Problem data including b.
    strategy : Gdag strategy, optional
        How pinv(G) is applied each step (default: dense pseudoinverse).
    tol : float
        Stopping threshold, positive and finite, for the residual estimate
        normalized by beta_1 and sigma_max(B_k). The norm is refreshed only
        at k = 1, 2, 4, ...; as it only grows with k, that can delay the
        stop, never advance it.
    max_iter : int, optional
        Iteration cap, default ``2 * min(m, n)``. Reaching it is a status,
        not an error; an explicit cap that is not an integer of at least 1
        raises ``ValueError``.
    debug : bool
        Also record the directly evaluated residual seminorm per iteration
        (dense-cost, for validation). It reads MA x_k off the strategy's
        ``image`` and applies the problem's own factors of pinv(G) (MA)'
        (``prob.factors.gdag``, the ones the dense strategies bind), never
        the strategy's ``apply``, so the run's iterates are those of a
        plain run.

    The recurrence runs in the coordinates of the strategy, which is also
    their map (see :mod:`glskit.ggkb`): x_k and w_k are carried as
    coordinates, and every ``BLOCK_COLUMNS`` iterates (fewer when a block,
    or its image in x-space, would hold more than ``BLOCK_DOUBLES``
    entries) are mapped to x-space at once, by the strategy's ``to_x``,
    which gives ``x_norm_history`` and, from the last block, x.
    """
    check_tolerance(tol, "tol")
    if max_iter is None:
        max_iter = max(2 * min(prob.m, prob.n), 1)
    else:
        max_iter = check_count(max_iter, "max_iter")
    if strategy is None:
        strategy = DensePinvStrategy(prob.G)

    state = ggkb_init(prob, strategy)
    beta1 = state.betas[0]
    dim = strategy.dim
    x_hat = np.zeros(dim)
    w = np.zeros(dim)
    x = np.zeros(prob.n)
    # to_x maps a block to an n-row one
    width = BLOCK_DOUBLES // max(dim, prob.n, 1)
    block = np.empty((dim, max(1, min(BLOCK_COLUMNS, width))), order="F")
    j = 0
    # w_k = v_k - (theta_{k-1} / rho_{k-1}) w_{k-1}, with w_1 = v_1
    rho_bar, phi_bar, w_coef = state.alphas[0], beta1, 0.0
    est_hist, xnorm_hist = [], []
    true_hist = [] if debug else None
    gdag = prob.factors.gdag if debug else None
    k, est, kept = 0, math.inf, False

    while not (state.terminated or est <= tol or k == max_iter):
        k += 1
        w = state.v_hat - w_coef * w
        state = ggkb_step(state, strategy)
        if k & (k - 1) == 0:
            denom = max(_bidiagonal_norm(state, k) * beta1, _TINY)
        alpha_next, beta_next = state.alphas[-1], state.betas[-1]

        rho = math.hypot(rho_bar, beta_next)
        # scaled by the entries of B_k: beta_1 carries the scale of b
        guard = 10.0 * strategy.relative_noise
        if state.terminated and rho <= guard * max(state.alphas + state.betas[1:]):
            # The trailing column of the bidiagonal matrix is numerically
            # zero (the Krylov space was already exhausted and the last
            # direction sits at the noise floor of the pinv(G) application).
            # The minimum-norm solution of the rank-deficient trailing
            # system keeps its coefficient at zero, so the previous iterate
            # stands, as it was mapped: a second map of the same coordinates
            # through blocked kernels need not round alike.
            est, kept = 0.0, True
        else:
            c, s = rho_bar / rho, beta_next / rho
            phi = c * phi_bar
            x_hat = x_hat + (phi / rho) * w
            # alpha_{k+1} beta_{k+1} |phi_k| / rho_k is the G-seminorm of the
            # transformed residual, alpha_{k+1} beta_{k+1} |e_k' y_k|: back
            # substitution in the Givens QR of B_k gives e_k' y_k = phi_k / rho_k
            est = alpha_next * beta_next * abs(phi) / rho / denom
            w_coef = s * alpha_next / rho
            rho_bar, phi_bar = -c * alpha_next, s * phi_bar

        est_hist.append(est)
        if not kept:
            block[:, j] = x_hat
            j += 1
            if j == block.shape[1]:
                x = _mapped(strategy, block, xnorm_hist)
                j = 0
        if debug:
            ma_x = strategy.image(x_hat)[0]
            true_hist.append(_true_residual(prob, gdag, ma_x) / denom)
    if j:
        x = _mapped(strategy, block[:, :j], xnorm_hist)
    if kept:  # the last step, which ended the loop
        xnorm_hist.append(xnorm_hist[-1] if xnorm_hist else 0.0)

    if state.terminated:
        stop_reason = "ggkb_terminated"
    elif est <= tol:
        stop_reason = "tolerance_met"
    else:
        stop_reason = "max_iter"
    norm = OperatorNormEstimate(_bidiagonal_norm(state, k), "bidiagonal", k)
    return SolveReport(
        x=x, iterations=k, stop_reason=stop_reason,
        residual_estimate_history=est_hist, true_residual_history=true_hist,
        x_norm_history=xnorm_hist, norm_estimate=norm, state=state,
        noise_floor=10.0 * strategy.relative_noise,
    )


def certify_solution(prob: GlsProblem, report: SolveReport, tol=1e-8) -> bool:
    """True iff report.x passes the solution criterion and lies in R(G)."""
    crit = check_gls_criterion(prob, report.x, tol)
    return bool(crit) and crit.in_range_g


def save_history(report: SolveReport, path):
    """Convergence history as CSV with columns
    k, res_estimate, res_true, x_norm, alpha, beta (alpha/beta are the
    step-(k+1) coefficients feeding the estimate; res_true is empty unless
    the run recorded it)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "res_estimate", "res_true", "x_norm", "alpha", "beta"])
        for i in range(report.iterations):
            true_val = ""
            if report.true_residual_history is not None:
                true_val = repr(float(report.true_residual_history[i]))
            writer.writerow(
                [
                    i + 1,
                    repr(float(report.residual_estimate_history[i])),
                    true_val,
                    repr(float(report.x_norm_history[i])),
                    repr(float(report.alphas[i + 1])),
                    repr(float(report.betas[i + 1])),
                ]
            )

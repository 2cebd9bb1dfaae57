"""Shared constructors for seeded test problems, and test oracles."""

import math

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse
from scipy.linalg import orth, subspace_angles

import glskit.linalg
from glskit import (
    BidiagState, GlsProblem, RankTolerance, ggkb_init, ggkb_step, gsvd_pair, pinv, svd,
)
from glskit.problems import make_l1, make_l2

# Matrix Market files that overflow: a dimension beyond scipy's int64 shapes
# (size line 2), and an integer value beyond float64 (line 4)
OVERSIZED_DIMENSION = (
    "%%MatrixMarket matrix coordinate real general\n99999999999999999999 3 1\n1 1 1.0\n"
)
OVERFLOWING_INTEGER = f"%%MatrixMarket matrix array integer general\n2 1\n1\n{10**400}\n"

# how far a singular value of a terminated gLSQR bidiagonal may lie from a
# GSVD cosine (spectrum_gap); measured at most 1.2e-15 on the families of
# test_glsqr and 4.4e-16 on the edge shapes
SPECTRUM_GAP = 1e-14


def orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def matrix_with_spectrum(rng, m, n, spectrum):
    """Dense m x n matrix with the given singular values (rank = len(spectrum))."""
    spectrum = np.asarray(spectrum, dtype=np.float64)
    r = spectrum.size
    U = orthogonal(rng, m)[:, :r]
    V = orthogonal(rng, n)[:, :r]
    return (U * spectrum) @ V.T


def random_matrix(rng, m, n, rank=None, cond=10.0):
    """Random matrix with controlled rank and condition number."""
    if rank is None:
        rank = min(m, n)
    spectrum = np.logspace(0.0, -np.log10(cond), rank) if rank > 1 else np.ones(1)
    return matrix_with_spectrum(rng, m, n, spectrum)


def spd_matrix(rng, n, cond=100.0):
    Q = orthogonal(rng, n)
    d = np.logspace(0.0, -np.log10(cond), n)
    return (Q * d) @ Q.T


def random_gls_problem(
    seed,
    m=8,
    n=6,
    p=4,
    q=None,
    rank_a=None,
    rank_m=None,
    rank_l=None,
    shared_null=False,
    cond=10.0,
):
    """Seeded GLS problem with controlled ranks.

    ``q=None`` leaves M as the identity. ``shared_null=True`` plants a common
    unit vector in the null spaces of A and L (so N(MA) & N(L) intersect and
    G is singular).
    """
    rng = np.random.default_rng(seed)
    A = random_matrix(rng, m, n, rank_a, cond)
    L = random_matrix(rng, p, n, rank_l, cond)
    M = random_matrix(rng, q, m, rank_m, cond) if q is not None else None
    if shared_null:
        e = rng.standard_normal(n)
        e /= np.linalg.norm(e)
        killer = np.eye(n) - np.outer(e, e)
        A = A @ killer
        L = L @ killer
    b = rng.standard_normal(m)
    return GlsProblem(A, M, L, b)


def prescribed_gsvd_pair(seed):
    """Seeded {A, L} pair (M = I) with a prescribed GSVD whose top
    generalized singular value has a clear gap."""
    # the gap lets the fixed-budget power iteration reach 1e-8
    rng = np.random.default_rng(seed)
    q1 = int(rng.integers(0, 3))
    q2 = int(rng.integers(2, 6))
    q3 = int(rng.integers(0, 3))
    r = q1 + q2 + q3
    n = r + int(rng.integers(0, 3))
    m = q1 + q2 + int(rng.integers(1, 4))
    p = (r - q1) + int(rng.integers(1, 4))
    c2 = 0.9 * np.exp(-0.4 * np.arange(q2)) * (0.9 + 0.2 * rng.random(q2))
    c = np.concatenate([np.ones(q1), np.sort(np.clip(c2, 0.05, 0.9))[::-1], np.zeros(q3)])
    s = np.sqrt(1 - c**2)
    CA = np.zeros((m, r))
    SL = np.zeros((p, r))
    for i in range(q1 + q2):
        CA[i, i] = c[i]
    for j in range(r - q1):
        SL[p - (r - q1) + j, q1 + j] = s[q1 + j]
    X = orthogonal(rng, n) @ np.diag(1 + rng.random(n)) @ orthogonal(rng, n)
    X_inv = np.linalg.inv(X)
    A = orthogonal(rng, m) @ np.hstack([CA, np.zeros((m, n - r))]) @ X_inv
    L = orthogonal(rng, p) @ np.hstack([SL, np.zeros((p, n - r))]) @ X_inv
    return GlsProblem(A, None, L, rng.standard_normal(m))


# seeded problem families: C1 has a genuine singular value of MA near 1e-7,
# so cond(G) is near 1e14 and cond([MA; L]) near 1e7; C2 has a null space
# shared by MA and L, so G is singular; W has a rank-deficient M
FAMILIES = {
    "C1": dict(m=6, n=9, p=2, q=4, rank_a=3, cond=1e4),
    "C2": dict(m=30, n=40, p=5, q=25, rank_a=12, shared_null=True, cond=1e3),
    "W": dict(m=9, n=7, p=3, q=8, rank_a=4, rank_m=5),
}


def family_problem(family, seed):
    """Seed ``seed`` of a family: C1, C2, W, or the prescribed GSVD pairs
    (seed 7000 + ``seed``), whose 2-5 cosines in (0, 1) take gLSQR past
    k = 1, where C1, C2 and W, with every cosine 1, end."""
    if family == "prescribed":
        return prescribed_gsvd_pair(7000 + seed)
    return random_gls_problem(seed, **FAMILIES[family])


def run_ggkb(prob: GlsProblem, strategy, steps):
    """``ggkb_init`` and up to ``steps`` further expansions, stopping at
    termination. Returns the state and V_k, the n x k matrix of the v_i:
    the state keeps only the coordinates ``v_hat`` of the latest, so v_i is
    formed from them by the state's ``coordinates`` after each expansion
    that adds an alpha."""

    def v(state):
        return state.coordinates.to_x(np.array(state.v_hat[:, None], order="F"))[:, 0]

    state = ggkb_init(prob, strategy)
    cols = [] if state.terminated else [v(state)]
    for _ in range(steps):
        if state.terminated:
            break
        state = ggkb_step(state, strategy)
        if not state.terminated:
            cols.append(v(state))
    return state, np.column_stack(cols) if cols else np.empty((prob.n, 0))


class StackRowsStrategy:
    """The dense strategy on Z_B itself, the oracle for the triangle that
    ``DensePinvStrategy`` binds: the plain Golub-Kahan process of the rows
    Z_B of ``[L; MA] = Z F`` (``linalg.stacked_factor``) that belong to MA,
    in the coordinates s^ = F s. It is its own ``coordinates``:
    ``apply(u)`` is ``Z_B' u``, ``image(s^)`` is ``(Z_B s^, ||s^||)`` and
    ``to_x(S)`` is ``F_pinv S``; ``relative_noise`` is the stack's
    ``noise``, as the dense strategy's."""

    hit_cap = False

    def bind(self, prob):
        stack = glskit.linalg.stacked_factor(prob.L, prob.MA)
        self.Z_B, self.F_pinv = stack.Z_B, stack.F_pinv
        self.dim = self.Z_B.shape[1]
        self.relative_noise = stack.noise

    @property
    def coordinates(self):
        return self

    def apply(self, u):
        return self.Z_B.T @ u

    def image(self, s):
        return self.Z_B @ s, math.sqrt(float(s @ s))

    def to_x(self, S):
        return self.F_pinv @ S


def z_b(gdag) -> np.ndarray:
    """The q x r rows Z_B of Z in ``[L; MA] = Z F`` that belong to MA, from
    a ``linalg.GdagFactors``, which keeps them as ``Z_B' = Q [R; 0]``:
    ``(Q [R; 0])'``, formed by applying Q's reflectors to R."""
    return glskit.linalg._q_times(gdag.reflectors, gdag.tau, gdag.R).T


def bidiagonal(state: BidiagState, k: int) -> np.ndarray:
    """The (k+1) x k lower-bidiagonal coefficient matrix B_k of a state."""
    B = np.zeros((k + 1, k))
    B[:k] = np.diag(state.alphas[:k])
    B[1:] += np.diag(state.betas[1 : k + 1])
    return B


def spectrum_gap(prob: GlsProblem, report) -> float:
    """Largest distance from a singular value of B_k, k = ``report``'s
    iterations, to the nearest GSVD cosine of {MA, L} from
    :func:`gsvd_pair`. The cosines are the singular values of v -> MA v
    from (R(G), ||.||_G) to R^q, which gGKB bidiagonalizes, so at
    termination B_k has only cosines for singular values. 0.0 when k = 0;
    inf when B_k has a singular value and there is no cosine."""
    k = report.iterations
    if k == 0:
        return 0.0
    sigma = np.linalg.svd(bidiagonal(report.state, k), compute_uv=False)
    f = gsvd_pair(prob.MA, prob.L)
    cosines = np.diag(f.C_A)[: f.q1 + f.q2]
    return float(np.abs(sigma[:, None] - cosines).min(axis=1, initial=np.inf).max())


def krylov_subspace_check(V, prob: GlsProblem, k: int) -> float:
    """Largest principal angle between span{v_1..v_k}, the leading columns
    of ``V`` (see :func:`run_ggkb`), and the explicit Krylov space
    span{(pinv(G) A'PA)^i pinv(G) A'P b, i < k}, built as A'PA = (MA)'(MA)
    and A'P b = (MA)' M b.

    The monomial basis is built with a dense pinv(G) (independent of the
    strategy that generated V) and orthonormalized before the angle
    computation.
    """
    if not 1 <= k <= V.shape[1]:
        raise ValueError(f"k must be in 1..{V.shape[1]}, got {k}")
    G_pinv = pinv(prob.G)
    t = G_pinv @ (prob.MA.T @ prob.mult_M(prob.b))
    cols = [t]
    for _ in range(k - 1):
        t = G_pinv @ (prob.MA.T @ (prob.MA @ t))
        cols.append(t)
    Q1 = orth(np.column_stack(cols))
    Q2 = orth(V[:, :k])
    angles = subspace_angles(Q1, Q2)
    return float(angles.max()) if angles.size else 0.0


def seminorm_p(prob: GlsProblem, u) -> float:
    """The P-seminorm (u' P u)^(1/2) = ||M u|| of a data-space vector."""
    return float(np.linalg.norm(prob.mult_M(u)))


def projector_range(A, tol=None):
    """Orthogonal projector onto the column space of A, symmetrized."""
    f = svd(A, tol)
    Ur = f.U[:, : f.rank]
    P = Ur @ Ur.T
    return 0.5 * (P + P.T)


def nullspace_basis(A, tol=None):
    """Orthonormal basis of the null space of A, an n x (n - rank) matrix."""
    return svd(A, tol).nullspace()


def reconstruct(f) -> np.ndarray:
    """U @ Sigma @ V.T from an ``SvdFactors``, Sigma the rectangular diagonal."""
    S = np.zeros((f.U.shape[1], f.V.shape[0]))
    k = f.singular_values.size
    S[:k, :k] = np.diag(f.singular_values)
    return f.U @ S @ f.V.T


STACKED_KINDS = ("l1", "l2", "identity", "dense", "subdiagonal", "tall", "p0", "wide", "shared_null")


def stacked_pair(kind, seed=0, q=5, n=12):
    """Seeded ``(L, B)``, B q x n dense, whose stack ``[L; B]`` takes the
    path ``kind`` names through ``linalg.stacked_factor``: the sparse
    stencils and identity (each its own triangle); a dense L that is not
    triangular, a stencil with one subdiagonal entry and a tall L (p > n),
    which are factored first; p = 0; and a wide stack and a null space
    shared by L and B, which take the SVD of R. Only the last two are
    rank deficient."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((q, n))
    if kind in ("l1", "subdiagonal"):
        L = make_l1(n)
        if kind == "subdiagonal":
            L = L.tolil()
            L[3, 1] = 0.5
            L = scipy.sparse.csr_array(L)
    elif kind == "l2":
        L = make_l2(n)
    elif kind == "identity":
        L = scipy.sparse.csr_array(scipy.sparse.eye(n))
    elif kind in ("dense", "wide"):
        L = rng.standard_normal((7 if kind == "dense" else n - q - 3, n))
    elif kind == "tall":
        L = rng.standard_normal((n + 3, n))
    elif kind == "p0":
        L, B = np.zeros((0, n)), rng.standard_normal((n + 4, n))
    elif kind == "shared_null":
        e = rng.standard_normal(n)
        e /= np.linalg.norm(e)
        L = rng.standard_normal((n - 2, n))
        L -= np.outer(L @ e, e)
        B -= np.outer(B @ e, e)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return L, B


def stacked_oracle(L, B, tol=None):
    """``(Z, F, F_pinv, N, certified)`` with ``K = Z F`` for ``K = [L; B]``,
    by ``scipy.linalg.qr`` of the explicitly staged K: its economic Q and R
    when ``1 / ||R^-1||_F`` clears the rank cutoff that ``tol`` (default
    ``RankTolerance()``) gives at K's shape with ``||K||_F``, else R's SVD
    ranked at that cutoff with its own sigma_max."""
    L = L.toarray() if scipy.sparse.issparse(L) else np.asarray(L, dtype=np.float64)
    K = np.vstack([L, B])
    n = K.shape[1]
    tol = tol if tol is not None else RankTolerance()
    Q, R = scipy.linalg.qr(K, mode="economic")
    if R.shape[0] == n and np.all(np.diag(R)):
        with np.errstate(all="ignore"):
            R_inv = scipy.linalg.solve_triangular(R, np.eye(n))
        if np.linalg.norm(R_inv) * tol.cutoff(K.shape, np.linalg.norm(K)) < 1.0:
            return Q, R, R_inv, np.zeros((n, 0)), True
    U, sig, Vt = np.linalg.svd(R)
    r = int(np.count_nonzero(sig > tol.cutoff(K.shape, sig[0])))
    return Q @ U[:, :r], sig[:r, None] * Vt[:r], Vt[:r].T / sig[:r], Vt[r:].T, False


def _counting(calls, label, fn):
    def counted(*args, **kwargs):
        calls.append(label)
        return fn(*args, **kwargs)

    return counted


def _count_lapack(monkeypatch, calls, name):
    """Append ``name`` to ``calls`` at every later call of that LAPACK
    routine, through ``scipy.linalg.lapack`` or the name ``glskit.linalg``
    would import it by."""
    counted = _counting(calls, name, getattr(scipy.linalg.lapack, name))
    monkeypatch.setattr(scipy.linalg.lapack, name, counted)
    monkeypatch.setattr(glskit.linalg, name, counted, raising=False)


def counted_factorizations(monkeypatch, names):
    """A list to which every later call of numpy's or scipy's ``names``
    (in ``linalg``) appends its label, such as ``"scipy.linalg.qr"``, and
    every call of LAPACK ``dtpqrt``, the QR that folds a block of rows into
    a triangle (``linalg.stacked_factor``), appends ``"dtpqrt"``."""
    calls = []
    for owner in (np.linalg, scipy.linalg):
        for name in names:
            label = f"{owner.__name__}.{name}"
            monkeypatch.setattr(owner, name, _counting(calls, label, getattr(owner, name)))
    _count_lapack(monkeypatch, calls, "dtpqrt")
    return calls


def counted_orgqr(monkeypatch):
    """A list to which every later call of LAPACK ``dorgqr``, the routine
    that forms Q from Householder reflectors, appends ``"dorgqr"``.
    ``scipy.linalg.qr`` calls it through its own lookup, so count that
    with :func:`counted_factorizations`."""
    calls = []
    _count_lapack(monkeypatch, calls, "dorgqr")
    return calls


def reference_pcg(G, rhs, factor, tau, max_iter):
    """Preconditioned CG (Saad, *Iterative Methods for Sparse Linear
    Systems*, 2nd ed., Alg. 9.1) in plain numpy, the oracle for
    ``linalg.lsqr``: the same start, stop test and curvature break, with
    ``z = P^-1 r`` solved by ``scipy.linalg.cho_solve_banded`` from P's
    upper banded Cholesky ``factor``. Returns ``(x, iterations)``."""
    x = np.zeros(rhs.size)
    r = rhs.copy()
    z = scipy.linalg.cho_solve_banded((factor, False), r)
    d, rz = z.copy(), r @ z
    stop = (tau * np.linalg.norm(rhs)) ** 2
    for k in range(1, max_iter + 1):
        gd = G @ d
        curvature = d @ gd
        if not curvature > 0.0:
            break
        a = rz / curvature
        x = x + a * d
        r = r - a * gd
        if r @ r <= stop:
            break
        z = scipy.linalg.cho_solve_banded((factor, False), r)
        rz_old, rz = rz, r @ z
        d = z + (rz / rz_old) * d
    return x, k

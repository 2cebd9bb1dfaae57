"""Construction of GLS test problems with a known minimum 2-norm solution.

Problems are built (with M = I) by planting the solution directly:

    1. pick A and a regularizer L, form G = A'A + L'L;
    2. project a grid-sampled target function f onto R(G),
           w = f - N_G N_G' f,   N_G an orthonormal basis of N(G),
       then apply the direct route's projector, with its factors, to it,
           x_true = w - N pinv(L N) L w,   N an orthonormal basis of N(A);
    3. perturb the data orthogonally to R(A): b = A x_true + z, with z
       exactly 0 when A has full row rank.

The construction is validated through the solution criterion before the
problem is returned, so x_true is certified rather than assumed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# cholesky_spd is not called here; it stays importable because the
# benchmark's tracer (glsbench/spans.py) hooks glskit.problems.cholesky_spd
from .linalg import as_matrix, as_vector, cholesky_spd  # noqa: F401
from .wpinv import GlsProblem, check_gls_criterion

__all__ = [
    "GeneratedProblem",
    "make_l1",
    "make_l2",
    "sample_function",
    "regularizer",
    "generate",
    "random_sparse_matrix",
    "save_problem",
    "load_problem",
]

# the tolerance at which generate certifies its planted solution
CRITERION_TOL = 1e-8


def make_l1(n):
    """(n-1) x n first-difference stencil with rows (..., 1, -1, ...)."""
    if n < 2:
        raise ValueError("the first-difference stencil needs n >= 2")
    ones = np.ones(n - 1)
    return sp.csr_array(sp.diags([ones, -ones], offsets=[0, 1], shape=(n - 1, n)))


def make_l2(n):
    """(n-2) x n second-difference stencil with rows (..., -1, 2, -1, ...)."""
    if n < 3:
        raise ValueError("the second-difference stencil needs n >= 3")
    ones = np.ones(n - 2)
    return sp.csr_array(
        sp.diags([-ones, 2 * ones, -ones], offsets=[0, 1, 2], shape=(n - 2, n))
    )


_FUNCTIONS = {
    "ramp": (lambda t: t, (0.0, 1.0)),
    "cubic": (lambda t: t**3 - t**2, (-1.0, 1.0)),
    "trig": (lambda t: np.sin(5 * t) - 2 * np.cos(t), (-np.pi, np.pi)),
}


def sample_function(name, n, interval=None):
    """Evaluate a named target function on a uniform n-point grid
    (endpoints included). Default intervals: ramp on [0, 1], cubic on
    [-1, 1], trig on [-pi, pi]."""
    if name not in _FUNCTIONS:
        raise ValueError(f"unknown function {name!r}; choose from {sorted(_FUNCTIONS)}")
    if n < 1:
        raise ValueError("n must be at least 1")
    fn, default = _FUNCTIONS[name]
    a, b = interval if interval is not None else default
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    return fn(np.linspace(a, b, n))


def regularizer(kind, n):
    """Resolve a regularizer choice ("l1", "l2", "identity", or a matrix)."""
    if isinstance(kind, str):
        if kind == "l1":
            return make_l1(n)
        if kind == "l2":
            return make_l2(n)
        if kind == "identity":
            return sp.csr_array(sp.eye(n))
        raise ValueError(f"unknown regularizer {kind!r}")
    mat = sp.csr_array(kind) if sp.issparse(kind) else sp.csr_array(np.atleast_2d(kind))
    if mat.shape[1] != n:
        raise ValueError(f"custom regularizer must have {n} columns, got {mat.shape[1]}")
    return mat


@dataclass
class GeneratedProblem:
    """A GLS problem together with its planted minimum 2-norm solution.

    ``b = A x_true + z``, the noise ``z`` orthogonal to R(A); it is exactly
    0 when A has full row rank, since R(A) is then all of R^m.
    """

    problem: GlsProblem
    x_true: np.ndarray
    w: np.ndarray
    z: np.ndarray
    seed: int
    func: str = "custom"
    regularizer_kind: str = "custom"
    criterion_tol: float = CRITERION_TOL


def generate(A, regularizer_kind="l1", func="ramp", seed=0):
    """Build a GLS problem (M = I) with a certified planted solution.

    The plant is the direct route's projector applied to the sampled
    function in R(G), so it is the minimum 2-norm solution even for singular
    G. The noise ``z`` is drawn from ``seed`` and projected off R(A), read
    from the problem's factor of A; it is exactly 0, and none is drawn,
    when A has full row rank, which a certified QR of A' proves without an
    SVD. Raises ``ValueError`` if it fails its own criterion at
    ``CRITERION_TOL``.
    """
    A = as_matrix(A, "A")
    m, n = A.shape
    rng = np.random.default_rng(seed)
    # the returned problem shares these factors, so its certification reuses them
    base = GlsProblem(A, None, regularizer(regularizer_kind, n))
    f = sample_function(func, n)
    N_g = base.factors.nullspace_g
    w = f - N_g @ (N_g.T @ f)
    ma = base.factors.ma
    N = ma.nullspace()
    x_true = w - N @ (base.factors.ln.pinv() @ (base.L @ w))

    if ma.rank == m:  # R(A) is all of R^m: no nonzero z is orthogonal to it
        z = np.zeros(m)
    else:
        U_r = ma.range_basis()
        z = rng.standard_normal(m)
        z -= U_r @ (U_r.T @ z)
    b = A @ x_true + z

    prob = base.with_b(b)
    report = check_gls_criterion(prob, x_true, tol=CRITERION_TOL)
    if not report:
        raise ValueError(
            "generated problem failed the solution criterion "
            f"(normal residual {report.normal_residual:.3e} / {report.normal_scale:.3e}, "
            f"null coupling {report.null_coupling:.3e})"
        )
    kind_name = regularizer_kind if isinstance(regularizer_kind, str) else "custom"
    return GeneratedProblem(
        problem=prob, x_true=x_true, w=w, z=z, seed=seed,
        func=func, regularizer_kind=kind_name,
    )


def random_sparse_matrix(m, n, rank=None, density=0.3, seed=0):
    """Seeded sparse test matrix with the requested rank.

    Built as a product of sparsified factors; the rank is checked (and
    re-drawn from the same stream if a mask degenerates) while the density
    is only a target, and the product fills in as the rank approaches
    min(m, n).
    """
    if rank is None:
        rank = min(m, n)
    if not 1 <= rank <= min(m, n):
        raise ValueError(f"rank must be in 1..{min(m, n)}")
    rng = np.random.default_rng(seed)
    keep = min(max(density, 4.0 / max(m, n)) ** 0.5, 1.0)
    for _ in range(50):
        U = rng.standard_normal((m, rank)) * (rng.random((m, rank)) < keep)
        V = rng.standard_normal((rank, n)) * (rng.random((rank, n)) < keep)
        A = U @ V
        s = np.linalg.svd(A, compute_uv=False)
        cutoff = max(m, n) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
        if int((s > cutoff).sum()) == rank:
            # unit spectral norm keeps A'A comparable to the stencil Grams
            return sp.csr_array(A / s[0])
    raise RuntimeError("failed to draw a factor pair of the requested rank")


def save_problem(gen: GeneratedProblem, directory):
    """Serialize a generated problem to a directory of Matrix Market files."""
    from .mmio import write_matrix_market, write_vector

    os.makedirs(directory, exist_ok=True)
    write_matrix_market(os.path.join(directory, "A.mtx"), gen.problem.A)
    write_matrix_market(
        os.path.join(directory, "L.mtx"), sp.csr_array(gen.problem.L)
    )
    write_vector(os.path.join(directory, "b.mtx"), gen.problem.b)
    write_vector(os.path.join(directory, "x_true.mtx"), gen.x_true)
    meta = {
        "seed": gen.seed,
        "func": gen.func,
        "Lkind": gen.regularizer_kind,
        "tolerancesUsed": {"criterion": gen.criterion_tol},
    }
    with open(os.path.join(directory, "meta.json"), "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_problem(directory):
    """Load a problem directory written by :func:`save_problem`."""
    from .mmio import read_matrix_market, read_vector

    A = read_matrix_market(os.path.join(directory, "A.mtx"))
    L = read_matrix_market(os.path.join(directory, "L.mtx"))
    b = read_vector(os.path.join(directory, "b.mtx"))
    x_true = read_vector(os.path.join(directory, "x_true.mtx"))
    with open(os.path.join(directory, "meta.json")) as fh:
        meta = json.load(fh)
    prob = GlsProblem(as_matrix(A), None, L, as_vector(b))
    return GeneratedProblem(
        problem=prob,
        x_true=as_vector(x_true, prob.n),
        w=np.zeros(prob.n),
        z=b - prob.A @ as_vector(x_true, prob.n),
        seed=int(meta.get("seed", -1)),
        func=meta.get("func", "custom"),
        regularizer_kind=meta.get("Lkind", "custom"),
        criterion_tol=float(meta.get("tolerancesUsed", {}).get("criterion", CRITERION_TOL)),
    )

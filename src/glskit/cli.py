"""Command line front end.

Subcommands: solve, wpinv, gsvd, check-mpe, gen-problem. Inputs and outputs
are Matrix Market files (vectors as n x 1 arrays) plus JSON/CSV summaries.
Exit codes: 0 success, 1 numerical or validation failure, 2 I/O, parse, or
usage errors. The environment variables WPINV_TOL_RANK and WPINV_TOL_STOP
override the default rank tolerance and stopping tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .ggkb import CholeskyStrategy, DensePinvStrategy, InnerLsqrStrategy
from .glsqr import certify_solution, glsqr_solve, save_history
from .gsvd import gsvd_pair, save_factors
from .linalg import FactorizationError, IndefiniteMatrixError, RankTolerance, as_matrix
from .mmio import MatrixMarketError, read_matrix_market, read_vector, write_matrix_market, write_vector
from .problems import generate, random_sparse_matrix, save_problem
from .wpinv import GlsProblem, check_gmpe, wpinv_elden, wpinv_matrix

_NUMERIC_ERRORS = (ValueError, FactorizationError, IndefiniteMatrixError)


def _err(message):
    print(f"error: {message}", file=sys.stderr)


def _rank_tolerance():
    raw = os.environ.get("WPINV_TOL_RANK")
    return RankTolerance(value=float(raw)) if raw else None


def _default_stop_tol():
    raw = os.environ.get("WPINV_TOL_STOP")
    return float(raw) if raw else 1e-10


_GDAG = {"dense": DensePinvStrategy, "cholesky": CholeskyStrategy, "lsqr": InnerLsqrStrategy}


def _parse_gdag(value):
    """``dense | cholesky | lsqr[:tau]`` as (kind, strategy class, kwargs)."""
    kind, sep, tau = value.partition(":")
    if kind not in _GDAG or (sep and kind != "lsqr"):
        raise ValueError(f"unknown --gdag value {value!r}")
    kwargs = {"tau": float(tau) if sep else 1e-12} if kind == "lsqr" else {}
    return kind, _GDAG[kind], kwargs


def _load_problem_files(args):
    A = read_matrix_market(args.A)
    M = read_matrix_market(args.M) if getattr(args, "M", None) else None
    L = read_matrix_market(args.L) if getattr(args, "L", None) else None
    b = read_vector(args.b) if getattr(args, "b", None) else None
    return GlsProblem(A, M, L, b)


def _json_dump(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _cmd_solve(args):
    prob = _load_problem_files(args)
    kind, strategy_class, kwargs = _parse_gdag(args.gdag)
    strategy = strategy_class(prob.G, **kwargs)
    report = glsqr_solve(
        prob,
        strategy,
        tol=args.tol,
        max_iter=args.max_iter,
        debug=args.debug_residual,
    )
    certified = certify_solution(prob, report)

    os.makedirs(args.out_dir, exist_ok=True)
    write_vector(os.path.join(args.out_dir, "x.mtx"), report.x)
    save_history(report, os.path.join(args.out_dir, "history.csv"))
    summary = {
        "schema": 1,
        "iterations": report.iterations,
        "stop_reason": report.stop_reason,
        "final_estimate": report.residual_estimate_history[-1]
        if report.residual_estimate_history
        else 0.0,
        "certified": bool(certified),
        "beta1": report.beta1,
        "operator_norm": report.norm_estimate.value,
        "operator_norm_source": report.norm_estimate.source,
        "gdag": kind,
        "inner_tau": kwargs.get("tau"),
        "tol": args.tol,
        "inner_solver_capped": report.state.inner_capped,
    }
    if args.x_true:
        x_true = read_vector(args.x_true)
        scale = np.linalg.norm(x_true)
        err = np.linalg.norm(report.x - x_true) / scale if scale else np.linalg.norm(report.x)
        summary["relative_error"] = float(err)
    _json_dump(summary, os.path.join(args.out_dir, "summary.json"))
    print(
        f"solve: {report.iterations} iterations, stop={report.stop_reason}, "
        f"certified={certified}"
    )
    if report.state.inner_capped:
        print(
            "warning: the inner solver hit its iteration cap; the residual "
            "estimate may be unreliable (raise the cap or loosen tau)",
            file=sys.stderr,
        )
    return 0


def _cmd_wpinv(args):
    prob = _load_problem_files(args)
    X = wpinv_matrix(prob, method=args.method, delta=args.delta, tol=_rank_tolerance())
    x = X @ prob.b
    write_vector(args.out, x)
    if args.matrix_out:
        write_matrix_market(args.matrix_out, X)
    print(f"wpinv: wrote solution of length {x.size} to {args.out}")
    return 0


def _cmd_gsvd(args):
    A = read_matrix_market(args.A)
    L = read_matrix_market(args.L)
    factors = gsvd_pair(as_matrix(A), as_matrix(L), tol=_rank_tolerance())
    save_factors(factors, args.out_dir)
    print(
        f"gsvd: r={factors.r} q1={factors.q1} q2={factors.q2} q3={factors.q3} "
        f"written to {args.out_dir}"
    )
    return 0


def _cmd_check_mpe(args):
    prob = _load_problem_files(args)
    if args.X:
        X = as_matrix(read_matrix_market(args.X))
    else:
        X = wpinv_elden(prob, _rank_tolerance())
    report = check_gmpe(prob, X, tol=args.tol)
    for i, (residual, passed) in enumerate(zip(report.residuals, report.passed), start=1):
        print(f"identity {i}: residual={residual:.3e} {'PASS' if passed else 'FAIL'}")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(report.to_json() + "\n")
    return 0 if report.all_passed else 1


def _cmd_gen_problem(args):
    if args.A:
        A = as_matrix(read_matrix_market(args.A))
    else:
        n = args.n
        if n is None:
            raise ValueError("provide --n for a synthetic matrix or --A for a file")
        m = args.m if args.m is not None else max(2, (3 * n) // 4)
        rank = args.rank if args.rank is not None else min(m, n)
        A = random_sparse_matrix(m, n, rank=rank, density=args.density, seed=args.seed)
        A = as_matrix(A)
    gen = generate(A, regularizer_kind=args.L, func=args.func, seed=args.seed)
    save_problem(gen, args.out_dir)
    print(
        f"gen-problem: {gen.problem.m} x {gen.problem.n}, L={gen.regularizer_kind}, "
        f"seed={gen.seed}, written to {args.out_dir}"
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="glskit",
        description="Generalized least squares: weighted pseudoinverses and gLSQR",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run gLSQR on a problem given as files")
    solve.add_argument("--A", required=True)
    solve.add_argument("--M")
    solve.add_argument("--L")
    solve.add_argument("--b", required=True)
    solve.add_argument("--tol", type=float, default=_default_stop_tol())
    solve.add_argument("--max-iter", type=int, default=None)
    solve.add_argument("--gdag", default="dense", help="dense | cholesky | lsqr[:tau]")
    solve.add_argument("--debug-residual", action="store_true")
    solve.add_argument("--x-true", help="reference solution for error reporting")
    solve.add_argument("--out-dir", required=True)
    solve.set_defaults(handler=_cmd_solve)

    wp = sub.add_parser("wpinv", help="apply the weighted pseudoinverse to b")
    wp.add_argument("--A", required=True)
    wp.add_argument("--M")
    wp.add_argument("--L")
    wp.add_argument("--b", required=True)
    wp.add_argument("--method", choices=["elden", "gsvd", "limit"], default="elden")
    wp.add_argument("--delta", type=float, default=1e-8)
    wp.add_argument("--out", required=True)
    wp.add_argument("--matrix-out", help="also write the matrix the chosen route applied to b")
    wp.set_defaults(handler=_cmd_wpinv)

    gs = sub.add_parser("gsvd", help="factor a pair {A, L} and export the factors")
    gs.add_argument("--A", required=True)
    gs.add_argument("--L", required=True)
    gs.add_argument("--out-dir", required=True)
    gs.set_defaults(handler=_cmd_gsvd)

    mpe = sub.add_parser("check-mpe", help="check the generalized Moore-Penrose identities")
    mpe.add_argument("--A", required=True)
    mpe.add_argument("--M")
    mpe.add_argument("--L")
    mpe.add_argument("--X", help="candidate matrix; defaults to the direct formula")
    mpe.add_argument("--tol", type=float, default=1e-9)
    mpe.add_argument("--json-out")
    mpe.set_defaults(handler=_cmd_check_mpe)

    gen = sub.add_parser("gen-problem", help="generate a problem with a known solution")
    gen.add_argument("--n", type=int)
    gen.add_argument("--m", type=int)
    gen.add_argument("--rank", type=int)
    gen.add_argument("--density", type=float, default=0.3)
    gen.add_argument("--A", help="use this matrix instead of a synthetic one")
    gen.add_argument("--L", default="l1", help="l1 | l2 | identity")
    gen.add_argument("--func", default="ramp", choices=["ramp", "cubic", "trig"])
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-dir", required=True)
    gen.set_defaults(handler=_cmd_gen_problem)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (MatrixMarketError, OSError) as exc:
        _err(exc)
        return 2
    except _NUMERIC_ERRORS as exc:
        _err(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())

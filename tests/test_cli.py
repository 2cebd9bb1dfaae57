import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glskit
from glskit import (
    CholeskyStrategy,
    DensePinvStrategy,
    InnerLsqrStrategy,
    read_matrix_market,
    read_vector,
    write_matrix_market,
    write_vector,
)
from glskit.cli import _parse_gdag, main
from helpers import OVERFLOWING_INTEGER, OVERSIZED_DIMENSION, random_gls_problem, random_matrix


@pytest.fixture
def problem_dir(tmp_path):
    out = tmp_path / "gen"
    code = main(
        [
            "gen-problem",
            "--n", "30", "--m", "20", "--rank", "15",
            "--L", "l1", "--func", "ramp", "--seed", "7",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    return out


def test_gen_problem_writes_validated_directory(problem_dir):
    for name in ("A.mtx", "L.mtx", "b.mtx", "x_true.mtx", "meta.json"):
        assert (problem_dir / name).exists()
    meta = json.loads((problem_dir / "meta.json").read_text())
    assert meta["seed"] == 7 and meta["Lkind"] == "l1"


def test_gen_problem_deterministic(tmp_path):
    args = [
        "gen-problem", "--n", "18", "--m", "12", "--L", "l2", "--func", "cubic",
        "--seed", "3",
    ]
    main(args + ["--out-dir", str(tmp_path / "one")])
    main(args + ["--out-dir", str(tmp_path / "two")])
    for name in ("A.mtx", "L.mtx", "b.mtx", "x_true.mtx", "meta.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_solve_certifies_generated_problem(problem_dir, tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "solve",
            "--A", str(problem_dir / "A.mtx"),
            "--L", str(problem_dir / "L.mtx"),
            "--b", str(problem_dir / "b.mtx"),
            "--x-true", str(problem_dir / "x_true.mtx"),
            "--tol", "1e-10",
            "--gdag", "dense",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema"] == 1
    assert summary["certified"] is True
    assert summary["relative_error"] <= 1e-8
    header = (out / "history.csv").read_text().splitlines()[0]
    assert header == "k,res_estimate,res_true,x_norm,alpha,beta"
    x = read_vector(out / "x.mtx")
    x_true = read_vector(problem_dir / "x_true.mtx")
    assert np.linalg.norm(x - x_true) <= 1e-8 * np.linalg.norm(x_true)


def test_solve_reports_inner_tau(problem_dir, tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "solve",
            "--A", str(problem_dir / "A.mtx"),
            "--L", str(problem_dir / "L.mtx"),
            "--b", str(problem_dir / "b.mtx"),
            "--x-true", str(problem_dir / "x_true.mtx"),
            "--tol", "1e-6",
            "--gdag", "lsqr:1e-6",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["gdag"] == "lsqr"
    assert summary["inner_tau"] == 1e-6
    assert summary["relative_error"] <= 1e-3


def test_solve_deterministic_outputs(problem_dir, tmp_path):
    args = [
        "solve",
        "--A", str(problem_dir / "A.mtx"),
        "--L", str(problem_dir / "L.mtx"),
        "--b", str(problem_dir / "b.mtx"),
        "--gdag", "cholesky",
    ]
    main(args + ["--out-dir", str(tmp_path / "r1")])
    main(args + ["--out-dir", str(tmp_path / "r2")])
    for name in ("x.mtx", "history.csv", "summary.json"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_cholesky_refuses_a_singular_g_before_writing(tmp_path, capsys):
    # A is 22 x 30 and there is no L, so G = A'A is singular: the strategy
    # refuses when the solve binds it, before any output is written
    prob = tmp_path / "prob"
    main(["gen-problem", "--n", "30", "--L", "l1", "--seed", "3", "--out-dir", str(prob)])
    assert read_matrix_market(prob / "A.mtx").shape == (22, 30)
    args = ["solve", "--A", str(prob / "A.mtx"), "--b", str(prob / "b.mtx")]
    capsys.readouterr()
    assert main(args + ["--gdag", "cholesky", "--out-dir", str(tmp_path / "chol")]) == 1
    assert capsys.readouterr().err.splitlines()[0].startswith("error: ")
    assert not (tmp_path / "chol" / "x.mtx").exists()
    assert main(args + ["--gdag", "dense", "--out-dir", str(tmp_path / "dense")]) == 0
    assert json.loads((tmp_path / "dense" / "summary.json").read_text())["certified"] is True


@pytest.mark.parametrize("value", ["unknown", "dense:1e-6", "lsqrx", "lsqr:", "lsqr:inf"])
def test_unknown_gdag_exits_1(problem_dir, tmp_path, capsys, value):
    code = main(
        [
            "solve",
            "--A", str(problem_dir / "A.mtx"),
            "--b", str(problem_dir / "b.mtx"),
            "--gdag", value,
            "--out-dir", str(tmp_path / "run"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.splitlines()[0].startswith("error: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_max_iter_below_one_exits_1(problem_dir, tmp_path, capsys, value):
    code = main(
        [
            "solve",
            "--A", str(problem_dir / "A.mtx"),
            "--b", str(problem_dir / "b.mtx"),
            "--max-iter", value,
            "--out-dir", str(tmp_path / "run"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.splitlines()[0] == "error: max_iter must be at least 1"
    assert not (tmp_path / "run").exists()


def test_gdag_values_map_to_strategy_classes():
    assert _parse_gdag("dense") == ("dense", DensePinvStrategy, {})
    assert _parse_gdag("cholesky") == ("cholesky", CholeskyStrategy, {})
    assert _parse_gdag("lsqr") == ("lsqr", InnerLsqrStrategy, {"tau": 1e-12})
    assert _parse_gdag("lsqr:1e-6") == ("lsqr", InnerLsqrStrategy, {"tau": 1e-6})


def test_missing_file_exits_2(tmp_path, capsys):
    code = main(
        [
            "solve", "--A", str(tmp_path / "missing.mtx"), "--b", str(tmp_path / "b.mtx"),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith("error: ")


def test_wpinv_command_and_matrix_out(problem_dir, tmp_path):
    x_path = tmp_path / "x.mtx"
    X_path = tmp_path / "X.mtx"
    code = main(
        [
            "wpinv",
            "--A", str(problem_dir / "A.mtx"),
            "--L", str(problem_dir / "L.mtx"),
            "--b", str(problem_dir / "b.mtx"),
            "--out", str(x_path),
            "--matrix-out", str(X_path),
        ]
    )
    assert code == 0
    x = read_vector(x_path)
    x_true = read_vector(problem_dir / "x_true.mtx")
    assert np.linalg.norm(x - x_true) <= 1e-8 * np.linalg.norm(x_true)
    X = read_matrix_market(X_path)
    b = read_vector(problem_dir / "b.mtx")
    assert np.linalg.norm(X @ b - x) <= 1e-10 * np.linalg.norm(x)


def test_wpinv_writes_to_paths_without_mtx(problem_dir, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    x_path, X_path = out / "x.txt", out / "X.dat"
    x_path.write_text("stale")
    args = ["wpinv", "--A", str(problem_dir / "A.mtx"), "--L", str(problem_dir / "L.mtx")]
    args += ["--b", str(problem_dir / "b.mtx"), "--out", str(x_path), "--matrix-out", str(X_path)]
    assert main(args) == 0
    assert sorted(p.name for p in out.iterdir()) == ["X.dat", "x.txt"]
    assert str(x_path) in capsys.readouterr().out
    x = read_vector(x_path)
    b = read_vector(problem_dir / "b.mtx")
    assert np.linalg.norm(read_matrix_market(X_path) @ b - x) <= 1e-10 * np.linalg.norm(x)


def test_wpinv_matrix_out_forms_x_once(problem_dir, tmp_path, monkeypatch):
    calls = []
    original = glskit.wpinv.wpinv_elden

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(glskit.wpinv, "wpinv_elden", counted)
    monkeypatch.setattr(glskit.cli, "wpinv_elden", counted)
    code = main(
        [
            "wpinv",
            "--A", str(problem_dir / "A.mtx"),
            "--L", str(problem_dir / "L.mtx"),
            "--b", str(problem_dir / "b.mtx"),
            "--out", str(tmp_path / "x.mtx"),
            "--matrix-out", str(tmp_path / "X.mtx"),
        ]
    )
    assert code == 0
    assert len(calls) == 1


def test_wpinv_matrix_out_writes_chosen_route(problem_dir, tmp_path):
    x_path, X_path = tmp_path / "x.mtx", tmp_path / "X.mtx"
    code = main(
        [
            "wpinv",
            "--A", str(problem_dir / "A.mtx"),
            "--L", str(problem_dir / "L.mtx"),
            "--b", str(problem_dir / "b.mtx"),
            "--method", "gsvd",
            "--out", str(x_path),
            "--matrix-out", str(X_path),
        ]
    )
    assert code == 0
    prob = glskit.GlsProblem(
        read_matrix_market(problem_dir / "A.mtx"), None, read_matrix_market(problem_dir / "L.mtx")
    )
    expected = glskit.wpinv_via_gsvd(glskit.gsvd_pair(prob.A, prob.L), prob.G)
    X = np.asarray(read_matrix_market(X_path))
    np.testing.assert_array_equal(X, expected)
    b = read_vector(problem_dir / "b.mtx")
    np.testing.assert_array_equal(read_vector(x_path), X @ b)


def test_wpinv_gsvd_method_agrees_with_elden(problem_dir, tmp_path):
    xs = {}
    for method in ("elden", "gsvd"):
        out = tmp_path / f"{method}.mtx"
        code = main(
            [
                "wpinv",
                "--A", str(problem_dir / "A.mtx"),
                "--L", str(problem_dir / "L.mtx"),
                "--b", str(problem_dir / "b.mtx"),
                "--method", method,
                "--out", str(out),
            ]
        )
        assert code == 0
        xs[method] = read_vector(out)
    assert np.linalg.norm(xs["gsvd"] - xs["elden"]) <= 1e-9 * np.linalg.norm(xs["elden"])


def test_wpinv_gsvd_method_takes_a_weight(problem_dir, tmp_path, capsys):
    # a full-column-rank M (24 x 20): the GSVD route factors {MA, L}, and
    # check-mpe certifies its matrix against the weighted problem
    M = random_matrix(np.random.default_rng(4), 24, 20)
    m_path, x_path, X_path = tmp_path / "M.mtx", tmp_path / "x.mtx", tmp_path / "X.mtx"
    write_matrix_market(m_path, M)
    files = [
        "--A", str(problem_dir / "A.mtx"), "--M", str(m_path), "--L", str(problem_dir / "L.mtx"),
    ]
    args = ["wpinv", *files, "--b", str(problem_dir / "b.mtx"), "--method", "gsvd"]
    assert main([*args, "--out", str(x_path), "--matrix-out", str(X_path)]) == 0
    prob = glskit.GlsProblem(
        read_matrix_market(problem_dir / "A.mtx"), M, read_matrix_market(problem_dir / "L.mtx"),
        read_vector(problem_dir / "b.mtx"),
    )
    X = np.asarray(read_matrix_market(X_path))
    X_e = glskit.wpinv_elden(prob)
    assert np.linalg.norm(X - X_e) <= 1e-9 * np.linalg.norm(X_e)
    np.testing.assert_array_equal(read_vector(x_path), X @ prob.b)
    capsys.readouterr()
    assert main(["check-mpe", *files, "--X", str(X_path)]) == 0
    assert capsys.readouterr().out.count("PASS") == 5


def test_solve_warns_when_inner_solver_caps(problem_dir, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "solve",
            "--A", str(problem_dir / "A.mtx"),
            "--L", str(problem_dir / "L.mtx"),
            "--b", str(problem_dir / "b.mtx"),
            "--gdag", "lsqr:1e-300",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    assert "warning: the inner solver hit its iteration cap" in capsys.readouterr().err
    assert json.loads((out / "summary.json").read_text())["inner_solver_capped"] is True


@pytest.mark.parametrize(
    "text", [OVERSIZED_DIMENSION, OVERFLOWING_INTEGER], ids=["dimension", "integer"]
)
def test_overflowing_matrix_file_exits_2(tmp_path, capsys, text):
    a_path, b_path = tmp_path / "A.mtx", tmp_path / "b.mtx"
    a_path.write_text(text)
    write_vector(b_path, np.ones(2))
    code = main(
        ["solve", "--A", str(a_path), "--b", str(b_path), "--out-dir", str(tmp_path / "o")]
    )
    assert code == 2
    assert capsys.readouterr().err.splitlines()[0].startswith("error: ")


def test_gen_problem_without_matrix_source_exits_1(tmp_path, capsys):
    assert main(["gen-problem", "--out-dir", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err.splitlines()[0].startswith("error: ")


@pytest.mark.parametrize("value", ["nan", "-1", "0", "2", "inf"])
def test_gen_problem_density_outside_0_1_exits_1(tmp_path, capsys, value):
    out = tmp_path / "d"
    assert main(["gen-problem", "--n", "30", "--density", value, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[0].startswith("error: density must be in (0, 1]")
    assert not out.exists()


def test_gsvd_command_writes_factors(tmp_path):
    a_path, l_path = tmp_path / "A.mtx", tmp_path / "L.mtx"
    write_matrix_market(a_path, np.diag([2.0, 1.0]))
    write_matrix_market(l_path, np.eye(2))
    out = tmp_path / "factors"
    assert main(["gsvd", "--A", str(a_path), "--L", str(l_path), "--out-dir", str(out)]) == 0
    blocks = json.loads((out / "gsvd.json").read_text())
    assert blocks == {"r": 2, "q1": 0, "q2": 2, "q3": 0}
    for name in ("U_A.mtx", "U_L.mtx", "X.mtx", "CA.mtx", "SL.mtx"):
        assert (out / name).exists()


def test_check_mpe_pass_and_fail(problem_dir, tmp_path, capsys):
    X_path = tmp_path / "X.mtx"
    main(
        [
            "wpinv",
            "--A", str(problem_dir / "A.mtx"),
            "--L", str(problem_dir / "L.mtx"),
            "--b", str(problem_dir / "b.mtx"),
            "--out", str(tmp_path / "x.mtx"),
            "--matrix-out", str(X_path),
        ]
    )
    code = main(
        [
            "check-mpe",
            "--A", str(problem_dir / "A.mtx"),
            "--L", str(problem_dir / "L.mtx"),
            "--X", str(X_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") >= 5

    # corrupt the candidate and expect a nonzero exit
    X = np.asarray(read_matrix_market(X_path))
    X[0, 0] += 1e-2 * (1.0 + abs(X[0, 0]))
    bad_path = tmp_path / "bad.mtx"
    write_matrix_market(bad_path, X)
    code = main(
        [
            "check-mpe",
            "--A", str(problem_dir / "A.mtx"),
            "--L", str(problem_dir / "L.mtx"),
            "--X", str(bad_path),
        ]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_mpe_direct_formula_json_out(problem_dir, tmp_path):
    json_path = tmp_path / "mpe.json"
    code = main(
        [
            "check-mpe",
            "--A", str(problem_dir / "A.mtx"),
            "--L", str(problem_dir / "L.mtx"),
            "--json-out", str(json_path),
        ]
    )
    assert code == 0
    identities = json.loads(json_path.read_text())["identities"]
    assert len(identities) == 5 and all(i["passed"] for i in identities)


def test_check_mpe_rank_tolerance_on_shared_null_pair(tmp_path, monkeypatch, capsys):
    # WPINV_TOL_RANK ranks M A only; L N, whose roundoff direction a cutoff
    # relative to its own shape would keep, stays at its product floor
    prob = random_gls_problem(4, m=10, n=8, p=3, rank_a=5, shared_null=True)
    a_path, l_path = tmp_path / "A.mtx", tmp_path / "L.mtx"
    write_matrix_market(a_path, prob.A)
    write_matrix_market(l_path, prob.L)
    monkeypatch.setenv("WPINV_TOL_RANK", "1e-15")
    assert main(["check-mpe", "--A", str(a_path), "--L", str(l_path)]) == 0
    assert capsys.readouterr().out.count("PASS") == 5


def test_tolerances_that_are_not_positive_and_finite_exit_1(
    problem_dir, tmp_path, monkeypatch, capsys
):
    # check-mpe with --tol inf passed a zero X on all five identities, and
    # WPINV_TOL_RANK=inf ranked every matrix at 0
    pair = ["--A", str(problem_dir / "A.mtx"), "--L", str(problem_dir / "L.mtx")]
    x_path = tmp_path / "X0.mtx"
    write_matrix_market(x_path, np.zeros(read_matrix_market(problem_dir / "A.mtx").shape[::-1]))
    capsys.readouterr()
    for tol in ("inf", "nan", "0"):
        assert main(["check-mpe", *pair, "--X", str(x_path), "--tol", tol]) == 1
        err = capsys.readouterr()
        assert err.err.startswith("error: ") and "PASS" not in err.out
    monkeypatch.setenv("WPINV_TOL_RANK", "inf")
    assert main(["check-mpe", *pair]) == 1
    assert capsys.readouterr().err.startswith("error: rank tolerance value")


def test_env_var_overrides_default_tolerance(problem_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("WPINV_TOL_STOP", "1e-4")
    from glskit import cli

    parser = cli.build_parser()
    args = parser.parse_args(
        [
            "solve", "--A", "a", "--b", "b", "--out-dir", "o",
        ]
    )
    assert args.tol == 1e-4


def test_env_var_overrides_rank_tolerance(tmp_path, monkeypatch):
    # a crude rank tolerance merges the near-unit block into q1
    a_path, l_path = tmp_path / "A.mtx", tmp_path / "L.mtx"
    write_matrix_market(a_path, np.diag([1.0, 1.0]))
    write_matrix_market(l_path, 1e-3 * np.eye(2))
    out = tmp_path / "f1"
    main(["gsvd", "--A", str(a_path), "--L", str(l_path), "--out-dir", str(out)])
    assert json.loads((out / "gsvd.json").read_text())["q2"] == 2

    monkeypatch.setenv("WPINV_TOL_RANK", "0.5")
    out2 = tmp_path / "f2"
    main(["gsvd", "--A", str(a_path), "--L", str(l_path), "--out-dir", str(out2)])
    blocks = json.loads((out2 / "gsvd.json").read_text())
    assert blocks["r"] == 2 and blocks["q2"] == 2  # stacked matrix keeps rank 2


def test_numeric_failure_exits_1(tmp_path, capsys):
    # dimension mismatch between A and b is a validation error, not an I/O one
    a_path, b_path = tmp_path / "A.mtx", tmp_path / "b.mtx"
    write_matrix_market(a_path, np.eye(3))
    write_vector(b_path, np.ones(2))
    code = main(
        ["solve", "--A", str(a_path), "--b", str(b_path), "--out-dir", str(tmp_path / "o")]
    )
    assert code == 1
    assert capsys.readouterr().err.splitlines()[0].startswith("error: ")


def test_console_entry_point_runs():
    # the child finds the package where this process did, installed or not
    src = str(Path(glskit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "glskit.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    for sub in ("solve", "wpinv", "gsvd", "check-mpe", "gen-problem"):
        assert sub in result.stdout


def test_ingested_matrix_file_path(tmp_path):
    # gen-problem can ingest a user matrix instead of synthesizing one
    rng = np.random.default_rng(2)
    A = random_matrix(rng, 10, 14, rank=7)
    a_path = tmp_path / "A.mtx"
    write_matrix_market(a_path, A)
    out = tmp_path / "gen"
    code = main(
        ["gen-problem", "--A", str(a_path), "--L", "l2", "--func", "trig",
         "--seed", "9", "--out-dir", str(out)]
    )
    assert code == 0
    x_true = read_vector(out / "x_true.mtx")
    assert x_true.size == 14

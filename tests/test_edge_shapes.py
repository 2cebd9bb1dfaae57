"""The edge shapes of the GLS problem: empty regularizer, zero A (with and
without a weight), zero L, zero M, trivial N(MA), m < n with a singular
weight, b in N(M), and no rows at all. The direct route and gLSQR must both
return a certified minimum 2-norm solution."""

import numpy as np
import pytest

from glskit import GlsProblem, certify_solution, check_gls_criterion, glsqr_solve, wpinv_apply
from helpers import SPECTRUM_GAP, random_gls_problem, spectrum_gap, z_b


def _no_regularizer():
    # p = 0: Q = 0, G = A'A is singular and the solution is pinv(A) b
    prob = random_gls_problem(70, m=8, n=6, rank_a=4)
    return GlsProblem(prob.A, None, None, prob.b)


def _zero_a():
    # every x solves the data term; the minimum 2-norm solution is 0
    prob = random_gls_problem(71, m=6, n=5, p=4)
    return GlsProblem(np.zeros((6, 5)), None, prob.L, prob.b)


def _full_column_rank_ma():
    # N(MA) = {0}, so L N has no columns
    prob = random_gls_problem(72, m=9, n=5, p=3, q=8, rank_m=7)
    assert np.linalg.matrix_rank(prob.M @ prob.A) == 5
    return prob


def _wide_singular_m_shared_null():
    return random_gls_problem(73, m=5, n=8, p=4, q=4, rank_m=3, shared_null=True)


def _b_in_null_space_of_m():
    # M b = 0 exactly (two zero columns of a rank-deficient M), so P b = 0
    # and the minimum 2-norm solution is 0
    prob = random_gls_problem(74, m=8, n=6, p=3, q=7, rank_a=4, rank_m=5)
    M = prob.M.copy()
    M[:, -2:] = 0.0
    b = np.zeros(8)
    b[-2:] = (1.0, -2.0)
    return GlsProblem(prob.A, M, prob.L, b)


def _zero_a_weighted():
    # A = 0 under a rank-deficient weight: M A is a zero factor product
    prob = random_gls_problem(75, m=7, n=5, p=3, q=6, rank_m=4)
    return GlsProblem(np.zeros((7, 5)), prob.M, prob.L, prob.b)


def _zero_l():
    # L = 0 with p = 3 rows: L N is a zero factor product
    prob = random_gls_problem(76, m=8, n=6, p=3, rank_a=4)
    return GlsProblem(prob.A, None, np.zeros((3, 6)), prob.b)


def _zero_m():
    # M = 0: every x solves the data term and P = 0
    prob = random_gls_problem(77, m=6, n=5, p=3, q=4)
    return GlsProblem(prob.A, np.zeros((4, 6)), prob.L, prob.b)


def _no_rows():
    # m = 0 and p = 0: the stack [L; MA] has no rows, every x solves the
    # problem and the minimum 2-norm solution is 0
    return GlsProblem(np.zeros((0, 4)), None, None, np.zeros(0))


EDGE_SHAPES = {
    "p=0": _no_regularizer,
    "A=0": _zero_a,
    "full-column-rank MA": _full_column_rank_ma,
    "m<n, singular M, shared null": _wide_singular_m_shared_null,
    "b in N(M)": _b_in_null_space_of_m,
    "A=0, weighted": _zero_a_weighted,
    "L=0, p=3": _zero_l,
    "M=0": _zero_m,
    "no rows": _no_rows,
}


@pytest.mark.parametrize("name", list(EDGE_SHAPES))
def test_both_routes_certify_on_edge_shapes(name):
    prob = EDGE_SHAPES[name]()
    x_direct = wpinv_apply(prob)
    x_iter = glsqr_solve(prob, tol=1e-12).x
    for x in (x_direct, x_iter):
        report = check_gls_criterion(prob, x, tol=1e-8)
        assert report and report.in_range_g
    scale = max(np.linalg.norm(x_direct), 1.0)
    assert np.linalg.norm(x_iter - x_direct) <= 1e-8 * scale


@pytest.mark.parametrize("name", [name for name in EDGE_SHAPES if name != "full-column-rank MA"])
def test_terminated_bidiagonal_has_the_gsvd_cosines_on_edge_shapes(name):
    # as test_glsqr's check across the families, on every shape whose run
    # terminates; full-column-rank MA stops at tolerance_met at k = 5, and
    # five shapes, "no rows" among them, terminate at k = 0 with no value
    prob = EDGE_SHAPES[name]()
    report = glsqr_solve(prob, tol=1e-14)
    assert report.stop_reason == "ggkb_terminated"
    assert spectrum_gap(prob, report) <= SPECTRUM_GAP


def test_a_stack_with_no_rows_binds_coordinates_of_dimension_0():
    prob = _no_rows()
    gdag = prob.factors.gdag
    assert z_b(gdag).shape == (0, 0) and gdag.F_pinv.shape == (4, 0)
    report = glsqr_solve(prob)
    assert report.stop_reason == "ggkb_terminated" and report.iterations == 0
    assert report.x.shape == (4,) and not report.x.any()
    assert certify_solution(prob, report)

"""The edge shapes of the GLS problem: empty regularizer, zero A, trivial
N(MA), m < n with a singular weight, and b in N(M). The direct route and
gLSQR must both return a certified minimum 2-norm solution."""

import numpy as np
import pytest

from glskit import GlsProblem, check_gls_criterion, glsqr_solve, wpinv_apply
from helpers import random_gls_problem


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


EDGE_SHAPES = {
    "p=0": _no_regularizer,
    "A=0": _zero_a,
    "full-column-rank MA": _full_column_rank_ma,
    "m<n, singular M, shared null": _wide_singular_m_shared_null,
    "b in N(M)": _b_in_null_space_of_m,
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

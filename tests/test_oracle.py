"""The boundary-only BKM against its own solve in 60 digits (``bkm_oracle``).

The oracle runs the same discrete method in extended precision on the
same float64 knots and data, so its error against the exact solution is
the method's own, and its distance from the float64 solve is round-off.
Each test reads both on ``interior_grid(e, 0.25)`` (93 points).
"""

import numpy as np
import pytest

from bkm.bkm import evaluate, solve_boundary_only
from bkm.geometry import interior_grid
from bkm.problems import burger_benchmark, helmholtz_benchmark, laplace_benchmark

from oracles import bkm_oracle


def _errors(problem, n):
    """Max error on the grid of the 60-digit and of the float64 solve."""
    grid = interior_grid(problem.ellipse, 0.25)
    exact = np.array([problem.exact(p) for p in grid])
    sol, _ = solve_boundary_only(problem, n)
    oracle = bkm_oracle(problem, n)(grid)
    return float(np.abs(oracle - exact).max()), float(np.abs(evaluate(sol, grid) - exact).max())


@pytest.mark.parametrize(
    "factory, n", [(laplace_benchmark, 5), (helmholtz_benchmark, 7), (burger_benchmark, 5)]
)
def test_paper_sizes_match_the_float64_solve(factory, n):
    # Far from round-off, both precisions give the same field: the oracle
    # runs the solver's method.
    problem = factory()
    grid = interior_grid(problem.ellipse, 0.25)
    sol, _ = solve_boundary_only(problem, n)
    assert np.abs(bkm_oracle(problem, n)(grid) - evaluate(sol, grid)).max() <= 1e-12


def test_helmholtz_converges_past_the_float64_floor():
    # The method reaches the float64 unit at n = 30; the float64 solve
    # stalls near 8e-9 on round-off.
    oracle, float64 = _errors(helmholtz_benchmark(), 30)
    assert oracle <= 1e-14
    assert float64 > 1e3 * oracle


@pytest.mark.parametrize("n", [20, 40])
def test_burger_plateau_is_the_method(n):
    # 0.345 at n = 20 and 0.346 at n = 40 in both precisions: the plateau
    # is the formulation's boundary-only sampling, not round-off.
    oracle, float64 = _errors(burger_benchmark(), n)
    assert oracle == pytest.approx(float64, rel=1e-2)
    assert oracle > 0.3


def test_laplace_exact_solve_of_float64_data_diverges():
    # Known defect of the formulation: the DRM on all n knots turns the
    # data's last-bit rounding into an O(1) error in exact arithmetic (5.1
    # at n = 40).  The float64 solve errs about 1e-10 only because its LU
    # lands on another, bounded alpha.  A DRM on its own, fewer centres
    # should turn this around, and then this test should be inverted.
    oracle, float64 = _errors(laplace_benchmark(), 40)
    assert oracle >= 1.0
    assert float64 <= 1e-8

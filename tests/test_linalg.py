"""LU solve and 1-norm condition number against LAPACK-backed references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkm.linalg import (
    SingularMatrixError,
    cond_1norm_unchecked,
    cond_estimate_1norm,
    lu_factor,
    lu_solve,
)

from oracles import cond_1norm_explicit, solve_ref


class TestLuSolve:
    def test_identity_returns_rhs(self):
        b = np.array([[1.0, 5.0], [2.0, 6.0], [3.0, 7.0]])
        assert np.array_equal(lu_solve(np.eye(3), b), b)

    def test_diagonal_system(self):
        x = lu_solve([[2.0, 0.0], [0.0, 4.0]], [[2.0], [8.0]])
        assert x == pytest.approx(np.array([[1.0], [2.0]]))

    def test_two_by_two_elimination(self):
        x = lu_solve([[1.0, 2.0], [3.0, 4.0]], [[5.0], [11.0]])
        assert x == pytest.approx(np.array([[1.0], [2.0]]))

    def test_vector_rhs_keeps_vector_shape(self):
        x = lu_solve([[1.0, 2.0], [3.0, 4.0]], [5.0, 11.0])
        assert x.shape == (2,)
        assert x == pytest.approx([1.0, 2.0])

    @pytest.mark.parametrize("columns", [None, 1, 3])
    def test_matches_reference_solver(self, columns):
        """X has the shape of B: a vector, one column or several."""
        rng = np.random.RandomState(11)
        for n in (2, 5, 9, 16):
            a = rng.randn(n, n) + n * np.eye(n)
            b = rng.randn(n) if columns is None else rng.randn(n, columns)
            x = lu_solve(a, b)
            assert x.shape == b.shape
            assert x == pytest.approx(solve_ref(a, b), rel=1e-10, abs=1e-12)

    def test_residual_bound_holds(self):
        rng = np.random.RandomState(3)
        for _ in range(20):
            n = rng.randint(2, 12)
            a = rng.randn(n, n)
            b = rng.randn(n)
            try:
                x = lu_solve(a, b)
            except SingularMatrixError:
                continue
            resid = np.abs(a @ x - b).max()
            bound = 1e-10 * cond_estimate_1norm(a) * max(np.abs(b).max(), 1.0)
            assert resid <= bound

    def test_exactly_singular_matrix_reports_pivot(self):
        with pytest.raises(SingularMatrixError) as exc:
            lu_solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
        assert exc.value.pivot_index == 1

    def test_zero_matrix_fails_at_first_pivot(self):
        with pytest.raises(SingularMatrixError) as exc:
            lu_solve(np.zeros((3, 3)), np.ones(3))
        assert exc.value.pivot_index == 0

    def test_subnormal_pivot_raises_at_that_pivot(self):
        # LAPACK divides by the 1e-310 pivot and returns non-finite values;
        # the zero floor of the hand elimination names the pivot instead.
        with pytest.raises(SingularMatrixError) as exc:
            lu_solve([[1e-310, 0.0], [0.0, 1.0]], [1.0, 1.0])
        assert exc.value.pivot_index == 0

    def test_overflowing_solve_names_smallest_pivot(self):
        # Every pivot clears the floor, but x_0 = 1e200 / 1e-200 overflows.
        with pytest.raises(SingularMatrixError) as exc:
            lu_solve([[1.0, 0.0], [0.0, 1e-200]], [1.0, 1e200])
        assert exc.value.pivot_index == 1

    def test_rank_two_matrix_fails_at_last_pivot(self):
        with pytest.raises(SingularMatrixError) as exc:
            lu_solve([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]], np.ones(3))
        assert exc.value.pivot_index == 2

    def test_multi_column_rhs_equals_column_solves(self):
        rng = np.random.RandomState(29)
        a = rng.randn(12, 12) + 12.0 * np.eye(12)
        b = rng.randn(12, 5)
        x = lu_solve(a, b)
        assert x.shape == (12, 5)
        for j in range(5):
            assert x[:, j] == pytest.approx(lu_solve(a, b[:, j]), rel=1e-13, abs=1e-15)

    def test_singular_error_is_a_value_error(self):
        assert issubclass(SingularMatrixError, ValueError)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            lu_solve(np.ones((2, 3)), np.ones(2))

    @pytest.mark.parametrize("shape", [(4,), (4, 2), (3, 1, 1)])
    def test_mismatched_rhs_rejected(self, shape):
        with pytest.raises(ValueError, match="rhs shape"):
            lu_solve(np.eye(3), np.ones(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rhs_rejected(self, bad):
        """A regular matrix is not blamed for non-finite data."""
        b = np.ones(3)
        b[1] = bad
        with pytest.raises(ValueError, match="finite") as exc:
            lu_solve(np.eye(3) + 0.5, b)
        assert not isinstance(exc.value, SingularMatrixError)

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValueError):
            lu_solve([[1.0, math.nan], [0.0, 1.0]], [1.0, 1.0])

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_diagonally_dominant_systems(self, n, seed):
        rng = np.random.RandomState(seed)
        a = rng.uniform(-1.0, 1.0, (n, n)) + 2.0 * n * np.eye(n)
        x_true = rng.uniform(-5.0, 5.0, n)
        x = lu_solve(a, a @ x_true)
        assert x == pytest.approx(x_true, rel=1e-9, abs=1e-9)


class TestLuFactor:
    def test_permuted_product_reconstructs_matrix(self):
        rng = np.random.RandomState(5)
        a = rng.randn(6, 6)
        lu, perm = lu_factor(a)
        lower = np.tril(lu, -1) + np.eye(6)
        upper = np.triu(lu)
        assert lower @ upper == pytest.approx(a[perm], abs=1e-12)

    def test_perm_is_a_permutation(self):
        a = np.random.RandomState(8).randn(7, 7)
        _, perm = lu_factor(a)
        assert sorted(perm.tolist()) == list(range(7))


class TestCond1normUnchecked:
    """The condition number ``Diagnostics`` reads of a matrix already solved."""

    def test_non_finite_inverse_alone_reads_infinite_condition(self):
        # x = (1, 0) is finite, but the inverse's entry -1e200 / 1e-200 overflows.
        a = np.array([[1.0, 1e200], [0.0, 1e-200]])
        assert lu_solve(a, [1.0, 0.0]) == pytest.approx([1.0, 0.0])
        assert cond_1norm_unchecked(a) == math.inf

    def test_singular_reads_infinity(self):
        assert cond_1norm_unchecked(np.zeros((3, 3))) == math.inf


class TestCondEstimate:
    def test_identity(self):
        assert cond_estimate_1norm(np.eye(4)) == 1.0

    def test_diagonal_condition(self):
        got = cond_estimate_1norm(np.diag([1.0, 1e-6]))
        assert 0.5e6 <= got <= 2e6

    def test_within_factor_five_of_explicit_inverse(self):
        rng = np.random.RandomState(17)
        for _ in range(25):
            a = rng.randn(5, 5)
            exact = cond_1norm_explicit(a)
            got = cond_estimate_1norm(a)
            assert got <= exact * 1.0000001
            assert got >= exact / 5.0

    def test_equals_explicit_inverse(self):
        rng = np.random.RandomState(31)
        for n in (2, 5, 9, 16):
            a = rng.randn(n, n)
            assert cond_estimate_1norm(a) == pytest.approx(cond_1norm_explicit(a), rel=1e-12)

    def test_singular_returns_infinity(self):
        assert cond_estimate_1norm(np.zeros((3, 3))) == math.inf
        assert cond_estimate_1norm([[1.0, 2.0], [2.0, 4.0]]) == math.inf

    def test_subnormal_pivot_returns_infinity(self):
        # The inverse overflows; max(1.0, nan) would read 1.0.
        assert cond_estimate_1norm([[1e-310, 0.0], [0.0, 1.0]]) == math.inf

    def test_never_below_one(self):
        rng = np.random.RandomState(23)
        for _ in range(10):
            a = rng.randn(4, 4) * 1e-3
            assert cond_estimate_1norm(a) >= 1.0

"""Bessel function tests against an arbitrary-precision reference."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkm import specfun
from bkm.specfun import bessel_i0, bessel_i1, bessel_j0, bessel_j0_sq, bessel_j1

from oracles import bisect_root, i0_ref, i1_ref, j0_ref, j1_ref

FINITE_X = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestPointValues:
    def test_j0_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_j0_at_one(self):
        assert bessel_j0(1.0) == pytest.approx(0.7651976865579666, abs=1e-15)

    def test_j0_first_root(self):
        root = bisect_root(j0_ref, 2.0, 3.0)
        assert root == pytest.approx(2.404825557695773, abs=1e-12)
        assert abs(bessel_j0(root)) <= 1e-12

    def test_j1_at_zero(self):
        assert bessel_j1(0.0) == 0.0

    def test_j1_at_one(self):
        assert bessel_j1(1.0) == pytest.approx(0.4400505857449335, abs=1e-15)

    def test_j1_first_positive_root(self):
        root = bisect_root(j1_ref, 3.0, 4.5)
        assert root == pytest.approx(3.8317059702075123, abs=1e-12)
        assert abs(bessel_j1(root)) <= 1e-12

    def test_i0_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    def test_i0_values(self):
        assert bessel_i0(1.0) == pytest.approx(1.2660658777520082, rel=1e-15)
        assert bessel_i0(2.0) == pytest.approx(2.2795853023360673, rel=1e-15)

    def test_i1_at_zero(self):
        assert bessel_i1(0.0) == 0.0

    def test_i1_values(self):
        assert bessel_i1(1.0) == pytest.approx(0.5651591039924850, rel=1e-15)
        assert bessel_i1(2.0) == pytest.approx(1.5906368546373291, rel=1e-15)


class TestReferenceSweep:
    """Dyadic grids keep the reference exact at the evaluation points."""

    @pytest.mark.parametrize(
        "mine,ref",
        [(bessel_j0, j0_ref), (bessel_j1, j1_ref)],
        ids=["j0", "j1"],
    )
    def test_oscillatory_sweep(self, mine, ref):
        worst = 0.0
        for k in range(-800, 801):
            x = k / 16.0
            want = ref(x)
            worst = max(worst, abs(mine(x) - want) / max(1.0, abs(want)))
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "mine,ref",
        [(bessel_i0, i0_ref), (bessel_i1, i1_ref)],
        ids=["i0", "i1"],
    )
    def test_monotone_sweep(self, mine, ref):
        worst = 0.0
        for k in range(-1600, 1601):
            x = k / 16.0
            want = ref(x)
            worst = max(worst, abs(mine(x) - want) / max(1.0, abs(want)))
        assert worst <= 1e-12


class TestProperties:
    @given(FINITE_X)
    def test_j0_even(self, x):
        assert bessel_j0(-x) == bessel_j0(x)

    @given(FINITE_X)
    def test_j1_odd(self, x):
        assert bessel_j1(-x) == -bessel_j1(x)

    @given(FINITE_X)
    def test_j0_bounded_by_one(self, x):
        assert abs(bessel_j0(x)) <= 1.0 + 1e-15

    @given(FINITE_X)
    def test_i0_at_least_one(self, x):
        assert bessel_i0(x) >= 1.0

    @given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    def test_i0_even(self, x):
        assert bessel_i0(-x) == bessel_i0(x)

    @given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    def test_i1_odd(self, x):
        assert bessel_i1(-x) == -bessel_i1(x)

    @given(st.floats(min_value=0.05, max_value=40.0))
    @settings(max_examples=60)
    def test_j0_derivative_is_minus_j1(self, x):
        h = 1e-6
        fd = (bessel_j0(x + h) - bessel_j0(x - h)) / (2.0 * h)
        assert fd == pytest.approx(-bessel_j1(x), abs=5e-9)

    @given(st.floats(min_value=0.05, max_value=40.0))
    @settings(max_examples=60)
    def test_i0_derivative_is_i1(self, x):
        h = 1e-6
        fd = (bessel_i0(x + h) - bessel_i0(x - h)) / (2.0 * h)
        assert fd == pytest.approx(bessel_i1(x), rel=1e-7, abs=5e-9)


class TestErrors:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "fn", [bessel_j0, bessel_j1, bessel_i0, bessel_i1], ids=["j0", "j1", "i0", "i1"]
    )
    def test_non_finite_rejected(self, fn, bad):
        with pytest.raises(ValueError):
            fn(bad)

    @pytest.mark.parametrize("fn", [bessel_i0, bessel_i1], ids=["i0", "i1"])
    def test_exponential_overflow_range(self, fn):
        with pytest.raises(OverflowError):
            fn(101.0)
        with pytest.raises(OverflowError):
            fn(-101.0)


class TestArrays:
    """Array arguments: elementwise values, shapes, and error reporting."""

    # Both sides of the |x| = 5 switch between the Taylor sum and the
    # Hankel form of the J functions, with negative arguments and zero.
    J_ARGS = np.concatenate(
        [np.linspace(-50.0, 50.0, 401), [0.0, 4.999999, 5.0, 5.000001, -5.000001]]
    )
    I_ARGS = np.concatenate([np.linspace(-100.0, 100.0, 401), [0.0, 1e-8, -1e-8]])

    @pytest.mark.parametrize(
        "mine,ref,args",
        [
            (bessel_j0, j0_ref, J_ARGS),
            (bessel_j1, j1_ref, J_ARGS),
            (bessel_i0, i0_ref, I_ARGS),
            (bessel_i1, i1_ref, I_ARGS),
        ],
        ids=["j0", "j1", "i0", "i1"],
    )
    def test_array_matches_reference(self, mine, ref, args):
        got = mine(args.reshape(-1, 1))
        assert got.shape == (args.size, 1)
        want = np.array([ref(float(x)) for x in args])
        assert np.all(np.abs(got[:, 0] - want) / np.maximum(1.0, np.abs(want)) <= 1e-12)

    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1, bessel_i0, bessel_i1])
    def test_array_equals_elementwise_calls(self, fn):
        args = np.array([[0.0, 0.3, -4.9], [5.0, -5.5, 37.0]])
        got = fn(args)
        for index, x in np.ndenumerate(args):
            assert got[index] == fn(float(x))

    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1, bessel_i0, bessel_i1])
    def test_scalar_gives_float_and_empty_gives_empty(self, fn):
        assert type(fn(1.5)) is float
        assert type(fn(np.float64(7.5))) is float
        assert fn(np.empty((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1, bessel_i0, bessel_i1])
    def test_one_non_finite_element_rejects_the_array(self, fn):
        with pytest.raises(ValueError, match="nan"):
            fn(np.array([0.5, math.nan, 1.0]))

    @pytest.mark.parametrize("fn", [bessel_i0, bessel_i1], ids=["i0", "i1"])
    def test_one_element_out_of_range_rejects_the_array(self, fn):
        with pytest.raises(OverflowError, match="-101"):
            fn(np.array([0.5, -101.0, 1.0]))


class TestSmallArgumentPolynomial:
    """J0 and J1 on |x| <= 5 are a fitted polynomial in x^2; beyond, the
    Hankel form with the Cephes tables."""

    GRID = np.linspace(-5.0, 5.0, 8001)

    @pytest.mark.parametrize(
        "mine,ref", [(bessel_j0, j0_ref), (bessel_j1, j1_ref)], ids=["j0", "j1"]
    )
    def test_dense_grid_within_2e_15_of_mpmath(self, mine, ref):
        want = np.array([ref(float(x)) for x in self.GRID])
        assert np.abs(mine(self.GRID) - want).max() <= 2e-15

    def test_exact_at_zero_and_odd_bit_for_bit(self):
        assert np.array_equal(bessel_j0(np.array([0.0, -0.0])), [1.0, 1.0])
        assert np.array_equal(bessel_j1(np.array([0.0, -0.0])), [0.0, 0.0])
        assert np.array_equal(bessel_j1(-self.GRID), -bessel_j1(self.GRID))
        assert np.array_equal(bessel_j0(-self.GRID), bessel_j0(self.GRID))

    def test_j1_odd_bit_for_bit_at_the_switch(self):
        x = np.array([np.nextafter(5.0, 0.0), 5.0, np.nextafter(5.0, 9.0)])
        both = np.concatenate([x, -x])
        assert bessel_j1(both).tobytes() == np.concatenate([bessel_j1(x), -bessel_j1(x)]).tobytes()
        for v in x:
            assert bessel_j1(-v) == -bessel_j1(v) and bessel_j1(-v) != 0.0

    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1], ids=["j0", "j1"])
    def test_forms_agree_across_the_switch(self, fn):
        below = [5.0]
        above = [np.nextafter(5.0, np.inf)]
        for _ in range(4):
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], np.inf))
        for sign in (1.0, -1.0):
            near = fn(sign * np.array(below))
            far = fn(sign * np.array(above))
            assert np.abs(near[:, None] - far[None, :]).max() <= 1e-14

    @pytest.mark.parametrize(
        "table",
        ["_PP", "_PQ", "_QP", "_QQ", "_PP1", "_PQ1", "_QP1", "_QQ1", "_J0_SMALL", "_J1_SMALL"],
    )
    def test_in_place_polevl_equals_out_of_place_horner(self, table):
        coef = getattr(specfun, table)
        x = np.linspace(5.0, 60.0, 2001)[1:]
        z = 25.0 / (x * x)

        def horner(arg):
            ans = coef[0]
            for c in coef[1:]:
                ans = ans * arg + c
            return ans

        assert np.array_equal(specfun._polevl(z, coef), horner(z))
        assert specfun._polevl(np.float64(z[7]), coef) == horner(np.float64(z[7]))

    def test_hankel_range_values_are_unchanged(self):
        # Recorded from an out-of-place Horner evaluation of the same tables;
        # the in-place one must give them to the bit.
        cases = [
            (5.000000000000001, -0.17759677131433804, -0.3275791375914654),
            (7.5, 0.2663396578803784, 0.13524842757970554),
            (-12.25, 0.10093061051051493, 0.20035719875585495),
            (33.0, 0.0972706722355092, 0.10061964911511759),
            (59.75, -0.07707149998004106, 0.06801851517000267),
        ]
        for x, j0, j1 in cases:
            assert bessel_j0(x) == j0
            assert bessel_j1(x) == j1


    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1])
    def test_past_the_square_root_of_max_float_warns_nothing(self, fn):
        # x * x overflows past 1.3e154; 25 / (x * x) is then 0, its limit.
        x = np.array([1e154, 2e154, 1e200, -1e300, np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = fn(x)
            assert [fn(float(v)) for v in x] == values.tolist()
        assert np.all(np.abs(values) <= math.sqrt(2.0 / math.pi) / np.sqrt(np.abs(x)))


class TestSquaredArgument:
    """bessel_j0_sq(x^2) is J0(x) from the squared argument."""

    def test_equals_j0_of_the_root_bit_for_bit(self):
        # sqrt(x*x) is |x| exactly in binary floating point, and below
        # x^2 = 25 both evaluate the polynomial at the same x*x.
        switch = [np.nextafter(5.0, 0.0), np.nextafter(5.0, 9.0)]
        x = np.concatenate([np.linspace(0.0, 50.0, 20001), switch])
        assert np.array_equal(bessel_j0_sq(x * x), bessel_j0(x))

    def test_empty_array_keeps_its_shape(self):
        assert bessel_j0_sq(np.empty((0, 3))).shape == (0, 3)

    def test_max_of_exactly_25_is_one_polynomial_pass(self, monkeypatch):
        # Perfect squares of multiples of 1/4: sqrt gives x back exactly.
        x = np.arange(0.0, 5.25, 0.25)
        t = (x * x).reshape(3, 7)
        assert t.max() == 25.0
        want = bessel_j0(np.sqrt(t))
        # The polynomial covers every element: the Hankel form is never called.

        def no_hankel(*args):
            raise AssertionError("the Hankel form was called")

        monkeypatch.setattr(specfun, "_hankel", no_hankel)
        assert np.array_equal(bessel_j0_sq(t), want)

    def test_each_form_alone_and_both_in_one_array(self):
        near, far = np.array([0.0, 4.0, 25.0]), np.array([25.5, 100.0, 2500.0])
        both = np.concatenate([far, near]).reshape(2, 3)
        one_side_each = np.concatenate([bessel_j0_sq(far), bessel_j0_sq(near)])
        assert np.array_equal(bessel_j0_sq(both), one_side_each.reshape(2, 3))
        assert np.array_equal(bessel_j0_sq(near), bessel_j0(np.sqrt(near)))
        assert np.array_equal(bessel_j0_sq(far), bessel_j0(np.sqrt(far)))

    @pytest.mark.parametrize(
        "t",
        [np.array([[0.0, 4.0, 25.0]]), np.array([[25.5, 100.0, 2500.0]]),
         np.array([[3.0, 30.0, 0.5], [2500.0, 24.9, 25.1]])],
        ids=["near", "far", "both"],
    )
    def test_out_receives_the_values_and_leaves_the_argument(self, t):
        arg = t.copy()
        out = np.full(t.shape, np.nan)
        assert bessel_j0_sq(arg, out) is out
        assert np.array_equal(out, bessel_j0_sq(t))
        assert np.array_equal(arg, t)

"""Ellipse geometry: knot placement, normals, interior lattice."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkm.geometry import (
    BoundaryKnot,
    Ellipse,
    Point,
    as_xy,
    checked_xy,
    coincident_pair,
    distance_matrix,
    ellipse_knots,
    interior_grid,
    squared_distances,
)

from oracles import count_lattice_in_ellipse, squared_distances_broadcast

ELLIPSE_21 = Ellipse(Point(0.0, 0.0), 2.0, 1.0)


class TestEllipseKnots:
    def test_four_knots_hit_axis_points(self):
        knots = ellipse_knots(ELLIPSE_21, 4)
        positions = [k.position for k in knots]
        expected = [(2.0, 0.0), (0.0, 1.0), (-2.0, 0.0), (0.0, -1.0)]
        for got, want in zip(positions, expected):
            assert got.x == pytest.approx(want[0], abs=1e-15)
            assert got.y == pytest.approx(want[1], abs=1e-15)
        normals = [k.normal for k in knots]
        for got, want in zip(normals, [(1, 0), (0, 1), (-1, 0), (0, -1)]):
            assert got[0] == pytest.approx(want[0], abs=1e-15)
            assert got[1] == pytest.approx(want[1], abs=1e-15)

    def test_single_knot_on_shifted_ellipse(self):
        knots = ellipse_knots(Ellipse(Point(3.0, 0.0), 2.0, 1.0), 1)
        assert len(knots) == 1
        assert knots[0].position == pytest.approx((5.0, 0.0))
        assert knots[0].normal == pytest.approx((1.0, 0.0))

    def test_eight_knot_diagonal_position_and_normal(self):
        knot = ellipse_knots(ELLIPSE_21, 8)[1]
        assert knot.position.x == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert knot.position.y == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-15)
        assert knot.normal[0] == pytest.approx(0.4472135954999579, abs=1e-15)
        assert knot.normal[1] == pytest.approx(0.8944271909999159, abs=1e-15)

    def test_knot_count_must_be_positive(self):
        with pytest.raises(ValueError):
            ellipse_knots(ELLIPSE_21, 0)

    @given(st.integers(min_value=1, max_value=40))
    def test_knots_lie_on_boundary_with_unit_outward_normals(self, n):
        e = Ellipse(Point(0.5, -0.25), 1.75, 0.8)
        knots = ellipse_knots(e, n)
        assert len(knots) == n
        for k in knots:
            assert e.level(k.position) == pytest.approx(1.0, abs=1e-12)
            nx, ny = k.normal
            assert math.hypot(nx, ny) == pytest.approx(1.0, abs=1e-12)
            # outward: moving along the normal increases the level function
            probe = Point(k.position.x + 1e-6 * nx, k.position.y + 1e-6 * ny)
            assert e.level(probe) > e.level(k.position)


class TestInteriorGrid:
    def test_coarse_grid_keeps_only_center(self):
        assert interior_grid(ELLIPSE_21, 10.0) == [Point(0.0, 0.0)]

    def test_unit_spacing_excludes_boundary_points(self):
        pts = interior_grid(ELLIPSE_21, 1.0)
        assert Point(0.0, 0.0) in pts
        assert Point(1.0, 0.0) in pts
        assert Point(-1.0, 0.0) in pts
        assert Point(2.0, 0.0) not in pts

    def test_half_spacing_point_count(self):
        pts = interior_grid(ELLIPSE_21, 0.5)
        assert len(pts) == 21
        assert len(pts) == count_lattice_in_ellipse(2.0, 1.0, 0.5)

    def test_spacing_must_be_positive(self):
        with pytest.raises(ValueError):
            interior_grid(ELLIPSE_21, 0.0)

    @pytest.mark.parametrize("spacing", [math.nan, math.inf])
    def test_non_finite_spacing_rejected(self, spacing):
        with pytest.raises(ValueError, match="finite"):
            interior_grid(ELLIPSE_21, spacing)

    @given(st.floats(min_value=0.2, max_value=3.0))
    @settings(max_examples=40)
    def test_all_points_strictly_inside(self, spacing):
        e = Ellipse(Point(0.0, 0.0), 2.0, 1.0)
        for p in interior_grid(e, spacing):
            assert e.level(p) < 1.0

    @given(st.floats(min_value=0.3, max_value=2.0))
    @settings(max_examples=20)
    def test_count_matches_brute_force(self, spacing):
        pts = interior_grid(ELLIPSE_21, spacing)
        assert len(pts) == count_lattice_in_ellipse(2.0, 1.0, spacing)
        assert len(set(pts)) == len(pts)


    def test_row_major_order_on_shifted_ellipse(self):
        """The lattice scan is y ascending, then x ascending, each point at
        center + (i, j) * spacing; the same points in the same order as a
        scalar double loop."""
        e = Ellipse(Point(3.0, 0.0), 2.0, 1.0)
        h = 0.07
        ni, nj = int(2.0 // h), int(1.0 // h)
        want = [
            p
            for j in range(-nj, nj + 1)
            for i in range(-ni, ni + 1)
            if e.level(p := Point(3.0 + i * h, 0.0 + j * h)) < 1.0 - 1e-9
        ]
        assert interior_grid(e, h) == want


class TestLevel:
    def test_array_levels_equal_point_levels(self):
        e = Ellipse(Point(0.5, -1.25), 3.0, 0.75)
        xy = np.random.default_rng(3).uniform(-4.0, 4.0, (40, 2))
        levels = e.level(xy)
        assert levels.shape == (40,)
        assert np.array_equal(levels, [e.level(Point(*row)) for row in xy.tolist()])


class TestEllipseValidation:
    def test_semi_axes_ordering_enforced(self):
        with pytest.raises(ValueError):
            Ellipse(Point(0.0, 0.0), 1.0, 2.0)

    def test_semi_axes_must_be_positive(self):
        with pytest.raises(ValueError):
            Ellipse(Point(0.0, 0.0), 2.0, 0.0)

    @pytest.mark.parametrize(
        "center, a, b",
        [
            (Point(math.nan, 0.0), 2.0, 1.0),
            (Point(0.0, math.inf), 2.0, 1.0),
            (Point(-math.inf, 0.0), 2.0, 1.0),
            # Infinite axes used to be accepted, then divide by zero in ellipse_knots.
            (Point(0.0, 0.0), math.inf, 1.0),
            (Point(0.0, 0.0), math.inf, math.inf),
        ],
        ids=["nan_x", "inf_y", "minus_inf_x", "inf_major", "inf_both"],
    )
    def test_non_finite_center_or_axis_rejected(self, center, a, b):
        with pytest.raises(ValueError, match="finite"):
            Ellipse(center, a, b)


class TestArrayHelpers:
    def test_as_xy_rows_are_coordinates(self):
        pts = [Point(0.5, -1.0), Point(2.0, 3.5), Point(-0.25, 0.0)]
        xy = as_xy(pts)
        assert xy.shape == (3, 2) and xy.dtype == float
        assert np.array_equal(xy, np.array([[0.5, -1.0], [2.0, 3.5], [-0.25, 0.0]]))
        assert np.array_equal(as_xy(tuple((p.x, p.y) for p in pts)), xy)
        assert as_xy(xy) is xy
        assert as_xy([]).shape == (0, 2)

    def test_as_xy_rejects_items_that_are_not_pairs(self):
        """3-tuples were once re-paired silently: [(3, 0.1, 9), (3.2, 0.2, 9)]
        read as (3, 0.1) and (9, 3.2)."""
        with pytest.raises(ValueError, match="pairs"):
            as_xy([(3.0, 0.1, 9.0), (3.2, 0.2, 9.0)])
        with pytest.raises(ValueError, match="pairs"):
            as_xy([(0.0, 1.0), (2.0, 3.0, None)])
        with pytest.raises(ValueError):
            as_xy([(3.0, 0.1), (3.2,)])

    def test_checked_xy_admits_real_pairs(self):
        pts = [Point(0.5, -1.0), Point(2.0, 3.5)]
        assert np.array_equal(checked_xy(pts, "points"), as_xy(pts))
        ints = np.array([[1, 2], [3, 4]])
        assert checked_xy(ints, "points") is ints
        assert checked_xy([], "points").shape == (0, 2)

    @pytest.mark.parametrize(
        "xy",
        [np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2), dtype=complex)],
        ids=["three-columns", "flat", "complex"],
    )
    def test_checked_xy_rejects_other_shapes_and_dtypes(self, xy):
        with pytest.raises(ValueError, match=r"^probes need an \(n, 2\) array of real"):
            checked_xy(xy, "probes")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e150, 1e200])
    def test_checked_xy_rejects_non_finite_and_huge(self, bad):
        with pytest.raises(ValueError, match="^probes need finite coordinates"):
            checked_xy([Point(0.0, 0.0), Point(0.0, bad)], "probes")

    def test_checked_xy_keeps_as_xy_pairs_error(self):
        with pytest.raises(ValueError, match="pairs"):
            checked_xy([(3.0, 0.1, 9.0), (3.2, 0.2, 9.0)], "probes")

    def test_distance_matrix_matches_dist(self):
        rows = [Point(0.1 * i, 0.3 - 0.2 * i) for i in range(4)]
        cols = [Point(-0.5, 0.25), Point(1.0, 1.0), Point(0.0, 0.0)]
        d = distance_matrix(as_xy(rows), as_xy(cols))
        assert d.shape == (4, 3)
        for i, p in enumerate(rows):
            for j, q in enumerate(cols):
                assert d[i, j] == pytest.approx(math.dist(p, q), rel=1e-15)

    def test_coincident_pair_first_in_row_major_order(self):
        pts = as_xy([Point(x, 0.0) for x in (0.0, 1.0, 2.0, 1.0, 0.0)])
        d = distance_matrix(pts, pts)
        assert coincident_pair(d) == (0, 4)
        assert coincident_pair(d[1:, 1:]) == (0, 2)
        assert coincident_pair(d[:3, :3]) is None
        near = as_xy([Point(0.0, 0.0), Point(1e-13, 0.0), Point(1e-11, 0.0)])
        assert coincident_pair(distance_matrix(near, near)) == (0, 1)
        assert coincident_pair(distance_matrix(near[::2], near[::2])) is None


class TestSquaredDistances:
    """One BLAS product of lifted coordinates, bit for bit two broadcast
    subtractions squared and summed."""

    @staticmethod
    def _mixed_signs(count, scale, seed):
        rng = np.random.default_rng(seed)
        return rng.uniform(-1.0, 1.0, (count, 2)) * scale

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e8, 1e-160, 1e-310, 9.9e149])
    @pytest.mark.parametrize("m, b", [(1, 1), (5, 7), (12, 1365), (71, 256), (400, 3)])
    def test_equals_broadcast_subtraction_bit_for_bit(self, scale, m, b):
        rows = self._mixed_signs(m, scale, m)
        cols = self._mixed_signs(b, scale, b + 1)
        got = squared_distances(rows, cols)
        assert got.shape == (m, b)
        assert got.tobytes() == squared_distances_broadcast(rows, cols).tobytes()

    @given(
        st.lists(
            st.tuples(*[st.floats(-9.99e149, 9.99e149, allow_subnormal=True)] * 2),
            min_size=1,
            max_size=9,
        ),
        st.lists(
            st.tuples(*[st.floats(-9.99e149, 9.99e149, allow_subnormal=True)] * 2),
            min_size=1,
            max_size=9,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_coordinates_below_1e150_bit_for_bit(self, rows, cols):
        rows, cols = as_xy(rows), as_xy(cols)
        got = squared_distances(rows, cols)
        assert got.tobytes() == squared_distances_broadcast(rows, cols).tobytes()

    def test_coincident_points_give_exact_zero_never_negative(self):
        pts = self._mixed_signs(30, 7.0, 3)
        pts = np.concatenate([pts, pts[::3], -pts[:4]])
        t = squared_distances(pts, pts)
        assert np.array_equal(np.diag(t), np.zeros(len(pts)))
        assert not np.signbit(t).any()
        assert t[0, 30] == 0.0 and t[3, 31] == 0.0
        assert t.tobytes() == squared_distances_broadcast(pts, pts).tobytes()

    def test_mixed_dtypes_promote_as_subtraction_does(self):
        rows = np.array([[3, -4], [0, 0], [7, 1]])
        cols = self._mixed_signs(5, 10.0, 1).astype(np.float32)
        for a, b in ((rows, self._mixed_signs(5, 10.0, 2)), (self._mixed_signs(4, 3.0, 4), cols)):
            got = squared_distances(a, b)
            want = squared_distances_broadcast(a, b)
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    def test_work_array_receives_the_product(self):
        rows, cols = self._mixed_signs(6, 2.0, 5), self._mixed_signs(11, 2.0, 6)
        work = np.full((12, 11), np.nan)
        got = squared_distances(rows, cols, work)
        assert np.shares_memory(got, work) and got.base is work
        assert got.tobytes() == squared_distances_broadcast(rows, cols).tobytes()

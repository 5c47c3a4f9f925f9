"""Dual-reciprocity layer: interpolation matrices, rho pathways, particular solutions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkm.bkm import evaluate, solve_boundary_only
from bkm.drm import (
    DrmExpansion,
    RhoSpec,
    bordered_matrix,
    interp_matrix,
    knot_distances,
    particular_matrix,
    rho_matrix,
    solve_alpha,
    u_p_at,
)
from bkm.geometry import Ellipse, Point, ellipse_knots
from bkm.kernels import mq_pair
from bkm.linalg import SingularMatrixError, lu_solve
from bkm.problems import burger_benchmark, helmholtz_benchmark, laplace_benchmark

from oracles import fd_laplacian_2d

ELLIPSE = Ellipse(Point(0.0, 0.0), 2.0, 1.0)


def ring(n: int) -> list[Point]:
    return [k.position for k in ellipse_knots(ELLIPSE, n)]


class TestRhoSpec:
    def test_factories(self):
        assert RhoSpec.zero().kind == "zero"
        assert RhoSpec.identity().kind == "identity"
        assert RhoSpec.scaled_identity(2.5) == RhoSpec("scaled_identity", 2.5)
        assert RhoSpec.burger().kind == "burger"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RhoSpec("cubic")

    @pytest.mark.parametrize(
        "spec, scale",
        [
            (RhoSpec.zero(), 0.0),
            (RhoSpec.identity(), 1.0),
            (RhoSpec.scaled_identity(-0.7), -0.7),
            (RhoSpec.burger(), None),
        ],
        ids=["zero", "identity", "scaled_identity", "burger"],
    )
    def test_linear_scale(self, spec, scale):
        assert spec.linear_scale == scale

    def test_evaluation_matches_each_formula(self):
        u = np.array([0.5, -1.25, 2.0])
        u_x = np.array([3.0, 0.75, -0.5])
        assert np.array_equal(RhoSpec.zero()(u), 0.0 * u)
        assert np.array_equal(RhoSpec.identity()(u), u)
        assert np.array_equal(RhoSpec.scaled_identity(-0.7)(u), -0.7 * u)
        assert np.array_equal(RhoSpec.burger()(u, u_x), u - u_x * u)
        # Scalars as well as arrays; linear kinds ignore u_x.
        assert RhoSpec.scaled_identity(2.0)(1.5, 9.0) == 3.0
        assert RhoSpec.burger()(2.0, 0.25) == 1.5

    def test_burger_without_u_x_rejected(self):
        with pytest.raises(ValueError, match="u_x"):
            RhoSpec.burger()(np.ones(3))

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="finite"):
            RhoSpec.scaled_identity(scale)

    @pytest.mark.parametrize("kind", ["zero", "identity", "burger"])
    def test_scale_on_a_kind_without_one_rejected(self, kind):
        with pytest.raises(ValueError, match="takes no scale"):
            RhoSpec(kind, 5.0)
        assert RhoSpec(kind, 1.0) == RhoSpec(kind)


class TestInterpMatrix:
    def test_single_knot_is_phi_at_zero(self):
        a = interp_matrix([Point(0.3, 0.4)], mq_pair(3.0))
        assert a.shape == (1, 1)
        assert a[0, 0] == pytest.approx(45.0, rel=1e-15)

    def test_two_knots_symmetric(self):
        a = interp_matrix([Point(0.0, 0.0), Point(1.0, 1.0)], mq_pair(1.0))
        assert a[0, 1] == a[1, 0]

    def test_collinear_equidistant_knots_give_toeplitz(self):
        pts = [Point(float(i), 0.0) for i in range(4)]
        a = interp_matrix(pts, mq_pair(2.0))
        for i in range(3):
            for j in range(3):
                assert a[i + 1, j + 1] == a[i, j]

    def test_empty_knot_set_rejected(self):
        with pytest.raises(ValueError):
            interp_matrix([], mq_pair(1.0))

    def test_duplicate_knots_rejected(self):
        with pytest.raises(ValueError):
            interp_matrix([Point(0.0, 0.0), Point(0.0, 0.0)], mq_pair(1.0))

    def test_near_duplicate_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            interp_matrix([Point(0.0, 0.0), Point(1e-13, 0.0)], mq_pair(1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_knot_rejected(self, bad):
        # A NaN distance is never close, so the duplicate check used to
        # fall through to an IndexError.
        pts = [Point(bad, 0.0), Point(1.0, 0.0)]
        with pytest.raises(ValueError, match="finite"):
            interp_matrix(pts, mq_pair(1.0))

    def test_huge_knot_rejected(self):
        # Finite, but the squared distance overflows: this used to return a
        # matrix with NaN entries.
        with pytest.raises(ValueError, match="finite"):
            interp_matrix([Point(1e200, 0.0), Point(0.0, 0.0)], mq_pair(1.0))

    def test_three_column_array_rejected(self):
        # An (n, 3) array used to pass with its third column ignored.
        xy = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 7.0]])
        with pytest.raises(ValueError, match=r"\(n, 2\) array of real"):
            knot_distances(xy)

    def test_duplicate_message_names_first_pair(self):
        pts = [Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 0.0), Point(1.0, 0.0)]
        with pytest.raises(ValueError, match=r"^duplicate knots at indices 0 and 2: "):
            interp_matrix(pts, mq_pair(1.0))

    def test_entries_match_scalar_kernel_calls(self):
        """phi of each admitted distance, bit for bit (``math.dist`` can
        differ from it by one ulp; test_geometry checks the distances)."""
        pts = ring(6)
        pair = mq_pair(3.0)
        a = interp_matrix(pts, pair)
        distances = knot_distances(pts)
        for i in range(len(pts)):
            for j in range(len(pts)):
                assert a[i, j] == pair.phi.eval(float(distances[i, j]))


class TestParticularMatrix:
    def test_entry_at_coincident_point_is_c_cubed(self):
        knots = [Point(0.5, 0.5)]
        m = particular_matrix([Point(0.5, 0.5)], knots, mq_pair(3.0))
        assert m[0, 0] == 27.0

    def test_unit_shape_at_zero_distance(self):
        m = particular_matrix([Point(1.0, -1.0)], [Point(1.0, -1.0)], mq_pair(1.0))
        assert m[0, 0] == 1.0

    def test_unit_shape_at_unit_distance(self):
        m = particular_matrix([Point(1.0, 0.0)], [Point(0.0, 0.0)], mq_pair(1.0))
        assert m[0, 0] == pytest.approx(2.8284271247461903, rel=1e-15)


class TestRhoMatrix:
    def test_zero_kind(self):
        pts = ring(6)
        out = rho_matrix(RhoSpec.zero(), pts, mq_pair(3.0), None)
        assert np.array_equal(out, np.zeros(6))

    def test_identity_kind_returns_u_exactly(self):
        pts = ring(6)
        u = np.array([p.x * p.y + 1.0 for p in pts])
        out = rho_matrix(RhoSpec.identity(), pts, mq_pair(3.0), u)
        assert np.array_equal(out, u)

    def test_scaled_identity(self):
        pts = ring(5)
        u = np.array([p.x for p in pts])
        out = rho_matrix(RhoSpec.scaled_identity(-0.5), pts, mq_pair(3.0), u)
        assert out == pytest.approx(-0.5 * u, rel=1e-15)

    def test_identity_shortcut_equals_full_matrix_product(self):
        pts = ring(8)
        pair = mq_pair(3.0)
        u = np.array([math.sin(p.x) + p.y for p in pts])
        a_phi = interp_matrix(pts, pair)
        full = a_phi @ lu_solve(a_phi, u)
        shortcut = rho_matrix(RhoSpec.identity(), pts, pair, u)
        assert shortcut == pytest.approx(full, rel=1e-9, abs=1e-12)

    def test_missing_u_rejected_for_value_dependent_kinds(self):
        pts = ring(4)
        for spec in (RhoSpec.identity(), RhoSpec.scaled_identity(2.0), RhoSpec.burger()):
            with pytest.raises(ValueError):
                rho_matrix(spec, pts, mq_pair(1.0), None)

    def test_burger_converges_to_analytic_target_on_a_line(self):
        # rho{u} = u - u_x u; for u = 2/x the target is 2/x + 4/x^3
        def err(n: int) -> float:
            pts = [Point(float(x), 0.0) for x in np.linspace(1.5, 4.5, n)]
            u = np.array([2.0 / p.x for p in pts])
            got = rho_matrix(RhoSpec.burger(), pts, mq_pair(1.0), u)
            want = np.array([2.0 / p.x + 4.0 / p.x**3 for p in pts])
            return float(np.abs(got - want).max())

        e8, e32 = err(8), err(32)
        assert e32 <= e8 / 2.0

    def test_burger_x_derivative_matches_interpolant_differentiation(self):
        pts = ring(9)
        pair = mq_pair(3.0)
        u = np.array([math.cos(p.x) * p.y + 2.0 for p in pts])
        coef = lu_solve(interp_matrix(pts, pair), u)

        def interpolant(x: float, y: float) -> float:
            return sum(
                c * pair.phi.eval(math.hypot(x - q.x, y - q.y)) for c, q in zip(coef, pts)
            )

        # rho_burger = u - (D_x A^-1 u) * u  =>  D_x A^-1 u = (u - rho) / u
        got = rho_matrix(RhoSpec.burger(), pts, pair, u)
        dx_interp = (u - got) / u
        h = 1e-5
        for i, p in enumerate(pts):
            fd = (interpolant(p.x + h, p.y) - interpolant(p.x - h, p.y)) / (2.0 * h)
            assert dx_interp[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def bordered_residual(pts, pair, exp, f) -> tuple[np.ndarray, np.ndarray, float]:
    """The bordered DRM matrix, its solution (alpha, tail) read off the
    expansion and the max-norm residual against (f, 0)."""
    system = bordered_matrix(pair, np.square(knot_distances(pts)), pts)
    x = np.concatenate([exp.alpha, exp.tail])
    return system, x, float(np.abs(system @ x - np.append(f, np.zeros(3))).max())


class TestSolveAlpha:
    def test_zero_forcing_zero_rho_gives_zero_alpha(self):
        pts = ring(7)
        exp = solve_alpha(pts, mq_pair(3.0), np.zeros(7), RhoSpec.zero())
        assert np.array_equal(exp.alpha, np.zeros(7))

    @pytest.mark.parametrize("bad", [math.nan, 1e200], ids=["nan", "huge"])
    def test_non_finite_or_huge_knot_rejected(self, bad):
        pts = ring(6)
        pts[2] = Point(bad, 0.0)
        with pytest.raises(ValueError, match="finite"):
            solve_alpha(pts, mq_pair(3.0), np.ones(6), RhoSpec.zero())

    def test_single_knot_is_singular(self):
        # The linear tail's three columns need three knots off one line.
        with pytest.raises(SingularMatrixError):
            solve_alpha([Point(0.0, 0.0)], mq_pair(3.0), [45.0], RhoSpec.zero())

    # Both residual tests run at k = 1 and k = 3, where k^2 = 9 is not a
    # power of two, so the border k^2 P rounds.
    def test_linear_forcing_residual(self):
        pts = ring(5)
        f = [p.x for p in pts]
        for k in (1.0, 3.0):
            pair = mq_pair(3.0, k)
            exp = solve_alpha(pts, pair, f, RhoSpec.zero())
            assert bordered_residual(pts, pair, exp, f)[2] <= 1e-10

    @pytest.mark.parametrize("c", [1.0, 3.0, 25.0])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_collocation_exactness(self, c, seed):
        # Random data can push the nearly-flat c=25 basis so ill that a
        # 1e-9 forward residual is unattainable in doubles (numpy's solve
        # produces the same residual); the backward-stability bound
        # eps*||A||*||alpha|| is the honest gate in that regime.
        rng = np.random.RandomState(seed)
        n = int(rng.randint(3, 12))
        pts = ring(n)
        f = rng.uniform(-2.0, 2.0, n)
        eps = np.finfo(float).eps
        for k in (1.0, 3.0):
            pair = mq_pair(c, k)
            exp = solve_alpha(pts, pair, f, RhoSpec.zero())
            system, x, resid = bordered_residual(pts, pair, exp, f)
            backward = np.abs(system).sum(axis=1).max() * np.abs(x).max()
            assert resid <= max(1e-9 * np.abs(f).max(), 100.0 * n * eps * backward)

    @pytest.mark.parametrize("n, c", [(9, 3.0), (24, 1.0)])
    def test_burger_alpha_satisfies_drm_equations(self, n, c):
        """Burger's block solve gives the alpha of A_phi alpha = f + u - u_x u,
        with u_x = D_x A_phi^-1 u taken by ``rho_matrix`` on its own."""
        pts = ring(n)
        pair = mq_pair(c)
        u = np.array([math.cos(p.x) * p.y + 2.0 for p in pts])
        f = np.array([p.x - p.y * p.y for p in pts])
        exp = solve_alpha(pts, pair, f, RhoSpec.burger(), u)
        rhs = f + rho_matrix(RhoSpec.burger(), pts, pair, u)
        resid = np.abs(interp_matrix(pts, pair) @ exp.alpha - rhs).max()
        assert resid <= 1e-9 * np.abs(rhs).max()

    @pytest.mark.parametrize("n", [5, 7, 12])
    @pytest.mark.parametrize(
        "factory",
        [laplace_benchmark, helmholtz_benchmark, burger_benchmark],
        ids=["laplace", "helmholtz", "burger"],
    )
    def test_equals_boundary_only_expansion(self, factory, n):
        """The DRM step of a boundary-only solve, bit for bit: the bordered
        system with its tail for a linear rho kind, the bare one for Burger."""
        problem = factory()
        sol, _ = solve_boundary_only(problem, n)
        knots, pair = sol.expansion.knots, sol.expansion.pair
        f = [problem.forcing(p) for p in knots]
        u = [problem.dirichlet(p) for p in knots]
        exp = solve_alpha(knots, pair, f, problem.rho, u)
        assert np.array_equal(exp.alpha, sol.expansion.alpha)
        if problem.rho.linear_scale is None:
            assert exp.tail is None and sol.expansion.tail is None
        else:
            assert np.array_equal(exp.tail, sol.expansion.tail)


class TestUpAt:
    def test_zero_alpha_gives_zero(self):
        pts = ring(5)
        exp = DrmExpansion(tuple(pts), mq_pair(1.0), np.zeros(5))
        assert np.array_equal(u_p_at(exp, pts), np.zeros(5))

    def test_single_knot_unit_alpha_at_knot(self):
        p = Point(0.2, -0.1)
        exp = DrmExpansion((p,), mq_pair(3.0), np.array([1.0]))
        assert u_p_at(exp, [p]) == pytest.approx([27.0], rel=1e-15)

    def test_knot_values_equal_particular_matrix_product(self):
        pts = ring(8)
        pair = mq_pair(3.0)
        exp = solve_alpha(pts, pair, [math.sin(p.x) for p in pts], RhoSpec.zero())
        # u_p_at sums over knots x points blocks: alpha @ that matrix, then the tail.
        direct = exp.alpha @ np.ascontiguousarray(particular_matrix(pts, pts, pair).T)
        direct += exp.tail[0]
        direct += np.array(pts) @ exp.tail[1:]
        assert np.array_equal(u_p_at(exp, pts), direct)

    @pytest.mark.parametrize("c", [1.0, 3.0])
    def test_operator_applied_to_up_reproduces_rhs_at_knots(self, c):
        pts = ring(6)
        pair = mq_pair(c)
        f = np.array([p.x + 0.5 * p.y for p in pts])
        exp = solve_alpha(pts, pair, f, RhoSpec.zero())

        def up(x: float, y: float) -> float:
            return float(u_p_at(exp, [Point(x, y)])[0])

        for i, p in enumerate(pts):
            lap = fd_laplacian_2d(up, p.x, p.y, h=1e-4)
            assert lap + up(p.x, p.y) == pytest.approx(f[i], abs=1e-4)


class TestLinearTail:
    """The bordered interpolant sum_j alpha_j phi(||x - x_j||) + beta . (1, x, y)."""

    @staticmethod
    def data(p: Point) -> float:
        return 2.0 + 3.0 * p.x - p.y + math.sin(p.x) * math.cos(p.y)

    @staticmethod
    def linear_rows(points) -> np.ndarray:
        return np.array([[1.0, p.x, p.y] for p in points])

    @pytest.mark.parametrize("c", [1.0, 3.0])
    def test_exact_at_knots_with_moment_conditions(self, c):
        pts = ring(9)
        pair = mq_pair(c)
        f = np.array([self.data(p) for p in pts])
        exp = solve_alpha(pts, pair, f, RhoSpec.zero())
        p_rows = self.linear_rows(pts)
        interpolant = interp_matrix(pts, pair) @ exp.alpha + p_rows @ exp.tail
        assert np.abs(interpolant - f).max() <= 1e-9 * np.abs(f).max()
        moments = np.abs(p_rows.T @ exp.alpha).max()
        assert moments <= 1e-12 * np.abs(p_rows).max() * np.abs(exp.alpha).sum()

    def test_bordered_matrix_layout(self):
        """[[A_phi, k^2 P], [P^T, 0]]: the tail's image k^2 P, here k = 3."""
        pts = ring(5)
        pair = mq_pair(3.0, 3.0)
        bordered = bordered_matrix(pair, np.square(knot_distances(pts)), pts)
        assert bordered.shape == (8, 8)
        assert np.array_equal(bordered[:5, :5], interp_matrix(pts, pair))
        assert np.array_equal(bordered[:5, 5:], 9.0 * self.linear_rows(pts))
        assert np.array_equal(bordered[5:, :5], self.linear_rows(pts).T)
        assert np.array_equal(bordered[5:, 5:], np.zeros((3, 3)))

    @pytest.mark.parametrize("k", [0.5, 2.0])
    def test_tail_is_divided_by_split_wavenumber_squared(self, k):
        """A linear right-hand side is interpolated by the tail alone, and
        (lap + k^2){p / k^2} = p puts p / k^2 into u_p."""
        pts = ring(8)
        pair = mq_pair(3.0, k)
        f = np.array([1.0 + 2.0 * p.x - p.y for p in pts])
        exp = solve_alpha(pts, pair, f, RhoSpec.zero())
        assert np.abs(exp.alpha).max() <= 1e-10
        assert exp.tail == pytest.approx(np.array([1.0, 2.0, -1.0]) / (k * k), rel=1e-9)

        def u_p(x: float, y: float) -> float:
            return float(u_p_at(exp, [Point(x, y)])[0])

        for probe in (Point(0.3, -0.2), Point(-1.0, 0.4)):
            lhs = fd_laplacian_2d(u_p, probe.x, probe.y, h=1e-3) + k * k * u_p(probe.x, probe.y)
            assert lhs == pytest.approx(1.0 + 2.0 * probe.x - probe.y, abs=1e-6)

    def test_tail_enters_particular_solution_unchanged(self):
        pts = ring(6)
        exp = DrmExpansion(tuple(pts), mq_pair(3.0), np.zeros(6), np.array([0.5, 2.0, -1.0]))
        probes = [Point(0.3, -0.2), Point(-1.0, 0.4)]
        want = [0.5 + 2.0 * p.x - 1.0 * p.y for p in probes]
        assert u_p_at(exp, probes) == pytest.approx(want, rel=1e-15)


class TestScatteredInterpolation:
    """The bordered multiquadric interpolant of a DRM step, on scattered
    rather than boundary knots: sin(x)cos(y) at seed-42 points in [-1, 1]^2."""

    @staticmethod
    def target(p: Point) -> float:
        return math.sin(p.x) * math.cos(p.y)

    @staticmethod
    def scatter(n: int) -> list[Point]:
        rng = np.random.RandomState(42)
        return [Point(float(x), float(y)) for x, y in rng.uniform(-1.0, 1.0, (n, 2))]

    @staticmethod
    def interpolant(expansion: DrmExpansion, points) -> np.ndarray:
        """sum_j alpha_j phi(||x - x_j||) + beta . (1, x, y), beta = k^2 tail."""
        pair = expansion.pair
        xy = np.array([[p.x, p.y] for p in points])
        knots = np.array([[p.x, p.y] for p in expansion.knots])
        r = np.hypot(xy[:, None, 0] - knots[None, :, 0], xy[:, None, 1] - knots[None, :, 1])
        beta = expansion.tail * pair.wavenumber**2
        return pair.phi.eval(r) @ expansion.alpha + beta[0] + xy @ beta[1:]

    def fit(self, n: int) -> DrmExpansion:
        pts = self.scatter(n)
        return solve_alpha(pts, mq_pair(3.0), [self.target(p) for p in pts], RhoSpec.zero())

    @pytest.mark.parametrize("n", [9, 25])
    def test_reproduces_node_values(self, n):
        pts = self.scatter(n)
        got = self.interpolant(self.fit(n), pts)
        assert got == pytest.approx([self.target(p) for p in pts], abs=1e-8)

    @pytest.mark.parametrize("n", [9, 25])
    def test_moment_conditions_hold(self, n):
        exp = self.fit(n)
        p_rows = np.array([[1.0, p.x, p.y] for p in exp.knots])
        moments = np.abs(p_rows.T @ exp.alpha).max()
        assert moments <= 1e-12 * np.abs(exp.alpha).sum()

    def test_interpolation_improves_with_more_points(self):
        # Measured max errors over the probes: 5.4e-1 at 9 points, 1.0e-2 at 25.
        rng = np.random.RandomState(0)
        probes = [Point(float(x), float(y)) for x, y in rng.uniform(-0.8, 0.8, (400, 2))]
        want = np.array([self.target(p) for p in probes])
        errs = [np.abs(self.interpolant(self.fit(n), probes) - want).max() for n in (9, 25)]
        assert errs[1] < 0.1 * errs[0]


class TestEvaluationPointChecks:
    """The entry points that evaluate at caller points reject a NaN point
    and a point whose squared distances would overflow, as ``evaluate``
    does; they used to return NaN or overflow."""

    BAD = [Point(math.nan, 0.0), Point(1e200, 0.0)]

    @pytest.mark.parametrize("bad", BAD, ids=["nan", "huge"])
    def test_particular_matrix(self, bad):
        with pytest.raises(ValueError, match="finite"):
            particular_matrix([Point(0.0, 0.0), bad], ring(5), mq_pair(1.0))

    @pytest.mark.parametrize("bad", BAD, ids=["nan", "huge"])
    def test_u_p_at(self, bad):
        expansion = solve_alpha(ring(5), mq_pair(1.0), np.ones(5), RhoSpec.zero())
        with pytest.raises(ValueError, match="finite"):
            u_p_at(expansion, [bad])

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_low_precision_points_give_their_float64_values(self, dtype):
        """float32 and float16 coordinates pass the magnitude check with no
        overflow warning (the limit 1e150 is not cast to their dtype) and
        give the values of their float64 cast."""
        xy = np.array([[0.1, 0.2], [-1.3, 0.45], [1.7, -0.3]], dtype=dtype)
        exact = xy.astype(float)
        sol, _ = solve_boundary_only(helmholtz_benchmark(), 7)
        for f in (
            lambda xy: evaluate(sol, xy),
            lambda xy: u_p_at(sol.expansion, xy),
            lambda xy: particular_matrix(xy, ring(5), mq_pair(1.0)),
            knot_distances,
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.array_equal(f(xy), f(exact))


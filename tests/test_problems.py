"""Problem catalog: benchmark definitions and the manufactured-problem generator."""

import dataclasses
import math

import numpy as np
import pytest

from bkm.drm import RhoSpec
from bkm.geometry import Ellipse, Point
from bkm.problems import (
    ProblemSpec,
    burger_benchmark,
    helmholtz_benchmark,
    laplace_benchmark,
    manufactured,
)


class TestLaplaceBenchmark:
    def test_configuration(self):
        p = laplace_benchmark()
        assert p.ellipse == Ellipse(Point(0.0, 0.0), 2.0, 1.0)
        assert p.split_wavenumber == 1.0
        assert p.rho == RhoSpec.identity()
        assert p.mq_shape_c == 25.0
        assert len(p.table_points) == 7

    def test_exact_solution_is_linear(self):
        p = laplace_benchmark()
        assert p.exact(Point(1.5, 0.0)) == 1.5
        assert p.exact(Point(0.0, -0.45)) == -0.45
        assert p.forcing(Point(0.3, 0.2)) == 0.0

    def test_restored_table_point(self):
        # the fourth row's value only matches the exact solution at
        # y = -0.45, so the point is (0, -0.45) and the notes say why
        p = laplace_benchmark()
        assert p.table_points[3] == Point(0.0, -0.45)
        assert "misprinted" in p.notes

    def test_dirichlet_data_equal_exact_on_boundary(self):
        p = laplace_benchmark()
        for t in np.linspace(0.0, 2.0 * math.pi, 9):
            q = Point(2.0 * math.cos(t), math.sin(t))
            assert p.dirichlet(q) == p.exact(q)


class TestHelmholtzBenchmark:
    def test_configuration(self):
        p = helmholtz_benchmark()
        assert p.rho == RhoSpec.zero()
        assert p.mq_shape_c == 3.0
        assert len(p.table_points) == 7

    def test_forcing_is_coordinate_x(self):
        p = helmholtz_benchmark()
        for q in (Point(0.0, 0.0), Point(1.2, -0.35), Point(-1.0, 0.5)):
            assert p.forcing(q) == q.x

    def test_exact_satisfies_split_equation(self):
        # (lap + 1){sin x + x} = x: the sine cancels against its Laplacian
        p = helmholtz_benchmark()
        q = Point(0.7, -0.3)
        h = 1e-4
        lap = (
            p.exact(Point(q.x + h, q.y))
            + p.exact(Point(q.x - h, q.y))
            + p.exact(Point(q.x, q.y + h))
            + p.exact(Point(q.x, q.y - h))
            - 4.0 * p.exact(q)
        ) / (h * h)
        assert lap + p.exact(q) == pytest.approx(q.x, abs=1e-6)

    def test_duplicate_table_row_kept(self):
        p = helmholtz_benchmark()
        assert p.table_points.count(Point(0.0, 0.0)) == 2
        assert "twice" in p.notes


class TestBurgerBenchmark:
    def test_configuration(self):
        p = burger_benchmark()
        assert p.ellipse.center == Point(3.0, 0.0)
        assert p.rho == RhoSpec.burger()
        assert p.mq_shape_c == 1.0
        assert len(p.table_points) == 12

    def test_exact_solution_is_shifted_hyperbola(self):
        p = burger_benchmark()
        assert p.exact(Point(2.0, 0.7)) == 1.0
        assert p.exact(Point(4.0, -0.3)) == 0.5

    def test_domain_stays_clear_of_the_pole(self):
        p = burger_benchmark()
        assert p.ellipse.center.x - p.ellipse.semi_major == 1.0


class TestProblemSpecValidation:
    def test_split_wavenumber_must_be_positive(self):
        with pytest.raises(ValueError):
            dataclasses.replace(laplace_benchmark(), split_wavenumber=0.0)

    def test_shape_parameter_must_be_positive(self):
        with pytest.raises(ValueError):
            dataclasses.replace(laplace_benchmark(), mq_shape_c=-1.0)

    @pytest.mark.parametrize("field", ["split_wavenumber", "mq_shape_c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite and positive"):
            dataclasses.replace(laplace_benchmark(), **{field: value})

    @pytest.mark.parametrize("field", ["split_wavenumber", "mq_shape_c"])
    def test_tiny_and_large_finite_parameters_accepted(self, field):
        for value in (5e-324, 1e300):
            spec = dataclasses.replace(laplace_benchmark(), **{field: value})
            assert getattr(spec, field) == value

    def test_spec_is_immutable(self):
        p = laplace_benchmark()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.mq_shape_c = 2.0


class TestManufactured:
    def test_forcing_matches_analytic_operator_image(self):
        def exact(p: Point) -> float:
            return math.sin(p.x) + p.x

        problem = manufactured(exact)
        for q in (Point(0.0, 0.0), Point(0.9, 0.2), Point(-1.1, -0.4)):
            assert problem.forcing(q) == pytest.approx(q.x, abs=1e-6)

    def test_linear_solution_with_identity_rho_has_zero_forcing(self):
        problem = manufactured(lambda p: p.x + p.y, rho=RhoSpec.identity())
        assert problem.forcing(Point(0.4, -0.2)) == pytest.approx(0.0, abs=1e-9)

    def test_burger_rho_forcing_uses_derivative_remainder(self):
        # (lap + 1){2/x} - (u - u_x u) at x=3: lap{2/x} = 4/x^3, so
        # f = 4/x^3 + u - u + u_x u = 4/x^3 - 4/x^3 = 0
        problem = manufactured(
            lambda p: 2.0 / p.x,
            rho=RhoSpec.burger(),
            ellipse=Ellipse(Point(3.0, 0.0), 2.0, 1.0),
        )
        for q in (Point(3.0, 0.0), Point(2.4, 0.3), Point(4.0, -0.2)):
            assert problem.forcing(q) == pytest.approx(0.0, abs=1e-6)

    def test_non_smooth_candidate_rejected(self):
        with pytest.raises(ValueError, match="smoothness"):
            manufactured(lambda p: abs(p.x))

    @pytest.mark.parametrize(
        "exact",
        [
            lambda p: math.log(p.x) if p.x > 0 else math.nan,
            lambda p: math.inf if p.x < -1.0 else p.x,
        ],
        ids=["nan", "inf"],
    )
    def test_non_finite_candidate_rejected(self, exact):
        # A NaN gap compared with the tolerance is false, so it used to pass.
        with pytest.raises(ValueError, match=r"smoothness screen at Point\(x=-1\.4"):
            manufactured(exact)

    @pytest.mark.parametrize(
        "rho, calls, rho_of",
        [
            (RhoSpec.zero(), 6, lambda u, u_x: 0.0),
            (RhoSpec.identity(), 6, lambda u, u_x: u),
            (RhoSpec.scaled_identity(0.7), 6, lambda u, u_x: 0.7 * u),
            (RhoSpec.burger(), 8, lambda u, u_x: u - u_x * u),
        ],
        ids=["zero", "identity", "scaled_identity", "burger"],
    )
    def test_forcing_takes_u_x_only_for_burger(self, rho, calls, rho_of):
        # Five stencil values for the Laplacian, u once, and for Burger
        # the two values of the centred u_x.
        seen = []

        def exact(p: Point) -> float:
            seen.append(p)
            return math.exp(p.x / 3.0) * math.cos(p.y / 2.0)

        problem = manufactured(exact, rho=rho)
        seen.clear()
        q = Point(0.3, -0.2)
        f = problem.forcing(q)
        assert len(seen) == calls
        u = exact(q)
        lap = u / 9.0 - u / 4.0  # the analytic Laplacian of exact
        assert f == pytest.approx(lap + u - rho_of(u, u / 3.0), abs=1e-6)

    def test_default_domain_and_shape(self):
        problem = manufactured(lambda p: p.x)
        assert problem.ellipse == Ellipse(Point(0.0, 0.0), 2.0, 1.0)
        assert problem.mq_shape_c == 3.0
        assert problem.name == "manufactured"

    def test_table_points_pass_through(self):
        pts = (Point(0.1, 0.2),)
        problem = manufactured(lambda p: p.x, table_points=pts)
        assert problem.table_points == pts

    def test_dirichlet_equals_exact(self):
        def exact(p: Point) -> float:
            return math.cos(p.x) * math.sin(p.y)

        problem = manufactured(exact)
        q = Point(2.0, 0.0)
        assert problem.dirichlet(q) == exact(q)

"""Boundary-knot collocation: assembly, solving, evaluation, diagnostics."""

import dataclasses
import inspect
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkm.bkm import (
    BkmSolution,
    BoundaryCondition,
    Diagnostics,
    UnsupportedConfigurationError,
    _eval_rows,
    assemble_bkm_matrix,
    evaluate,
    solve_boundary_only,
    solve_mixed_linear,
)
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
from bkm.geometry import (
    BoundaryKnot,
    Ellipse,
    Point,
    as_xy,
    ellipse_knots,
    interior_grid,
    squared_distances,
)
from bkm.kernels import (
    helmholtz2d,
    helmholtz3d,
    modified_helmholtz2d,
    mq_pair,
    normal_derivative,
)
from bkm.linalg import SingularMatrixError, cond_estimate_1norm, lu_solve
from bkm.problems import (
    burger_benchmark,
    helmholtz_benchmark,
    laplace_benchmark,
    manufactured,
)
from bkm.specfun import bessel_j0

from oracles import (
    cond_1norm_explicit,
    evaluate_broadcast,
    fd_laplacian_2d,
    squared_distances_broadcast,
)

ELLIPSE = Ellipse(Point(0.0, 0.0), 2.0, 1.0)


def _synthetic_solution(m, seed=0):
    """A solution on m ellipse knots with random coefficients and a tail:
    its matrices of squared distances in ``evaluate`` have m columns."""
    rng = np.random.default_rng(seed)
    knots = tuple(ellipse_knots(ELLIPSE, m))
    return BkmSolution(
        lam=rng.uniform(-1.0, 1.0, m),
        expansion=DrmExpansion(
            tuple(k.position for k in knots),
            mq_pair(1.0),
            rng.uniform(-1.0, 1.0, m),
            rng.uniform(-1.0, 1.0, 3),
        ),
        kernel=helmholtz2d(1.0),
        knots=knots,
    )


def _points_in_ellipse(count, seed):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-1.0, 1.0, (4 * count, 2)) * [2.0, 1.0]
    return xy[(xy[:, 0] / 2.0) ** 2 + xy[:, 1] ** 2 < 1.0][:count]


def dirichlet_bcs(knots):
    return [BoundaryCondition("dirichlet", 0.0) for _ in knots]


def _exp_cos(p: Point) -> float:
    """u = e^{x/3} cos(y/2), the manufactured solution of the coupled tests."""
    return math.exp(p.x / 3.0) * math.cos(p.y / 2.0)


def _exp_cos_gradient(p: Point) -> tuple[float, float]:
    scale = math.exp(p.x / 3.0)
    return scale * math.cos(p.y / 2.0) / 3.0, -0.5 * scale * math.sin(p.y / 2.0)


def _exact_bcs(knots, neumann, exact, gradient):
    """``exact`` at each knot, or its exact flux at the knots in ``neumann``."""
    bc = []
    for i, k in enumerate(knots):
        if i in neumann:
            gx, gy = gradient(k.position)
            bc.append(BoundaryCondition("neumann", gx * k.normal[0] + gy * k.normal[1]))
        else:
            bc.append(BoundaryCondition("dirichlet", exact(k.position)))
    return bc


class TestBoundaryCondition:
    def test_kinds(self):
        assert BoundaryCondition("dirichlet", 1.0).kind == "dirichlet"
        assert BoundaryCondition("neumann", -2.0).kind == "neumann"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BoundaryCondition("robin", 0.0)

    @pytest.mark.parametrize("kind, value", [("dirichlet", math.nan), ("neumann", math.inf)])
    def test_non_finite_value_rejected(self, kind, value):
        with pytest.raises(ValueError, match="finite"):
            BoundaryCondition(kind, value)


class TestNonFiniteData:
    """Non-finite data is reported as such, not as a singular matrix: these
    solves used to raise ``SingularMatrixError`` at pivot 7 of a finite,
    regular matrix."""

    @staticmethod
    def _mixed_solve(kind, value):
        problem = helmholtz_benchmark()
        knots = ellipse_knots(problem.ellipse, 8)
        bc = [BoundaryCondition("dirichlet", problem.dirichlet(k.position)) for k in knots]
        bc[3] = BoundaryCondition(kind, value)
        return solve_mixed_linear(problem, knots, (), bc)

    def test_nan_dirichlet_value(self):
        with pytest.raises(ValueError, match="finite") as exc:
            self._mixed_solve("dirichlet", math.nan)
        assert not isinstance(exc.value, SingularMatrixError)

    def test_infinite_neumann_flux(self):
        with pytest.raises(ValueError, match="finite") as exc:
            self._mixed_solve("neumann", math.inf)
        assert not isinstance(exc.value, SingularMatrixError)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_interior_point(self, bad):
        # A NaN distance is never close, so the duplicate-knot check used to
        # fall through to an IndexError.
        problem = helmholtz_benchmark()
        knots = ellipse_knots(problem.ellipse, 8)
        with pytest.raises(ValueError, match="finite"):
            solve_mixed_linear(problem, knots, [Point(0.0, bad)])

    def test_non_finite_ellipse_center(self):
        exact = helmholtz_benchmark().exact
        with pytest.raises(ValueError, match="finite"):
            solve_boundary_only(
                manufactured(exact, ellipse=Ellipse(Point(math.nan, 0.0), 2.0, 1.0)), 7
            )

    @pytest.mark.parametrize("factory", [helmholtz_benchmark, burger_benchmark])
    def test_nan_forcing(self, factory):
        problem = dataclasses.replace(factory(), forcing=lambda p: math.nan)
        with pytest.raises(ValueError, match="finite") as exc:
            solve_boundary_only(problem, 8)
        assert not isinstance(exc.value, SingularMatrixError)

    def test_huge_interior_point(self):
        # Finite, but its square overflows: this used to end in a bare
        # OverflowError from the linear-tail check.
        problem = helmholtz_benchmark()
        knots = ellipse_knots(problem.ellipse, 8)
        with pytest.raises(ValueError, match="finite"):
            solve_mixed_linear(problem, knots, [Point(1e200, 0.0)])


class TestInteriorPointsInsideEllipse:
    """Interior knots must lie inside the ellipse, up to round-off on its
    level function; one outside used to solve with no warning."""

    def test_point_outside_rejected(self):
        problem = helmholtz_benchmark()
        knots = ellipse_knots(problem.ellipse, 8)
        with pytest.raises(ValueError, match=r"interior point 0 at \(5, 3\) lies outside"):
            solve_mixed_linear(problem, knots, [Point(5.0, 3.0)])

    def test_message_names_the_first_point_outside(self):
        problem = helmholtz_benchmark()
        knots = ellipse_knots(problem.ellipse, 8)
        points = [Point(0.0, 0.0), Point(0.0, 1.5), Point(5.0, 3.0)]
        with pytest.raises(ValueError, match=r"interior point 1 at \(0, 1.5\)"):
            solve_mixed_linear(problem, knots, points)

    def test_point_within_round_off_of_the_boundary_solves(self):
        problem = helmholtz_benchmark()
        e = problem.ellipse
        knots = ellipse_knots(e, 8)
        # Between two knots, at level 1 - 1e-9.
        scale = math.sqrt(1.0 - 1e-9)
        theta = math.pi / 8.0
        p = Point(
            e.center.x + scale * e.semi_major * math.cos(theta),
            e.center.y + scale * e.semi_minor * math.sin(theta),
        )
        assert e.level(p) == pytest.approx(1.0 - 1e-9, abs=1e-15)
        sol, _ = solve_mixed_linear(problem, knots, [p])
        assert np.isfinite(evaluate(sol, [p])).all()


class TestNeumannNormals:
    """A Neumann knot needs a finite unit normal.  A normal of (3, 4) used to
    solve with the flux row of a normal of length 5, and a NaN one failed
    only as non-finite matrix entries, naming no knot."""

    @staticmethod
    def _half_neumann(normal):
        problem = helmholtz_benchmark()
        knots = list(ellipse_knots(problem.ellipse, 8))
        knots[1] = BoundaryKnot(knots[1].position, normal)
        bc = [
            BoundaryCondition("neumann", 0.0) if i % 2 else BoundaryCondition("dirichlet", 0.0)
            for i in range(len(knots))
        ]
        return problem, knots, bc

    @pytest.mark.parametrize(
        "normal, shown",
        [((3.0, 4.0), "3, 4"), ((math.nan, 1.0), "nan, 1"), ((0.0, math.inf), "0, inf")],
        ids=["length-5", "nan", "inf"],
    )
    @pytest.mark.parametrize("entry", ["solve_mixed_linear", "assemble_bkm_matrix"])
    def test_bad_normal_rejected_naming_the_knot(self, normal, shown, entry):
        problem, knots, bc = self._half_neumann(normal)
        x, y = knots[1].position
        message = rf"Neumann knot at \({x:g}, {y:g}\) needs a finite unit normal, got \({shown}\)"
        with pytest.raises(ValueError, match=message):
            if entry == "solve_mixed_linear":
                solve_mixed_linear(problem, knots, (), bc)
            else:
                assemble_bkm_matrix(knots, helmholtz2d(1.0), bc)

    def test_only_neumann_knots_need_a_unit_normal(self):
        # Any unit normal solves, not only the ellipse's.
        problem, knots, bc = self._half_neumann((0.6, 0.8))
        sol, diagnostics = solve_mixed_linear(problem, knots, (), bc)
        assert np.isfinite(sol.lam).all() and np.isfinite(diagnostics.cond_bkm)
        assert np.isfinite(assemble_bkm_matrix(knots, helmholtz2d(1.0), bc)).all()
        # A Dirichlet knot's normal is not used, so it is not checked.
        problem, knots, bc = self._half_neumann((3.0, 4.0))
        with pytest.raises(ValueError, match="unit normal"):
            solve_mixed_linear(problem, knots, (), bc)
        bc[1] = BoundaryCondition("dirichlet", 0.0)
        solve_mixed_linear(problem, knots, (), bc)
        assemble_bkm_matrix(knots, helmholtz2d(1.0), bc)


class TestAssembleBkmMatrix:
    def test_all_dirichlet_unit_diagonal(self):
        knots = ellipse_knots(ELLIPSE, 6)
        a = assemble_bkm_matrix(knots, helmholtz2d(1.0), dirichlet_bcs(knots))
        assert np.array_equal(np.diag(a), np.ones(6))

    def test_all_dirichlet_matrix_is_exactly_symmetric(self):
        knots = ellipse_knots(ELLIPSE, 9)
        a = assemble_bkm_matrix(knots, helmholtz2d(1.0), dirichlet_bcs(knots))
        assert np.array_equal(a, a.T)

    def test_two_knot_matrix_entries(self):
        knots = ellipse_knots(Ellipse(Point(0.0, 0.0), 1.0, 0.5), 2)
        d = math.dist(knots[0].position, knots[1].position)
        a = assemble_bkm_matrix(knots, helmholtz2d(1.0), dirichlet_bcs(knots))
        want = np.array([[1.0, bessel_j0(d)], [bessel_j0(d), 1.0]])
        assert a == pytest.approx(want, rel=1e-15)

    def test_duplicate_knots_rejected(self):
        k = ellipse_knots(ELLIPSE, 1)[0]
        with pytest.raises(ValueError):
            assemble_bkm_matrix([k, k], helmholtz2d(1.0), dirichlet_bcs([k, k]))

    def test_non_finite_knot_rejected(self):
        knots = ellipse_knots(ELLIPSE, 3)
        knots[1] = BoundaryKnot(Point(math.nan, 0.0), (1.0, 0.0))
        with pytest.raises(ValueError, match="finite"):
            assemble_bkm_matrix(knots, helmholtz2d(1.0), dirichlet_bcs(knots))

    def test_huge_knot_rejected(self):
        # Finite, but its squared distances overflow.
        knots = ellipse_knots(ELLIPSE, 3)
        knots[1] = BoundaryKnot(Point(1e200, 0.0), (1.0, 0.0))
        with pytest.raises(ValueError, match="finite"):
            assemble_bkm_matrix(knots, helmholtz2d(1.0), dirichlet_bcs(knots))

    def test_duplicate_message_names_first_pair(self):
        k = ellipse_knots(ELLIPSE, 5)
        knots = [k[0], k[1], k[2], k[1], k[2]]
        with pytest.raises(ValueError, match=r"^duplicate knots at indices 1 and 3: "):
            assemble_bkm_matrix(knots, helmholtz2d(1.0), dirichlet_bcs(knots))

    def test_duplicates_rejected_as_the_solve_rejects_them(self):
        problem = helmholtz_benchmark()
        k = ellipse_knots(problem.ellipse, 5)
        knots = [k[0], k[1], k[2], k[1], k[4]]
        with pytest.raises(ValueError) as solve_error:
            solve_mixed_linear(problem, knots)
        with pytest.raises(ValueError) as assemble_error:
            assemble_bkm_matrix(knots, helmholtz2d(1.0), dirichlet_bcs(knots))
        assert str(assemble_error.value) == str(solve_error.value)

    @pytest.mark.parametrize("k", [1.0, 0.5, 1.3])
    def test_equals_the_solves_collocation_matrix(self, k):
        """Admitted and evaluated as the solve does, bit for bit; J0 from r
        and J0 from r^2 differ in the last bit at k = 1.3."""
        problem = dataclasses.replace(helmholtz_benchmark(), split_wavenumber=k)
        sol, diag = solve_boundary_only(problem, 9)
        a = assemble_bkm_matrix(sol.knots, sol.kernel, dirichlet_bcs(sol.knots))
        assert np.array_equal(a, diag.bkm_matrix)

    def test_neumann_rows_are_normal_derivatives(self):
        knots = ellipse_knots(ELLIPSE, 6)
        kernel = helmholtz2d(1.0)
        bc = [BoundaryCondition("neumann" if i % 3 == 1 else "dirichlet", 0.0) for i in range(6)]
        a = assemble_bkm_matrix(knots, kernel, bc)
        for i, cond in enumerate(bc):
            for j, source in enumerate(knots):
                if cond.kind == "dirichlet":
                    want = bessel_j0(math.dist(knots[i].position, source.position))
                else:
                    want = normal_derivative(
                        kernel, source.position, knots[i].position, knots[i].normal
                    )
                assert a[i, j] == pytest.approx(want, rel=1e-14, abs=1e-15)

    def test_bc_count_must_match(self):
        knots = ellipse_knots(ELLIPSE, 3)
        with pytest.raises(ValueError):
            assemble_bkm_matrix(knots, helmholtz2d(1.0), dirichlet_bcs(knots[:2]))


class TestSolveBoundaryOnly:
    def test_laplace_benchmark_value(self):
        sol, _ = solve_boundary_only(laplace_benchmark(), 5)
        got = float(evaluate(sol, [Point(1.5, 0.0)])[0])
        assert got == pytest.approx(1.500, abs=5e-3)

    def test_helmholtz_benchmark_value(self):
        sol, _ = solve_boundary_only(helmholtz_benchmark(), 7)
        got = float(evaluate(sol, [Point(0.6, -0.45)])[0])
        assert got == pytest.approx(1.16, abs=0.05)

    def test_burger_benchmark_value(self):
        sol, _ = solve_boundary_only(burger_benchmark(), 5)
        got = float(evaluate(sol, [Point(3.0, -0.45)])[0])
        assert got == pytest.approx(0.666, abs=0.01)

    @pytest.mark.parametrize("n, c", [(120, 1.0), (200, 1.0), (80, 2.0)])
    def test_burger_holds_its_plateau_at_large_n(self, n, c):
        """Burger's max table error stays on its boundary-sampling plateau
        as knots are added.  Measured: 0.346, 0.349 and 0.711; applying an
        explicit A_phi^-1 to rho{u} after the solve erred 5.08, 10.5 and
        12.4."""
        problem = dataclasses.replace(burger_benchmark(), mq_shape_c=c)
        sol, _ = solve_boundary_only(problem, n)
        exact = np.array([problem.exact(p) for p in problem.table_points])
        assert np.abs(evaluate(sol, problem.table_points) - exact).max() < 1.0

    @pytest.mark.parametrize(
        "factory,n",
        [(laplace_benchmark, 5), (helmholtz_benchmark, 7), (burger_benchmark, 5)],
        ids=["laplace", "helmholtz", "burger"],
    )
    def test_boundary_reproduction(self, factory, n):
        problem = factory()
        sol, _ = solve_boundary_only(problem, n)
        pts = [k.position for k in sol.knots]
        got = evaluate(sol, pts)
        want = np.array([problem.dirichlet(p) for p in pts])
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()

    def test_diagnostics_are_nonnegative_and_finite(self):
        _, diag = solve_boundary_only(laplace_benchmark(), 5)
        assert diag.cond_interp >= 1.0
        assert diag.cond_bkm >= 1.0
        assert 0.0 <= diag.residual_inf <= 1e-10

    def test_diagnostics_report_exact_bkm_condition_number(self):
        problem = laplace_benchmark()
        sol, diag = solve_boundary_only(problem, 5)
        bc = [BoundaryCondition("dirichlet", 0.0)] * len(sol.knots)
        a = assemble_bkm_matrix(sol.knots, sol.kernel, bc)
        assert diag.cond_bkm == pytest.approx(cond_1norm_explicit(a), rel=1e-12)

    def test_deterministic_bit_for_bit(self):
        a, _ = solve_boundary_only(helmholtz_benchmark(), 7)
        b, _ = solve_boundary_only(helmholtz_benchmark(), 7)
        assert np.array_equal(a.lam, b.lam)
        pts = helmholtz_benchmark().table_points
        assert np.array_equal(evaluate(a, pts), evaluate(b, pts))

    def test_interior_pde_residual_decreases_with_knot_count(self):
        """Finite-difference PDE residual at interior probes, N in {3,5,7,9}.

        Each residual may exceed its predecessor by at most 5 %, or lie
        below the round-off floor 16 * eps * max|u| / h^2 of the five-point
        stencil at h = 1e-3 over the probes (5.4e-9 here), where comparing
        two residuals compares rounding noise.  With the linear tail in the
        DRM interpolant the residuals are 4e-10 to 9e-10; without it the
        N=9 interpolant is nearly singular and the residual is 8.4e-1.
        """
        problem = laplace_benchmark()
        rng = np.random.RandomState(20260813)
        probes = []
        while len(probes) < 40:
            x, y = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
            if (x / 2.0) ** 2 + y * y < 0.49:
                probes.append(Point(x, y))
        h = 1e-3
        u_max = max(abs(problem.exact(p)) for p in probes)
        floor = 16.0 * np.finfo(float).eps * u_max / (h * h)
        residuals = []
        for n in (3, 5, 7, 9):
            sol, _ = solve_boundary_only(problem, n)

            def u(x: float, y: float) -> float:
                return float(evaluate(sol, [Point(x, y)])[0])

            worst = max(abs(fd_laplacian_2d(u, p.x, p.y, h=h)) for p in probes)
            residuals.append(worst)
        for lo, hi in zip(residuals[1:], residuals[:-1]):
            assert lo <= max(hi * 1.05, floor), (
                "interior PDE residual must shrink as knots are added, got "
                f"{residuals} (round-off floor {floor:.2e})"
            )


    def test_helmholtz_error_decreases_through_nine_knots(self):
        """Helmholtz (c = 3) max table error strictly decreases over
        n = 5, 7, 9, 11.  Measured: 1.4e-1, 7.3e-3, 1.2e-3, 3.8e-5; the
        bare multiquadric interpolant errs 2.1 at n = 9."""
        problem = helmholtz_benchmark()
        exact = np.array([problem.exact(p) for p in problem.table_points])
        errors = []
        for n in (5, 7, 9, 11):
            sol, _ = solve_boundary_only(problem, n)
            errors.append(float(np.abs(evaluate(sol, problem.table_points) - exact).max()))
        assert all(b < a for a, b in zip(errors, errors[1:])), errors

    @pytest.mark.parametrize("n", [7, 9, 11])
    def test_split_wavenumber_below_one(self, n):
        """u = e^{x/3} cos(y/2) split as (lap + 1/4)u = f: the multiquadric
        pair and the linear tail follow the split wavenumber.  Max error
        over interior_grid(ellipse, 0.5): 5.9e-3, 6.2e-3, 6.1e-3 at
        n = 7, 9, 11; with a (lap + 1) pair it was 3.1e-2, 3.9e-2, 6.4e-2."""

        def exact(p: Point) -> float:
            return math.exp(p.x / 3.0) * math.cos(p.y / 2.0)

        problem = manufactured(exact, split_wavenumber=0.5, mq_shape_c=3.0)
        probes = interior_grid(problem.ellipse, 0.5)
        sol, _ = solve_boundary_only(problem, n)
        assert sol.expansion.pair.wavenumber == 0.5
        err = np.abs(evaluate(sol, probes) - np.array([exact(p) for p in probes])).max()
        assert err <= 1e-2

    def test_manufactured_error_holds_from_seven_to_nine_knots(self):
        """For u = e^{x/3} cos(y/2) at c = 3 the max error over
        interior_grid(ellipse, 0.5) at n = 9 is at most twice that at
        n = 7.  Measured: 5.0e-2 and 4.9e-2; the bare multiquadric
        interpolant errs 1.9 and 0.10."""

        def exact(p: Point) -> float:
            return math.exp(p.x / 3.0) * math.cos(p.y / 2.0)

        problem = manufactured(exact, mq_shape_c=3.0)
        probes = interior_grid(problem.ellipse, 0.5)
        want = np.array([exact(p) for p in probes])

        def max_error(n: int) -> float:
            sol, _ = solve_boundary_only(problem, n)
            return float(np.abs(evaluate(sol, probes) - want).max())

        assert max_error(9) <= 2.0 * max_error(7)


class TestSolveMixedLinear:
    def test_all_dirichlet_no_interior_matches_boundary_only(self):
        problem = helmholtz_benchmark()
        knots = ellipse_knots(problem.ellipse, 7)
        mixed_sol, mixed_diag = solve_mixed_linear(problem, knots)
        plain_sol, plain_diag = solve_boundary_only(problem, 7)
        assert mixed_sol.lam == pytest.approx(plain_sol.lam, abs=1e-10)
        pts = problem.table_points
        assert evaluate(mixed_sol, pts) == pytest.approx(evaluate(plain_sol, pts), abs=1e-10)
        assert mixed_diag.cond_bkm == plain_diag.cond_bkm

    def test_interior_knots_do_not_hurt_helmholtz_table(self):
        problem = helmholtz_benchmark()
        knots = ellipse_knots(problem.ellipse, 7)
        lattice = interior_grid(problem.ellipse, 0.25)
        idx = np.linspace(0, len(lattice) - 1, 5).astype(int)
        interior = [lattice[i] for i in idx]
        with_interior, _ = solve_mixed_linear(problem, knots, interior)
        without, _ = solve_boundary_only(problem, 7)
        pts = problem.table_points
        exact = np.array([problem.exact(p) for p in pts])
        err_with = np.abs(evaluate(with_interior, pts) - exact).max()
        err_without = np.abs(evaluate(without, pts) - exact).max()
        assert err_with <= err_without

    @pytest.mark.parametrize("k", [1.0, 2.0])
    def test_interior_knots_resolve_a_non_polynomial_forcing(self, k):
        """u = e^{x/3} cos(y/2) with rho = 0 and c = 3 at split wavenumber
        k: a DRM on the 20 boundary knots alone leaves the forcing
        unresolved, and the 93 interior knots of the 0.25 lattice resolve
        it.  Max error over interior_grid(e, 0.1) falls from 5.0e-2 to
        5.3e-7 at k = 1 and from 1.5 to 7.5e-6 at k = 2."""
        problem = manufactured(_exp_cos, k, ellipse=ELLIPSE)
        knots = ellipse_knots(ELLIPSE, 20)
        probes = interior_grid(ELLIPSE, 0.1)
        want = np.array([_exp_cos(p) for p in probes])
        errors = []
        for interior in ((), interior_grid(ELLIPSE, 0.25)):
            sol, _ = solve_mixed_linear(problem, knots, interior)
            errors.append(np.abs(evaluate(sol, probes) - want).max())
        assert errors[1] * 1e4 <= errors[0]

    @pytest.mark.parametrize(
        "problem",
        [helmholtz_benchmark(), manufactured(lambda p: p.x, 2.0, RhoSpec.identity())],
        ids=["rho_zero", "rho_identity"],
    )
    def test_no_boundary_knot_rejected(self, problem):
        # rho = 0 once failed in a max() of no elements; rho = s u, s != k^2,
        # once returned a field fitted to no boundary data.
        interior = [Point(0.0, 0.0), Point(0.5, 0.1), Point(0.1, 0.4)]
        with pytest.raises(ValueError, match="at least one boundary knot is required"):
            solve_mixed_linear(problem, [], interior)

    def test_interior_points_that_are_not_pairs_rejected(self):
        problem = laplace_benchmark()
        knots = ellipse_knots(problem.ellipse, 8)
        with pytest.raises(ValueError, match="pairs"):
            solve_mixed_linear(problem, knots, [(0.0, 0.0, 0.5), (0.25, 0.1, 0.2)])

    def test_interior_points_as_tuples_match_points(self):
        problem = laplace_benchmark()
        knots = ellipse_knots(problem.ellipse, 8)
        interior = [Point(0.0, 0.0), Point(0.5, 0.25)]
        sol, _ = solve_mixed_linear(problem, knots, interior)
        plain, _ = solve_mixed_linear(problem, knots, [tuple(p) for p in interior])
        assert np.array_equal(plain.lam, sol.lam)
        assert np.array_equal(evaluate(plain, interior), evaluate(sol, interior))

    @pytest.mark.parametrize("form", ["tuples", "array"])
    def test_helmholtz_interior_as_pairs_or_array_matches_points(self, form):
        """The Helmholtz forcing reads p.x, so pairs or array rows used to end
        in AttributeError; the solve now hands it checked Points."""
        problem = helmholtz_benchmark()
        knots = ellipse_knots(problem.ellipse, 8)
        interior = [Point(0.0, 0.0), Point(0.5, 0.1), Point(-0.75, -0.25)]
        supplied = [tuple(p) for p in interior] if form == "tuples" else np.array(interior)
        sol, diag = solve_mixed_linear(problem, knots, interior)
        got, got_diag = solve_mixed_linear(problem, knots, supplied)
        assert np.array_equal(evaluate(got, interior), evaluate(sol, interior))
        assert got_diag == diag
        assert got.expansion.knots == sol.expansion.knots
        assert all(type(p) is Point for p in got.expansion.knots)
        probes = interior_grid(problem.ellipse, 0.25)
        assert np.array_equal(evaluate(got, probes), evaluate(sol, probes))

    def test_interior_unknowns_returned_in_solution(self):
        problem = laplace_benchmark()
        knots = ellipse_knots(problem.ellipse, 8)
        interior = [Point(0.0, 0.0), Point(0.5, 0.25)]
        sol, _ = solve_mixed_linear(problem, knots, interior)
        assert evaluate(sol, interior) == pytest.approx([0.0, 0.75], abs=1e-2)

    def test_half_dirichlet_half_neumann_recovers_linear_field(self):
        problem = laplace_benchmark()
        n = 12
        knots = ellipse_knots(problem.ellipse, n)
        bc = []
        for i, k in enumerate(knots):
            if i < n // 2:
                bc.append(BoundaryCondition("dirichlet", k.position.x + k.position.y))
            else:
                bc.append(BoundaryCondition("neumann", k.normal[0] + k.normal[1]))
        sol, _ = solve_mixed_linear(problem, knots, (), bc=bc)
        probes = interior_grid(problem.ellipse, 0.35)
        got = evaluate(sol, probes)
        want = np.array([p.x + p.y for p in probes])
        assert np.abs(got - want).max() <= 1e-2

    @pytest.mark.parametrize("case", ["laplace_c25", "manufactured_identity"])
    def test_neumann_and_interior_knots(self, case):
        """20 boundary knots, half of them Neumann with the exact flux, and
        interior knots.  The Laplace benchmark (c = 25) takes 10 seeded
        Neumann knots and 51 seeded points of the 0.25 lattice, for seeds
        0-3; u = e^{x/3} cos(y/2) with rho = identity takes every other
        knot Neumann and all 93 lattice points.  Max error over
        interior_grid(e, 0.1) was 4e1-5e2 and 2.3e-1 when u at those knots
        was a separate unknown.  With u substituted by its representation
        it was 2.7e-14-1.7e-13 and 5.6e-5 when c was eliminated through the
        inverse of the DRM matrix, and is 2.7e-15-1.1e-14 and 4.7e-7 with c
        and lambda from one block system."""
        if case == "laplace_c25":
            problem = laplace_benchmark()

            def exact(p: Point) -> float:
                return p.x + p.y

            def gradient(p: Point) -> tuple[float, float]:
                return 1.0, 1.0

            lattice = interior_grid(problem.ellipse, 0.25)
            layouts = []
            for seed in range(4):
                rng = np.random.default_rng(seed)
                neumann = set(rng.choice(20, 10, replace=False).tolist())
                chosen = sorted(rng.choice(len(lattice), 51, replace=False))
                layouts.append((neumann, [lattice[i] for i in chosen]))
        else:
            exact, gradient = _exp_cos, _exp_cos_gradient
            problem = manufactured(exact, rho=RhoSpec.identity(), ellipse=ELLIPSE)
            layouts = [(set(range(1, 20, 2)), interior_grid(ELLIPSE, 0.25))]
        knots = ellipse_knots(problem.ellipse, 20)
        probes = interior_grid(problem.ellipse, 0.1)
        want = np.array([exact(p) for p in probes])
        for neumann, interior in layouts:
            bc = _exact_bcs(knots, neumann, exact, gradient)
            sol, _ = solve_mixed_linear(problem, knots, interior, bc)
            assert np.abs(evaluate(sol, probes) - want).max() <= 1e-3

    def test_scaled_identity_rho_path(self):
        def exact(p: Point) -> float:
            return p.x + p.y

        problem = manufactured(exact, rho=RhoSpec.scaled_identity(0.5), ellipse=ELLIPSE)
        knots = ellipse_knots(ELLIPSE, 10)
        sol, _ = solve_mixed_linear(problem, knots, [Point(0.3, 0.1)])
        probes = [Point(0.5, -0.2), Point(-0.8, 0.4), Point(0.0, 0.0)]
        got = evaluate(sol, probes)
        want = np.array([exact(p) for p in probes])
        assert got == pytest.approx(want, abs=1e-2)

    def test_nonlinear_rho_rejected(self):
        problem = burger_benchmark()
        knots = ellipse_knots(problem.ellipse, 5)
        with pytest.raises(UnsupportedConfigurationError):
            solve_mixed_linear(problem, knots, [Point(3.0, 0.0)])

    def test_bc_count_mismatch_rejected(self):
        problem = laplace_benchmark()
        knots = ellipse_knots(problem.ellipse, 4)
        with pytest.raises(ValueError):
            solve_mixed_linear(problem, knots, (), bc=dirichlet_bcs(knots[:2]))


def _seeded_half_neumann(seed):
    return tuple(np.random.default_rng(seed).choice(20, 10, replace=False).tolist())


class TestCoupledSolveIsOneSystem:
    """With unknown u (Neumann or interior knots) and rho{u} = s u, s != 0,
    c and lambda come from one block system, solved by one factorization,
    not from an elimination of c through the inverse of the DRM matrix."""

    @pytest.mark.parametrize(
        "rho, neumann, bound",
        [
            pytest.param(RhoSpec.identity(), (), 1e-6, id="identity-dirichlet"),
            pytest.param(RhoSpec.identity(), tuple(range(1, 20, 2)), 1e-6, id="identity-alternating"),
            *[
                pytest.param(rho, _seeded_half_neumann(seed), 1e-5, id=f"{label}-seed{seed}")
                for rho, label in [(RhoSpec.identity(), "identity"), (RhoSpec.scaled_identity(0.7), "s0.7")]
                for seed in range(8)
            ],
        ],
    )
    def test_twenty_knots_and_93_interior_knots(self, rho, neumann, bound):
        """20 knots, 93 interior knots from the 0.25 lattice.  Eliminating c
        through the inverse read 3.4e-3 (all Dirichlet), 5.6e-5 (alternating)
        and 9.6e-5 to 1.0e-2 (seeded, identity) or 2.8e-4 to 2.2e-3 (seeded,
        s = 0.7); the one block system reads 3.7e-7 to 1.8e-6."""
        problem = manufactured(_exp_cos, rho=rho, ellipse=ELLIPSE)
        knots = ellipse_knots(ELLIPSE, 20)
        bc = _exact_bcs(knots, neumann, _exp_cos, _exp_cos_gradient)
        sol, _ = solve_mixed_linear(problem, knots, interior_grid(ELLIPSE, 0.25), bc)
        probes = interior_grid(ELLIPSE, 0.1)
        want = np.array([_exp_cos(p) for p in probes])
        assert np.abs(evaluate(sol, probes) - want).max() < bound

    @pytest.mark.parametrize("k", [2.0, 3.0])
    def test_linear_solution_is_the_tail_at_split_wavenumber(self, k):
        """u = 1 + x - 2y with rho = identity at split wavenumber k, every
        other one of 12 knots Neumann and the 0.5 lattice inside.  u_p's
        tail alone solves the coupled system: its image less s times
        itself, (k^2 - 1) u, is the forcing, and its value and flux are
        u's.  Max error over interior_grid(e, 0.1) reads 1.7e-8 (k = 2) and
        1.9e-8 (k = 3), the FD forcing's noise; a tail gradient, or a tail
        in the unknown rows, divided by k^2 read 5.6e-2 and 2.9e-2 at k = 2."""

        def exact(p: Point) -> float:
            return 1.0 + p.x - 2.0 * p.y

        problem = manufactured(exact, k, RhoSpec.identity(), ellipse=ELLIPSE)
        knots = ellipse_knots(ELLIPSE, 12)
        bc = _exact_bcs(knots, set(range(1, 12, 2)), exact, lambda p: (1.0, -2.0))
        sol, _ = solve_mixed_linear(problem, knots, interior_grid(ELLIPSE, 0.5), bc)
        probes = interior_grid(ELLIPSE, 0.1)
        want = np.array([exact(p) for p in probes])
        assert np.abs(evaluate(sol, probes) - want).max() < 1e-6

    def test_diagnostics_report_the_joint_matrix(self):
        """Both condition numbers are kappa_1 of the one (m + 3 + n) matrix
        [[system - s rep, -s J], [rep, J]] (unknown rows modified), here
        assembled from its blocks on 8 knots and 2 interior knots, c = 1."""
        problem = manufactured(_exp_cos, rho=RhoSpec.identity(), ellipse=ELLIPSE, mq_shape_c=1.0)
        knots = ellipse_knots(ELLIPSE, 8)
        interior = [Point(0.0, 0.0), Point(0.5, 0.25)]
        _, diag = solve_mixed_linear(problem, knots, interior)

        points = [k.position for k in knots] + interior
        pair = mq_pair(1.0)
        p = np.array([[1.0, q.x, q.y] for q in points])
        system = np.block([[interp_matrix(points, pair), p], [p.T, np.zeros((3, 3))]])
        rep = np.hstack([particular_matrix(points, points, pair), p])
        j = helmholtz2d(1.0).eval(np.sqrt(squared_distances(np.array(points), np.array(points[:8]))))
        joint = np.block([[system, np.zeros((13, 8))], [rep[:8], j[:8]]])
        joint[8:10] -= np.hstack([rep[8:], j[8:]])
        want = cond_estimate_1norm(joint)
        assert want < 1e8
        assert diag.cond_interp == diag.cond_bkm
        assert diag.cond_bkm == pytest.approx(want, rel=1e-10)


# Gradients of the benchmarks' exact solutions, for Neumann data.
_GRADIENTS = {
    "laplace": lambda p: (1.0, 1.0),
    "helmholtz": lambda p: (math.cos(p.x) + 1.0, 0.0),
}


class TestBoundaryReproduction:
    """``evaluate`` reproduces the data at every Dirichlet knot to round-off
    in units of eps S_i, S_i being the sum of the magnitudes of u's terms
    there: sum |lam_j J0| + sum |alpha_j phi_hat| + |beta_0| + |beta_x x_i|
    + |beta_y y_i|.  A dot product of N terms rounds by at most about
    N eps S_i, so the bound is (m + 3 + n) eps S_i, m counting the DRM
    knots.  The solves read at most 1.07 eps S_i (Burger, n = 5).  The
    solve's rows of u with the tail's x column scaled by 1 + 1e-9, or J0's
    columns by 1 + 1e-12, fail it."""

    @staticmethod
    def _ratio(sol, values, dirichlet):
        expansion = sol.expansion
        n, m = len(sol.knots), len(expansion.knots)
        xy = as_xy([knot.position for knot in sol.knots])
        j0 = sol.kernel.eval_sq(squared_distances(xy, xy))
        phi_hat = expansion.pair.phi_hat.eval_sq(squared_distances(xy, as_xy(expansion.knots)))
        terms = np.abs(j0 * sol.lam).sum(axis=1) + np.abs(phi_hat * expansion.alpha).sum(axis=1)
        if expansion.tail is not None:
            b0, bx, by = expansion.tail
            terms += abs(b0) + np.abs(bx * xy[:, 0]) + np.abs(by * xy[:, 1])
        error = np.abs(evaluate(sol, xy) - values)
        ratio = error / (np.finfo(float).eps * terms)
        return float(ratio[dirichlet].max()), m + 3 + n

    @pytest.mark.parametrize(
        "factory, n",
        [
            (laplace_benchmark, 5),
            (helmholtz_benchmark, 7),
            (burger_benchmark, 5),
            (laplace_benchmark, 20),
            (helmholtz_benchmark, 20),
            (burger_benchmark, 20),
            (helmholtz_benchmark, 100),
        ],
    )
    def test_boundary_only(self, factory, n):
        problem = factory()
        sol, _ = solve_boundary_only(problem, n)
        values = np.array([problem.dirichlet(knot.position) for knot in sol.knots])
        ratio, bound = self._ratio(sol, values, slice(None))
        assert ratio <= bound

    @pytest.mark.parametrize("half_neumann", [False, True], ids=["dirichlet", "half_neumann"])
    @pytest.mark.parametrize(
        "factory", [laplace_benchmark, helmholtz_benchmark], ids=["coupled", "decoupled"]
    )
    def test_with_interior_knots(self, factory, half_neumann):
        problem = factory()
        knots = ellipse_knots(problem.ellipse, 20)
        bc = []
        for i, knot in enumerate(knots):
            if half_neumann and i % 2:
                gx, gy = _GRADIENTS[problem.name](knot.position)
                bc.append(BoundaryCondition("neumann", gx * knot.normal[0] + gy * knot.normal[1]))
            else:
                bc.append(BoundaryCondition("dirichlet", problem.dirichlet(knot.position)))
        sol, _ = solve_mixed_linear(problem, knots, interior_grid(problem.ellipse, 0.25), bc)
        values = np.array([cond.value for cond in bc])
        dirichlet = np.array([cond.kind == "dirichlet" for cond in bc])
        ratio, bound = self._ratio(sol, values, dirichlet)
        assert ratio <= bound


class TestLinearTailNeedsThreePointsOffOneLine:
    """The bordered [[A_phi, P], [P^T, 0]] of a linear rho term is singular by
    construction unless the points that carry the tail span the plane.  Such
    solves once returned garbage: Laplace at n = 2 gave 6.6e15 at
    (1.2, -0.35) with cond_interp 2.1e55."""

    @pytest.mark.parametrize("factory", [laplace_benchmark, helmholtz_benchmark])
    @pytest.mark.parametrize("n", [1, 2])
    def test_boundary_only_below_three_knots_rejected(self, factory, n):
        with pytest.raises(UnsupportedConfigurationError, match=f"three knots .* got {n}$"):
            solve_boundary_only(factory(), n)

    @pytest.mark.parametrize(
        "factory, message",
        [
            (laplace_benchmark, "three Dirichlet knots not on one line, got 2$"),
            (helmholtz_benchmark, "three knots not on one line, got 5, all on one line$"),
        ],
    )
    def test_mixed_points_on_one_line_rejected(self, factory, message):
        """Two knots, (2, 0) and (-2, 0), and interior points on y = 0: -7.3e14 once."""
        problem = factory()
        knots = ellipse_knots(problem.ellipse, 2)
        interior = [Point(-0.5, 0.0), Point(0.0, 0.0), Point(0.7, 0.0)]
        with pytest.raises(UnsupportedConfigurationError, match=message):
            solve_mixed_linear(problem, knots, interior)

    def test_points_on_a_slanted_line_rejected_despite_round_off(self):
        problem = manufactured(lambda p: p.x, rho=RhoSpec.zero(), ellipse=ELLIPSE)
        line = [Point(x, 0.3 * x + 0.02) for x in (0.1, 0.2, 0.35, 0.4)]
        knots = [dataclasses.replace(k, position=p) for k, p in zip(ellipse_knots(ELLIPSE, 2), line)]
        with pytest.raises(UnsupportedConfigurationError, match="got 4, all on one line"):
            solve_mixed_linear(problem, knots, line[2:])

    def test_laplace_tail_needs_three_dirichlet_knots(self):
        """With rho{u} = k^2 u the tail drops out of the rows of the unknown
        points, so interior points off the line do not help: cond_interp was
        2.0e38 here."""
        problem = laplace_benchmark()
        knots = ellipse_knots(problem.ellipse, 2)
        with pytest.raises(UnsupportedConfigurationError, match="three Dirichlet knots"):
            solve_mixed_linear(problem, knots, [Point(0.0, 0.0), Point(0.3, 0.2)])

    def test_helmholtz_tail_spans_the_plane_with_interior_points(self):
        problem = helmholtz_benchmark()
        knots = ellipse_knots(problem.ellipse, 2)
        _, diag = solve_mixed_linear(problem, knots, [Point(0.0, 0.0), Point(0.3, 0.2)])
        assert diag.cond_interp < 1e8

    @pytest.mark.parametrize("n", [1, 2])
    def test_burger_has_no_tail_and_solves_on_one_or_two_knots(self, n):
        problem = burger_benchmark()
        sol, _ = solve_boundary_only(problem, n)
        assert np.isfinite(evaluate(sol, problem.table_points)).all()


class TestEvaluate:
    def test_zero_coefficients_give_zero_field(self):
        knots = ellipse_knots(ELLIPSE, 4)
        positions = tuple(k.position for k in knots)
        sol = BkmSolution(
            lam=np.zeros(4),
            expansion=DrmExpansion(positions, mq_pair(1.0), np.zeros(4)),
            kernel=helmholtz2d(1.0),
            knots=tuple(knots),
        )
        pts = [Point(0.0, 0.0), Point(0.5, 0.25), Point(-1.0, 0.3)]
        assert np.array_equal(evaluate(sol, pts), np.zeros(3))

    def test_dirichlet_knot_values_reproduced(self):
        problem = laplace_benchmark()
        sol, _ = solve_boundary_only(problem, 7)
        for k in sol.knots:
            got = float(evaluate(sol, [k.position])[0])
            assert got == pytest.approx(problem.dirichlet(k.position), abs=1e-8)

    @pytest.mark.parametrize(
        "factory, n_interior, reverse",
        [
            pytest.param(helmholtz_benchmark, 0, False, id="helmholtz_benchmark"),
            pytest.param(burger_benchmark, 0, False, id="burger_benchmark"),
            pytest.param(helmholtz_benchmark, 5, False, id="helmholtz_mixed_interior"),
            pytest.param(helmholtz_benchmark, 5, True, id="expansion_not_led_by_knots"),
        ],
    )
    def test_blocked_evaluation_equals_pointwise_sum(self, factory, n_interior, reverse):
        """2 blocks and 37 points: sum_k lam_k J0(||x - x_k||) + u_p, the
        tail included when the expansion has one (every linear rho kind;
        Burger has none), summed point by point with scalar kernel calls.
        The coupled solve's expansion runs over the boundary and the
        interior knots, a strict superset of sol.knots; with its knots
        reversed it no longer starts with sol.knots, and ``evaluate``
        prepends them."""
        problem = factory()
        if n_interior:
            lattice = interior_grid(problem.ellipse, 0.25)
            idx = np.linspace(0, len(lattice) - 1, n_interior).astype(int)
            knots = ellipse_knots(problem.ellipse, 7)
            sol, _ = solve_mixed_linear(problem, knots, [lattice[i] for i in idx])
            assert len(sol.expansion.knots) == len(sol.knots) + n_interior
            if reverse:
                exp = sol.expansion
                sol = dataclasses.replace(
                    sol,
                    expansion=dataclasses.replace(
                        exp, knots=exp.knots[::-1], alpha=exp.alpha[::-1]
                    ),
                )
        else:
            sol, _ = solve_boundary_only(problem, 7)
        rng = np.random.RandomState(11)
        cx = problem.ellipse.center.x
        pts = []
        while len(pts) < 2 * _eval_rows(len(sol.expansion.knots)) + 37:
            x, y = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
            if (x / 2.0) ** 2 + y * y < 1.0:
                pts.append(Point(cx + x, y))
        exp = sol.expansion
        assert (exp.tail is not None) == (problem.rho.kind != "burger")
        want = []
        for p in pts:
            v = sum(
                lam * bessel_j0(math.dist(p, knot.position))
                for lam, knot in zip(sol.lam, sol.knots)
            )
            u_p = sum(
                alpha * exp.pair.phi_hat.eval(math.dist(p, q))
                for alpha, q in zip(exp.alpha, exp.knots)
            )
            if exp.tail is not None:
                u_p += exp.tail[0] + exp.tail[1] * p.x + exp.tail[2] * p.y
            want.append(v + u_p)
        want = np.array(want)
        got = evaluate(sol, pts)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        # An (n, 2) coordinate array is evaluated exactly like the points.
        assert np.array_equal(evaluate(sol, np.array(pts)), got)

    @pytest.mark.parametrize("m", [5, 12, 63, 64, 65, 71, 400])
    @pytest.mark.parametrize(
        "variant", ["plain", "reversed", "wavenumber_1.3", "no_sq", "phi_hat_no_sq", "far"]
    )
    def test_equals_broadcast_oracle_bit_for_bit(self, m, variant):
        """Two full blocks and a partial one, bit for bit the broadcast
        formula: with the expansion reversed (knots prepended), at split
        wavenumber 1.3, with kernels without a squared form, and with points
        so far out that t > 25 takes J0's Hankel branch."""
        sol = _synthetic_solution(m)
        exp = sol.expansion
        if variant == "reversed":
            exp = dataclasses.replace(exp, knots=exp.knots[::-1], alpha=exp.alpha[::-1])
        elif variant == "wavenumber_1.3":
            exp = dataclasses.replace(exp, pair=mq_pair(1.0, 1.3))
            sol = dataclasses.replace(sol, kernel=helmholtz2d(1.3))
        elif variant == "no_sq":
            sol = dataclasses.replace(sol, kernel=dataclasses.replace(sol.kernel, sq=None))
        elif variant == "phi_hat_no_sq":
            phi_hat = dataclasses.replace(exp.pair.phi_hat, sq=None)
            exp = dataclasses.replace(exp, pair=dataclasses.replace(exp.pair, phi_hat=phi_hat))
        sol = dataclasses.replace(sol, expansion=exp)
        count = 2 * _eval_rows(m + (m if variant == "reversed" else 0)) + 37
        xy = _points_in_ellipse(count, m)
        if variant == "far":
            xy = xy * 4.0 + [6.0, 0.0]
            assert squared_distances_broadcast(as_xy(exp.knots), xy).max() > 25.0
        assert evaluate(sol, xy).tobytes() == evaluate_broadcast(sol, xy).tobytes()

    @pytest.mark.parametrize("m", [12, 71])
    def test_blocks_allocate_no_matrix_beyond_one_work_array(self, m):
        """Over three blocks, evaluate's peak allocation is its 2m x b work
        array, the coordinates and the output, plus less than one (m, b)
        matrix: what a block allocates besides is O(b)."""
        sol = _synthetic_solution(m)
        rows = _eval_rows(m)
        xy = _points_in_ellipse(3 * rows, m)
        evaluate(sol, xy)
        tracemalloc.start()
        try:
            evaluate(sol, xy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - 8 * (2 * m * rows + len(xy)) < 8 * m * rows

    @pytest.mark.parametrize("factory", [laplace_benchmark, helmholtz_benchmark, burger_benchmark])
    @pytest.mark.parametrize("n", [5, 7, 12, 40])
    def test_solutions_equal_broadcast_oracle_bit_for_bit(self, factory, n):
        problem = factory()
        sol, _ = solve_boundary_only(problem, n)
        e = problem.ellipse
        xy = _points_in_ellipse(300, n) * [e.semi_major / 2.0, e.semi_minor] + e.center
        assert evaluate(sol, xy).tobytes() == evaluate_broadcast(sol, xy).tobytes()
        table = np.array(problem.table_points, dtype=float)
        got = evaluate(sol, problem.table_points)
        assert got.tobytes() == evaluate_broadcast(sol, table).tobytes()

    @pytest.mark.parametrize("factory", [laplace_benchmark, helmholtz_benchmark])
    def test_coupled_solution_equals_broadcast_oracle_bit_for_bit(self, factory):
        problem, knots, interior, bc = _half_neumann_solve(factory())
        sol, _ = solve_mixed_linear(problem, knots, interior, bc)
        xy = np.array(interior_grid(problem.ellipse, 0.05), dtype=float)
        assert evaluate(sol, xy).tobytes() == evaluate_broadcast(sol, xy).tobytes()

    @pytest.mark.parametrize(
        "kernel, phi_hat",
        [
            (modified_helmholtz2d(1.0), None),
            (helmholtz3d(1.0), None),
            (helmholtz2d(1.0), dataclasses.replace(mq_pair(1.0).phi_hat, sq=None)),
        ],
        ids=["modified_helmholtz2d", "helmholtz3d", "phi_hat_without_sq"],
    )
    def test_kernel_without_squared_form_evaluates_through_eval(self, kernel, phi_hat):
        """A kernel with no ``sq`` is summed as eval(sqrt(t)), matching a
        scalar sum of ``eval`` point by point."""
        sol = dataclasses.replace(_synthetic_solution(9), kernel=kernel)
        if phi_hat is not None:
            pair = dataclasses.replace(sol.expansion.pair, phi_hat=phi_hat)
            sol = dataclasses.replace(sol, expansion=dataclasses.replace(sol.expansion, pair=pair))
        exp = sol.expansion
        pts = [Point(*xy) for xy in _points_in_ellipse(40, 3)]
        want = np.array(
            [
                sum(lam * kernel.eval(math.dist(p, k.position)) for lam, k in zip(sol.lam, sol.knots))
                + sum(a * exp.pair.phi_hat.eval(math.dist(p, q)) for a, q in zip(exp.alpha, exp.knots))
                + exp.tail[0]
                + exp.tail[1] * p.x
                + exp.tail[2] * p.y
                for p in pts
            ]
        )
        got = evaluate(sol, pts)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_split_wavenumber_blocks_mixing_both_j0_forms(self):
        """lam = 2.5 on the 2 x 1 ellipse puts lam*r on both sides of 5 in
        every block, so both forms of J0 from squared distances are summed;
        they match scalar bessel_j0 and phi_hat sums point by point."""
        lam = 2.5
        rng = np.random.default_rng(5)
        knots = ellipse_knots(ELLIPSE, 9)
        interior = [Point(0.4, 0.2), Point(-0.8, -0.3)]
        sources = tuple(k.position for k in knots) + tuple(interior)
        sol = BkmSolution(
            lam=rng.uniform(-1.0, 1.0, len(knots)),
            expansion=DrmExpansion(
                sources,
                mq_pair(3.0, lam),
                rng.uniform(-1.0, 1.0, len(sources)),
                rng.uniform(-1.0, 1.0, 3),
            ),
            kernel=helmholtz2d(lam),
            knots=tuple(knots),
        )
        rows = _eval_rows(len(sources))
        pts = []
        while len(pts) < rows + 41:
            x, y = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
            if (x / 2.0) ** 2 + y * y < 1.0:
                pts.append(Point(x, y))
        for start in (0, rows):
            lam_r = lam * np.array(
                [math.dist(p, k.position) for p in pts[start : start + rows] for k in knots]
            )
            assert (lam_r <= 5.0).any() and (lam_r > 5.0).any()
        exp = sol.expansion
        want = np.array(
            [
                sum(c * bessel_j0(lam * math.dist(p, k.position)) for c, k in zip(sol.lam, knots))
                + sum(
                    a * exp.pair.phi_hat.eval(math.dist(p, q)) for a, q in zip(exp.alpha, sources)
                )
                + exp.tail[0]
                + exp.tail[1] * p.x
                + exp.tail[2] * p.y
                for p in pts
            ]
        )
        got = evaluate(sol, pts)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
    def test_non_finite_point_rejected(self, bad):
        """A non-finite coordinate anywhere, here in the third block, raises
        before any block is evaluated; so does one whose square overflows."""
        sol, _ = solve_boundary_only(helmholtz_benchmark(), 7)
        rows = _eval_rows(len(sol.expansion.knots))
        pts = [Point(0.01 * i, 0.0) for i in range(2 * rows + 9)]
        pts[2 * rows + 3] = Point(0.1, bad)
        with pytest.raises(ValueError, match="finite"):
            evaluate(sol, pts)
        with pytest.raises(ValueError, match="finite"):
            evaluate(sol, np.array([[bad, 0.0]]))

    @pytest.mark.parametrize("factory", [burger_benchmark, helmholtz_benchmark])
    @pytest.mark.parametrize(
        "xy",
        [
            pytest.param(np.zeros((5, 3)), id="three_columns"),
            pytest.param(np.zeros(4), id="one_dimensional"),
            pytest.param(np.zeros((2, 2, 2)), id="three_dimensional"),
            pytest.param(np.zeros((5, 1)), id="one_column"),
            pytest.param(np.zeros((5, 2), dtype=complex), id="complex"),
            pytest.param(np.full((5, 2), "0.1"), id="strings"),
        ],
    )
    def test_malformed_coordinate_array_rejected(self, factory, xy):
        """Burger (no tail) once evaluated an (n, 3) array on its first two
        columns, a tailed solution failed in a matmul, and a 1-D array
        raised IndexError."""
        sol, _ = solve_boundary_only(factory(), 5)
        with pytest.raises(ValueError, match=r"\(n, 2\) array of real"):
            evaluate(sol, xy)

    def test_points_that_are_not_pairs_rejected(self):
        """3-tuples were once re-paired: this call returned the field at
        (3.0, 0.1) and (9.0, 3.2)."""
        sol, _ = solve_boundary_only(burger_benchmark(), 5)
        with pytest.raises(ValueError, match="pairs"):
            evaluate(sol, [(3.0, 0.1, 9.0), (3.2, 0.2, 9.0)])

    def test_points_tuples_and_arrays_give_the_same_field(self):
        problem = helmholtz_benchmark()
        sol, _ = solve_boundary_only(problem, 7)
        pts = interior_grid(problem.ellipse, 0.3)
        want = evaluate(sol, pts)
        assert np.array_equal(evaluate(sol, [(p.x, p.y) for p in pts]), want)
        assert np.array_equal(evaluate(sol, np.array([[p.x, p.y] for p in pts])), want)

    def test_integer_coordinate_array_accepted(self):
        sol, _ = solve_boundary_only(helmholtz_benchmark(), 5)
        xy = np.array([[3, 0], [4, 0]])
        assert np.array_equal(evaluate(sol, xy), evaluate(sol, xy.astype(float)))

    @pytest.mark.parametrize("m", [12, 70])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_evaluation_is_independent_of_chunking(self, m, data):
        """Evaluating three blocks' worth of points whole or split into any
        chunks gives the same field, below and above 64 columns."""
        sol = _synthetic_solution(m)
        xy = _points_in_ellipse(2 * _eval_rows(m) + 37, seed=m)
        cuts = data.draw(st.lists(st.integers(min_value=0, max_value=len(xy)), max_size=6))
        edges = [0, *sorted(cuts), len(xy)]
        whole = evaluate(sol, xy)
        chunked = np.concatenate([evaluate(sol, xy[a:b]) for a, b in zip(edges, edges[1:])])
        assert chunked.shape == whole.shape
        assert np.abs(chunked - whole).max() <= 1e-13 * np.abs(whole).max()

    def test_expansion_not_led_by_collocation_knots(self):
        """The same u_p expansion with its knots in reverse order gives the
        same field, though its knots no longer start with sol.knots."""
        problem = helmholtz_benchmark()
        knots = ellipse_knots(problem.ellipse, 7)
        sol, _ = solve_mixed_linear(problem, knots, [Point(0.3, 0.1), Point(-0.5, 0.2)])
        exp = sol.expansion
        flipped = dataclasses.replace(
            sol, expansion=dataclasses.replace(exp, knots=exp.knots[::-1], alpha=exp.alpha[::-1])
        )
        pts = interior_grid(problem.ellipse, 0.3)
        want = evaluate(sol, pts)
        assert evaluate(flipped, pts) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("points", [[], np.empty((0, 2))], ids=["list", "array"])
    def test_no_points_give_an_empty_field(self, points):
        sol, _ = solve_boundary_only(helmholtz_benchmark(), 7)
        assert evaluate(sol, points).shape == (0,)

    @given(st.integers(min_value=3, max_value=12))
    @settings(max_examples=10, deadline=None)
    def test_evaluation_shape_matches_point_count(self, n):
        sol, _ = solve_boundary_only(laplace_benchmark(), 6)
        pts = [Point(0.01 * i, 0.0) for i in range(n)]
        assert evaluate(sol, pts).shape == (n,)


class TestSharedDistanceMatrices:
    """Each point-set pair's distance matrix is computed once and every
    kernel matrix over the pair is evaluated from it."""

    @staticmethod
    def _shapes_of_calls(monkeypatch, fn, package="bkm."):
        """Shapes of the matrices ``fn`` builds through every module of
        ``package`` (a module name or prefix) that binds it."""
        calls = []

        def counted(rows, cols, *work):
            calls.append((len(rows), len(cols)))
            return fn(rows, cols, *work)

        for name, module in list(sys.modules.items()):
            if name.startswith(package) and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
        return calls

    @pytest.fixture
    def distance_calls(self, monkeypatch):
        """Knot sets' distance matrices: ``drm.knot_distances`` takes the
        sqrt of ``squared_distances`` of the set with itself."""
        return self._shapes_of_calls(monkeypatch, squared_distances, "bkm.drm")

    @pytest.fixture
    def squared_distance_calls(self, monkeypatch):
        return self._shapes_of_calls(monkeypatch, squared_distances)

    @pytest.mark.parametrize("factory", [laplace_benchmark, helmholtz_benchmark, burger_benchmark])
    def test_boundary_only_solve_builds_one_matrix_and_one_a_phi(
        self, factory, distance_calls, monkeypatch
    ):
        phi_evals = []

        def counting_mq_pair(*args):
            pair = mq_pair(*args)

            def phi_sq(t, out=None):
                phi_evals.append(np.shape(t))
                return pair.phi.sq(t, out)

            return dataclasses.replace(pair, phi=dataclasses.replace(pair.phi, sq=phi_sq))

        monkeypatch.setattr(sys.modules["bkm.bkm"], "mq_pair", counting_mq_pair)
        solve_boundary_only(factory(), 7)
        assert distance_calls == [(7, 7)]
        assert phi_evals == [(7, 7)]

    def test_coupled_solve_builds_one_matrix(self, distance_calls):
        problem = laplace_benchmark()
        knots = ellipse_knots(problem.ellipse, 8)
        bc = [
            BoundaryCondition("neumann", 0.0) if i % 2 else BoundaryCondition("dirichlet", 0.0)
            for i in range(len(knots))
        ]
        solve_mixed_linear(problem, knots, [Point(0.0, 0.0), Point(0.5, 0.25)], bc)
        assert distance_calls == [(10, 10)]

    def test_coupled_solve_reads_flux_rows_off_the_shared_matrix(
        self, distance_calls, monkeypatch
    ):
        """The Neumann rows come from rows of the all-points distance matrix,
        not from ``normal_derivative``, which computes its own distances."""
        normal_calls = []

        def counted(*args):
            normal_calls.append(args)
            return normal_derivative(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "bkm" and (
                getattr(module, "normal_derivative", None) is normal_derivative
            ):
                monkeypatch.setattr(module, "normal_derivative", counted)
        problem = laplace_benchmark()
        knots = ellipse_knots(problem.ellipse, 8)
        bc = [
            BoundaryCondition("neumann", 0.0) if i % 2 else BoundaryCondition("dirichlet", 0.0)
            for i in range(len(knots))
        ]
        solve_mixed_linear(problem, knots, [Point(0.0, 0.0), Point(0.5, 0.25)], bc)
        assert normal_calls == []
        assert distance_calls == [(10, 10)]
        assemble_bkm_matrix(knots, helmholtz2d(1.0), bc)
        assert normal_calls == []

    def test_coupled_flux_rows_at_split_wavenumber_2_are_normal_derivatives(self):
        """At k = 2, k^2 r^2 reaches 64 on the 2 x 1 ellipse, so J0's flux
        rows take J1(x)/x past the switch at 25 too.  Each Neumann knot's row
        of the coupled matrix is the normal derivative of phi_hat and of J0,
        0 in the knot's own column, and deriv(r) proj / r of the r-route
        elsewhere."""
        problem = dataclasses.replace(laplace_benchmark(), split_wavenumber=2.0)
        problem, knots, interior, bc = _half_neumann_solve(problem)
        sol, diagnostics = solve_mixed_linear(problem, knots, interior, bc)
        n, m = len(knots), len(knots) + len(interior)
        matrix = diagnostics.bkm_matrix
        assert matrix.shape == (m + 3 + n, m + 3 + n)
        sources = np.array([k.position for k in knots] + interior)
        reached = 0.0
        for i in (i for i, cond in enumerate(bc) if cond.kind == "neumann"):
            row, knot = matrix[m + 3 + i], knots[i]
            for kernel, got in ((sol.expansion.pair.phi_hat, row[:m]), (sol.kernel, row[m + 3 :])):
                want = normal_derivative(kernel, sources[: len(got)], knot.position, knot.normal)
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
                assert got[i] == 0.0
                offset = np.delete(knot.position - sources[: len(got)], i, axis=0)
                r = np.hypot(offset[:, 0], offset[:, 1])
                by_r = kernel.deriv(r) * (offset @ knot.normal) / r
                np.testing.assert_allclose(np.delete(got, i), by_r, rtol=1e-12, atol=1e-15)
            reached = max(reached, 4.0 * float(np.square(sources[:n] - knot.position).sum(1).max()))
        assert reached > 25.0

    def test_evaluate_builds_one_matrix_per_block(self, distance_calls, squared_distance_calls):
        """One matrix of squared distances per block, and no distance matrix."""
        problem = helmholtz_benchmark()
        sol, _ = solve_mixed_linear(problem, ellipse_knots(problem.ellipse, 7), [Point(0.3, 0.1)])
        distance_calls.clear()
        squared_distance_calls.clear()
        rows = _eval_rows(8)
        evaluate(sol, [Point(0.01 * i, 0.0) for i in range(2 * rows + 37)])
        assert squared_distance_calls == [(8, rows), (8, rows), (8, 37)]
        assert distance_calls == []

    @pytest.mark.parametrize(
        "m, rows", [(12, 1365), (63, 260), (64, 256), (65, 256), (71, 256), (400, 256)]
    )
    def test_evaluate_block_shapes_either_side_of_64_columns(
        self, squared_distance_calls, m, rows
    ):
        """max(256, 16384 // m) rows: about 16k entries up to 64 columns."""
        sol = _synthetic_solution(m)
        evaluate(sol, [Point(0.001 * i, 0.0) for i in range(2 * rows + 5)])
        assert squared_distance_calls == [(m, rows), (m, rows), (m, 5)]


def _half_neumann_solve(problem):
    """(problem, knots, interior, bc): 8 knots, every other one Neumann,
    and three interior knots."""
    knots = ellipse_knots(problem.ellipse, 8)
    bc = [
        BoundaryCondition("neumann", 0.0) if i % 2 else BoundaryCondition("dirichlet", 0.0)
        for i in range(len(knots))
    ]
    return problem, knots, [Point(0.0, 0.0), Point(0.5, 0.25), Point(-0.7, -0.2)], bc


class TestOneFactorizationPerMatrix:
    """Each solved matrix is factored once, for its own right-hand side
    alone, and no solve makes a refinement sweep or forms an inverse;
    Burger's alpha and u's interpolant come from one block system of order
    2n.  The inverse behind an exact condition number is a second
    factorization, made when ``Diagnostics`` is first read."""

    @pytest.fixture
    def lapack_calls(self, monkeypatch):
        """numpy.linalg calls: "solve" lists each solve's (matrix order,
        right-hand-side column count), in call order, and "inv" counts
        inverses."""
        calls = {"solve": [], "inv": 0}
        solve, inv = np.linalg.solve, np.linalg.inv

        def counted_solve(a, b):
            calls["solve"].append((len(a), 1 if np.ndim(b) == 1 else np.shape(b)[1]))
            return solve(a, b)

        def counted_inv(a):
            calls["inv"] += 1
            return inv(a)

        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        monkeypatch.setattr(np.linalg, "inv", counted_inv)
        return calls

    @pytest.mark.parametrize(
        "factory, n", [(laplace_benchmark, 5), (helmholtz_benchmark, 7), (burger_benchmark, 5)]
    )
    def test_boundary_only_solve(self, lapack_calls, factory, n):
        """One column each: the DRM system (Burger's 2n block, else A_phi
        bordered with the linear tail), then lambda."""
        solve_boundary_only(factory(), n)
        drm = 2 * n if factory is burger_benchmark else n + 3
        assert lapack_calls == {"solve": [(drm, 1), (n, 1)], "inv": 0}

    @pytest.mark.parametrize(
        "rho, columns",
        [
            (RhoSpec.zero(), [(12, 1)]),
            (RhoSpec.burger(), [(18, 1)]),
            (RhoSpec.identity(), [(12, 1)]),
            (RhoSpec.scaled_identity(-2.5), [(12, 1)]),
        ],
        ids=["zero", "burger", "identity", "scaled_identity"],
    )
    def test_solve_alpha(self, lapack_calls, rho, columns):
        knots = [k.position for k in ellipse_knots(ELLIPSE, 9)]
        u = [1.0 + p.x * p.y for p in knots]
        solve_alpha(knots, mq_pair(3.0), [math.sin(p.x) for p in knots], rho, u)
        assert lapack_calls == {"solve": columns, "inv": 0}

    def test_burger_rho_matrix(self, lapack_calls):
        knots = [k.position for k in ellipse_knots(ELLIPSE, 9)]
        rho_matrix(RhoSpec.burger(), knots, mq_pair(1.0), [1.0 + p.x for p in knots])
        assert lapack_calls == {"solve": [(9, 1)], "inv": 0}

    @pytest.mark.parametrize(
        "build",
        [
            lambda knots: interp_matrix(knots, mq_pair(3.0)),
            lambda knots: bordered_matrix(mq_pair(3.0), np.square(knot_distances(knots)), knots),
            lambda knots: particular_matrix([Point(0.1, 0.2)], knots, mq_pair(3.0)),
            lambda knots: u_p_at(
                DrmExpansion(tuple(knots), mq_pair(3.0), np.ones(len(knots))), [Point(0.1, 0.2)]
            ),
            lambda knots: rho_matrix(RhoSpec.identity(), knots, mq_pair(3.0), np.ones(len(knots))),
        ],
        ids=["interp_matrix", "bordered_matrix", "particular_matrix", "u_p_at", "rho_identity"],
    )
    def test_matrix_builders_factor_nothing(self, lapack_calls, build):
        """Building a matrix, summing u_p and a linear rho are products and
        kernel calls alone: no factorization, no inverse."""
        build([k.position for k in ellipse_knots(ELLIPSE, 9)])
        assert lapack_calls == {"solve": [], "inv": 0}

    def test_evaluate_factors_nothing(self, lapack_calls):
        sol, _ = solve_boundary_only(helmholtz_benchmark(), 7)
        lapack_calls["solve"].clear()
        evaluate(sol, [Point(0.1, 0.2), Point(-0.5, 0.3)])
        assert lapack_calls == {"solve": [], "inv": 0}

    def test_condition_estimate(self, lapack_calls):
        cond_estimate_1norm(np.eye(4) + 0.1)
        assert lapack_calls == {"solve": [], "inv": 1}

    def test_lu_solve_has_no_refinement_option(self):
        assert list(inspect.signature(lu_solve).parameters) == ["a", "b"]

    def test_burger_alpha_matches_two_solve_route(self):
        """The block system gives the c of A_phi c = f + u - u_x u with u_x
        from A_phi^-1 u solved on its own, to round-off."""
        problem = burger_benchmark()
        sol, _ = solve_boundary_only(problem, 12)
        knots = sol.expansion.knots
        pair = sol.expansion.pair
        f = np.array([problem.forcing(p) for p in knots])
        u = np.array([problem.dirichlet(p) for p in knots])
        want = lu_solve(interp_matrix(knots, pair), f + rho_matrix(problem.rho, knots, pair, u))
        assert np.abs(sol.expansion.alpha - want).max() <= 1e-10 * np.abs(want).max()

    def test_coupled_solve(self, lapack_calls):
        """Helmholtz has rho = 0: the DRM system, then lambda, in turn."""
        solve_mixed_linear(*_half_neumann_solve(helmholtz_benchmark()))
        assert lapack_calls == {"solve": [(11 + 3, 1), (8, 1)], "inv": 0}

    def test_coupled_solve_with_rho_in_the_drm_rows(self, lapack_calls):
        """rho{u} = u (Laplace) puts lambda in the unknown points' DRM rows:
        one factorization of the joint system gives c and lambda."""
        solve_mixed_linear(*_half_neumann_solve(laplace_benchmark()))
        assert lapack_calls == {"solve": [(11 + 3 + 8, 1)], "inv": 0}

    @pytest.mark.parametrize(
        "solve, matrices",
        [
            (lambda: solve_boundary_only(laplace_benchmark(), 5), 2),
            (lambda: solve_boundary_only(helmholtz_benchmark(), 7), 2),
            (lambda: solve_boundary_only(burger_benchmark(), 5), 2),
            (lambda: solve_mixed_linear(*_half_neumann_solve(helmholtz_benchmark())), 2),
            (lambda: solve_mixed_linear(*_half_neumann_solve(laplace_benchmark())), 1),
        ],
        ids=["laplace", "helmholtz", "burger", "mixed_rho_zero", "coupled"],
    )
    def test_condition_numbers_are_computed_on_first_read(self, lapack_calls, solve, matrices):
        """The solve inverts nothing, neither by ``inv`` nor by identity
        columns beside a right-hand side; the first reads of ``cond_bkm``
        and ``cond_interp`` invert each distinct matrix once (a coupled
        solve's one joint matrix once in all), and later reads, ``==`` and
        ``repr`` invert nothing more."""
        _, diag = solve()
        assert lapack_calls["inv"] == 0
        assert {columns for _, columns in lapack_calls["solve"]} == {1}
        assert diag.cond_bkm >= 1.0
        assert lapack_calls["inv"] == 1
        assert diag.cond_interp >= 1.0
        assert lapack_calls["inv"] == matrices
        assert (diag.cond_bkm, diag.cond_interp) == (diag.cond_bkm, diag.cond_interp)
        assert diag == diag and "cond_interp=" in repr(diag)
        assert lapack_calls["inv"] == matrices

    def test_condition_read_never_raises(self):
        """A singular matrix, or one whose inverse overflows, reads infinity."""
        overflow = np.array([[1.0, 1e200], [0.0, 1e-200]])
        diag = Diagnostics(0.0, np.zeros((3, 3)), overflow)
        assert (diag.cond_interp, diag.cond_bkm) == (math.inf, math.inf)

    def test_condition_number_stays_exact(self):
        problem = helmholtz_benchmark()
        sol, diag = solve_boundary_only(problem, 7)
        a = assemble_bkm_matrix(sol.knots, sol.kernel, dirichlet_bcs(sol.knots))
        assert diag.cond_bkm == pytest.approx(cond_estimate_1norm(a), rel=1e-12)


class TestErrorState:
    """A solve sets no numpy error state: ``numpy.linalg.solve`` runs under
    its own, where a singular matrix raises and overflow stays silent.  A
    kappa_1 read enters one, because the norms of a near-singular inverse
    can overflow."""

    @pytest.fixture
    def errstate_entries(self, monkeypatch):
        """Entries of ``numpy.errstate`` made through the ``numpy`` module;
        numpy.linalg binds its own copy, so only bkm's count."""
        entries = []

        class Counted(np.errstate):
            def __enter__(self):
                entries.append(self)
                return super().__enter__()

        monkeypatch.setattr(np, "errstate", Counted)
        return entries

    @pytest.mark.parametrize(
        "factory, n", [(laplace_benchmark, 5), (helmholtz_benchmark, 7), (burger_benchmark, 5)]
    )
    def test_paper_solve_enters_none_and_each_condition_read_one(self, errstate_entries, factory, n):
        _, diagnostics = solve_boundary_only(factory(), n)
        assert len(errstate_entries) == 0
        diagnostics.cond_bkm
        assert len(errstate_entries) == 1
        diagnostics.cond_interp
        assert len(errstate_entries) == 2

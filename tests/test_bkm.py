"""Boundary-knot collocation: assembly, solving, evaluation, diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkm.bkm import (
    _EVAL_BLOCK,
    BkmSolution,
    BoundaryCondition,
    Diagnostics,
    UnsupportedConfigurationError,
    assemble_bkm_matrix,
    evaluate,
    solve_boundary_only,
    solve_mixed_linear,
)
from bkm.drm import DrmExpansion, RhoSpec
from bkm.geometry import Ellipse, Point, ellipse_knots, interior_grid
from bkm.kernels import helmholtz2d, mq_pair, normal_derivative
from bkm.problems import (
    burger_benchmark,
    helmholtz_benchmark,
    laplace_benchmark,
    manufactured,
)
from bkm.specfun import bessel_j0

from oracles import cond_1norm_explicit, fd_laplacian_2d

ELLIPSE = Ellipse(Point(0.0, 0.0), 2.0, 1.0)


def dirichlet_bcs(knots):
    return [BoundaryCondition("dirichlet", 0.0) for _ in knots]


class TestBoundaryCondition:
    def test_kinds(self):
        assert BoundaryCondition("dirichlet", 1.0).kind == "dirichlet"
        assert BoundaryCondition("neumann", -2.0).kind == "neumann"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BoundaryCondition("robin", 0.0)


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

    def test_duplicate_message_names_first_pair(self):
        k = ellipse_knots(ELLIPSE, 5)
        knots = [k[0], k[1], k[2], k[1], k[2]]
        with pytest.raises(ValueError, match=r"^duplicate boundary knots at indices 1 and 3$"):
            assemble_bkm_matrix(knots, helmholtz2d(1.0), dirichlet_bcs(knots))

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

    def test_interior_unknowns_returned_in_solution(self):
        problem = laplace_benchmark()
        knots = ellipse_knots(problem.ellipse, 8)
        interior = [Point(0.0, 0.0), Point(0.5, 0.25)]
        sol, _ = solve_mixed_linear(problem, knots, interior)
        assert sol.interior_u is not None
        assert sol.interior_u == pytest.approx([0.0, 0.75], abs=1e-2)

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

    @pytest.mark.parametrize("factory", [helmholtz_benchmark, burger_benchmark])
    def test_blocked_evaluation_equals_pointwise_sum(self, factory):
        """2 blocks and 37 points: sum_k lam_k J0(||x - x_k||) + u_p, the
        tail included when the expansion has one (Helmholtz; Burger has
        none), summed point by point with scalar kernel calls."""
        problem = factory()
        sol, _ = solve_boundary_only(problem, 7)
        rng = np.random.RandomState(11)
        cx = problem.ellipse.center.x
        pts = []
        while len(pts) < 2 * _EVAL_BLOCK + 37:
            x, y = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
            if (x / 2.0) ** 2 + y * y < 1.0:
                pts.append(Point(cx + x, y))
        exp = sol.expansion
        assert (exp.tail is not None) == (factory is helmholtz_benchmark)
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

    @given(st.integers(min_value=3, max_value=12))
    @settings(max_examples=10, deadline=None)
    def test_evaluation_shape_matches_point_count(self, n):
        sol, _ = solve_boundary_only(laplace_benchmark(), 6)
        pts = [Point(0.01 * i, 0.0) for i in range(n)]
        assert evaluate(sol, pts).shape == (n,)

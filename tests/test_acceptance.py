"""End-to-end acceptance battery: one test per shipped guarantee.

Each test is a single pass/fail line under ``pytest -v`` and encodes the
advertised tolerance directly, so this module doubles as the release
checklist.  Guarantees covered:

1. Laplace benchmark table reproduced with 5 boundary knots (max error 5e-3).
2. Helmholtz benchmark table reproduced with 7 knots (max error 0.05) and
   the error shrinks from 5 to 7 knots.
3. Burger benchmark solved in one linear solve with average relative error
   below 10% over its 12 table points.
4. Every catalog kernel annihilates its governing operator to 1e-5 relative
   at 50 seeded radii/displacements.
5. The multiquadric kernel pair is operator-consistent to 1e-6 relative for
   shape parameters 1, 3, and 25.
6. Right-hand-side interpolation is exact at the knots to 1e-9 relative,
   the identity feedback path is algebraically exact, and the quadratic
   feedback evaluation converges on a refinement test.
7. Laplace table error is non-increasing over 3, 5, 7, 9 knots, above a
   round-off floor derived from machine epsilon.
8. A half-Dirichlet/half-Neumann solve recovers a linear field to 1e-2.
"""

import math

import numpy as np

from bkm.bkm import BoundaryCondition, evaluate, solve_boundary_only, solve_mixed_linear
from bkm.drm import (
    RhoSpec,
    bordered_matrix,
    interp_matrix,
    knot_distances,
    rho_matrix,
    solve_alpha,
)
from bkm.geometry import Point, ellipse_knots, interior_grid
from bkm.kernels import (
    biharmonic2d,
    biharmonic3d,
    convection_diffusion2d,
    helmholtz2d,
    helmholtz3d,
    modified_helmholtz2d,
    modified_helmholtz3d,
    mq_pair,
)
from bkm.problems import burger_benchmark, helmholtz_benchmark, laplace_benchmark

from oracles import fd_biharmonic_radial, fd_radial_laplacian, fd_radial_laplacian_rich


def _max_table_error(problem, n: int) -> float:
    sol, _ = solve_boundary_only(problem, n)
    computed = evaluate(sol, problem.table_points)
    exact = np.array([problem.exact(p) for p in problem.table_points])
    return float(np.abs(computed - exact).max())


def test_laplace_table_five_knots_within_tolerance():
    """Max absolute error over the 7 Laplace table points is at most 5e-3.

    Measured: 1.1e-16 with 5 knots at shape parameter 25 (the linear tail
    of the DRM interpolant reproduces u = x + y).
    """
    assert _max_table_error(laplace_benchmark(), 5) <= 5e-3


def test_helmholtz_table_seven_knots_and_refinement():
    """Max Helmholtz table error <= 0.05 with 7 knots, and 7 beats 5 knots.

    Measured: 7.3e-3 at n=7 versus 1.4e-1 at n=5.
    """
    problem = helmholtz_benchmark()
    err7 = _max_table_error(problem, 7)
    err5 = _max_table_error(problem, 5)
    assert err7 <= 0.05
    assert err7 < err5


def test_burger_average_relative_error_below_ten_percent():
    """One linear solve (5 boundary knots, no iteration) reproduces the
    12-point Burger table with average relative absolute error <= 10%.

    Measured: 4.1% average, 9.7% worst point.
    """
    problem = burger_benchmark()
    sol, _ = solve_boundary_only(problem, 5)
    computed = evaluate(sol, problem.table_points)
    exact = np.array([problem.exact(p) for p in problem.table_points])
    rel = np.abs(computed - exact) / np.abs(exact)
    assert float(rel.mean()) <= 0.10


def test_kernel_catalog_annihilates_governing_operators():
    """Every catalog kernel satisfies its operator to 1e-5*(1+|value|) at 50
    seeded sample radii (displacements for the convection kernel)."""
    rng = np.random.RandomState(7)
    gate = 1e-5
    lam = 1.0

    def check(residual: float, value: float) -> None:
        assert abs(residual) <= gate * (1.0 + abs(value))

    for r in rng.uniform(0.1, 5.0, 50):
        for kernel, sign, dim in (
            (helmholtz2d(lam), +1.0, 2),
            (modified_helmholtz2d(lam), -1.0, 2),
            (helmholtz3d(lam), +1.0, 3),
            (modified_helmholtz3d(lam), -1.0, 3),
        ):
            value = kernel.eval(r)
            check(fd_radial_laplacian(kernel.eval, r, h=1e-4, dim=dim) + sign * lam * lam * value, value)

    for r in rng.uniform(0.5, 4.0, 50):
        for pair, dim in ((biharmonic2d(lam), 2), (biharmonic3d(lam), 3)):
            for kernel in pair:
                value = kernel.eval(r)
                check(fd_biharmonic_radial(kernel.eval, r, dim=dim) - lam**4 * value, value)

    diffusivity, velocity, reaction = 1.0, (2.0, 0.7), 0.5
    kernel = convection_diffusion2d(diffusivity, velocity, reaction)
    k_eff = reaction + (velocity[0] ** 2 + velocity[1] ** 2) / (2.0 * diffusivity)
    h = 1e-4
    for r, angle in zip(rng.uniform(0.1, 5.0, 50), rng.uniform(0.0, 2.0 * math.pi, 50)):
        dx, dy = r * math.cos(angle), r * math.sin(angle)
        value = kernel.eval((dx, dy))
        lap = (
            kernel.eval((dx + h, dy))
            + kernel.eval((dx - h, dy))
            + kernel.eval((dx, dy + h))
            + kernel.eval((dx, dy - h))
            - 4.0 * value
        ) / (h * h)
        gx = (kernel.eval((dx + h, dy)) - kernel.eval((dx - h, dy))) / (2.0 * h)
        gy = (kernel.eval((dx, dy + h)) - kernel.eval((dx, dy - h))) / (2.0 * h)
        residual = diffusivity * lap + velocity[0] * gx + velocity[1] * gy + k_eff * value
        check(residual, value)


def test_mq_pair_operator_consistency_across_shape_parameters():
    """(lap + 1){phi_hat} equals phi to 1e-6 relative for c in {1, 3, 25}.

    The finite-difference Laplacian is Richardson-extrapolated because at
    c=25 the kernel values are ~1e4 and plain second differences lose too
    many digits to stay under the gate.  Measured: <= 3e-9 relative.
    """
    for c in (1.0, 3.0, 25.0):
        pair = mq_pair(c)
        for r in np.linspace(0.25, 4.0, 16):
            got = fd_radial_laplacian_rich(pair.phi_hat.eval, float(r)) + pair.phi_hat.eval(float(r))
            want = pair.phi.eval(float(r))
            assert abs(got - want) <= 1e-6 * abs(want)


def test_rhs_interpolation_exact_and_feedback_paths():
    """Knot-collocation residual <= 1e-9 relative at the three benchmark
    configurations, of the DRM interpolant a solve uses: A_phi alpha plus
    the border columns k^2 P (the image of u_p's tail) times the tail for
    Laplace and Helmholtz, A_phi alpha alone for Burger; the identity
    feedback path returns u bit-for-bit; the quadratic feedback evaluation
    error at least halves from 8 to 32 knots.
    """
    for problem, n in (
        (laplace_benchmark(), 5),
        (helmholtz_benchmark(), 7),
        (burger_benchmark(), 5),
    ):
        knots = [k.position for k in ellipse_knots(problem.ellipse, n)]
        pair = mq_pair(problem.mq_shape_c, problem.split_wavenumber)
        f = np.array([problem.forcing(p) for p in knots])
        u = np.array([problem.exact(p) for p in knots])
        expansion = solve_alpha(knots, pair, f, problem.rho, u)
        target = f + rho_matrix(problem.rho, knots, pair, u)
        a_phi = interp_matrix(knots, pair)
        interpolant = a_phi @ expansion.alpha
        if expansion.tail is not None:
            border = bordered_matrix(pair, np.square(knot_distances(knots)), knots)[:n, n:]
            interpolant += border @ expansion.tail
        residual = np.abs(interpolant - target).max()
        assert residual <= 1e-9 * max(1.0, float(np.abs(target).max()))

    knots = [k.position for k in ellipse_knots(laplace_benchmark().ellipse, 6)]
    u = np.array([p.x + p.y for p in knots])
    assert np.array_equal(rho_matrix(RhoSpec.identity(), knots, mq_pair(25.0), u), u)

    # u = 2/x on a line has feedback u - u_x u = 2/x + 4/x^3
    pair = mq_pair(1.0)

    def feedback_error(n: int) -> float:
        line = [Point(x, 0.0) for x in np.linspace(1.5, 4.5, n)]
        u_line = np.array([2.0 / p.x for p in line])
        got = rho_matrix(RhoSpec.burger(), line, pair, u_line)
        want = np.array([2.0 / p.x + 4.0 / p.x**3 for p in line])
        return float(np.abs(got - want).max())

    assert feedback_error(32) <= feedback_error(8) / 2.0


def test_laplace_error_non_increasing_with_knot_count():
    """Laplace max table error should not grow over n = 3, 5, 7, 9 at c=25.

    Each error may exceed its predecessor by at most 5 %, or lie below the
    round-off floor 256 * eps * max|u| over the table points (8.5e-14 here),
    where comparing two errors compares rounding noise.  With the linear
    tail in the DRM interpolant u = x + y is reproduced to round-off:
    1.1e-16, 1.1e-16, 2.2e-16, 4.0e-16.  Without it the 9-knot
    interpolant is nearly singular and the error jumps to 2.6e-1.
    """
    problem = laplace_benchmark()
    errors = [_max_table_error(problem, n) for n in (3, 5, 7, 9)]
    u_max = max(abs(problem.exact(p)) for p in problem.table_points)
    floor = 256.0 * np.finfo(float).eps * u_max
    for smaller_n_err, larger_n_err in zip(errors, errors[1:]):
        assert larger_n_err <= max(smaller_n_err * 1.05, floor), (
            f"table error grew along n in (3, 5, 7, 9): {errors} "
            f"(round-off floor {floor:.2e})"
        )


def test_mixed_boundary_conditions_recover_linear_field():
    """Half-Dirichlet/half-Neumann data for u = x + y on the ellipse is
    recovered with max interior-probe error <= 1e-2.  Measured: 3.4e-15 at
    n=12 knots, where u at the Neumann knots is substituted by its
    representation and the interpolant carries the linear tail (3.2e-3
    when those u values were separate unknowns and the interpolant had no
    tail; at c = 25 that figure moved with round-off)."""
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
    assert float(np.abs(got - want).max()) <= 1e-2


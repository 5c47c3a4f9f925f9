"""The boundary knot method proper.

The homogeneous part v is collocated on translates of the non-singular
general solution of the split operator (J0 for the Helmholtz split used
by every built-in problem); the dual-reciprocity particular solution u_p
absorbs the inhomogeneous term; the full field is u = v + u_p, evaluable
anywhere without meshes or integrals.

One driver serves both entry points.  ``solve_boundary_only`` needs
Dirichlet data at every knot, which keeps even a nonlinear remaining
operator explicit.  ``solve_mixed_linear`` takes Neumann knots and
interior knots too, for linear remaining operators: u at those points is
not known, so it is replaced by its representation v + u_p, which turns
their interpolation rows into PDE collocation rows.  Either way the solve
is one interpolation/PDE solve for the particular solution and one
collocation solve for lambda, with no iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .drm import (
    DrmExpansion,
    bordered_matrix,
    burger_alpha,
    knot_distances,
    normal_projections,
    u_p_from_distances,
)
from .geometry import (
    BoundaryKnot,
    Ellipse,
    Point,
    as_xy,
    checked_xy,
    coincident_pair,
    distance_matrix,
    ellipse_knots,
    squared_distances,
)
from .kernels import RadialKernel, directional_derivative, helmholtz2d, mq_pair
from .linalg import cond_1norm, solve_and_invert
from .problems import ProblemSpec

__all__ = [
    "UnsupportedConfigurationError",
    "BoundaryCondition",
    "BkmSolution",
    "Diagnostics",
    "solve_boundary_only",
    "solve_mixed_linear",
    "evaluate",
]
# ``assemble_bkm_matrix`` stays defined but unexported: only tests use it, and
# perfbench/tracing.py looks it up by name in this module.

_BC_KINDS = ("dirichlet", "neumann")

# Points per block in ``evaluate`` (``_eval_rows``): about _EVAL_ENTRIES matrix
# entries, and never fewer than _EVAL_BLOCK points.  The block size depends only
# on the number of knots, so memory stays flat however many points there are.
_EVAL_BLOCK = 256
_EVAL_ENTRIES = 16384
# Round-off allowance on the level function (1 on the boundary) before an
# interior point counts as outside the ellipse.
_LEVEL_TOL = 1e-12


class UnsupportedConfigurationError(ValueError):
    """The requested solve shape is outside this driver's contract."""


@dataclass(frozen=True)
class BoundaryCondition:
    """One knot's boundary condition: Dirichlet value or Neumann flux."""

    kind: str
    value: float

    def __post_init__(self) -> None:
        if self.kind not in _BC_KINDS:
            raise ValueError(f"unknown boundary kind {self.kind!r}, expected {_BC_KINDS}")
        if not math.isfinite(self.value):
            raise ValueError(f"boundary {self.kind} value must be finite, got {self.value!r}")


@dataclass(frozen=True)
class BkmSolution:
    """Collocation coefficients plus the particular-solution expansion."""

    lam: np.ndarray
    expansion: DrmExpansion
    kernel: RadialKernel
    knots: tuple[BoundaryKnot, ...]
    interior_u: np.ndarray | None = None


@dataclass(frozen=True)
class Diagnostics:
    """Conditioning and residual of the two dense solves.

    ``cond_interp`` and ``cond_bkm`` are exact 1-norm condition numbers,
    ||A||_1 ||A^-1||_1 with A^-1 from the same LU factorization that
    solved A (see ``linalg.solve_and_invert``), so no matrix is factored
    twice: Burger's u_x interpolant comes from that one factorization of
    A_phi too (``drm.burger_alpha``).  ``cond_interp`` is that of the DRM
    matrix that was solved: the interpolation matrix, bordered with the
    linear tail for a linear rho kind and bare for Burger, whose rows at
    the points with unknown u (Neumann and interior knots) are PDE
    collocation rows.  ``cond_bkm`` is that of the n x n collocation
    matrix for lambda: the value and flux rows of v, plus, when u is
    unknown somewhere, the rows of u_p's dependence on lambda.  For an
    all-Dirichlet solve without interior knots these are the
    interpolation matrix itself and J0 alone.
    ``residual_inf`` is the max-norm residual of the lambda solve.
    """

    cond_interp: float
    cond_bkm: float
    residual_inf: float


def assemble_bkm_matrix(
    knots: Sequence[BoundaryKnot],
    kernel: RadialKernel,
    bc: Sequence[BoundaryCondition],
) -> np.ndarray:
    """Collocation matrix: row i is kernel values (Dirichlet) or normal
    derivatives (Neumann) of the kernel centered at each knot.

    Raises
    ------
    ValueError
        If a knot coordinate is not finite or not below 1e150 in
        magnitude, knots (nearly) coincide, bc does not match the knots or
        a Neumann knot's normal is not a finite unit vector.
    """
    n = len(knots)
    if n < 1:
        raise ValueError("at least one boundary knot is required")
    if len(bc) != n:
        raise ValueError(f"expected {n} boundary conditions, got {len(bc)}")
    positions = checked_xy([k.position for k in knots], "boundary knots")
    distances = distance_matrix(positions, positions)
    pair = coincident_pair(distances)
    if pair is not None:
        raise ValueError(f"duplicate boundary knots at indices {pair[0]} and {pair[1]}")
    a = kernel.eval(distances)
    neumann = [i for i, cond in enumerate(bc) if cond.kind == "neumann"]
    if neumann:
        projections, _ = normal_projections([knots[i] for i in neumann], positions)
        a[neumann] = directional_derivative(kernel, distances[neumann], projections)
    return a


def _spans_plane(xy: np.ndarray) -> bool:
    """Whether the points are not all on one line (and at least three)."""
    if len(xy) < 3:
        return False
    d = xy - xy[0]
    dx, dy = d[:, 0], d[:, 1]
    far = (dx * dx + dy * dy).argmax()  # the first farthest point
    # (x - x0, y - y0) . normal is |normal| times (x, y)'s distance from the
    # line through point 0 and the point farthest from it.
    nx, ny = float(dy[far]), -float(dx[far])
    tol = 1e-12 * (nx * nx + ny * ny)
    return bool((abs(dx * nx + dy * ny) > tol).any())


def _check_inside(ellipse: Ellipse, xy: np.ndarray) -> None:
    """Raise ValueError naming the first interior point outside the ellipse.

    A point is outside where the level function exceeds 1 by more than
    round-off (_LEVEL_TOL)."""
    level = ellipse.level(xy)
    outside = np.flatnonzero(level > 1.0 + _LEVEL_TOL)
    if outside.size:
        i = outside[0]
        raise ValueError(
            f"interior point {i} at ({xy[i, 0]:g}, {xy[i, 1]:g}) lies outside the ellipse "
            f"(level {level[i]:.6g} > 1)"
        )


def _solve(
    problem: ProblemSpec,
    knots: Sequence[BoundaryKnot],
    interior: Sequence[Point],
    values: np.ndarray,
    neumann: list[int],
) -> tuple[BkmSolution, Diagnostics]:
    """The one solve driver: u_p's coefficients c = (alpha, beta), then lambda.

    ``values`` holds each knot's boundary value, a flux at the knots listed
    in ``neumann``.

    u_p = rep @ c sums phi_hat over the boundary and interior knots, plus
    the tail beta . (1, x, y) / k^2 for a linear rho kind.  Burger keeps
    the bare interpolant: with the tail its paper table error rises from
    5.0e-2 to 7.2e-2.  Each point has a DRM row [A_phi | P] c = f + rho{u},
    and the moment rows P^T alpha = 0 close the system.  Where u is known
    (Dirichlet knots) rho{u} goes to the right-hand side: s u for a linear
    kind.  Burger's u - u_x u reads u_x off the interpolant of u, whose
    coefficients come from the one factorization of A_phi that also gives
    c (``drm.burger_alpha``).  Where u is not known (Neumann and interior
    knots), u = v + u_p and rho{u} = s u turn the row into a PDE collocation row,
    ([A_phi | P] - s rep) c = f + s J lambda.  lambda enters only those
    right-hand sides, so one factorization gives c = c0 + gather @ lambda,
    and the boundary rows (value or flux of v + u_p) solve for lambda.

    One all-points distance matrix feeds every matrix of the solve.
    Interior pairs or array rows reach the forcing and u_p as ``Point``s.
    """
    knots = tuple(knots)
    n = len(knots)
    positions = tuple(k.position for k in knots)
    xy = as_xy(positions + tuple(interior))
    distances = knot_distances(xy)
    points = positions + tuple(map(Point._make, xy[n:].tolist()))
    m = len(points)
    if m > n:
        _check_inside(problem.ellipse, xy[n:])
    pair = mq_pair(problem.mq_shape_c, problem.split_wavenumber)
    kernel = helmholtz2d(problem.split_wavenumber)
    scale = problem.rho.linear_scale
    unknown = neumann + list(range(n, m))
    if scale is not None:
        # The tail needs three points off one line among those whose rows
        # hold it, or the bordered matrix is singular by construction.  Where
        # rho{u} = k^2 u (Laplace) it drops out of the unknown points' rows.
        tailed, which = xy, "knots"
        if unknown and math.isclose(scale, pair.wavenumber**2):
            tailed, which = np.delete(xy, unknown, axis=0), "Dirichlet knots"
        if not _spans_plane(tailed):
            on_line = ", all on one line" if len(tailed) >= 3 else ""
            raise UnsupportedConfigurationError(
                f"the linear tail (1, x, y) needs three {which} not on one line, "
                f"got {len(tailed)}{on_line}"
            )
    known_u = np.zeros(m)
    known_u[:n] = values
    known_u[neumann] = 0.0

    a_phi = pair.phi.eval(distances)
    rhs = np.array([problem.forcing(p) for p in points], dtype=float)
    # At every point v = j_values @ lam and u_p = rep @ c.
    j_values = kernel.eval(distances[:, :n])
    rep = pair.phi_hat.eval(distances)
    system = a_phi
    if scale is None:
        # Burger: u is known at every point, and one factorization gives both
        # its interpolant (for u_x) and c.
        c0, system_inv = burger_alpha(pair, xy, distances, a_phi, rhs, known_u)
    else:
        rhs += scale * known_u
        system = bordered_matrix(a_phi, xy)
        rep = np.hstack([rep, system[:m, m:] / pair.wavenumber**2])
        rhs = np.concatenate([rhs, np.zeros(3)])
        if unknown:
            # rho{u} = scale (v + u_p) at the unknown points.
            system[unknown] -= scale * rep[unknown]
            coupling = scale * j_values[unknown]
        c0, system_inv = solve_and_invert(system, rhs)

    # One row per boundary knot, in knot order: u = v + u_p at a Dirichlet
    # knot, its normal derivative at a Neumann knot.  They are built in
    # place in rows :n of j_values and rep, which nothing reads afterwards.
    bc_lam = j_values[:n]
    bc_rep = rep[:n]
    if neumann:
        rows = distances[neumann]
        projections, normals = normal_projections([knots[i] for i in neumann], xy)
        bc_lam[neumann] = directional_derivative(kernel, rows[:, :n], projections[:, :n])
        bc_rep[neumann, :m] = directional_derivative(pair.phi_hat, rows, projections)
        # The tail's gradient is (beta_x, beta_y) / k^2.
        bc_rep[neumann, m] = 0.0
        bc_rep[neumann, m + 1 :] = normals / pair.wavenumber**2
    bc_rhs = values - bc_rep @ c0
    if unknown:
        # c = c0 + gather @ lam: lam enters only the unknown rows' right-hand sides.
        gather = system_inv[:, unknown] @ coupling
        bc_lam += bc_rep @ gather
    lam, bc_inv = solve_and_invert(bc_lam, bc_rhs)

    c = c0 + gather @ lam if unknown else c0
    tail = c[m:] / pair.wavenumber**2 if scale is not None else None
    expansion = DrmExpansion(points, pair, c[:m], tail)
    interior_u = j_values[n:] @ lam + rep[n:] @ c if m > n else None
    diagnostics = Diagnostics(
        cond_interp=cond_1norm(system, system_inv),
        cond_bkm=cond_1norm(bc_lam, bc_inv),
        residual_inf=float(np.abs(bc_lam @ lam - bc_rhs).max()),
    )
    return BkmSolution(lam, expansion, kernel, knots, interior_u), diagnostics


def solve_boundary_only(
    problem: ProblemSpec, n_knots: int
) -> tuple[BkmSolution, Diagnostics]:
    """Solve with Dirichlet data at every boundary knot and no interior knots.

    Because u is known on the whole collocation set, the rho term is
    evaluated explicitly - even the nonlinear Burger remainder - and the
    whole solve stays a single linear pass: one interpolation solve for
    alpha, one collocation solve for lambda.

    Raises
    ------
    UnsupportedConfigurationError
        If rho is linear and the knots are fewer than three or on one line.
    SingularMatrixError
        Propagated from either dense solve.
    """
    knots = ellipse_knots(problem.ellipse, n_knots)
    u_bc = np.array([problem.dirichlet(k.position) for k in knots], dtype=float)
    return _solve(problem, knots, (), u_bc, [])


def solve_mixed_linear(
    problem: ProblemSpec,
    boundary_knots: Sequence[BoundaryKnot],
    interior_points: Sequence[Point] = (),
    bc: Sequence[BoundaryCondition] | None = None,
) -> tuple[BkmSolution, Diagnostics]:
    """Solve for mixed Dirichlet/Neumann boundaries and interior knots.

    Each Dirichlet knot contributes a value row and each Neumann knot a
    flux row.  u at the Neumann and interior knots is not an unknown of
    its own: it is substituted by its representation v + u_p, which the
    linear rho term folds into the particular solution's system, so there
    is no iteration.  ``interior_u`` of the solution holds that
    representation at the interior knots.

    When ``bc`` is omitted, every knot gets a Dirichlet condition from the
    problem's boundary data.  With no Neumann knots and no interior points
    this is exactly the boundary-only solve.

    Raises
    ------
    UnsupportedConfigurationError
        If the problem's rho is not linear (zero/identity/scaled_identity),
        or if the points that carry its linear tail are fewer than three or
        on one line: all points, or only the Dirichlet knots when
        rho{u} = k^2 u.
    ValueError
        If an interior point lies outside the ellipse (level function above
        1 + 1e-12), a coordinate is not finite or not below 1e150 in
        magnitude, or a Neumann knot's normal is not finite or its length
        is not within 1e-9 of 1 (Dirichlet knots' normals are not used).
    SingularMatrixError
        Propagated if either dense system is singular.
    """
    if problem.rho.linear_scale is None:
        raise UnsupportedConfigurationError(
            f"coupled solve needs a linear rho term, got {problem.rho.kind!r}; "
            f"use solve_boundary_only with full Dirichlet data instead"
        )
    knots = tuple(boundary_knots)
    if bc is None:
        bc = [BoundaryCondition("dirichlet", problem.dirichlet(k.position)) for k in knots]
    if len(bc) != len(knots):
        raise ValueError(f"expected {len(knots)} boundary conditions, got {len(bc)}")
    values = np.array([cond.value for cond in bc], dtype=float)
    neumann = [i for i, cond in enumerate(bc) if cond.kind == "neumann"]
    return _solve(problem, knots, interior_points, values, neumann)


def _eval_rows(m: int) -> int:
    """Points per block of ``evaluate`` for m knots.

    With few knots, _EVAL_BLOCK points make each numpy pass so short that
    its per-call overhead rivals its work.
    """
    return max(_EVAL_BLOCK, _EVAL_ENTRIES // m)


def evaluate(sol: BkmSolution, points) -> np.ndarray:
    """Evaluate u = v + u_p = sum_k lambda_k kernel(||x - x_k||) + u_p(x).

    ``points`` is a sequence of ``Point`` or an (n, 2) coordinate array.
    The points are taken in blocks of b = max(256, 16384 // m) points, m
    being the knots of the block's matrices (``_eval_rows``): about 16k
    entries up to 64 knots, 256 points beyond.  The matrices stay the same
    size however many points there are.

    Each block has one (m, b) matrix of squared distances from the
    expansion's knots, on which both kernels are evaluated with no square
    root; every numpy pass runs along a row of b points, and the field is
    summed as lam @ J0 + alpha @ phi_hat.  ``_solve`` puts the
    collocation knots first among the knots, so v reads the first
    ``len(sol.knots)`` rows and u_p all of them.  A solution whose
    expansion does not start with its collocation knots gets them
    prepended as extra rows of the same matrix.  Points that fail
    ``checked_xy`` (not (n, 2) and real, or a coordinate that is not finite
    or whose square would overflow) raise ValueError.
    """
    xy = checked_xy(points, "evaluation points")
    n = len(sol.knots)
    knot_xy = as_xy([knot.position for knot in sol.knots])
    sources = as_xy(sol.expansion.knots)
    first_drm = 0
    if not np.array_equal(sources[:n], knot_xy):
        sources = np.concatenate([knot_xy, sources])
        first_drm = n
    out = np.empty(len(xy))
    rows = _eval_rows(len(sources))
    for start in range(0, len(xy), rows):
        block = xy[start : start + rows]
        sq_distances = squared_distances(sources, block)
        u = u_p_from_distances(sol.expansion, sq_distances[first_drm:], block)
        u += sol.lam @ sol.kernel.eval_sq(sq_distances[:n])
        out[start : start + len(block)] = u
    return out

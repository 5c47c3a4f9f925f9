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
their interpolation rows into PDE collocation rows.  There is no
iteration: where rho{u} = s u (s != 0) carries lambda into those rows, the
particular solution and lambda come from one block system; otherwise from
one interpolation/PDE solve and then one collocation solve for lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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
from .linalg import cond_estimate_1norm, lu_solve
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
    """Conditioning and residual of the dense solves.

    ``cond_interp`` and ``cond_bkm`` are exact 1-norm condition numbers,
    ||A||_1 ||A^-1||_1, of the matrices kept as ``interp_matrix`` and
    ``bkm_matrix``.  A solve forms no A^-1 for them, so each is computed
    when first read, by one more factorization of its matrix
    (``linalg.cond_estimate_1norm``), and then kept; a read never raises.
    The matrices stay alive as long as this object does.  ``==`` and
    ``repr`` mean the three numbers.

    A solve with unknown u (Neumann or interior knots) and rho{u} = s u,
    s != 0, is coupled: c and lambda come from one (m + 3 + n) block
    system (see ``_solve``).  Both readings are then its kappa_1, computed
    once, and ``residual_inf`` is its max-norm residual.  Every other
    solve is two solves in turn: ``cond_interp`` is that of the DRM
    matrix (bordered with the linear tail for a linear rho kind, bare for
    Burger), ``cond_bkm`` that of the n x n collocation matrix for lambda,
    and ``residual_inf`` the max-norm residual of the lambda solve.
    Burger's DRM solve is a 2n block system with A_phi on its diagonal
    (``drm.burger_alpha``); ``cond_interp`` stays that of A_phi.

    ``residual_inf`` is unscaled, about eps ||A|| ||x||, and does not
    track the error: 1e-15 to 1e-14 on the c = 25 Laplace Neumann and
    interior solves, whose error is at round-off, and 1.7e-7 on the
    coupled rho = identity manufactured solve with 20 + 93 knots, whose
    error is 4.1e-7.  No check should read it as an accuracy measure.
    """

    residual_inf: float
    interp_matrix: np.ndarray = field(repr=False, compare=False)
    bkm_matrix: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def cond_bkm(self) -> float:
        return cond_estimate_1norm(self.bkm_matrix)

    @cached_property
    def cond_interp(self) -> float:
        if self.interp_matrix is self.bkm_matrix:
            return self.cond_bkm
        return cond_estimate_1norm(self.interp_matrix)

    def _numbers(self) -> tuple[float, float, float]:
        return self.cond_interp, self.cond_bkm, self.residual_inf

    def __eq__(self, other) -> bool:
        return isinstance(other, Diagnostics) and self._numbers() == other._numbers()

    def __repr__(self) -> str:
        return "Diagnostics(cond_interp={!r}, cond_bkm={!r}, residual_inf={!r})".format(*self._numbers())


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
    neumann = [i for i, cond in enumerate(bc) if cond.kind == "neumann"]
    return _boundary_rows(knots, neumann, positions, distances, (kernel, kernel.eval(distances)))[0][0]


def _boundary_rows(knots, neumann, xy, distances, *blocks):
    """Each block's rows at the boundary knots, in knot order, and the
    Neumann knots' unit normals (None without Neumann knots).

    A block (kernel, values) holds the kernel centred at the first points
    of ``xy`` (one column each; any further columns are the caller's),
    evaluated at the points of ``xy`` (one row each; ``knots`` lead).  A
    Dirichlet knot keeps its value row and a Neumann knot gets the
    kernel's normal derivative instead, in a copy: ``values`` is not
    written, and without Neumann knots the rows are views of it.
    """
    n = len(knots)
    if not neumann:
        return [values[:n] for _, values in blocks], None
    projections, normals = normal_projections([knots[i] for i in neumann], xy)
    out = [values[:n].copy() for _, values in blocks]
    for rows, (kernel, values) in zip(out, blocks):
        k = min(values.shape[1], len(xy))
        rows[neumann, :k] = directional_derivative(kernel, distances[neumann, :k], projections[:, :k])
    return out, normals


def _spans_plane(xy: np.ndarray) -> bool:
    """Whether the points are not all on one line (and at least three)."""
    if len(xy) < 3:
        return False
    dx, dy = (xy - xy[0]).T
    far = (dx * dx + dy * dy).argmax()  # the first farthest point
    # (x - x0, y - y0) . normal is |normal| times (x, y)'s distance from the
    # line through point 0 and the point farthest from it.
    nx, ny = float(dy[far]), -float(dx[far])
    tol = 1e-12 * (nx * nx + ny * ny)
    return bool(np.maximum.reduce(abs(dx * nx + dy * ny)) > tol)


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
    """u_p's coefficients c = (alpha, beta) and lambda, for both entry points.

    ``values`` holds each knot's boundary value, a flux at the knots listed
    in ``neumann``.

    u_p = rep @ c sums phi_hat over the boundary and interior knots, plus
    the tail beta . (1, x, y) / k^2 for a linear rho kind.  Burger keeps
    the bare interpolant: with the tail its paper table error rises from
    5.0e-2 to 7.2e-2.  Each point has a DRM row [A_phi | P] c = f + rho{u},
    and the moment rows P^T alpha = 0 close the system.  Where u is known
    (Dirichlet knots) rho{u} goes to the right-hand side: s u for a linear
    kind.  Burger's u - u_x u reads u_x off the interpolant of u, whose
    coefficients are solved together with c in one block system
    (``drm.burger_alpha``).  Where u is not known (Neumann and interior
    knots), u = v + u_p and rho{u} = s u turn the row into a PDE
    collocation row, ([A_phi | P] - s rep) c - s J lambda = f.  The
    boundary rows (value or flux of v + u_p) close the system:

        [[system, -s J_unknown], [bc_rep, bc_lam]] (c, lambda) = (rhs, values),

    where the unknown points' rows of system hold [A_phi | P] - s rep and
    J_unknown is zero outside those rows.  With s != 0 and u unknown
    somewhere, this whole (m + 3 + n) system is solved at once, one
    factorization for c and lambda together.  Otherwise its top right
    block is zero: c solves the DRM system on its own, and lambda then the
    boundary rows, which is that block-triangular system's exact solve.
    ``Diagnostics`` says which matrix each reading is of.

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
    # At every point v = j_values @ lam and u_p = rep @ c.  J0 from r^2 skips
    # eval's checks; at wavenumber 1 its values are eval's, bit for bit.
    j_values = kernel.eval_sq(np.square(distances[:, :n]))
    rep = pair.phi_hat.eval(distances)
    system = a_phi
    # rho{u} = scale (v + u_p) at the unknown points puts lam in their DRM rows.
    coupled = bool(unknown) and bool(scale)
    if scale is None:
        # Burger: u is known at every point, and one block system gives both
        # its interpolant (for u_x) and c.
        c = burger_alpha(pair, xy, distances, a_phi, rhs, known_u)
    else:
        system = bordered_matrix(a_phi, xy)
        rep = np.concatenate([rep, system[:m, m:] / pair.wavenumber**2], axis=1)
        rhs = np.concatenate([rhs + scale * known_u, np.zeros(3)])
        if not coupled:
            c = lu_solve(system, rhs)

    # One row per boundary knot, in knot order: u = v + u_p at a Dirichlet
    # knot, its normal derivative at a Neumann knot.
    blocks = (kernel, j_values), (pair.phi_hat, rep)
    (bc_lam, bc_rep), normals = _boundary_rows(knots, neumann, xy, distances, *blocks)
    if neumann:
        # The tail's gradient is (beta_x, beta_y) / k^2.
        bc_rep[neumann, m] = 0.0
        bc_rep[neumann, m + 1 :] = normals / pair.wavenumber**2
    if coupled:
        # [[system, 0], [bc_rep, bc_lam]] (c, lam) = (rhs, values), with
        # system - scale rep and -scale J in the unknown points' rows.
        matrix = np.block([[system, np.zeros((m + 3, n))], [bc_rep, bc_lam]])
        matrix[unknown] -= scale * np.concatenate([rep[unknown], j_values[unknown]], axis=1)
        target = np.concatenate([rhs, values])
    else:
        matrix, target = bc_lam, values - bc_rep @ c
    x = lu_solve(matrix, target)
    c, lam = (x[: m + 3], x[m + 3 :]) if coupled else (c, x)
    residual = float(np.maximum.reduce(np.abs(matrix @ x - target)))
    diagnostics = Diagnostics(residual, matrix if coupled else system, matrix)

    tail = c[m:] / pair.wavenumber**2 if scale is not None else None
    expansion = DrmExpansion(points, pair, c[:m], tail)
    interior_u = j_values[n:] @ lam + rep[n:] @ c if m > n else None
    return BkmSolution(lam, expansion, kernel, knots, interior_u), diagnostics


def solve_boundary_only(
    problem: ProblemSpec, n_knots: int
) -> tuple[BkmSolution, Diagnostics]:
    """Solve with Dirichlet data at every boundary knot and no interior knots.

    Because u is known on the whole collocation set, the rho term is
    evaluated explicitly - even the nonlinear Burger remainder - and the
    whole solve stays a single linear pass: one DRM solve for alpha (for
    Burger, one block system that also gives u's interpolant), one
    collocation solve for lambda.

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

    With such knots and rho{u} = s u, s != 0, lambda and the particular
    solution come from one (m + 3 + n) block system, m counting boundary
    and interior knots, and ``Diagnostics`` report that matrix's kappa_1
    as both ``cond_interp`` and ``cond_bkm``, and its residual.  With
    s = 0 the two systems are solved in turn, as in the boundary-only
    solve.

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
        If there is no boundary knot, an interior point lies outside the
        ellipse (level function above 1 + 1e-12), a coordinate is not finite
        or not below 1e150 in magnitude, or a Neumann knot's normal is not
        finite or its length is not within 1e-9 of 1 (Dirichlet knots'
        normals are not used).
    SingularMatrixError
        Propagated if either dense system is singular.
    """
    if problem.rho.linear_scale is None:
        raise UnsupportedConfigurationError(
            f"coupled solve needs a linear rho term, got {problem.rho.kind!r}; "
            f"use solve_boundary_only with full Dirichlet data instead"
        )
    knots = tuple(boundary_knots)
    if not knots:
        raise ValueError("at least one boundary knot is required")
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
    expansion's knots, on which both kernels are evaluated through
    ``eval_sq`` (with no square root for J0 and the multiquadric phi_hat);
    every numpy pass runs along a row of b points, and the field is
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
    positions = [knot.position for knot in sol.knots]
    sources = as_xy(sol.expansion.knots)
    first_drm = 0 if list(map(tuple, sources[:n].tolist())) == positions else n
    if first_drm:
        sources = np.concatenate([as_xy(positions), sources])
    out = np.empty(len(xy))
    rows = _eval_rows(len(sources))
    for start in range(0, len(xy), rows):
        block = xy[start : start + rows]
        sq_distances = squared_distances(sources, block)
        u = u_p_from_distances(sol.expansion, sq_distances[first_drm:], block)
        u += sol.lam @ sol.kernel.eval_sq(sq_distances[:n])
        out[start : start + len(block)] = u
    return out

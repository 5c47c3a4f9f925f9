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
    """Collocation coefficients plus the particular-solution expansion;
    ``evaluate`` reads u = v + u_p back from them, at the knots too."""

    lam: np.ndarray
    expansion: DrmExpansion
    kernel: RadialKernel
    knots: tuple[BoundaryKnot, ...]


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
    derivatives (Neumann) of the kernel centered at each knot, admitted and
    evaluated from r^2 as ``_solve`` does, so that it is the solve's bit
    for bit.

    Raises
    ------
    ValueError
        If bc does not match the knots, they fail ``drm.knot_distances`` or
        a Neumann knot's normal is not a finite unit vector.
    """
    if len(bc) != len(knots):
        raise ValueError(f"expected {len(knots)} boundary conditions, got {len(bc)}")
    xy = as_xy([k.position for k in knots])
    sq_distances = np.square(knot_distances(xy))
    neumann = [i for i, cond in enumerate(bc) if cond.kind == "neumann"]
    matrix = kernel.eval_sq(sq_distances)
    if neumann:
        projections, _ = normal_projections(knots, neumann, xy)
        matrix[neumann] = directional_derivative(kernel, sq_distances[neumann], projections)
    return matrix


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
    the tail beta . (1, x, y) for a linear rho kind.  Burger keeps the
    bare interpolant: with the tail its paper table error rises from 5.0e-2
    to 7.2e-2.  Each point has a DRM row [A_phi | k^2 P] c = f + rho{u},
    k^2 P being the image of the tail P = (1, x, y) under lap + k^2, and
    the moment rows P^T alpha = 0, whose transpose is rep's tail, close
    the system.  Where u is known (Dirichlet knots) rho{u} goes to the
    right-hand side: s u for a linear kind.  Burger's u - u_x u reads u_x
    off the interpolant of u, whose coefficients are solved together with c
    in one block system (``drm.burger_alpha``).  Where u is not known
    (Neumann and interior knots), u = v + u_p and rho{u} = s u turn the row
    into a PDE collocation row, ([A_phi | k^2 P] - s rep) c - s J lambda = f,
    [rep | J] being u's rows, written once with one column per entry of
    (c, lambda).  The boundary rows (those rows, or their flux at Neumann
    knots) close the system:

        [[system, -s J_unknown], [bc_rep, bc_lam]] (c, lambda) = (rhs, values),

    where the unknown points' rows of system hold [A_phi | k^2 P] - s rep
    and J_unknown is zero outside those rows.  With s != 0 and u unknown
    somewhere, this whole (m + 3 + n) system is solved at once, one
    factorization for c and lambda together, and it is written in place
    into one matrix (``drm.bordered_matrix`` of that order).  Otherwise
    its top right block is zero: c solves the DRM system on its own, and
    lambda then the boundary rows, which is that block-triangular system's
    exact solve.  ``Diagnostics`` says which matrix each reading is of.

    One all-points distance matrix is admitted (``drm.knot_distances``)
    and squared, and every kernel block comes from that r^2 alone: A_phi
    (phi), v's J0 and u_p's phi_hat values, and at Neumann knots the flux
    rows of J0 and phi_hat (``kernels.directional_derivative``), none of
    them with a division by r; Burger's D_x too (``drm.burger_alpha``).
    Interior pairs or array rows reach the forcing and u_p as ``Point``s.
    """
    knots = tuple(knots)
    n = len(knots)
    positions = tuple(k.position for k in knots)
    xy = as_xy(positions + tuple(interior))
    distances = knot_distances(xy)
    m = len(xy)
    points = positions
    if m > n:
        _check_inside(problem.ellipse, xy[n:])
        points += tuple(map(Point._make, xy[n:].tolist()))
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
    if neumann:
        known_u[neumann] = 0.0

    rhs = np.array([problem.forcing(p) for p in points], dtype=float)
    # At every point v = j_values @ lam and u_p = rep @ c, both from r^2 (J0's
    # skips eval's checks; at wavenumber 1 its values are eval's, bit for bit).
    sq_distances = np.square(distances)
    # J0's sources are the boundary knots: their columns, contiguous for the
    # polynomial's passes.
    knot_sq = np.ascontiguousarray(sq_distances[:, :n])
    j_values = kernel.eval_sq(knot_sq)
    rep = pair.phi_hat.eval_sq(sq_distances)
    # rho{u} = scale (v + u_p) at the unknown points puts lam in their DRM rows.
    coupled = bool(unknown) and bool(scale)
    if scale is None:
        # Burger: u is known at every point (all Dirichlet knots), and one
        # block system gives both its interpolant (for u_x) and c.
        system = pair.phi.eval_sq(sq_distances)
        c = burger_alpha(pair, xy, sq_distances, system, rhs, known_u)
        matrix, target = j_values, values - rep @ c
    else:
        # [[system, 0], [bc_rep, bc_lam]] in one matrix when coupled: the
        # bordered system, then one row per boundary knot, in knot order.
        order = m + 3 + n if coupled else m + 3
        system = bordered_matrix(pair, sq_distances, xy, order)
        # u = v + u_p at every point; u_p's tail (1, x, y) is the moment rows.
        rows = np.concatenate((rep, system[m : m + 3, :m].T, j_values), axis=1)
        target = np.zeros(order)
        target[:m] = rhs + problem.rho(known_u)
        # u at a Dirichlet knot, its normal derivative at a Neumann knot.
        bc = system[m + 3 :] if coupled else np.empty((n, m + 3 + n))
        bc[...] = rows[:n]
        if neumann:
            proj, normals = normal_projections(knots, neumann, xy)
            bc[neumann, :m] = directional_derivative(pair.phi_hat, sq_distances[neumann], proj)
            # The tail's gradient is (beta_x, beta_y).
            bc[neumann, m] = 0.0
            bc[neumann, m + 1 : m + 3] = normals
            bc[neumann, m + 3 :] = directional_derivative(kernel, knot_sq[neumann], proj[:, :n])
        if coupled:
            # rho{u} = scale rows @ x moves into the unknown points' rows.
            target[m + 3 :] = values
            system[unknown] -= scale * rows[unknown]
            matrix = system
        else:
            c = lu_solve(system, target)
            matrix, target = bc[:, m + 3 :], values - bc[:, : m + 3] @ c
    x = lu_solve(matrix, target)
    c, lam = (x[: m + 3], x[m + 3 :]) if coupled else (c, x)
    residual = float(np.maximum.reduce(np.abs(matrix @ x - target)))
    diagnostics = Diagnostics(residual, system, matrix)

    tail = c[m:] if scale is not None else None
    expansion = DrmExpansion(points, pair, c[:m], tail)
    return BkmSolution(lam, expansion, kernel, knots), diagnostics


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
    is no iteration.  ``evaluate(sol, interior_points)`` reads that
    representation back at the interior knots.

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

    ``points`` is a sequence of ``Point`` or an (n, 2) coordinate array,
    taken in blocks of b = max(256, 16384 // m) points for m knots
    (``_eval_rows``).  Each block works in one 2m x b array, allocated once
    per call: the squared distances from the expansion's knots
    (``squared_distances``) fill its first m rows, J0 and then phi_hat
    (``eval_sq``) its other m.  phi_hat's s = r^2 + c^2 takes over the rows
    of r^2, so the solution's kernel must leave them intact, as J0 and
    eval(sqrt(t)) do.  The field is alpha @ phi_hat + tail + lam @ J0.
    ``_solve`` puts the collocation knots first among the knots, so v reads
    the first ``len(sol.knots)`` rows and u_p all of them; otherwise they
    are prepended as extra rows.  Points that fail ``checked_xy`` (not
    (n, 2) and real, or a coordinate that is not finite or whose square
    would overflow) raise ValueError.
    """
    xy = checked_xy(points, "evaluation points")
    n = len(sol.knots)
    positions = tuple(knot.position for knot in sol.knots)
    first_drm = 0 if sol.expansion.knots[:n] == positions else n
    sources = as_xy(sol.expansion.knots)
    if first_drm:
        sources = np.concatenate([as_xy(positions), sources])
    m = len(sources)
    rows = _eval_rows(m)
    # Freed below the ``out`` the caller keeps, the work array stays in the
    # heap: glibc does not trim it and fault its pages back in next call.
    work = np.empty(2 * m * min(rows, len(xy)))
    out = np.empty(len(xy))
    for start in range(0, len(xy), rows):
        block = xy[start : start + rows]
        b = len(block)
        scratch = work[: 2 * m * b].reshape(2 * m, b)
        sq_distances = squared_distances(sources, block, scratch)
        v = sol.lam @ sol.kernel.eval_sq(sq_distances[:n], scratch[m : m + n])
        u = out[start : start + b]
        u_p_from_distances(sol.expansion, sq_distances[first_drm:], block, u, scratch[m + first_drm :])
        u += v
    return out

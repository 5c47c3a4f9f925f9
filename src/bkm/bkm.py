"""The boundary knot method proper.

The homogeneous part v is collocated on translates of the non-singular
general solution of the split operator (J0 for the Helmholtz split used
by every built-in problem); the dual-reciprocity particular solution u_p
absorbs the inhomogeneous term; the full field is u = v + u_p, evaluable
anywhere without meshes or integrals.

Two drivers are provided.  ``solve_boundary_only`` needs Dirichlet data at
every knot, which keeps even a nonlinear remaining operator explicit - one
interpolation solve plus one collocation solve, no iteration.  For linear
remaining operators, ``solve_mixed_linear`` couples the collocation rows
with the particular solution's dependence on the unknown boundary/interior
values and solves once for coefficients and unknown u values together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .drm import (
    DrmExpansion,
    knot_distances,
    normal_projections,
    solve_alpha_from_distances,
    u_p_from_distances,
)
from .geometry import (
    BoundaryKnot,
    Point,
    as_xy,
    coincident_pair,
    distance_matrix,
    ellipse_knots,
)
from .kernels import RadialKernel, directional_derivative, helmholtz2d, mq_pair
from .linalg import cond_1norm, solve_and_invert
from .problems import ProblemSpec

__all__ = [
    "UnsupportedConfigurationError",
    "BoundaryCondition",
    "BkmSolution",
    "Diagnostics",
    "assemble_bkm_matrix",
    "solve_boundary_only",
    "solve_mixed_linear",
    "evaluate",
]

_BC_KINDS = ("dirichlet", "neumann")

# Linear rho kinds expressible as a scalar multiple of u; these are the
# only ones a coupled (mixed/interior) solve can fold into the matrix.
_LINEAR_RHO_SCALE = {"zero": 0.0, "identity": 1.0, "scaled_identity": None}

# Evaluation points per block in ``evaluate``: its kernel matrices have
# this many rows whatever the number of points, so memory stays flat.
_EVAL_BLOCK = 256


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
    twice.  ``cond_interp`` is that of the DRM interpolation matrix that
    was solved: the bordered matrix with the linear tail for the
    boundary-only solve of a linear rho kind, and the bare A_phi
    otherwise.  ``cond_bkm`` is that of the collocation matrix: J0 alone
    for an all-Dirichlet solve, the coupled (lambda, w) system otherwise.
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
        If knots (nearly) coincide or bc does not match the knots.
    """
    n = len(knots)
    if n < 1:
        raise ValueError("at least one boundary knot is required")
    if len(bc) != n:
        raise ValueError(f"expected {n} boundary conditions, got {len(bc)}")
    positions = as_xy([k.position for k in knots])
    distances = distance_matrix(positions, positions)
    pair = coincident_pair(distances, 1e-12)
    if pair is not None:
        raise ValueError(f"duplicate boundary knots at indices {pair[0]} and {pair[1]}")
    a = kernel.eval(distances)
    neumann = [i for i, cond in enumerate(bc) if cond.kind == "neumann"]
    if neumann:
        projections = normal_projections([knots[i] for i in neumann], positions)
        a[neumann] = directional_derivative(kernel, distances[neumann], projections)
    return a


def _dirichlet_path(
    problem: ProblemSpec, knots: Sequence[BoundaryKnot], u_bc: np.ndarray
) -> tuple[BkmSolution, Diagnostics]:
    """Shared all-Dirichlet pipeline: DRM expansion, then one collocation solve.

    For the linear rho kinds the DRM interpolant carries a linear tail
    (see ``drm``), which keeps it well posed where the bare multiquadric
    interpolant on the ellipse's knots is nearly singular (Laplace and
    Helmholtz at n = 9).  The Burger kind keeps the bare interpolant: with
    the tail its paper table error rises from 5.0e-2 to 7.2e-2.

    One knot-to-knot distance matrix feeds every matrix of the solve: the
    interpolation matrix (solved, and reported as ``cond_interp``), the
    J0 collocation matrix and u_p at the knots.
    """
    knots = tuple(knots)
    positions = tuple(k.position for k in knots)
    pair = mq_pair(problem.mq_shape_c, problem.split_wavenumber)
    kernel = helmholtz2d(problem.split_wavenumber)
    f = np.array([problem.forcing(p) for p in positions], dtype=float)
    linear_tail = problem.rho.kind in _LINEAR_RHO_SCALE
    xy = as_xy(positions)
    distances = knot_distances(xy)
    expansion, cond_interp = solve_alpha_from_distances(
        positions, distances, pair, f, problem.rho, u_bc, linear_tail=linear_tail
    )
    # Every knot is a Dirichlet knot, so the collocation matrix is J0 alone.
    a = kernel.eval(distances)
    rhs = u_bc - u_p_from_distances(expansion, distances, xy)
    lam, a_inv = solve_and_invert(a, rhs)
    diagnostics = Diagnostics(
        cond_interp=cond_interp,
        cond_bkm=cond_1norm(a, a_inv),
        residual_inf=float(np.abs(a @ lam - rhs).max()),
    )
    return BkmSolution(lam, expansion, kernel, knots), diagnostics


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
    SingularMatrixError
        Propagated from either dense solve.
    """
    knots = ellipse_knots(problem.ellipse, n_knots)
    u_bc = np.array([problem.dirichlet(k.position) for k in knots], dtype=float)
    return _dirichlet_path(problem, knots, u_bc)


def solve_mixed_linear(
    problem: ProblemSpec,
    boundary_knots: Sequence[BoundaryKnot],
    interior_points: Sequence[Point] = (),
    bc: Sequence[BoundaryCondition] | None = None,
) -> tuple[BkmSolution, Diagnostics]:
    """Coupled solve for mixed Dirichlet/Neumann boundaries and interior knots.

    Unknowns are ordered lambda first, then u at the non-Dirichlet boundary
    knots (in knot order), then u at interior knots, so the all-Dirichlet
    block coincides with the boundary-only matrix.  Each Dirichlet knot
    contributes a value row, each Neumann knot a flux row plus a
    representation-consistency row tying its unknown u to v + u_p, and each
    interior knot a representation row; the particular solution's linear
    dependence on the unknown u values is folded into the matrix, so there
    is no iteration.

    When ``bc`` is omitted, every knot gets a Dirichlet condition from the
    problem's boundary data.  With no Neumann knots and no interior points
    this reduces exactly to the boundary-only pipeline.

    Raises
    ------
    UnsupportedConfigurationError
        If the problem's rho is not linear (zero/identity/scaled_identity).
    SingularMatrixError
        Propagated if the coupled system is singular.
    """
    if problem.rho.kind not in _LINEAR_RHO_SCALE:
        raise UnsupportedConfigurationError(
            f"coupled solve needs a linear rho term, got {problem.rho.kind!r}; "
            f"use solve_boundary_only with full Dirichlet data instead"
        )
    knots = tuple(boundary_knots)
    interior = tuple(interior_points)
    if bc is None:
        bc = [BoundaryCondition("dirichlet", problem.dirichlet(k.position)) for k in knots]
    bc = list(bc)
    if len(bc) != len(knots):
        raise ValueError(f"expected {len(knots)} boundary conditions, got {len(bc)}")

    unknown_idx = [i for i, cond in enumerate(bc) if cond.kind == "neumann"]
    if not unknown_idx and not interior:
        u_bc = np.array([cond.value for cond in bc], dtype=float)
        return _dirichlet_path(problem, knots, u_bc)

    n = len(knots)
    n_unknown = len(unknown_idx)
    n_int = len(interior)
    positions = [k.position for k in knots]
    all_points = positions + list(interior)
    all_xy = as_xy(all_points)
    pair = mq_pair(problem.mq_shape_c, problem.split_wavenumber)
    kernel = helmholtz2d(problem.split_wavenumber)

    rho_scale = _LINEAR_RHO_SCALE[problem.rho.kind]
    if rho_scale is None:
        rho_scale = problem.rho.scale

    # u over all points is affine in the unknown vector w: u = d + P w,
    # with w the u values at the Neumann knots, then at the interior knots,
    # and P the selection of the points ``unknown_points``.
    values = np.array([cond.value for cond in bc], dtype=float)
    unknown_points = unknown_idx + list(range(n, n + n_int))
    d = np.zeros(n + n_int)
    d[:n] = values
    d[unknown_idx] = 0.0

    # One all-points distance matrix feeds A_phi, the u_p rows and the J0 rows.
    distances = knot_distances(all_xy)
    # alpha = A_phi^-1 (f + rho_scale u) = alpha0 + K w.  One factorization
    # gives alpha0 and A_phi^-1; K = rho_scale A_phi^-1 P is a column gather.
    a_phi = pair.phi.eval(distances)
    f = np.array([problem.forcing(p) for p in all_points], dtype=float)
    alpha0, a_phi_inv = solve_and_invert(a_phi, f + rho_scale * d)
    alpha_of_w = rho_scale * a_phi_inv[:, unknown_points]

    # v and u_p at every point, as affine functions of (lambda, w).
    j_rows = kernel.eval(distances[:, :n])
    phi_rows = pair.phi_hat.eval(distances)
    u_p_of_w = phi_rows @ alpha_of_w
    u_p0 = phi_rows @ alpha0

    # One row per boundary knot, in knot order: a value row at a Dirichlet
    # knot, a flux row at a Neumann knot, read off the same distances.
    bc_lam = j_rows[:n].copy()
    bc_w = u_p_of_w[:n].copy()
    bc_rhs = values - u_p0[:n]
    if unknown_idx:
        rows = distances[unknown_idx]
        projections = normal_projections([knots[i] for i in unknown_idx], all_xy)
        dphi = directional_derivative(pair.phi_hat, rows, projections)
        bc_lam[unknown_idx] = directional_derivative(kernel, rows[:, :n], projections[:, :n])
        bc_w[unknown_idx] = dphi @ alpha_of_w
        bc_rhs[unknown_idx] = values[unknown_idx] - dphi @ alpha0
    # Representation consistency closes the system: u at each unknown point
    # must equal v + u_p there.
    rep_w = u_p_of_w[unknown_points]
    rep_w -= np.eye(n_unknown + n_int)
    system = np.block([[bc_lam, bc_w], [j_rows[unknown_points], rep_w]])
    rhs = np.concatenate([bc_rhs, -u_p0[unknown_points]])

    solution, system_inv = solve_and_invert(system, rhs)
    lam = solution[:n]
    w = solution[n:]
    alpha = alpha0 + alpha_of_w @ w
    expansion = DrmExpansion(tuple(all_points), pair, alpha)
    interior_u = w[n_unknown:].copy() if n_int else None
    diagnostics = Diagnostics(
        cond_interp=cond_1norm(a_phi, a_phi_inv),
        cond_bkm=cond_1norm(system, system_inv),
        residual_inf=float(np.abs(system @ solution - rhs).max()),
    )
    return BkmSolution(lam, expansion, kernel, knots, interior_u), diagnostics


def evaluate(sol: BkmSolution, points) -> np.ndarray:
    """Evaluate u = v + u_p = sum_k lambda_k kernel(||x - x_k||) + u_p(x).

    ``points`` is a sequence of ``Point`` or an (n, 2) coordinate array.
    The points are taken in blocks of ``_EVAL_BLOCK`` rows, so the kernel
    matrices stay the same size however many points there are.

    Each block has one distance matrix, to the expansion's knots: both
    drivers put the collocation knots first among them, so v reads its
    first ``len(sol.knots)`` columns and u_p all of them.  A solution
    whose expansion does not start with its collocation knots gets them
    prepended as extra columns of the same matrix.
    """
    xy = as_xy(points)
    n = len(sol.knots)
    knot_xy = as_xy([knot.position for knot in sol.knots])
    sources = as_xy(sol.expansion.knots)
    first_drm = 0
    if not np.array_equal(sources[:n], knot_xy):
        sources = np.concatenate([knot_xy, sources])
        first_drm = n
    out = np.empty(len(xy))
    for start in range(0, len(xy), _EVAL_BLOCK):
        block = xy[start : start + _EVAL_BLOCK]
        distances = distance_matrix(block, sources)
        v = sol.kernel.eval(distances[:, :n]) @ sol.lam
        u_p = u_p_from_distances(sol.expansion, distances[:, first_drm:], block)
        out[start : start + len(block)] = v + u_p
    return out

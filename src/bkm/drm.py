"""Dual-reciprocity particular solutions.

The inhomogeneous term f + rho{u} is interpolated at the knots with the
operator image ``phi`` of a kernel pair; the same coefficients alpha then
sum the approximate particular solutions ``phi_hat``, so that applying the
operator to u_p reproduces the interpolant exactly at the knots.  The
module also hosts the rho pathways (how the remaining operator acts on an
interpolant of u) and a constrained RBF interpolation driver used with
kernels that need a side condition.

The multiquadric image phi = s^3 + 9s - 3c^2/s (s = sqrt(r^2 + c^2)) is
not positive definite: its leading part s^3 is conditionally positive
definite of order 2, so its interpolant is well posed only with a linear
tail p = beta . (1, x, y) and the moment conditions P^T alpha = 0.
``solve_alpha(..., linear_tail=True)`` solves that bordered system.  For
linear p, (lap + k^2){p / k^2} = p with k the pair's wavenumber, so p / k^2
enters u_p.

Point arguments are sequences of ``Point`` or (n, 2) coordinate arrays.
A knot set's distance matrix (``knot_distances``) is computed once per
solve and every matrix over the set is one kernel call on it:
``rho_from_distances`` takes it with the caller's A_phi, so the Burger
rho term's interpolation reuses the A_phi of the alpha solve, and
``bordered_matrix`` borders that A_phi with the linear tail;
``u_p_from_distances`` sums u_p from squared distances the caller already
holds, and ``normal_projections`` with rows of a distance matrix gives a
Neumann knot's flux row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Point, as_xy, coincident_pair, distance_matrix, squared_distances
from .kernels import KernelPair, RadialKernel, directional_derivative
from .linalg import lu_solve

__all__ = [
    "RhoSpec",
    "DrmExpansion",
    "RbfInterpolant",
    "knot_distances",
    "interp_matrix",
    "bordered_interp_matrix",
    "bordered_matrix",
    "particular_matrix",
    "rho_matrix",
    "rho_from_distances",
    "solve_alpha",
    "u_p_at",
    "u_p_from_distances",
    "u_p_normal_at",
    "normal_matrix",
    "normal_projections",
    "rbf_interpolate",
]

_RHO_KINDS = ("zero", "identity", "scaled_identity", "burger")

# Radial interpolation matrices are exactly rank-deficient under repeated
# knots, so near-coincident knots are rejected outright.
_DUPLICATE_TOL = 1e-12


@dataclass(frozen=True)
class RhoSpec:
    """The remaining operator rho{u} after the split L{u} = f + rho{u}.

    ``zero`` drops the term, ``identity`` keeps u itself,
    ``scaled_identity`` keeps scale*u, and ``burger`` keeps u - u_x * u
    (the nonlinear remainder of the Burger split), evaluated through the
    interpolant of u.
    """

    kind: str
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _RHO_KINDS:
            raise ValueError(f"unknown rho kind {self.kind!r}, expected {_RHO_KINDS}")

    @classmethod
    def zero(cls) -> "RhoSpec":
        return cls("zero")

    @classmethod
    def identity(cls) -> "RhoSpec":
        return cls("identity")

    @classmethod
    def scaled_identity(cls, scale: float) -> "RhoSpec":
        return cls("scaled_identity", float(scale))

    @classmethod
    def burger(cls) -> "RhoSpec":
        return cls("burger")


@dataclass(frozen=True)
class DrmExpansion:
    """Coefficients alpha over a knot set, summing phi_hat into u_p.

    ``tail`` holds the coefficients (beta_0, beta_x, beta_y) of the linear
    term beta_0 + beta_x x + beta_y y added to u_p, or None for no tail;
    these are the interpolant's tail coefficients divided by the pair's
    wavenumber squared.
    """

    knots: tuple[Point, ...]
    pair: KernelPair
    alpha: np.ndarray
    tail: np.ndarray | None = None


def _check_distinct(distances: np.ndarray) -> None:
    pair = coincident_pair(distances, _DUPLICATE_TOL)
    if pair is not None:
        raise ValueError(
            f"duplicate knots at indices {pair[0]} and {pair[1]}: radial interpolation "
            f"matrix would be rank-deficient"
        )


def knot_distances(knots) -> np.ndarray:
    """Distance matrix of a knot set with itself, entries ||x_i - x_j||.

    Raises
    ------
    ValueError
        If no knots are given or two knots (nearly) coincide.
    """
    if len(knots) == 0:
        raise ValueError("at least one knot is required")
    xy = as_xy(knots)
    distances = distance_matrix(xy, xy)
    _check_distinct(distances)
    return distances


def interp_matrix(knots: Sequence[Point], pair: KernelPair) -> np.ndarray:
    """Symmetric interpolation matrix A_phi with entries phi(||x_i - x_j||).

    Raises
    ------
    ValueError
        If no knots are given or two knots (nearly) coincide.
    """
    return pair.phi.eval(knot_distances(knots))


def bordered_interp_matrix(knots: Sequence[Point], pair: KernelPair) -> np.ndarray:
    """Interpolation matrix with a linear tail, [[A_phi, P], [P^T, 0]], P = [1, x, y].

    Raises
    ------
    ValueError
        If no knots are given or two knots (nearly) coincide.
    """
    return bordered_matrix(interp_matrix(knots, pair), knots)


def bordered_matrix(a_phi: np.ndarray, knots) -> np.ndarray:
    """[[A_phi, P], [P^T, 0]] with rows P = (1, x, y) at the knots, from an
    A_phi the caller already holds."""
    xy = as_xy(knots)
    m = len(xy)
    system = np.zeros((m + 3, m + 3))
    system[:m, :m] = a_phi
    system[:m, m] = 1.0
    system[:m, m + 1 :] = xy
    system[m:, :m] = system[:m, m:].T
    return system


def particular_matrix(eval_points, knots, pair: KernelPair) -> np.ndarray:
    """Evaluation matrix phi_hat(||x - x_j||) from squared distances, rows = eval points."""
    return pair.phi_hat.eval_sq(squared_distances(as_xy(eval_points), as_xy(knots)))


def _interpolant_x_derivative(
    xy: np.ndarray, distances: np.ndarray, a_phi: np.ndarray, phi: RadialKernel, u: np.ndarray
) -> np.ndarray:
    """x-derivative at the knots of the phi-interpolant of u: D_x A_phi^-1 u, with
    D_x entries d/dx_i phi(||x_i - x_j||) = phi'(r) (x_i - x_j)_x / r, diagonal 0."""
    d_x = directional_derivative(phi, distances, xy[:, 0, None] - xy[None, :, 0])
    return d_x @ lu_solve(a_phi, u)


def _rho_term(rho: RhoSpec, n: int, u_at_knots, burger_u_x) -> np.ndarray:
    """The rho term at n knots; ``burger_u_x(u)`` gives u_x for the Burger kind."""
    if rho.kind == "zero":
        return np.zeros(n)
    if u_at_knots is None:
        raise ValueError(f"rho kind {rho.kind!r} needs u values at the knots")
    u = np.asarray(u_at_knots, dtype=float)
    if u.shape != (n,):
        raise ValueError(f"expected {n} u values, got shape {u.shape}")
    if rho.kind == "identity":
        return u.copy()
    if rho.kind == "scaled_identity":
        return rho.scale * u
    return u - burger_u_x(u) * u


def rho_matrix(
    rho: RhoSpec,
    knots: Sequence[Point],
    pair: KernelPair,
    u_at_knots: Sequence[float] | None,
) -> np.ndarray:
    """Evaluate the rho term at the knots from known u values.

    For the linear kinds this is 0, u, or scale*u directly (the identity
    pathway is exact because interpolating u and evaluating the interpolant
    back at the knots is the identity).  For ``burger`` the u_x factor is
    taken from the phi-interpolant of u: u - (D_x A_phi^-1 u) * u with D_x
    the x-derivative evaluation matrix of phi.

    Raises
    ------
    ValueError
        If u values are required but missing.
    SingularMatrixError
        Propagated from a singular interpolation matrix.
    """

    def burger_u_x(u: np.ndarray) -> np.ndarray:
        xy = as_xy(knots)
        distances = knot_distances(xy)
        return _interpolant_x_derivative(xy, distances, pair.phi.eval(distances), pair.phi, u)

    return _rho_term(rho, len(knots), u_at_knots, burger_u_x)


def rho_from_distances(
    rho: RhoSpec,
    pair: KernelPair,
    xy: np.ndarray,
    distances: np.ndarray,
    a_phi: np.ndarray,
    u_at_knots: Sequence[float] | None,
) -> np.ndarray:
    """``rho_matrix`` at the knots ``xy`` from their distance matrix (from
    ``knot_distances``) and A_phi = ``pair.phi`` on it, which the caller
    already holds and which are not computed again."""

    def burger_u_x(u: np.ndarray) -> np.ndarray:
        return _interpolant_x_derivative(xy, distances, a_phi, pair.phi, u)

    return _rho_term(rho, len(xy), u_at_knots, burger_u_x)


def solve_alpha(
    knots: Sequence[Point],
    pair: KernelPair,
    f_at_knots: Sequence[float],
    rho: RhoSpec,
    u_at_knots: Sequence[float] | None = None,
    linear_tail: bool = False,
) -> DrmExpansion:
    """Solve A_phi alpha = f + rho-term for the particular-solution coefficients.

    With ``linear_tail`` the interpolant gains beta . (1, x, y) and the
    bordered system of ``bordered_interp_matrix`` is solved with the moment
    conditions P^T alpha = 0; the expansion then carries beta as its tail.
    A_phi is evaluated once and serves both the Burger rho term and the
    alpha solve.
    """
    knots = tuple(knots)
    distances = knot_distances(knots)
    xy = as_xy(knots)
    a_phi = pair.phi.eval(distances)
    rhs = np.asarray(f_at_knots, dtype=float)
    rhs = rhs + rho_from_distances(rho, pair, xy, distances, a_phi, u_at_knots)
    if not linear_tail:
        return DrmExpansion(knots, pair, lu_solve(a_phi, rhs))
    n = len(knots)
    solution = lu_solve(bordered_matrix(a_phi, xy), np.concatenate([rhs, np.zeros(3)]))
    return DrmExpansion(knots, pair, solution[:n], solution[n:] / pair.wavenumber**2)


def u_p_at(expansion: DrmExpansion, points) -> np.ndarray:
    """Particular solution u_p = sum_j alpha_j phi_hat(||x - x_j||) + tail at the points."""
    xy = as_xy(points)
    return u_p_from_distances(expansion, squared_distances(as_xy(expansion.knots), xy), xy)


def u_p_from_distances(expansion: DrmExpansion, sq_distances: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """``u_p_at`` the points ``xy`` from the squared distances of the
    expansion's knots to them (one row per knot, one column per point)."""
    u_p = expansion.alpha @ expansion.pair.phi_hat.eval_sq(sq_distances)
    if expansion.tail is not None:
        u_p += expansion.tail[0]
        u_p += xy @ expansion.tail[1:]
    return u_p


def normal_projections(boundary_knots, sources) -> np.ndarray:
    """Entries (x_i - s_j) . n_i for boundary knots x_i with outward normals n_i
    and sources s_j.  With the distances ||x_i - s_j||,
    ``kernels.directional_derivative`` turns them into normal derivatives."""
    positions = as_xy([knot.position for knot in boundary_knots])
    normals = as_xy([knot.normal for knot in boundary_knots])
    sources = as_xy(sources)
    dx = positions[:, 0, None] - sources[None, :, 0]
    dy = positions[:, 1, None] - sources[None, :, 1]
    return dx * normals[:, 0, None] + dy * normals[:, 1, None]


def normal_matrix(boundary_knots, sources, kernel: RadialKernel) -> np.ndarray:
    """Entries d/dn_i kernel(||x - s_j||) at each boundary knot x = x_i along its
    outward normal n_i, for sources s_j (0-limit at r = 0)."""
    positions = as_xy([knot.position for knot in boundary_knots])
    sources = as_xy(sources)
    distances = distance_matrix(positions, sources)
    return directional_derivative(kernel, distances, normal_projections(boundary_knots, sources))


def u_p_normal_at(expansion: DrmExpansion, boundary_knots) -> np.ndarray:
    """Outward-normal derivative of u_p at boundary knots (0-limit at r = 0).

    A linear tail adds its constant gradient (beta_x, beta_y) dotted with
    each knot's normal.
    """
    out = normal_matrix(boundary_knots, expansion.knots, expansion.pair.phi_hat) @ expansion.alpha
    if expansion.tail is None:
        return out
    return out + as_xy([knot.normal for knot in boundary_knots]) @ expansion.tail[1:]


@dataclass(frozen=True)
class RbfInterpolant:
    """RBF interpolant sum_k beta_k kernel(||x - x_k||) + offset.

    ``offset`` is the coefficient of the constant constraint function when
    the interpolation was solved with the side condition sum_k beta_k = 0;
    it is 0 otherwise.
    """

    points: tuple[Point, ...]
    kernel: RadialKernel
    beta: np.ndarray
    offset: float

    def at(self, eval_points) -> np.ndarray:
        distances = distance_matrix(as_xy(eval_points), as_xy(self.points))
        values = self.kernel.eval(distances) @ self.beta
        return values + self.offset


def rbf_interpolate(
    points: Sequence[Point],
    values: Sequence[float],
    kernel: RadialKernel,
    side_condition: bool = True,
) -> RbfInterpolant:
    """Interpolate scattered data with a radial kernel.

    With ``side_condition`` the representation is augmented by a constant
    term and the constraint sum_k beta_k = 0 (one extra row and column),
    which restores solvability for conditionally positive definite kernels
    such as the modified thin plate spline.

    Raises
    ------
    ValueError
        If points and values disagree in length or knots coincide.
    """
    points = tuple(points)
    vals = np.asarray(values, dtype=float)
    if vals.shape != (len(points),):
        raise ValueError(f"expected {len(points)} values, got shape {vals.shape}")
    xy = as_xy(points)
    distances = distance_matrix(xy, xy)
    _check_distinct(distances)
    a = kernel.eval(distances)
    if not side_condition:
        beta = lu_solve(a, vals)
        return RbfInterpolant(points, kernel, beta, 0.0)
    n = len(points)
    system = np.zeros((n + 1, n + 1))
    system[:n, :n] = a
    system[:n, n] = 1.0
    system[n, :n] = 1.0
    rhs = np.concatenate([vals, [0.0]])
    solution = lu_solve(system, rhs)
    return RbfInterpolant(points, kernel, solution[:n], float(solution[n]))

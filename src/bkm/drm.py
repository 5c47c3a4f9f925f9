"""Dual-reciprocity particular solutions.

The inhomogeneous term f + rho{u} is interpolated at the knots with the
operator image ``phi`` of a kernel pair; the same coefficients alpha then
sum the approximate particular solutions ``phi_hat``, so that applying the
operator to u_p reproduces the interpolant exactly at the knots.  The
module also hosts the rho pathways (how the remaining operator acts on an
interpolant of u).

The multiquadric image phi = s^3 + 9s - 3c^2/s (s = sqrt(r^2 + c^2)) is
not positive definite: its leading part s^3 is conditionally positive
definite of order 2, so its interpolant is well posed only with a linear
tail p = beta . (1, x, y) and the moment conditions P^T alpha = 0: the
bordered system of every linear-rho solve and of ``solve_alpha``.  For
linear p, (lap + k^2){p / k^2} = p with k the pair's wavenumber, so p / k^2
enters u_p.

Point arguments are sequences of ``Point`` or (n, 2) coordinate arrays;
``knot_distances`` (hence every interpolation), ``particular_matrix`` and
``u_p_at`` admit them through ``checked_xy``.
A knot set's distance matrix (``knot_distances``) is computed once per
solve and every matrix over the set is one kernel call on it:
``bordered_matrix`` borders the caller's A_phi with the linear tail;
``u_p_from_distances`` sums u_p from squared distances the caller already
holds, and ``normal_projections`` with rows of a distance matrix gives a
Neumann knot's flux row; it is where a Neumann knot's normal is checked
to be a finite unit vector.

The rho formulas live in ``RhoSpec``: s u for the linear kinds (a solve
driver adds s u to its right-hand side) and Burger's u - u_x u, whose u_x
at the knots is D_x w for u's interpolant coefficients w; one private
helper builds D_x for ``rho_matrix`` and ``burger_alpha``.  With u known,
Burger's rho{u} is affine in w, so ``burger_alpha`` solves for alpha and w
together as one linear block system of order 2n: no solve forms A_phi^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Point, as_xy, checked_xy, coincident_pair, distance_matrix, squared_distances
from .kernels import KernelPair, RadialKernel, directional_derivative
from .linalg import lu_solve

__all__ = [
    "RhoSpec",
    "DrmExpansion",
    "knot_distances",
    "bordered_matrix",
    "burger_alpha",
    "u_p_from_distances",
    "normal_projections",
]
# ``interp_matrix``, ``particular_matrix``, ``rho_matrix``, ``solve_alpha`` and
# ``u_p_at`` stay defined but unexported: only tests use them, and
# perfbench/tracing.py looks them up by name in this module.

_RHO_KINDS = ("zero", "identity", "scaled_identity", "burger")
# How far a Neumann knot's normal may be from unit length.
_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class RhoSpec:
    """The remaining operator rho{u} after the split L{u} = f + rho{u}.

    ``zero`` drops the term, ``identity`` keeps u itself,
    ``scaled_identity`` keeps scale*u, and ``burger`` keeps u - u_x * u
    (the nonlinear remainder of the Burger split).  Calling the spec
    evaluates rho(u, u_x); no other code knows these formulas.  Only
    ``scaled_identity`` takes a scale, and it must be finite.
    """

    kind: str
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _RHO_KINDS:
            raise ValueError(f"unknown rho kind {self.kind!r}, expected {_RHO_KINDS}")
        if not math.isfinite(self.scale):
            raise ValueError(f"rho scale must be finite, got {self.scale!r}")
        if self.kind != "scaled_identity" and self.scale != 1.0:
            raise ValueError(f"rho kind {self.kind!r} takes no scale, got {self.scale!r}")

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

    @property
    def linear_scale(self) -> float | None:
        """s with rho{u} = s u, or None for Burger, which is not linear."""
        return {"zero": 0.0, "identity": 1.0, "burger": None}.get(self.kind, self.scale)

    def __call__(self, u, u_x=None):
        """s u for a linear kind; u - u_x u for Burger, which needs u_x (ValueError)."""
        scale = self.linear_scale
        if scale is not None:
            return scale * u
        if u_x is None:
            raise ValueError(f"rho kind {self.kind!r} needs u_x")
        return u - u_x * u


_BURGER = RhoSpec.burger()


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


def knot_distances(knots) -> np.ndarray:
    """Distance matrix of a knot set with itself, entries ||x_i - x_j||, in float64.

    Raises
    ------
    ValueError
        If no knots are given, they fail ``checked_xy`` (not (n, 2), or a
        coordinate not finite or not below 1e150 in magnitude), or two
        knots (nearly) coincide.
    """
    if len(knots) == 0:
        raise ValueError("at least one knot is required")
    xy = np.asarray(checked_xy(knots, "knots"), dtype=float)
    distances = distance_matrix(xy, xy)
    pair = coincident_pair(distances)
    if pair is not None:
        raise ValueError(
            f"duplicate knots at indices {pair[0]} and {pair[1]}: radial interpolation "
            f"matrix would be rank-deficient"
        )
    return distances


def interp_matrix(knots: Sequence[Point], pair: KernelPair) -> np.ndarray:
    """Symmetric interpolation matrix A_phi with entries phi(||x_i - x_j||).

    Raises
    ------
    ValueError
        As ``knot_distances``: no knots, a coordinate that is not finite
        or not below 1e150 in magnitude, or two (nearly) coincident knots.
    """
    return pair.phi.eval(knot_distances(knots))


def bordered_matrix(a_phi: np.ndarray, knots) -> np.ndarray:
    """[[A_phi, P], [P^T, 0]] with rows P = (1, x, y) at the knots, from an
    A_phi the caller already holds."""
    xy = as_xy(knots)
    n = len(xy)
    p = np.ones((n, 3))
    p[:, 1:] = xy
    system = np.zeros((n + 3, n + 3))
    system[:n, :n] = a_phi
    system[:n, n:] = p
    system[n:, :n] = p.T
    return system


def particular_matrix(eval_points, knots, pair: KernelPair) -> np.ndarray:
    """Evaluation matrix phi_hat(||x - x_j||) from squared distances, rows = eval points."""
    xy = checked_xy(eval_points, "evaluation points")
    return pair.phi_hat.eval_sq(squared_distances(xy, as_xy(knots)))


def _u_values(rho: RhoSpec, n: int, u_at_knots) -> np.ndarray:
    if u_at_knots is None:
        raise ValueError(f"rho kind {rho.kind!r} needs u values at the knots")
    u = np.asarray(u_at_knots, dtype=float)
    if u.shape != (n,):
        raise ValueError(f"expected {n} u values, got shape {u.shape}")
    return u


def _d_x(phi: RadialKernel, xy: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """D_x with entries d/dx_i phi(||x_i - x_j||) = phi'(r) (x_i - x_j)_x / r,
    diagonal 0, from the knots ``xy`` and their distance matrix: u_x at the
    knots is D_x w for the phi-interpolant of u with coefficients w."""
    return directional_derivative(phi, distances, xy[:, 0, None] - xy[None, :, 0])


def burger_alpha(
    pair: KernelPair, xy: np.ndarray, distances: np.ndarray, a_phi: np.ndarray, f, u
) -> np.ndarray:
    """alpha = A_phi^-1 (f + rho{u}) for Burger's rho, from one linear solve.

    With u known, rho{u} is affine in u's interpolant coefficients
    w = A_phi^-1 u, because u_x = D_x w: rho(u, u_x) = rho(u, 0) + sigma u_x
    with sigma = rho(u, 1) - rho(u, 0).  So alpha and w solve one system of
    order 2n,

        [[A_phi, -sigma D_x], [0, A_phi]] (alpha, w) = (f + rho(u, 0), u),

    one ``lu_solve`` with one right-hand side and no inverse formed.
    """
    n = len(u)
    rho_0 = _BURGER(u, 0.0)
    sigma = _BURGER(u, 1.0) - rho_0
    system = np.zeros((2 * n, 2 * n))
    system[:n, :n] = system[n:, n:] = a_phi
    system[:n, n:] = -sigma[:, None] * _d_x(pair.phi, xy, distances)
    return lu_solve(system, np.concatenate([f + rho_0, u]))[:n]


def rho_matrix(
    rho: RhoSpec,
    knots: Sequence[Point],
    pair: KernelPair,
    u_at_knots: Sequence[float] | None,
) -> np.ndarray:
    """Evaluate the rho term at the knots from known u values.

    For a linear kind this is ``rho(u)`` = s u directly (exact, because
    interpolating u and evaluating the interpolant back at the knots is the
    identity); a zero rho needs no u.  For Burger, u_x is taken from the
    phi-interpolant of u: ``rho(u, D_x A_phi^-1 u)`` with D_x the
    x-derivative evaluation matrix of phi.

    Raises
    ------
    ValueError
        If u values are required but missing.
    SingularMatrixError
        Propagated from a singular interpolation matrix.
    """
    scale = rho.linear_scale
    if scale == 0.0:
        return np.zeros(len(knots))
    u = _u_values(rho, len(knots), u_at_knots)
    if scale is not None:
        return rho(u)
    xy = as_xy(knots)
    distances = knot_distances(xy)
    return rho(u, _d_x(pair.phi, xy, distances) @ lu_solve(pair.phi.eval(distances), u))


def solve_alpha(
    knots: Sequence[Point],
    pair: KernelPair,
    f_at_knots: Sequence[float],
    rho: RhoSpec,
    u_at_knots: Sequence[float] | None = None,
) -> DrmExpansion:
    """The DRM step of a boundary-only solve on these knots, as ``bkm._solve``
    takes it: for a linear rho kind, the bordered system of ``bordered_matrix``
    with right-hand side (f + s u, 0) and beta / k^2 as the tail; for Burger,
    the bare interpolant from one block system (``burger_alpha``).
    """
    knots = tuple(knots)
    n = len(knots)
    xy = as_xy(knots)
    distances = knot_distances(xy)
    a_phi = pair.phi.eval(distances)
    f = np.asarray(f_at_knots, dtype=float)
    if rho.linear_scale is None:
        u = _u_values(rho, n, u_at_knots)
        return DrmExpansion(knots, pair, burger_alpha(pair, xy, distances, a_phi, f, u))
    rhs = f + rho_matrix(rho, knots, pair, u_at_knots)
    solution = lu_solve(bordered_matrix(a_phi, xy), np.concatenate([rhs, np.zeros(3)]))
    return DrmExpansion(knots, pair, solution[:n], solution[n:] / pair.wavenumber**2)


def u_p_at(expansion: DrmExpansion, points) -> np.ndarray:
    """Particular solution u_p = sum_j alpha_j phi_hat(||x - x_j||) + tail at the points."""
    xy = checked_xy(points, "evaluation points")
    return u_p_from_distances(expansion, squared_distances(as_xy(expansion.knots), xy), xy)


def u_p_from_distances(
    expansion: DrmExpansion, sq_distances: np.ndarray, xy: np.ndarray, out=None, work=None
) -> np.ndarray:
    """``u_p_at`` the points ``xy`` from the squared distances of the
    expansion's knots to them (one row per knot, one column per point);
    phi_hat goes into ``work`` and u_p into ``out`` when given
    (``RadialKernel.eval_sq``)."""
    u_p = np.matmul(expansion.alpha, expansion.pair.phi_hat.eval_sq(sq_distances, work), out=out)
    if expansion.tail is not None:
        u_p += expansion.tail[0]
        u_p += xy @ expansion.tail[1:]
    return u_p


def normal_projections(boundary_knots, sources) -> tuple[np.ndarray, np.ndarray]:
    """Entries (x_i - s_j) . n_i for boundary knots x_i with outward normals n_i
    and sources s_j, and the normals n_i as an (n, 2) array.  With the
    distances ||x_i - s_j||, ``kernels.directional_derivative`` turns the
    entries into normal derivatives.

    Raises
    ------
    ValueError
        Naming the knot's position, if a normal is not finite or its length
        is not within 1e-9 of 1.
    """
    positions = as_xy([knot.position for knot in boundary_knots])
    normals = as_xy([knot.normal for knot in boundary_knots])
    # Negated so that a NaN length, which compares false, counts as bad.
    bad = ~(np.abs(np.hypot(normals[:, 0], normals[:, 1]) - 1.0) <= _UNIT_TOL)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise ValueError(
            f"Neumann knot at ({positions[i, 0]:g}, {positions[i, 1]:g}) needs a finite "
            f"unit normal, got ({normals[i, 0]:g}, {normals[i, 1]:g})"
        )
    sources = as_xy(sources)
    dx = positions[:, 0, None] - sources[None, :, 0]
    dy = positions[:, 1, None] - sources[None, :, 1]
    return dx * normals[:, 0, None] + dy * normals[:, 1, None], normals


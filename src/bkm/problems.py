"""Built-in benchmark problems and manufactured-solution generators.

Each problem fixes the geometry, the operator split L{u} = f + rho{u}
(with L = lap + split_wavenumber^2 carrying the non-singular general
solution), the boundary data, the multiquadric shape parameter, and the
published evaluation points its results table uses, so runs are
reproducible verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .drm import RhoSpec
from .geometry import Ellipse, Point

__all__ = [
    "ProblemSpec",
    "laplace_benchmark",
    "helmholtz_benchmark",
    "burger_benchmark",
    "manufactured",
]

# Step for the finite-difference forcing of manufactured problems; second
# order in h with h^2 truncation ~1e-8 against the 1e-5 residual contract.
_FD_H = 1e-4

# Construction-time smoothness screen: the FD Laplacian at h and h/2 must
# agree to this tolerance at the probe points, which rejects kinked or
# otherwise non-smooth candidate solutions.
_SMOOTH_TOL = 1e-3


@dataclass(frozen=True)
class ProblemSpec:
    """A boundary-value problem in split form on an elliptical domain.

    ``forcing`` and ``dirichlet`` must be defined on (a neighborhood of)
    the closed ellipse; ``exact``, when present, is the analytic solution
    used for error reporting.  ``table_points`` are the evaluation points
    of the problem's reference results table.
    """

    name: str
    ellipse: Ellipse
    split_wavenumber: float
    rho: RhoSpec
    forcing: Callable[[Point], float]
    dirichlet: Callable[[Point], float]
    exact: Callable[[Point], float] | None
    mq_shape_c: float
    table_points: tuple[Point, ...] = ()
    notes: str = ""

    def __post_init__(self) -> None:
        if not (0.0 < self.split_wavenumber < math.inf):
            raise ValueError(
                f"split wavenumber must be finite and positive, got {self.split_wavenumber}"
            )
        if not (0.0 < self.mq_shape_c < math.inf):
            raise ValueError(
                f"MQ shape parameter must be finite and positive, got {self.mq_shape_c}"
            )


def laplace_benchmark() -> ProblemSpec:
    """Laplace problem on the 2:1 ellipse with exact solution u = x + y.

    lap{u} = 0 is recast as (lap + 1){u} = u, so the J0 kernel applies and
    the right-hand side is the identity rho pathway; shape c = 25.
    """

    def value(p: Point) -> float:
        return p.x + p.y

    def zero(p: Point) -> float:
        return 0.0

    table = (
        Point(1.5, 0.0),
        Point(1.2, -0.35),
        Point(0.6, -0.45),
        Point(0.0, -0.45),
        Point(0.9, 0.0),
        Point(0.3, 0.0),
        Point(0.0, 0.0),
    )
    return ProblemSpec(
        name="laplace",
        ellipse=Ellipse(Point(0.0, 0.0), 2.0, 1.0),
        split_wavenumber=1.0,
        rho=RhoSpec.identity(),
        forcing=zero,
        dirichlet=value,
        exact=value,
        mq_shape_c=25.0,
        table_points=table,
        notes=(
            "table point (0.0, -0.45) restored from a misprinted (0.0, 0.0) row "
            "whose listed value -0.450 matches u = x + y only at y = -0.45"
        ),
    )


def helmholtz_benchmark() -> ProblemSpec:
    """Inhomogeneous Helmholtz problem (lap + 1){u} = x with u = sin(x) + x.

    rho is zero (the split operator is the governing operator); shape c = 3.
    """

    def value(p: Point) -> float:
        return math.sin(p.x) + p.x

    def forcing(p: Point) -> float:
        return p.x

    table = (
        Point(1.5, 0.0),
        Point(1.2, -0.35),
        Point(0.6, -0.45),
        Point(0.0, 0.0),
        Point(0.9, 0.0),
        Point(0.3, 0.0),
        Point(0.0, 0.0),
    )
    return ProblemSpec(
        name="helmholtz",
        ellipse=Ellipse(Point(0.0, 0.0), 2.0, 1.0),
        split_wavenumber=1.0,
        rho=RhoSpec.zero(),
        forcing=forcing,
        dirichlet=value,
        exact=value,
        mq_shape_c=3.0,
        table_points=table,
        notes="the reference table lists the point (0.0, 0.0) twice; both rows are kept",
    )


def burger_benchmark() -> ProblemSpec:
    """Steady Burger problem lap{u} + u_x u = 0 with exact solution u = 2/x.

    Recast as (lap + 1){u} = u - u_x u; the ellipse center is dislocated to
    (3, 0) so the domain stays clear of the pole at x = 0 (minimum x on the
    boundary is 1).  A single linear solve suffices because the boundary
    data make the nonlinear remainder explicit; shape c = 1.
    """

    def value(p: Point) -> float:
        return 2.0 / p.x

    def zero(p: Point) -> float:
        return 0.0

    table = (
        Point(4.5, 0.0),
        Point(4.2, -0.35),
        Point(3.6, -0.45),
        Point(3.0, -0.45),
        Point(2.4, -0.45),
        Point(1.8, -0.35),
        Point(1.5, 0.0),
        Point(3.9, 0.0),
        Point(3.3, 0.0),
        Point(3.0, 0.0),
        Point(2.7, 0.0),
        Point(2.1, 0.0),
    )
    return ProblemSpec(
        name="burger",
        ellipse=Ellipse(Point(3.0, 0.0), 2.0, 1.0),
        split_wavenumber=1.0,
        rho=RhoSpec.burger(),
        forcing=zero,
        dirichlet=value,
        exact=value,
        mq_shape_c=1.0,
        table_points=table,
    )


def _fd_laplacian(g: Callable[[Point], float], p: Point, h: float) -> float:
    return (
        g(Point(p.x + h, p.y))
        + g(Point(p.x - h, p.y))
        + g(Point(p.x, p.y + h))
        + g(Point(p.x, p.y - h))
        - 4.0 * g(p)
    ) / (h * h)


def _fd_dx(g: Callable[[Point], float], p: Point, h: float) -> float:
    return (g(Point(p.x + h, p.y)) - g(Point(p.x - h, p.y))) / (2.0 * h)


def _fd_dy(g: Callable[[Point], float], p: Point, h: float) -> float:
    return (g(Point(p.x, p.y + h)) - g(Point(p.x, p.y - h))) / (2.0 * h)


def _probe_points(e: Ellipse) -> list[Point]:
    """Deterministic 5x5 probe lattice inside the ellipse (smoothness screen)."""
    points = []
    for i in range(-2, 3):
        for j in range(-2, 3):
            points.append(
                Point(
                    e.center.x + 0.35 * e.semi_major * i,
                    e.center.y + 0.35 * e.semi_minor * j,
                )
            )
    return points


def manufactured(
    exact: Callable[[Point], float],
    split_wavenumber: float = 1.0,
    rho: RhoSpec = RhoSpec.zero(),
    *,
    ellipse: Ellipse | None = None,
    mq_shape_c: float = 3.0,
    name: str = "manufactured",
    table_points: tuple[Point, ...] = (),
) -> ProblemSpec:
    """Build a problem whose forcing makes ``exact`` the solution.

    The forcing is f = (lap + split_wavenumber^2){exact} - rho(u, u_x)
    with u = exact, its Laplacian by finite differences and, for Burger
    only, u_x too.  The boundary data are ``exact`` restricted to the
    boundary.  ``exact`` must be defined in a neighborhood of the closed
    ellipse (the stencil reaches slightly outside).

    Raises
    ------
    ValueError
        If the FD Laplacians at h and h/2 disagree, or either is not
        finite, at a probe point, which flags a non-smooth candidate
        solution.
    """
    e = ellipse if ellipse is not None else Ellipse(Point(0.0, 0.0), 2.0, 1.0)
    lam_sq = split_wavenumber * split_wavenumber

    for p in _probe_points(e):
        coarse = _fd_laplacian(exact, p, _FD_H * 10)
        fine = _fd_laplacian(exact, p, _FD_H * 5)
        gap = abs(coarse - fine)
        if not math.isfinite(gap) or gap > _SMOOTH_TOL * (1.0 + max(abs(coarse), abs(fine))):
            raise ValueError(
                f"candidate exact solution fails the smoothness screen at {p}: "
                f"FD Laplacian {coarse:.6g} vs {fine:.6g} under step halving"
            )

    def forcing(p: Point) -> float:
        u = exact(p)
        u_x = _fd_dx(exact, p, _FD_H) if rho.linear_scale is None else None
        return _fd_laplacian(exact, p, _FD_H) + lam_sq * u - rho(u, u_x)

    return ProblemSpec(
        name=name,
        ellipse=e,
        split_wavenumber=split_wavenumber,
        rho=rho,
        forcing=forcing,
        dirichlet=exact,
        exact=exact,
        mq_shape_c=mq_shape_c,
        table_points=table_points,
    )

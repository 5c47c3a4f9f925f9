"""Elliptical boundary geometry: knot placement, outward normals, interior lattices.

Boundary knots are placed uniformly in the parametric angle t starting at
t = 0; this is the simplest reproducible placement and every consumer of
the knots treats the choice as opaque.

Kernel matrices are built from point sets as (n, 2) coordinate arrays
(``as_xy``) and one matrix of their squared distances, one exact BLAS
product (``squared_distances``), or distances (``distance_matrix``).
Knot sets and evaluation points from callers are admitted by one check,
``checked_xy``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Point",
    "BoundaryKnot",
    "Ellipse",
    "ellipse_knots",
    "interior_grid",
    "as_xy",
    "checked_xy",
    "squared_distances",
    "distance_matrix",
    "coincident_pair",
]

# Lattice points this close to the boundary (in level-function units) are
# treated as boundary points and excluded from interior sets.
_INTERIOR_MARGIN = 1e-9
_COORD_LIMIT = 1e150  # squares of smaller coordinates do not overflow
_COINCIDENT_TOL = 1e-12  # closer points make radial kernel matrices rank-deficient
# ``squared_distances``' lifted rows and columns, but for the coordinates.
_LIFT = np.array([[[0.0, -1.0, 0.0]], [[0.0, 0.0, -1.0]]])
_ONE = np.array([[1.0], [0.0], [0.0]])


class Point(NamedTuple):
    """A point in the plane."""

    x: float
    y: float


@dataclass(frozen=True)
class BoundaryKnot:
    """A boundary collocation point with its unit outward normal."""

    position: Point
    normal: tuple[float, float]


@dataclass(frozen=True)
class Ellipse:
    """Axis-aligned ellipse; ``semi_major`` runs along x, ``semi_minor`` along y."""

    center: Point
    semi_major: float
    semi_minor: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (*self.center, self.semi_major, self.semi_minor))):
            raise ValueError(
                f"ellipse center and semi-axes must be finite, got {self.center} and "
                f"({self.semi_major}, {self.semi_minor})"
            )
        if not (self.semi_major >= self.semi_minor > 0.0):
            raise ValueError(
                f"ellipse requires semi_major >= semi_minor > 0, got "
                f"({self.semi_major}, {self.semi_minor})"
            )

    def level(self, p: Point | np.ndarray) -> float | np.ndarray:
        """Level function ((x-cx)/a)^2 + ((y-cy)/b)^2, 1 on the boundary, of a
        ``Point`` or of each row of an (n, 2) coordinate array."""
        x, y = p.T if isinstance(p, np.ndarray) else p
        dx = (x - self.center.x) / self.semi_major
        dy = (y - self.center.y) / self.semi_minor
        return dx * dx + dy * dy


def ellipse_knots(e: Ellipse, n: int) -> list[BoundaryKnot]:
    """Place ``n`` boundary knots uniformly in parametric angle, starting at t = 0.

    Parameters
    ----------
    e : Ellipse
        Target boundary.
    n : int
        Number of knots, n >= 1.

    Returns
    -------
    list of BoundaryKnot
        Knot i sits at angle t_i = 2*pi*i/n with position
        center + (a*cos t_i, b*sin t_i) and unit outward normal
        proportional to (cos t_i / a, sin t_i / b).

    Raises
    ------
    ValueError
        If ``n`` < 1.
    """
    if n < 1:
        raise ValueError(f"need at least one boundary knot, got n={n}")
    knots = []
    for i in range(n):
        t = 2.0 * math.pi * i / n
        ct, st = math.cos(t), math.sin(t)
        position = Point(e.center.x + e.semi_major * ct, e.center.y + e.semi_minor * st)
        nx, ny = ct / e.semi_major, st / e.semi_minor
        norm = math.hypot(nx, ny)
        knots.append(BoundaryKnot(position, (nx / norm, ny / norm)))
    return knots


def interior_grid(e: Ellipse, spacing: float) -> list[Point]:
    """Axis-aligned lattice points strictly inside the ellipse.

    The lattice is anchored at the ellipse center with the given spacing
    and scanned row-major (y ascending, then x ascending), so the result
    order is deterministic.  Points with level >= 1 - 1e-9 are excluded.

    Raises
    ------
    ValueError
        If ``spacing`` is not finite and positive.
    """
    if not 0.0 < spacing < math.inf:
        raise ValueError(f"grid spacing must be finite and positive, got {spacing}")
    ni = int(math.floor(e.semi_major / spacing))
    nj = int(math.floor(e.semi_minor / spacing))
    xs = e.center.x + np.arange(-ni, ni + 1) * spacing
    ys = e.center.y + np.arange(-nj, nj + 1) * spacing
    lattice = np.column_stack([a.ravel() for a in np.meshgrid(xs, ys)])
    inside = lattice[e.level(lattice) < 1.0 - _INTERIOR_MARGIN]
    return list(map(Point._make, inside.tolist()))


def as_xy(points: Sequence[Point] | np.ndarray) -> np.ndarray:
    """Coordinates of the points as an (n, 2) float array; row i is (x_i, y_i).

    An ndarray is taken to hold such rows already and is returned as is.
    Items holding other than 2n coordinates in all raise ValueError; mixed
    lengths that add up to 2n, such as [(x0, y0, x1), (y1,)], still pass.
    """
    if isinstance(points, np.ndarray):
        return points
    n = len(points)
    values = itertools.chain.from_iterable(points)
    flat = np.fromiter(values, dtype=float, count=2 * n)
    if next(values, values) is not values:  # the iterator is its own end marker
        raise ValueError(f"expected {n} (x, y) pairs, got more than {2 * n} coordinates")
    return flat.reshape(n, 2)


def checked_xy(points: Sequence[Point] | np.ndarray, what: str) -> np.ndarray:
    """``as_xy`` of the points, admitted only as an (n, 2) real array whose
    coordinates are finite and below 1e150 in magnitude; ValueErrors name ``what``."""
    xy = as_xy(points)
    if xy.ndim != 2 or xy.shape[1] != 2 or xy.dtype.kind not in "fiu":
        raise ValueError(
            f"{what} need an (n, 2) array of real coordinates, "
            f"got shape {xy.shape} of dtype {xy.dtype}"
        )
    # As a float, not cast to a float32 or float16 array's dtype; NaN fails.
    if not float(np.maximum.reduce(np.abs(xy), axis=None, initial=0.0)) < _COORD_LIMIT:
        raise ValueError(f"{what} need finite coordinates below {_COORD_LIMIT:g} in magnitude")
    return xy


def squared_distances(rows: np.ndarray, cols: np.ndarray, out: np.ndarray | None = None):
    """Entry (i, j) is dx*dx + dy*dy between rows[i] and cols[j], for (m, 2)
    rows and (b, 2) cols: the first m rows of a (2m, b) float64 array, or
    of ``out``, a C-contiguous one the caller holds.

    dx and dy are one BLAS product, [[x_i, -1, 0], [y_i, 0, -1]] @
    [1; x_j; y_j], squared and summed in place.  Its products are by 1, -1
    or 0, so each entry is x_i - x_j rounded once, as a subtraction gives.
    No overflow guard: coordinates are expected to stay far below 1e150.
    """
    m = len(rows)
    lift = _LIFT.repeat(m, axis=1)
    lift[..., 0] = rows.T
    lifted = _ONE.repeat(len(cols), axis=1)
    lifted[1:] = cols.T
    work = np.dot(lift.reshape(2 * m, 3), lifted, out=out)
    np.square(work, out=work)
    t = work[:m]
    t += work[m:]
    return t


def distance_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entry (i, j) is the distance between rows[i] and cols[j]: the sqrt of
    ``squared_distances``, which agrees with ``np.hypot`` to one ulp in half the time."""
    t = squared_distances(rows, cols)
    return np.sqrt(t, out=t)


def coincident_pair(distances: np.ndarray) -> tuple[int, int] | None:
    """First index pair i < j (row-major order) of a point set's own distance
    matrix whose distance is below 1e-12, or None when there is none."""
    close = distances < _COINCIDENT_TOL
    # The zero diagonal is always close; anything beyond it is a pair.
    if np.count_nonzero(close) == len(distances):
        return None
    i, j = np.argwhere(np.triu(close, 1))[0]
    return int(i), int(j)

"""Dense real linear algebra: LAPACK-backed solves and the exact 1-norm
condition number.

Matrices are 2D float ndarrays in row-major semantics.  There is one solve
path: every function here reaches LAPACK through one private
``numpy.linalg.solve`` call (one getrf and its getrs), behind one check of
the inputs and one error for a singular matrix.  There is no refinement
sweep, so every matrix is factored once.

- ``lu_solve`` solves A X = B.
- ``solve_and_invert`` serves every matrix whose condition number a
  solver driver reports.  One solve of A [X | Y] = [B | I] gives X from
  the LU factors, so the solve is backward stable, and Y = A^-1 from the
  same factors gives the exact kappa_1 = ||A||_1 ||A^-1||_1
  (``cond_1norm``).
- ``cond_estimate_1norm`` is kappa_1 from the solve of A Y = I alone.

``lu_factor`` is the one hand-written elimination.  It runs only when
LAPACK reports a singular matrix or returns a non-finite result, to name
the failing pivot in ``SingularMatrixError``; pivots at or below an
explicit zero floor count as exact zeros.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SingularMatrixError",
    "lu_solve",
    "solve_and_invert",
    "cond_1norm",
]
# ``lu_factor`` (called here only to name a failing pivot) and
# ``cond_estimate_1norm`` stay defined but unexported: outside this module only
# tests use them, and perfbench/tracing.py looks them up by name here.

# Pivots at or below this magnitude are treated as exact zeros.
_PIVOT_FLOOR = 1e-300


class SingularMatrixError(ValueError):
    """Elimination found no usable pivot; ``pivot_index`` is the failing column."""

    def __init__(self, pivot_index: int):
        super().__init__(f"matrix is singular at pivot {pivot_index}")
        self.pivot_index = pivot_index


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def lu_factor(a) -> tuple[np.ndarray, np.ndarray]:
    """Factor P A = L U with partial pivoting.

    Returns
    -------
    (lu, perm)
        ``lu`` packs the unit-lower factor below the diagonal and U on and
        above it; ``perm`` maps factored row i to the original row index.

    Raises
    ------
    SingularMatrixError
        If a pivot column has no entry above the zero floor; the error
        carries the failing column as ``pivot_index``.
    """
    lu = _as_square(a).copy()
    n = lu.shape[0]
    perm = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) <= _PIVOT_FLOOR:
            raise SingularMatrixError(k)
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        lu[k + 1 :, k] /= lu[k, k]
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu, perm


def _singular(a: np.ndarray) -> SingularMatrixError:
    """The error for a matrix LAPACK could not solve with finite results.

    The hand elimination raises at a pivot on the zero floor.  If every
    pivot clears the floor, the solve overflowed instead, and the smallest
    pivot is named.
    """
    lu, _ = lu_factor(a)
    return SingularMatrixError(int(np.argmin(np.abs(np.diag(lu)))))


def _as_system(a, b) -> tuple[np.ndarray, np.ndarray]:
    """A as a square matrix and B as its (n, k) block of right-hand sides."""
    a = _as_square(a)
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs shape {b.shape} does not match matrix order {a.shape[0]}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side entries must be finite")
    return a, b.reshape(a.shape[0], 1 if b.ndim == 1 else b.shape[1])


def _solve(a: np.ndarray, rhs: np.ndarray, checked: int) -> np.ndarray:
    """numpy.linalg.solve(a, rhs), the one LAPACK call of this module.

    Raises SingularMatrixError if LAPACK finds A singular or any of the
    first ``checked`` columns of the solution is not finite.
    """
    try:
        with np.errstate(all="ignore"):
            x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise _singular(a) from None
    if not np.all(np.isfinite(x[:, :checked])):
        raise _singular(a)
    return x


def lu_solve(a, b) -> np.ndarray:
    """Solve A X = B by partial-pivoted LU (LAPACK getrf/getrs), once.

    Parameters
    ----------
    a : (n, n) array_like
        Square coefficient matrix.
    b : (n,) or (n, k) array_like
        One or more right-hand sides, all solved in one call; X has the
        shape of B.

    Raises
    ------
    SingularMatrixError
        If A is singular (a pivot at or below the zero floor) or the solve
        comes out non-finite.
    ValueError
        If shapes do not conform or entries are non-finite.
    """
    shape = np.shape(b)
    a, b = _as_system(a, b)
    return _solve(a, b, b.shape[1]).reshape(shape)


def solve_and_invert(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Solve A X = B and invert A with one LU factorization.

    One solve of A [X | Y] = [B | I]: X has the shape of B, and Y = A^-1
    is returned as is, also when it is non-finite (``cond_1norm`` then
    reads infinity).  A caller that holds Y can apply A^-1 to a right-hand
    side it only knows after the solve without factoring A again.

    Raises
    ------
    SingularMatrixError
        If A is singular (a pivot at or below the zero floor) or X comes
        out non-finite.
    ValueError
        If shapes do not conform or entries are non-finite.
    """
    shape = np.shape(b)
    a, b = _as_system(a, b)
    n, k = b.shape
    rhs = np.eye(n, k + n, k)
    rhs[:, :k] = b
    solved = _solve(a, rhs, k)
    return solved[:, :k].reshape(shape).copy(), solved[:, k:]


def cond_1norm(a: np.ndarray, a_inv: np.ndarray) -> float:
    """kappa_1(A) = ||A||_1 ||A^-1||_1 from A and its computed inverse.

    Never below 1; a non-finite inverse returns ``math.inf``.
    """
    if a.shape[0] == 0:
        return 1.0
    with np.errstate(all="ignore"):
        norm_inv = float(np.abs(a_inv).sum(axis=0).max())
    if not math.isfinite(norm_inv):
        return math.inf
    return max(1.0, float(np.abs(a).sum(axis=0).max()) * norm_inv)


def cond_estimate_1norm(a) -> float:
    """The 1-norm condition number kappa_1(A) = ||A||_1 ||A^-1||_1.

    Exact, from A^-1 solved for explicitly; never below 1.  Singular
    input, or an inverse that comes out non-finite, returns ``math.inf``.
    """
    a = _as_square(a)
    try:
        a_inv = _solve(a, np.eye(a.shape[0]), 0)
    except SingularMatrixError:
        return math.inf
    return cond_1norm(a, a_inv)

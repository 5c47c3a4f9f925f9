"""Dense real linear algebra: a LAPACK-backed solve and the exact 1-norm
condition number.

Matrices are 2D float ndarrays in row-major semantics.  ``lu_solve``
solves A X = B for the caller's right-hand sides alone: one
``numpy.linalg.solve`` call (one getrf and its getrs) with no refinement
sweep, behind one check of the inputs and one error for a singular
matrix.  No solve forms A^-1.  The exact kappa_1 = ||A||_1 ||A^-1||_1
takes one LAPACK inverse, a second factorization, and is the only place
an inverse is formed: ``cond_1norm_unchecked`` of a matrix a solve has
already checked, ``cond_estimate_1norm`` of any input.

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
    "cond_1norm_unchecked",
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
    # One ufunc reduction: np.all and ndarray.all add wrappers that cost more.
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
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
    a = _as_square(a)
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs shape {b.shape} does not match matrix order {a.shape[0]}")
    if not np.logical_and.reduce(np.isfinite(b), axis=None):
        raise ValueError("right-hand side entries must be finite")
    try:
        x = np.linalg.solve(a, b)  # in its own errstate: singular raises LinAlgError
    except np.linalg.LinAlgError:
        raise _singular(a) from None
    if not np.logical_and.reduce(np.isfinite(x), axis=None):
        raise _singular(a)
    return x


def cond_1norm_unchecked(a: np.ndarray) -> float:
    """kappa_1(A) = ||A||_1 ||A^-1||_1, exact, from one LAPACK inverse.

    A is a square float ndarray with finite entries, such as a matrix
    ``lu_solve`` has solved; it is not checked again.  Never below 1; a
    singular A or a non-finite inverse returns ``math.inf``.
    """
    if a.shape[0] == 0:
        return 1.0
    try:
        with np.errstate(all="ignore"):
            norm_inv = float(np.abs(np.linalg.inv(a)).sum(axis=0).max())
    except np.linalg.LinAlgError:
        return math.inf
    if not math.isfinite(norm_inv):
        return math.inf
    return max(1.0, float(np.abs(a).sum(axis=0).max()) * norm_inv)


def cond_estimate_1norm(a) -> float:
    """``cond_1norm_unchecked`` of any input: ValueError unless A is square
    and finite."""
    return cond_1norm_unchecked(_as_square(a))

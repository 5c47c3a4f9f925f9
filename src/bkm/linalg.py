"""Dense real linear algebra: LAPACK-backed solves and the exact 1-norm
condition number.

Matrices are 2D float ndarrays in row-major semantics.  Two solve paths
share the input checks and the error for a singular matrix:

- ``solve_and_invert`` serves every matrix whose condition number a
  solver driver reports.  One ``numpy.linalg.solve`` of A [X | Y] = [B | I]
  is one getrf: X comes from the LU factors, so the solve is backward
  stable, and Y = A^-1 from the same factors gives the exact
  kappa_1 = ||A||_1 ||A^-1||_1 (``cond_1norm``).  It makes no refinement
  sweep: a correction through the computed A^-1 brings A^-1's own
  kappa eps error back into X.
- ``lu_solve`` adds one refinement sweep (a second getrf) by default,
  which pins the residual near machine level.  It serves the solves with
  no reported condition number: the Burger rho term's u_x interpolant,
  ``drm.solve_alpha`` and ``rbf_interpolate``.

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
    "lu_factor",
    "lu_solve",
    "solve_and_invert",
    "cond_1norm",
    "cond_estimate_1norm",
]

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
    a = _as_square(a)
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs shape {b.shape} does not match matrix order {a.shape[0]}")
    return a, b


def lu_solve(a, b, refine: int = 1) -> np.ndarray:
    """Solve A X = B by partial-pivoted LU (LAPACK getrf/getrs).

    Parameters
    ----------
    a : (n, n) array_like
        Square coefficient matrix.
    b : (n,) or (n, k) array_like
        One or more right-hand sides, all solved in one call.
    refine : int
        Iterative-refinement sweeps after the direct solve (default 1).
        Each sweep solves for the correction of the residual, so the
        residual lands near machine level even when A is ill-conditioned.

    Raises
    ------
    SingularMatrixError
        If A is singular (a pivot at or below the zero floor) or the solve
        comes out non-finite.
    ValueError
        If shapes do not conform or entries are non-finite.
    """
    a, b = _as_system(a, b)
    try:
        with np.errstate(all="ignore"):
            x = np.linalg.solve(a, b)
            for _ in range(refine):
                x = x + np.linalg.solve(a, b - a @ x)
    except np.linalg.LinAlgError:
        x = None
    if x is None or not np.all(np.isfinite(x)):
        raise _singular(a)
    return x


def solve_and_invert(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Solve A X = B and invert A with one LU factorization.

    One ``numpy.linalg.solve`` of A [X | Y] = [B | I]; X has the shape of
    B, and Y = A^-1 is returned as is, also when it is non-finite
    (``cond_1norm`` then reads infinity).  There is no refinement sweep.

    Raises
    ------
    SingularMatrixError
        If A is singular (a pivot at or below the zero floor) or X comes
        out non-finite.
    ValueError
        If shapes do not conform or entries are non-finite.
    """
    a, b = _as_system(a, b)
    n = a.shape[0]
    k = 1 if b.ndim == 1 else b.shape[1]
    rhs = np.eye(n, k + n, k)
    rhs[:, :k] = b.reshape(n, k)
    try:
        with np.errstate(all="ignore"):
            solved = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise _singular(a) from None
    x = solved[:, :k]
    if not np.all(np.isfinite(x)):
        raise _singular(a)
    return x.reshape(b.shape).copy(), solved[:, k:]


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

    Exact, from one explicit inverse; never below 1.  Singular input, or
    an inverse that comes out non-finite, returns ``math.inf``.
    """
    a = _as_square(a)
    try:
        with np.errstate(all="ignore"):
            a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return math.inf
    return cond_1norm(a, a_inv)

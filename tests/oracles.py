"""Independent verification routes used by the test suite.

Everything here deliberately avoids the library's own code paths:
special-function references come from mpmath's arbitrary-precision
implementations, differential operators are applied by finite
differences, condition numbers come from explicitly inverted matrices.
A library bug therefore cannot hide by agreeing with itself.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import mpmath as mp
import numpy as np

mp.mp.dps = 30


# --------------------------------------------------------------------------
# special-function references


def j0_ref(x: float) -> float:
    return float(mp.besselj(0, x))


def j1_ref(x: float) -> float:
    return float(mp.besselj(1, x))


def j1_over_x_sq_ref(t: float) -> float:
    """J1(x)/x at x = sqrt(t), and its limit 1/2 at t = 0."""
    if t == 0.0:
        return 0.5
    x = mp.sqrt(mp.mpf(t))
    return float(mp.besselj(1, x) / x)


def i0_ref(x: float) -> float:
    return float(mp.besseli(0, x))


def i1_ref(x: float) -> float:
    return float(mp.besseli(1, x))


def bisect_root(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-14) -> float:
    """Plain bisection; requires a sign change on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError("no sign change on the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# finite-difference operators


def fd_radial_laplacian(
    f: Callable[[float], float], r: float, h: float = 1e-4, dim: int = 2
) -> float:
    """f'' + (dim-1)/r f' by central differences."""
    d2 = (f(r + h) - 2.0 * f(r) + f(r - h)) / (h * h)
    d1 = (f(r + h) - f(r - h)) / (2.0 * h)
    return d2 + (dim - 1) * d1 / r


def fd_radial_laplacian_rich(
    f: Callable[[float], float], r: float, h: float = 1e-2, dim: int = 2
) -> float:
    """Richardson-extrapolated radial Laplacian; kills the h**2 error term.

    Needed where plain central differences drown in cancellation noise
    (large kernel values, e.g. multiquadrics with big shape parameters).
    """
    fine = fd_radial_laplacian(f, r, h, dim)
    coarse = fd_radial_laplacian(f, r, 2.0 * h, dim)
    return (4.0 * fine - coarse) / 3.0


def fd_laplacian_2d(g: Callable[[float, float], float], x: float, y: float, h: float = 1e-4) -> float:
    """Five-point cartesian Laplacian."""
    return (
        g(x + h, y) + g(x - h, y) + g(x, y + h) + g(x, y - h) - 4.0 * g(x, y)
    ) / (h * h)


def fd_gradient_2d(
    g: Callable[[float, float], float], x: float, y: float, h: float = 1e-4
) -> tuple[float, float]:
    gx = (g(x + h, y) - g(x - h, y)) / (2.0 * h)
    gy = (g(x, y + h) - g(x, y - h)) / (2.0 * h)
    return gx, gy


def fd_biharmonic_radial(
    f: Callable[[float], float], r: float, dim: int = 2, h: float = 0.02
) -> float:
    """Nested radial Laplacian with Richardson extrapolation.

    Fourth-order operators amplify rounding by 1/h**4, so the step cannot
    be pushed anywhere near the 1e-4 used for second-order checks;
    extrapolating two moderate steps recovers ~1e-8 accuracy instead.
    """

    def nested(step: float) -> float:
        def lap(s: float) -> float:
            return fd_radial_laplacian(f, s, step, dim)

        return fd_radial_laplacian(lap, r, step, dim)

    return (4.0 * nested(h) - nested(2.0 * h)) / 3.0


# --------------------------------------------------------------------------
# linear-algebra references


def cond_1norm_explicit(a: np.ndarray) -> float:
    """kappa_1 via an explicitly computed inverse (reference route)."""
    a = np.asarray(a, dtype=float)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return math.inf
    norm = np.abs(a).sum(axis=0).max()
    inv_norm = np.abs(inv).sum(axis=0).max()
    return float(norm * inv_norm)


def count_lattice_in_ellipse(a: float, b: float, spacing: float) -> int:
    """Brute-force count of center-anchored lattice points strictly inside."""
    count = 0
    imax = int(math.ceil(a / spacing)) + 2
    jmax = int(math.ceil(b / spacing)) + 2
    for i in range(-imax, imax + 1):
        for j in range(-jmax, jmax + 1):
            x, y = i * spacing, j * spacing
            if (x / a) ** 2 + (y / b) ** 2 < 1.0 - 1e-9:
                count += 1
    return count


def solve_ref(a: Sequence[Sequence[float]], b) -> np.ndarray:
    """Reference dense solve through numpy's LAPACK binding."""
    return np.linalg.solve(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


# --------------------------------------------------------------------------
# distance and field references: the broadcast formulas ``evaluate`` used
# before its squared distances became one BLAS product per block.  The
# kernels are the solution's own, called without a work array.


def squared_distances_broadcast(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """dx*dx + dy*dy between rows[i] and cols[j], from two broadcast subtractions."""
    dx = rows[:, 0, None] - cols[None, :, 0]
    dy = rows[:, 1, None] - cols[None, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def evaluate_broadcast(sol, xy: np.ndarray) -> np.ndarray:
    """u = v + u_p at the (n, 2) points ``xy`` in blocks of max(256, 16384 // m)
    points, m knots (the collocation knots prepended when the expansion does
    not start with them): alpha @ phi_hat, plus the tail, plus lam @ J0."""
    expansion = sol.expansion
    n = len(sol.knots)
    positions = [tuple(k.position) for k in sol.knots]
    sources = np.array([tuple(p) for p in expansion.knots], dtype=float)
    first_drm = 0 if [tuple(p) for p in sources[:n].tolist()] == positions else n
    if first_drm:
        sources = np.concatenate([np.array(positions, dtype=float), sources])
    rows = max(256, 16384 // len(sources))
    out = np.empty(len(xy))
    for start in range(0, len(xy), rows):
        block = xy[start : start + rows]
        t = squared_distances_broadcast(sources, block)
        u = expansion.alpha @ expansion.pair.phi_hat.eval_sq(t[first_drm:])
        if expansion.tail is not None:
            u += expansion.tail[0]
            u += block @ expansion.tail[1:]
        u += sol.lam @ sol.kernel.eval_sq(t[:n])
        out[start : start + len(block)] = u
    return out

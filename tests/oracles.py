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


# --------------------------------------------------------------------------
# the discrete method in extended precision


def bkm_oracle(problem, n: int, dps: int = 60) -> Callable[[Sequence], np.ndarray]:
    """The boundary-only BKM solve of ``problem`` on n knots, in ``dps`` digits.

    The knots come from ``bkm.geometry.ellipse_knots``, and the boundary data
    and forcing from the problem's callbacks; each float64 value is read as the
    exact binary number it is.  Nothing else of the library is called.  u_p
    sums phi_hat = (r^2 + c^2)^(3/2) over the knots, plus the tail
    beta . (1, x, y) for a linear rho kind, whose DRM system is the bordered
    [[A_phi, k^2 P], [P^T, 0]] with phi = (lap + k^2){phi_hat} =
    9s - 3c^2/s + k^2 s^3, s = sqrt(r^2 + c^2), and right-hand side
    (f + s_rho u, 0).  Burger's rho = u - u_x u is u + sigma u_x with
    sigma = -u, u_x = D_x w from the phi-interpolant w of u, and alpha comes
    from the 2n block system [[A_phi, -sigma D_x], [0, A_phi]] (alpha, w) =
    (f + u, u).  lambda solves J0(k r_ij) lambda = u - u_p at the knots.

    Returns the field u = v + u_p as a function of points (``Point``s or
    pairs), evaluated in the same precision and rounded to float64.
    """
    from bkm.geometry import ellipse_knots

    with mp.workdps(dps):
        k = mp.mpf(problem.split_wavenumber)
        c_sq = mp.mpf(problem.mq_shape_c) ** 2
        positions = [knot.position for knot in ellipse_knots(problem.ellipse, n)]
        xs = [(mp.mpf(p[0]), mp.mpf(p[1])) for p in positions]
        g = [mp.mpf(problem.dirichlet(p)) for p in positions]
        f = [mp.mpf(problem.forcing(p)) for p in positions]

        def sq(a, b):
            return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2

        def phi_hat(t):
            return (t + c_sq) ** mp.mpf(1.5)

        def phi(t):
            s = mp.sqrt(t + c_sq)
            return 9 * s - 3 * c_sq / s + k**2 * s**3

        def phi_x(a, b):
            """d/da_x phi(|a - b|)."""
            s = mp.sqrt(sq(a, b) + c_sq)
            return (9 / s + 3 * c_sq / s**3 + 3 * k**2 * s) * (a[0] - b[0])

        def j0(a, b):
            return mp.besselj(0, k * mp.sqrt(sq(a, b)))

        a_phi = [[phi(sq(a, b)) for b in xs] for a in xs]
        kind = problem.rho.kind
        if kind == "burger":
            system = mp.zeros(2 * n, 2 * n)
            for i in range(n):
                for j in range(n):
                    system[i, j] = system[n + i, n + j] = a_phi[i][j]
                    system[i, n + j] = g[i] * phi_x(xs[i], xs[j])  # -sigma D_x
            rhs = mp.matrix([f[i] + g[i] for i in range(n)] + g)
            alpha, beta = list(mp.lu_solve(system, rhs))[:n], [0, 0, 0]
        else:
            scale = {"zero": 0, "identity": 1}.get(kind, problem.rho.scale)
            system = mp.zeros(n + 3, n + 3)
            for i, a in enumerate(xs):
                for j in range(n):
                    system[i, j] = a_phi[i][j]
                for j, p in enumerate((1, a[0], a[1])):
                    system[i, n + j] = k**2 * p
                    system[n + j, i] = p
            rhs = mp.matrix([f[i] + scale * g[i] for i in range(n)] + [0, 0, 0])
            solution = list(mp.lu_solve(system, rhs))
            alpha, beta = solution[:n], solution[n:]

        def u_p(a):
            value = mp.fsum(al * phi_hat(sq(a, b)) for al, b in zip(alpha, xs))
            return value + beta[0] + beta[1] * a[0] + beta[2] * a[1]

        j_matrix = mp.matrix([[j0(a, b) for b in xs] for a in xs])
        lam = list(mp.lu_solve(j_matrix, mp.matrix([g[i] - u_p(a) for i, a in enumerate(xs)])))

    def field(points) -> np.ndarray:
        with mp.workdps(dps):
            out = []
            for p in points:
                a = (mp.mpf(p[0]), mp.mpf(p[1]))
                out.append(float(mp.fsum(l * j0(a, b) for l, b in zip(lam, xs)) + u_p(a)))
        return np.array(out)

    return field

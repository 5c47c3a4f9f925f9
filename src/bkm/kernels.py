"""Radial kernel catalog for boundary knot collocation.

Houses the non-singular general solutions of the common 2D/3D operators
(Helmholtz and modified Helmholtz in the plane and in space, biharmonic
pairs, steady convection-diffusion) and the multiquadric pair used to
build dual-reciprocity particular solutions.

Every radial kernel's ``eval`` and ``deriv`` work elementwise: a float
radius gives a float, an ndarray of radii (typically a whole distance
matrix) gives an array of the same shape, and an element's value does not
depend on the rest of its array.  Collocation matrices are therefore one
kernel call on one distance matrix.  Every radial kernel also takes
squared distances: its value (``eval_sq``) and deriv(r)/r
(``deriv_sq``), from which ``directional_derivative`` makes flux rows.
J0 of ``helmholtz2d`` and both kernels of ``mq_pair`` do so with no sqrt
and no division by r, the others through eval(sqrt(t)) and
deriv(sqrt(t))/sqrt(t).  ``eval_sq`` writes into a caller's array when
given one (``out``).
The convection-diffusion kernel, a function of the displacement rather
than the distance, takes one displacement per call.

The four wavenumber-scaled general solutions (J0, I0 and the 3D sin and
sinh kernels) come from one factory: f(lam*r) with derivative
lam*f'(lam*r).  Every parameter a factory takes as positive (wavenumber,
shape, diffusivity) must be finite and positive, and the
convection-diffusion velocity and reaction must be finite; anything else
raises ValueError when the kernel is built.

Every radial kernel carries its analytic radial derivative, so collocation
rows never fall back to numerical differentiation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .specfun import (
    _check_range,
    _split,
    bessel_i0,
    bessel_i1,
    bessel_j0,
    bessel_j0_sq,
    bessel_j1,
    bessel_j1_over_x_sq,
)

__all__ = [
    "RadialKernel",
    "DisplacementKernel",
    "KernelPair",
    "helmholtz2d",
    "modified_helmholtz2d",
    "helmholtz3d",
    "modified_helmholtz3d",
    "biharmonic2d",
    "biharmonic3d",
    "convection_diffusion2d",
    "mq_pair",
    "directional_derivative",
]
# ``normal_derivative`` stays defined but unexported: only tests use it, and
# perfbench/tracing.py looks it up by name in this module.

@dataclass(frozen=True)
class RadialKernel:
    """A radial function r -> value together with its radial derivative.

    Attributes
    ----------
    eval : callable
        Kernel value at radius r >= 0, elementwise on arrays of radii.
    deriv : callable
        d(eval)/dr at radius r >= 0, elementwise on arrays of radii.
    label : str
        Short identifier used in diagnostics and CLI output.
    params : mapping
        Named parameters (wavenumber, shape) for reporting.
    sq : callable or None
        Value at the squared radius t = r^2, elementwise on arrays, with no
        square root (J0, phi_hat and phi); None for the others.  Called as
        sq(t, out) by ``eval_sq``, whose ``out`` it takes, None included.
    dsq : callable or None
        deriv(r)/r at t = r^2, elementwise on arrays, with no square root
        and no division by r (J0, phi_hat and phi); None for the others.
    """

    eval: Callable
    deriv: Callable
    label: str
    params: Mapping[str, float] = field(default_factory=dict)
    sq: Callable | None = None
    dsq: Callable | None = None

    def eval_sq(self, t, out=None):
        """Value at the squared radius t = r^2, elementwise on arrays: ``sq``
        where the kernel has it, else eval(sqrt(t)).  With ``out`` (float64,
        of t's shape, not overlapping t, which is float64 too) the values go
        there, and phi_hat of ``mq_pair`` leaves s = t + c^2 in t; the other
        kernels leave t as it is."""
        if self.sq is not None:
            return self.sq(t, out)
        if out is None:
            return self.eval(np.sqrt(t))
        out[...] = self.eval(np.sqrt(t, out=out))
        return out

    def deriv_sq(self, t):
        """deriv(r)/r at the squared radius t = r^2, elementwise on arrays:
        ``dsq`` where the kernel has it, else deriv(sqrt(t))/sqrt(t) with 0
        at t = 0, where a flux row multiplies it by a zero projection."""
        if self.dsq is not None:
            return self.dsq(t)
        r = np.sqrt(t)
        coincident = r == 0.0
        safe_r = np.where(coincident, 1.0, r)
        return np.where(coincident, 0.0, self.deriv(safe_r) / safe_r)[()]


@dataclass(frozen=True)
class DisplacementKernel:
    """A kernel of the displacement vector, not only of its norm."""

    eval: Callable[[tuple[float, float]], float]
    label: str
    params: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class KernelPair:
    """Approximate particular solution ``phi_hat`` and its operator image ``phi``.

    ``phi`` is (lap + wavenumber^2){phi_hat}; right-hand sides are
    interpolated with ``phi`` while particular solutions are summed with
    ``phi_hat``, so that applying the operator to the particular solution
    reproduces the interpolant exactly.
    """

    phi_hat: RadialKernel
    phi: RadialKernel
    wavenumber: float = 1.0


def _require_positive(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


def _scaled(lam: float, f: Callable, df: Callable, label: str, *squared: Callable) -> RadialKernel:
    """The kernel f(lam*r) with derivative lam*f'(lam*r), for a finite positive
    wavenumber lam; ``squared``, when given, holds the builders of its ``sq``
    and ``dsq``, called with lam."""
    lam = _require_positive(lam, "wavenumber")

    def ev(r):
        return f(lam * r)

    def dv(r):
        return lam * df(lam * r)

    return RadialKernel(ev, dv, label, {"lambda": lam}, *(make(lam) for make in squared))


def _j0_sq(lam: float) -> Callable:
    """t -> J0(lam*sqrt(t)): at lam = 1, which every built-in problem uses,
    ``bessel_j0_sq`` itself, with no scaling pass."""
    lam_sq = lam * lam
    return bessel_j0_sq if lam_sq == 1.0 else lambda t, out=None: bessel_j0_sq(lam_sq * t, out)


def _j0_dsq(lam: float) -> Callable:
    """t -> -lam^2 J1(x)/x at x = lam*sqrt(t), J0(lam*r)'s deriv(r)/r."""
    lam_sq = lam * lam
    return lambda t: -lam_sq * bessel_j1_over_x_sq(lam_sq * t)


def helmholtz2d(lam: float) -> RadialKernel:
    """Non-singular general solution J0(lam*r) of the 2D operator lap + lam^2."""
    return _scaled(lam, bessel_j0, lambda s: -bessel_j1(s), "j0", _j0_sq, _j0_dsq)


def modified_helmholtz2d(lam: float) -> RadialKernel:
    """Non-singular general solution I0(lam*r) of the 2D operator lap - lam^2."""
    return _scaled(lam, bessel_i0, bessel_i1, "i0")


def _sin_over(s, sign: float):
    """sin(s)/s for sign = -1, sinh(s)/s for sign = +1 (the sign of the s^2
    term of its series), with the removable singularity filled in; the sinh
    form raises OverflowError past |s| = 710, where sinh and cosh overflow."""
    sin = np.sinh if sign > 0 else np.sin
    if sign > 0:
        _check_range(s, 710.0, "sinh")

    def series(s):
        s2 = s * s
        return 1.0 + sign * s2 / 6.0 + s2 * s2 / 120.0

    s = np.asarray(s, dtype=float)
    return _split(np.abs(s) < 1e-4, series, lambda s: sin(s) / s, s)


def _d_sin_over(s, sign: float):
    """d/ds of ``_sin_over``, (cos s - sin(s)/s)/s, which never forms s*s;
    the series near 0 avoids cancellation."""
    sin, cos = (np.sinh, np.cosh) if sign > 0 else (np.sin, np.cos)
    if sign > 0:
        _check_range(s, 710.0, "sinh")

    def series(s):
        s2 = s * s
        return s * (sign / 3.0 + s2 / 30.0 + sign * s2 * s2 / 840.0)

    s = np.asarray(s, dtype=float)
    return _split(np.abs(s) < 2e-2, series, lambda s: (cos(s) - sin(s) / s) / s, s)


# The inputs of the 3D kernels, by name, as the kernel tests import them.
_sinc = functools.partial(_sin_over, sign=-1.0)
_dsinc = functools.partial(_d_sin_over, sign=-1.0)
_sinhc = functools.partial(_sin_over, sign=1.0)
_dsinhc = functools.partial(_d_sin_over, sign=1.0)


def helmholtz3d(lam: float) -> RadialKernel:
    """Non-singular general solution sin(lam*r)/(lam*r) of the 3D operator lap + lam^2."""
    return _scaled(lam, _sinc, _dsinc, "sinc3d")


def modified_helmholtz3d(lam: float) -> RadialKernel:
    """Non-singular general solution sinh(lam*r)/(lam*r) of the 3D operator lap - lam^2;
    value and derivative raise OverflowError where |lam*r| > 710."""
    return _scaled(lam, _sinhc, _dsinhc, "sinh3d")


def biharmonic2d(lam: float) -> tuple[RadialKernel, RadialKernel]:
    """Independent pair {J0(lam*r), I0(lam*r)} spanning 2D biharmonic solutions.

    Each component is annihilated by one factor of
    lap^2 - lam^4 = (lap + lam^2)(lap - lam^2), so the pair spans the
    non-singular solutions of the fourth-order operator.  Downstream
    collocation allocates two coefficient sets per knot.
    """
    return helmholtz2d(lam), modified_helmholtz2d(lam)


def biharmonic3d(lam: float) -> tuple[RadialKernel, RadialKernel]:
    """Independent pair {sin(lam*r)/(lam*r), sinh(lam*r)/(lam*r)} for 3D biharmonics."""
    return helmholtz3d(lam), modified_helmholtz3d(lam)


def convection_diffusion2d(
    D: float, v: tuple[float, float], k: float
) -> DisplacementKernel:
    """Non-singular general solution of 2D steady convection-diffusion.

    eval(delta) = exp(-(v . delta) / (2D)) * J0(mu * ||delta||) with
    mu = sqrt((|v|/2D)^2 + k/D), where ``delta`` is the displacement
    response - source.  It annihilates D lap + v . grad + (k + |v|^2/(2D)).

    Raises
    ------
    ValueError
        If D is not finite and positive, v or k is not finite, or the
        wavenumber would be imaginary (mu^2 < 0) or overflow.
    """
    D = _require_positive(D, "diffusivity")
    vx, vy = float(v[0]), float(v[1])
    if not all(map(math.isfinite, (vx, vy, k))):
        raise ValueError(f"velocity and reaction must be finite, got v=({vx}, {vy}), k={k}")
    half = math.hypot(vx, vy) / (2.0 * D)
    mu_sq = half * half + k / D
    if mu_sq < 0.0:
        raise ValueError(f"imaginary wavenumber out of scope: mu^2 = {mu_sq}")
    if not mu_sq < math.inf:
        raise ValueError(f"wavenumber overflows: mu^2 = {mu_sq}")
    mu = math.sqrt(mu_sq)

    def ev(delta: tuple[float, float]) -> float:
        dx, dy = delta
        drift = math.exp(-(vx * dx + vy * dy) / (2.0 * D))
        return drift * bessel_j0(mu * math.hypot(dx, dy))

    return DisplacementKernel(
        ev, "convection2d", {"D": D, "vx": vx, "vy": vy, "k": k, "mu": mu}
    )


def mq_pair(c: float, wavenumber: float = 1.0) -> KernelPair:
    """Multiquadric pair: phi_hat = (r^2+c^2)^(3/2) and phi = (lap + k^2){phi_hat}.

    With s = sqrt(r^2+c^2), the 2D radial Laplacian of phi_hat is
    6s + 3r^2/s, so phi(r) = 6s + 3r^2/s + k^2 s^3 for the split
    wavenumber k = ``wavenumber``.  Both kernels are functions of t = r^2:
    values and deriv(r)/r (3s for phi_hat, 12/s - 3t/s^3 + 3k^2 s for phi)
    come from t with no square root of t and no division by r, and eval and
    deriv are these at t = r * r (deriv times r).

    Raises
    ------
    ValueError
        If the shape parameter ``c`` or the wavenumber is not finite and
        positive, or c * c underflows to 0 (c below about 1.5e-162), which
        would make phi(0) = 0/0.
    """
    c = _require_positive(c, "shape parameter")
    k = _require_positive(wavenumber, "wavenumber")
    k_sq = k * k
    c_sq = c * c
    if c_sq == 0.0:
        raise ValueError(f"shape parameter c = {c!r} is too small: c * c underflows to 0")

    # In place; with ``out`` (``RadialKernel.eval_sq``) s takes t's array.
    def hat_sq(t, out=None):
        s = t + c_sq if out is None else np.add(t, c_sq, out=t)
        value = np.sqrt(s, out=out)
        value *= s
        return value

    def hat_dsq(t):
        return 3.0 * np.sqrt(t + c_sq)

    # 6s + 3t/s + k^2 s^3, summed in that order; only the last sum goes to
    # ``out``, which may be a strided block of a larger matrix.
    def phi_sq(t, out=None):
        s = np.sqrt(t + c_sq)
        value = 6.0 * s
        term = 3.0 * t
        term /= s
        value += term
        term = k_sq * s
        term *= s
        term *= s
        return np.add(value, term, out=out)

    # Powers are products: the ** operator of a numpy scalar can differ
    # from the array's power in the last bit.
    def phi_dsq(t):
        s = np.sqrt(t + c_sq)
        return 12.0 / s - 3.0 * t / (s * s * s) + 3.0 * k_sq * s

    def radial(sq, dsq, label):
        ev, dv = (lambda r: sq(r * r)), (lambda r: r * dsq(r * r))
        return RadialKernel(ev, dv, label, {"c": c}, sq, dsq)

    return KernelPair(radial(hat_sq, hat_dsq, "mq_phi_hat"), radial(phi_sq, phi_dsq, "mq_phi"), k)


def normal_derivative(kernel: RadialKernel, source, response, normal):
    """Directional derivative of kernel(||x - source||) at x = response along ``normal``.

    Equal to kernel.deriv(r) * ((response - source) . normal) / r with
    r the source-response distance, taken as ``directional_derivative``
    of t = dx*dx + dy*dy; coincident points give 0.

    ``source``, ``response`` and ``normal`` are points or arrays whose last
    axis holds (x, y); they broadcast against each other, so one call with
    ``sources[None, :]``, ``responses[:, None]`` and ``normals[:, None]``
    builds a whole matrix of normal derivatives.  Single points give a
    scalar.
    """
    source = np.asarray(source, dtype=float)
    response = np.asarray(response, dtype=float)
    normal = np.asarray(normal, dtype=float)
    dx = response[..., 0] - source[..., 0]
    dy = response[..., 1] - source[..., 1]
    return directional_derivative(kernel, dx * dx + dy * dy, dx * normal[..., 0] + dy * normal[..., 1])


def directional_derivative(kernel: RadialKernel, t, proj):
    """kernel.deriv(r) * proj / r elementwise, from t = r^2: ``deriv_sq(t) * proj``.

    With r = ||x - s|| and proj = (x - s) . d this is the derivative of
    kernel(||x - s||) at x along d, for callers that already hold the
    squared distances; where x = s, proj = 0 makes it 0.
    """
    return kernel.deriv_sq(t) * proj

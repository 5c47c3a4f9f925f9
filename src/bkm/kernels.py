"""Radial kernel catalog for boundary knot collocation.

Houses the non-singular general solutions of the common 2D/3D operators
(Helmholtz and modified Helmholtz in the plane and in space, biharmonic
pairs, steady convection-diffusion), the multiquadric pair used to build
dual-reciprocity particular solutions, the general-solution RBF factory
with its pre-wavelet variant, and the singular log pair used in
completeness studies.

Every radial kernel's ``eval`` and ``deriv`` work elementwise: a float
radius gives a float, an ndarray of radii (typically a whole distance
matrix) gives an array of the same shape, and an element's value does not
depend on the rest of its array.  Collocation matrices are therefore one
kernel call on one distance matrix.  Every radial kernel also takes
squared distances (``eval_sq``); J0 of ``helmholtz2d`` and phi_hat of
``mq_pair`` do so with no sqrt, the others through eval(sqrt(t)).
The convection-diffusion kernel, a function of the displacement rather
than the distance, takes one displacement per call.

The four wavenumber-scaled general solutions (J0, I0 and the 3D sin and
sinh kernels) come from one factory: f(lam*r) with derivative
lam*f'(lam*r).  Every parameter a factory takes as positive (wavenumber,
shape, diffusivity, pre-wavelet shift) must be finite and positive, and
the convection-diffusion velocity and reaction must be finite; anything
else raises ValueError when the kernel is built.

Every radial kernel carries its analytic radial derivative, so collocation
rows never fall back to numerical differentiation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .specfun import bessel_i0, bessel_i1, bessel_j0, bessel_j0_sq, bessel_j1

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
    "gsr_kernel",
    "biharmonic_mfs_pair",
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
        Named parameters (wavenumber, shape, exponent) for reporting.
    sq : callable or None
        Value at the squared radius t = r^2, elementwise on arrays, with no
        square root (J0 and phi_hat); None for the others.  Read it
        through ``eval_sq``.
    """

    eval: Callable
    deriv: Callable
    label: str
    params: Mapping[str, float] = field(default_factory=dict)
    sq: Callable | None = None

    def eval_sq(self, t):
        """Value at the squared radius t = r^2, elementwise on arrays: ``sq``
        where the kernel has it, else eval(sqrt(t))."""
        return self.eval(np.sqrt(t)) if self.sq is None else self.sq(t)


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


def _scaled(
    lam: float, f: Callable, df: Callable, label: str, sq: Callable | None = None
) -> RadialKernel:
    """The kernel f(lam*r) with derivative lam*f'(lam*r), for a finite positive
    wavenumber lam; ``sq(lam)``, when given, builds its ``sq``."""
    lam = _require_positive(lam, "wavenumber")

    def ev(r):
        return f(lam * r)

    def dv(r):
        return lam * df(lam * r)

    return RadialKernel(ev, dv, label, {"lambda": lam}, None if sq is None else sq(lam))


def _j0_sq(lam: float) -> Callable:
    """t -> J0(lam*sqrt(t)): at lam = 1, which every built-in problem uses,
    ``bessel_j0_sq`` itself, with no scaling pass."""
    lam_sq = lam * lam
    return bessel_j0_sq if lam_sq == 1.0 else lambda t: bessel_j0_sq(lam_sq * t)


def helmholtz2d(lam: float) -> RadialKernel:
    """Non-singular general solution J0(lam*r) of the 2D operator lap + lam^2."""
    return _scaled(lam, bessel_j0, lambda s: -bessel_j1(s), "j0", _j0_sq)


def modified_helmholtz2d(lam: float) -> RadialKernel:
    """Non-singular general solution I0(lam*r) of the 2D operator lap - lam^2."""
    return _scaled(lam, bessel_i0, bessel_i1, "i0")


def _near_zero(s, threshold: float, series, closed):
    """``series(s)`` where |s| < threshold, ``closed(s)`` elsewhere, elementwise.

    The closed form is evaluated with 1 in place of the small arguments, so
    it never sees its removable singularity at 0, and the series with 0 in
    place of the others, so it never overflows on them.
    """
    s = np.asarray(s, dtype=float)
    small = np.abs(s) < threshold
    return np.where(small, series(np.where(small, s, 0.0)), closed(np.where(small, 1.0, s)))[()]


def _sin_over(s, sign: float):
    """sin(s)/s for sign = -1, sinh(s)/s for sign = +1 (the sign of the s^2
    term of its series), with the removable singularity filled in."""
    sin = np.sinh if sign > 0 else np.sin

    def series(s):
        s2 = s * s
        return 1.0 + sign * s2 / 6.0 + s2 * s2 / 120.0

    return _near_zero(s, 1e-4, series, lambda s: sin(s) / s)


def _d_sin_over(s, sign: float):
    """d/ds of ``_sin_over``; the series near 0 avoids cancellation."""
    sin, cos = (np.sinh, np.cosh) if sign > 0 else (np.sin, np.cos)

    def series(s):
        s2 = s * s
        return s * (sign / 3.0 + s2 / 30.0 + sign * s2 * s2 / 840.0)

    return _near_zero(s, 2e-2, series, lambda s: (s * cos(s) - sin(s)) / (s * s))


# The inputs of the 3D kernels, by name, as the kernel tests import them.
_sinc = functools.partial(_sin_over, sign=-1.0)
_dsinc = functools.partial(_d_sin_over, sign=-1.0)
_sinhc = functools.partial(_sin_over, sign=1.0)
_dsinhc = functools.partial(_d_sin_over, sign=1.0)


def helmholtz3d(lam: float) -> RadialKernel:
    """Non-singular general solution sin(lam*r)/(lam*r) of the 3D operator lap + lam^2."""
    return _scaled(lam, _sinc, _dsinc, "sinc3d")


def modified_helmholtz3d(lam: float) -> RadialKernel:
    """Non-singular general solution sinh(lam*r)/(lam*r) of the 3D operator lap - lam^2."""
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
    wavenumber k = ``wavenumber``.

    Raises
    ------
    ValueError
        If the shape parameter ``c`` or the wavenumber is not finite and
        positive.
    """
    c = _require_positive(c, "shape parameter")
    k = _require_positive(wavenumber, "wavenumber")
    k_sq = k * k
    c_sq = c * c

    # In place: an evaluation block allocates and pages in one array fewer.
    def hat_sq(t):
        s = t + c_sq
        value = np.sqrt(s)
        value *= s
        return value

    def hat(r):
        return hat_sq(r * r)

    def hat_d(r):
        return 3.0 * r * np.sqrt(r * r + c_sq)

    def phi(r):
        s = np.sqrt(r * r + c_sq)
        return 6.0 * s + 3.0 * r * r / s + k_sq * s * s * s

    # Powers go through np.power, whose scalar and array results agree;
    # the ** operator of a numpy scalar can differ from it in the last bit.
    def phi_d(r):
        s = np.sqrt(r * r + c_sq)
        return 12.0 * r / s - 3.0 * np.power(r, 3) / np.power(s, 3) + 3.0 * k_sq * r * s

    return KernelPair(
        RadialKernel(hat, hat_d, "mq_phi_hat", {"c": c}, hat_sq),
        RadialKernel(phi, phi_d, "mq_phi", {"c": c}),
        k,
    )


def gsr_kernel(g: RadialKernel, m: int = 0, *, prewavelet_c: float | None = None) -> RadialKernel:
    """Build the RBF r^(2m) g(r) from a general solution ``g`` of the target operator.

    Parameters
    ----------
    g : RadialKernel
        General solution of the operator the RBF should serve.
    m : int
        Smoothing exponent; the kernel carries an r^(2m) factor.  With
        m >= 1 the factor crushes any logarithmic singularity of ``g``,
        and eval/deriv are defined as 0 at r = 0 by that limit.
    prewavelet_c : float, optional
        When set (finite and positive), every occurrence of r is replaced
        by sqrt(r^2 + c^2), turning the kernel into its pre-wavelet variant.

    Returns
    -------
    RadialKernel
        With the analytic derivative from g and g'; with m = 0 and no
        pre-wavelet, ``g`` itself.

    Raises
    ------
    ValueError
        If ``m`` < 0 or ``prewavelet_c`` is not finite and positive.
    """
    if m < 0:
        raise ValueError(f"smoothing exponent must be >= 0, got m={m}")
    if prewavelet_c is not None:
        prewavelet_c = _require_positive(prewavelet_c, "pre-wavelet shift c")
    if m == 0 and prewavelet_c is None:
        return g

    pc_sq = None if prewavelet_c is None else prewavelet_c**2

    def radius(r):
        if pc_sq is None:
            return r
        return np.sqrt(r * r + pc_sq)

    # Without the pre-wavelet shift, m >= 1 defines eval and deriv as 0 at
    # r = 0; those radii are replaced by 1 before g sees them.
    def with_zero_limit(f, r):
        r = np.asarray(r, dtype=float)
        if pc_sq is not None:
            return f(r)
        at_zero = r == 0.0
        return np.where(at_zero, 0.0, f(np.where(at_zero, 1.0, r)))[()]

    def ev(r):
        s = radius(r)
        return np.power(s, 2 * m) * g.eval(s)

    def dv(r):
        s = radius(r)
        inner = np.power(s, 2 * m) * g.deriv(s)
        if m >= 1:
            inner = 2 * m * np.power(s, 2 * m - 1) * g.eval(s) + inner
        return inner if pc_sq is None else inner * (r / s)

    suffix = ",prewavelet" if prewavelet_c is not None else ""
    params = {"m": float(m)}
    if prewavelet_c is not None:
        params["prewavelet_c"] = prewavelet_c
    params.update(g.params)
    return RadialKernel(
        lambda r: with_zero_limit(ev, r),
        lambda r: with_zero_limit(dv, r),
        f"gsr[m={m}{suffix}]({g.label})",
        params,
    )


def biharmonic_mfs_pair() -> tuple[RadialKernel, RadialKernel]:
    """Singular log pair {ln(r)+1, r^2(ln(r)+1)} for completeness studies.

    Intended for distinct source/response points only; both kernels raise
    if any r <= 0 because of the logarithmic singularity.
    """

    def _check(r):
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise ValueError(f"kernel singular at r = 0, got r={float(r.min())}")
        return r

    def ln1(r):
        return np.log(_check(r)) + 1.0

    def ln1_d(r):
        return 1.0 / _check(r)

    def r2ln1(r):
        r = _check(r)
        return r * r * (np.log(r) + 1.0)

    def r2ln1_d(r):
        r = _check(r)
        return r * (2.0 * np.log(r) + 3.0)

    return (
        RadialKernel(ln1, ln1_d, "mfs_ln", {}),
        RadialKernel(r2ln1, r2ln1_d, "mfs_r2ln", {}),
    )


def normal_derivative(kernel: RadialKernel, source, response, normal):
    """Directional derivative of kernel(||x - source||) at x = response along ``normal``.

    Equal to kernel.deriv(r) * ((response - source) . normal) / r with
    r the source-response distance; the r -> 0 limit is 0 for every kernel
    whose deriv(r)/r stays bounded, so coincident points give 0.

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
    return directional_derivative(kernel, np.hypot(dx, dy), dx * normal[..., 0] + dy * normal[..., 1])


def directional_derivative(kernel: RadialKernel, r, proj):
    """kernel.deriv(r) * proj / r elementwise, and 0 where r = 0.

    With r = ||x - s|| and proj = (x - s) . d this is the derivative of
    kernel(||x - s||) at x along d, for callers that already hold the
    distances (a distance matrix).
    """
    coincident = r == 0.0
    safe_r = np.where(coincident, 1.0, r)
    return np.where(coincident, 0.0, kernel.deriv(safe_r) * proj / safe_r)[()]

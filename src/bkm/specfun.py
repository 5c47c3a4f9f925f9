"""Bessel functions of the first kind (J0, J1) and modified first kind (I0, I1).

Each function takes a float or an ndarray and works elementwise: an array
argument gives an array of the same shape, a scalar gives a float, and an
element's value does not depend on the other elements of its array.  The
implementations need only numpy and are sized for collocation kernels:
absolute error below 1e-12 for |x| <= 50 on the J functions, relative
error below 1e-12 for |x| <= 100 on the I functions.  For |x| <= 5 the J
functions are a polynomial in x^2: J_nu(x) / (x/2)^nu = 1 + t p_nu(t),
t = x^2, with p_nu of degree 11 fitted on t in [0, 25] by
``scripts/fit_j_tables.py`` (mpmath ``chebyfit`` at 50 digits; fit error
2.3e-18 for J0 and 1.6e-19 for J1, and an absolute error in doubles of at
most 1.8e-15 for J0 and 1.3e-15 for J1 on |x| <= 5).  Beyond, they switch
to the Hankel asymptotic form with the rational coefficient tables from
the Cephes math library (S. L. Moshier, release 2.1, 1989).  The I
functions are summed by their Taylor series.
``bessel_j0_sq`` gives J0 from x^2, for kernels of r^2 alone.  J0, J1 and
J0 from x^2 reach the polynomial and the Hankel form through one masked
near/far split, ``_split``, which the 3D kernels share for their series.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bessel_j0", "bessel_j0_sq", "bessel_j1", "bessel_i0", "bessel_i1"]

# Beyond this magnitude the I-function values exceed ~1e42 and callers are
# better served by an explicit error than by a silent loss of meaning.
_I_RANGE_MAX = 100.0

# The I series adds terms until every element's term drops below this
# fraction of its running sum; it ends in well under 200 terms for |x| <= 100.
_I_TERM_FLOOR = 1e-17

# Up to this |x| the J functions are a polynomial in x^2 (the tables below);
# beyond it, the Hankel form.
_J_SERIES_MAX = 5.0

# J_nu(x) / (x/2)^nu = 1 + t p_nu(t), t = x^2, for |x| <= 5: the coefficients
# of t p_nu(t) + 1, highest power first, written by scripts/fit_j_tables.py.
_J0_SMALL = (
    2.079295701600324e-25,
    -1.4635227324955775e-22,
    7.230110655405706e-20,
    -2.896616059697861e-17,
    9.3859219337528e-15,
    -2.402807077203055e-12,
    4.709502764431554e-10,
    -6.78168402634694e-08,
    6.781684027740743e-06,
    -0.0004340277777777282,
    0.015624999999999974,
    -0.25,
    1.0,
)
_J1_SMALL = (
    1.625352834359483e-26,
    -1.2232854863507727e-23,
    6.575100874810793e-21,
    -2.8966957917533314e-18,
    1.0428819642194136e-15,
    -3.003509095375543e-13,
    6.727861115064068e-11,
    -1.1302806711927936e-08,
    1.3563368055528762e-06,
    -0.00010850694444444086,
    0.005208333333333331,
    -0.125,
    1.0,
)

_SQ2OPI = 7.9788456080286535587989e-1  # sqrt(2/pi)
_PIO4 = 7.85398163397448309616e-1  # pi/4
_THPIO4 = 2.35619449019234492885  # 3*pi/4

# Hankel asymptotic tables for J0, |x| > 5: J0(x) ~ sqrt(2/(pi x)) *
# (P(25/x^2) cos(x - pi/4) - (5/x) Q(25/x^2) sin(x - pi/4)).
_PP = (
    7.96936729297347051624e-4,
    8.28352392107440799803e-2,
    1.23953371646414299388e0,
    5.44725003058768775090e0,
    8.74716500199817011941e0,
    5.30324038235394892183e0,
    9.99999999999999997821e-1,
)
_PQ = (
    9.24408810558863637013e-4,
    8.56288474354474431428e-2,
    1.25352743901058953537e0,
    5.47097740330417105182e0,
    8.76190883237069594232e0,
    5.30605288235394617618e0,
    1.00000000000000000218e0,
)
_QP = (
    -1.13663838898469149931e-2,
    -1.28252718670509318512e0,
    -1.95539544257735972385e1,
    -9.32060152123768231369e1,
    -1.77681167980488050595e2,
    -1.47077505154951170175e2,
    -5.14105326766599330220e1,
    -6.05014350600728481186e0,
)
_QQ = (
    1.0,
    6.43178256118178023184e1,
    8.56430025976980587198e2,
    3.88240183605401609683e3,
    7.24046774195652478189e3,
    5.93072701187316984827e3,
    2.06209331660327847417e3,
    2.42005740240291393179e2,
)
_J0_HANKEL = (_PP, _PQ, _QP, _QQ, _PIO4)

# Hankel asymptotic tables for J1, |x| > 5 (phase x - 3*pi/4).
_PP1 = (
    7.62125616208173112003e-4,
    7.31397056940917570436e-2,
    1.12719608129684925192e0,
    5.11207951146807644818e0,
    8.42404590141772420927e0,
    5.21451598682361504063e0,
    1.00000000000000000254e0,
)
_PQ1 = (
    5.71323128072548699714e-4,
    6.88455908754495404082e-2,
    1.10514232634061696926e0,
    5.07386386128601488557e0,
    8.39985554327604159757e0,
    5.20982848682361821619e0,
    9.99999999999999997461e-1,
)
_QP1 = (
    5.10862594750176621635e-2,
    4.98213872951233449420e0,
    7.58238284132545283818e1,
    3.66779609360150777800e2,
    7.10856304998926107277e2,
    5.97489612400613639965e2,
    2.11688757100572135698e2,
    2.52070205858023719784e1,
)
_QQ1 = (
    1.0,
    7.42373277035675149943e1,
    1.05644886038262816351e3,
    4.98641058337653607651e3,
    9.56231892404756170795e3,
    7.99704160447350683650e3,
    2.82619278517639096600e3,
    3.36093607810698293419e2,
)


# The series and polynomials below are written with arithmetic operators
# only, so that they run on numpy scalars (a 0-d argument, at scalar speed)
# and on arrays alike; ``x *= y`` is in place on arrays and rebinds scalars.


def _polevl(x, coef: tuple[float, ...], out=None):
    """Evaluate coef[0]*x^N + ... + coef[N] by Horner's rule, in place (in
    ``out`` when given)."""
    ans = x * coef[0] if out is None else np.multiply(x, coef[0], out=out)
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _finite_array(x) -> np.ndarray:
    """``x`` as a float array; ValueError names the first non-finite element."""
    arr = np.asarray(x, dtype=float)
    bad = ~np.isfinite(arr)
    if bad.any():
        raise ValueError(f"Bessel argument must be finite, got {float(arr[bad][0])!r}")
    return arr


def _check_range(x, limit: float, name: str) -> None:
    """OverflowError naming the first |x| > limit, for the function ``name``."""
    arr = np.asarray(x, dtype=float)
    too_big = np.abs(arr) > limit
    if too_big.any():
        raise OverflowError(f"{name} argument out of range: |{float(arr[too_big][0])!r}| > {limit}")


def _result(values: np.ndarray, arg: np.ndarray):
    """A float for a 0-d argument, the array otherwise."""
    return float(values) if arg.ndim == 0 else values


def _hankel(ax, pp, pq, qp, qq, phase: float):
    """Cephes asymptotic form for ax > 5: sqrt(2/(pi ax)) (P cos(xn) - (5/ax) Q sin(xn))."""
    w = 5.0 / ax
    with np.errstate(over="ignore"):  # ax * ax is inf past 1.3e154, where z -> 0 is right
        z = 25.0 / (ax * ax)
    p = _polevl(z, pp) / _polevl(z, pq)
    q = _polevl(z, qp) / _polevl(z, qq)
    xn = ax - phase
    return _SQ2OPI * (p * np.cos(xn) - w * q * np.sin(xn)) / np.sqrt(ax)


def _split(near, near_form, far_form, x):
    """``near_form(x)`` where ``near`` is true, ``far_form(x)`` where it is
    false, each form on its own elements only, so neither sees the other's
    singularity or overflow; when every element falls on one side (a 0-d
    ``x`` always does), that form takes the whole of ``x``, with no mask."""
    if near.all():
        return near_form(x)
    if not near.any():
        return far_form(x)
    far = ~near
    out = np.empty(near.shape)
    out[near] = near_form(x[near])
    out[far] = far_form(x[far])
    return out


def _j(x, order: int, hankel: tuple, squared: bool = False):
    """J0 or J1 (by ``order``; ``hankel`` holds its tables and phase) of a
    float array x, or J0 of sqrt(x) when ``squared``; a float for 0-d x."""

    def near(x):
        scaled = _polevl(x if squared else x * x, _J1_SMALL if order else _J0_SMALL)
        return 0.5 * x * scaled if order else scaled

    def far(x):
        value = _hankel(np.sqrt(x) if squared else np.abs(x), *hankel)
        return np.where(x < 0.0, -value, value) if order else value

    near_mask = x <= _J_SERIES_MAX * _J_SERIES_MAX if squared else np.abs(x) <= _J_SERIES_MAX
    return _result(_split(near_mask, near, far, x), x)


def bessel_j0_sq(x_sq, out=None):
    """J0(sqrt(x_sq)) of squared arguments, elementwise, with no square root
    where x_sq <= 25; a float for a scalar argument.  Unchecked: x_sq must
    be finite and >= 0.

    An array with no element above 25 is one polynomial pass, with no mask.
    With ``out`` (float64, of x_sq's shape, not overlapping x_sq, which is
    float64 too) the values go there."""
    if out is not None and x_sq.max(initial=0.0) <= _J_SERIES_MAX * _J_SERIES_MAX:
        return _polevl(x_sq, _J0_SMALL, out)
    values = _j(np.asarray(x_sq, dtype=float), 0, _J0_HANKEL, squared=True)
    if out is None:
        return values
    out[...] = values
    return out


def bessel_j0(x):
    """Bessel function of the first kind, order zero, elementwise.

    Parameters
    ----------
    x : float or ndarray
        Finite argument(s); negative values use the evenness J0(-x) = J0(x).

    Returns
    -------
    float or ndarray
        J0(x), absolute error <= 1e-12 for |x| <= 50; a float for a
        scalar argument.

    Raises
    ------
    ValueError
        If any element of ``x`` is NaN or infinite.
    """
    return _j(_finite_array(x), 0, _J0_HANKEL)


def bessel_j1(x):
    """Bessel function of the first kind, order one, elementwise.

    Parameters
    ----------
    x : float or ndarray
        Finite argument(s); negative values use the oddness J1(-x) = -J1(x).

    Returns
    -------
    float or ndarray
        J1(x), absolute error <= 1e-12 for |x| <= 50; a float for a
        scalar argument.

    Raises
    ------
    ValueError
        If any element of ``x`` is NaN or infinite.
    """
    return _j(_finite_array(x), 1, (_PP1, _PQ1, _QP1, _QQ1, _THPIO4))


def _i_series(arr: np.ndarray, order: int):
    """Taylor sum of I_order(x) / (x/2)^order, stopped once every element's
    term is below ``_I_TERM_FLOOR`` of its sum; the terms after that are
    below half an ulp of the sum and would not change it.

    A 0-d argument is summed on Python floats: they are IEEE doubles like
    numpy's, so the sum is the same to the bit, without numpy's cost per
    scalar operation.
    """
    scalar = arr.ndim == 0
    x = float(arr) if scalar else arr
    unfinished = bool if scalar else np.any
    q = 0.25 * x * x
    term = total = 1.0
    k = 1
    while unfinished(term > _I_TERM_FLOOR * total):
        term *= q / (k * (k + order))
        total += term
        k += 1
    return total


def bessel_i0(x):
    """Modified Bessel function of the first kind, order zero, elementwise.

    Parameters
    ----------
    x : float or ndarray
        Finite argument(s) with |x| <= 100; even in x.

    Returns
    -------
    float or ndarray
        I0(x), relative error <= 1e-12; a float for a scalar argument.

    Raises
    ------
    ValueError
        If any element of ``x`` is NaN or infinite.
    OverflowError
        If any |x| > 100 (value would exceed the guarded range).
    """
    arr = _finite_array(x)
    _check_range(arr, _I_RANGE_MAX, "bessel_i0")
    return _result(_i_series(arr, 0), arr)


def bessel_i1(x):
    """Modified Bessel function of the first kind, order one, elementwise.

    Parameters
    ----------
    x : float or ndarray
        Finite argument(s) with |x| <= 100; odd in x.

    Returns
    -------
    float or ndarray
        I1(x), relative error <= 1e-12; a float for a scalar argument.

    Raises
    ------
    ValueError
        If any element of ``x`` is NaN or infinite.
    OverflowError
        If any |x| > 100 (value would exceed the guarded range).
    """
    arr = _finite_array(x)
    _check_range(arr, _I_RANGE_MAX, "bessel_i1")
    return _result(0.5 * arr * _i_series(arr, 1), arr)

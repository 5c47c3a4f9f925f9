#!/usr/bin/env python3
"""Refit the polynomial tables of J0 and J1 on |x| <= 5 in ``bkm.specfun``.

For |x| <= 5, ``specfun`` evaluates J_nu(x) / (x/2)^nu = 1 + t p_nu(t),
t = x^2, nu = 0, 1, with p_nu of degree 11.  This script fits p_nu with
``mpmath.chebyfit`` at 50 digits on t in [0, 25], as a fit of
(S_nu(t) - 1) / t with S_nu(t) = J_nu(x) / (x/2)^nu, so the constant term
stays exactly 1.  mpmath is pure Python, so the fit gives the same
doubles on every machine.

Usage:
    python scripts/fit_j_tables.py          # print both tables as Python source
    python scripts/fit_j_tables.py --check  # exit 1 unless they equal the stored tables
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath

DIGITS = 50
T_MAX = 25  # t = x^2 on |x| <= 5
DEGREE = 11
TABLE_NAMES = {0: "_J0_SMALL", 1: "_J1_SMALL"}


def _scaled_bessel(order: int, t):
    """S_nu(t) = J_nu(sqrt t) / (sqrt(t)/2)^nu."""
    x = mpmath.sqrt(t)
    return mpmath.besselj(order, x) / (x / 2) ** order


def fit_table(order: int) -> tuple[tuple[float, ...], float]:
    """Coefficients of t p_nu(t) + 1, highest power first, and the fit's error bound."""
    with mpmath.workdps(DIGITS):
        coef, error = mpmath.chebyfit(
            lambda t: (_scaled_bessel(order, t) - 1) / t, [0, T_MAX], DEGREE + 1, error=True
        )
        return tuple(float(c) for c in coef) + (1.0,), float(error)


def stored_tables() -> dict[int, tuple[float, ...]]:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from bkm import specfun

    return {order: getattr(specfun, name) for order, name in TABLE_NAMES.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="exit 1 unless the refit equals the stored tables"
    )
    args = parser.parse_args(argv)
    fitted = {order: fit_table(order) for order in TABLE_NAMES}
    if args.check:
        stored = stored_tables()
        stale = [TABLE_NAMES[o] for o, (table, _) in fitted.items() if table != stored[o]]
        if stale:
            print(f"refit differs from the stored table(s): {', '.join(stale)}")
            return 1
        print(f"{', '.join(TABLE_NAMES.values())} match the refit")
        return 0
    for order, (table, error) in fitted.items():
        print(f"# J{order}: fit error {error:.1e} on t in [0, {T_MAX}]")
        print(f"{TABLE_NAMES[order]} = (")
        for c in table:
            print(f"    {c!r},")
        print(")")
    return 0


if __name__ == "__main__":
    sys.exit(main())

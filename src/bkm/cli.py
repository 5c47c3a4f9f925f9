"""Command-line front end: benchmark solves, convergence sweeps, kernel checks.

Output contract: ``table`` format mirrors the benchmark tables (x, y,
Exact, BKM(n), err%) at 3-4 digits for visual diffing; ``csv`` format
emits machine-readable rows at 12 significant digits with diagnostics on
stderr so stdout stays parseable.  Exit codes: 0 success, 1 numerical
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import stat
import sys
from typing import Callable, Sequence

import numpy as np

from .bkm import evaluate, solve_boundary_only, solve_mixed_linear
from .geometry import Ellipse, Point, ellipse_knots, interior_grid
from .kernels import (
    DisplacementKernel,
    biharmonic2d,
    biharmonic3d,
    convection_diffusion2d,
    helmholtz2d,
    helmholtz3d,
    modified_helmholtz2d,
    modified_helmholtz3d,
)
from .problems import _fd_dx, _fd_dy, _fd_laplacian
from .problems import burger_benchmark, helmholtz_benchmark, laplace_benchmark

__all__ = ["main"]

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

_PROBLEMS = {
    "laplace": laplace_benchmark,
    "helmholtz": helmholtz_benchmark,
    "burger": burger_benchmark,
}

# Residual threshold echoed by the kernels command; matches the operator
# residual the test suite enforces.
_RESIDUAL_GATE = 1e-5

# Spacing of the dense lattice the --interior flag subsamples from.
_INTERIOR_SPACING = 0.25


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code instead of raising.

    The parser is built once, when this module is imported, and every call
    reuses it: each parse returns a fresh namespace, and usage errors and
    help go to the ``sys.stderr``/``sys.stdout`` of the call.  Out-of-range
    values are rejected by the parser and exit with ``EXIT_USAGE``.  A
    closed stdout exits with ``EXIT_NUMERICAL`` and prints nothing more.
    """
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors via SystemExit
        code = exc.code if exc.code is not None else 0
        return int(code) if isinstance(code, int) else EXIT_USAGE
    try:
        code = args.handler(args)
        if sys.stdout is not None:  # None when fd 1 was closed at start-up
            sys.stdout.flush()  # a reader that went away raises here, not at exit
    except BrokenPipeError:
        # Point stdout's fd at /dev/null, so the interpreter's final flush of
        # what is still buffered does not raise again.
        with contextlib.suppress(OSError):  # no fd, as with a StringIO
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_NUMERICAL
    return code


def _checked(convert: Callable[[str], float], accept: Callable[[float], bool], what: str):
    """An argparse ``type=``: ``convert`` the text, then require ``accept``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_non_negative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_finite_float = _checked(float, math.isfinite, "a finite number")
_positive_float = _checked(float, lambda v: 0.0 < v < math.inf, "a finite positive number")
_radius = _checked(float, lambda v: 0.0 <= v < math.inf, "a finite non-negative number")


def _list_of(item: Callable[[str], float]):
    """An argparse ``type=`` for a non-empty comma-separated list of ``item``."""

    def parse(text: str) -> list:
        values = [item(part) for part in text.split(",") if part.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
        return values

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bkm",
        description="Boundary knot method: boundary-only meshless PDE solves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a built-in problem and print its table")
    solve.add_argument("--problem", required=True, choices=_PROBLEMS)
    solve.add_argument("--n", type=_positive_int, default=5, help="number of boundary knots")
    solve.add_argument(
        "--interior", type=_non_negative_int, default=0, help="number of interior knots"
    )
    solve.add_argument(
        "--c", type=_positive_float, default=None, help="override the MQ shape parameter"
    )
    solve.add_argument("--format", choices=("table", "csv"), default="table")
    solve.add_argument("--out", default=None, help="write output to this path")
    solve.set_defaults(handler=_cmd_solve)

    conv = sub.add_parser("convergence", help="sweep knot counts and shape parameters")
    conv.add_argument("--problem", required=True, choices=_PROBLEMS)
    conv.add_argument(
        "--n", type=_list_of(_positive_int), default="3,5,7", help="comma-separated knot counts"
    )
    conv.add_argument(
        "--c", type=_list_of(_positive_float), default=None, help="comma-separated shape parameters"
    )
    conv.add_argument("--out", default=None)
    conv.set_defaults(handler=_cmd_convergence)

    kern = sub.add_parser("kernels", help="print kernel values and operator residuals")
    kern.add_argument("name", choices=_CATALOG)
    kern.add_argument("--lambda", dest="lam", type=_finite_float, default=1.0)
    kern.add_argument("--r", type=_radius, default=None, help="evaluate at this radius only")
    kern.add_argument("--D", type=_finite_float, default=1.0, help="diffusivity (convection2d)")
    kern.add_argument("--vx", type=_finite_float, default=0.0, help="velocity x (convection2d)")
    kern.add_argument("--vy", type=_finite_float, default=0.0, help="velocity y (convection2d)")
    kern.add_argument("--k", type=_finite_float, default=1.0, help="reaction (convection2d)")
    kern.set_defaults(handler=_cmd_kernels)
    return parser


class _Output:
    """Collects lines, then emits them to stdout or a file."""

    def __init__(self, path: str | None):
        self.path = path
        self.lines: list[str] = []

    def add(self, line: str) -> None:
        self.lines.append(line)

    def emit(self) -> int:
        """Write the lines; return EXIT_OK, EXIT_NUMERICAL if stdout is needed
        but fd 1 was closed at start-up, or EXIT_USAGE if the file is unwritable.

        The file is written in place, with no O_TRUNC (a cut to zero bytes makes
        ext4 flush it at close, and the next cut waits for that), then cut to
        length if it is a regular file.  A crash before the cut may leave a
        tail of the old contents."""
        text = "\n".join(self.lines) + "\n"
        if self.path is None:
            if sys.stdout is None:  # fd 1 was closed at start-up
                return EXIT_NUMERICAL
            sys.stdout.write(text)
            return EXIT_OK
        data = memoryview(text.encode("utf-8"))
        try:
            fd = os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o666)
            try:
                written = 0
                while written < len(data):
                    written += os.write(fd, data[written:])
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, written)
            finally:
                os.close(fd)
        except OSError as exc:
            print(f"error: cannot write {self.path}: {exc.strerror}", file=sys.stderr)
            return EXIT_USAGE
        return EXIT_OK


def _rel_err_pct(computed: float, exact: float) -> float:
    """Error in percent, relative to exact; absolute when exact vanishes."""
    scale = abs(exact) if abs(exact) > 1e-12 else 1.0
    return 100.0 * (computed - exact) / scale


def _interior_points(ellipse: Ellipse, count: int) -> list[Point]:
    """Deterministic interior knots: an even-stride subsample of a dense lattice."""
    if count == 0:
        return []
    lattice = interior_grid(ellipse, _INTERIOR_SPACING)
    if count > len(lattice):
        raise ValueError(f"requested {count} interior knots, lattice has {len(lattice)}")
    idx = np.linspace(0, len(lattice) - 1, count).astype(int)
    return [lattice[i] for i in idx]


def _solve_table(problem, n: int, interior: list[Point]):
    """(computed, exact, diagnostics) at the table points of a solve on n
    boundary knots plus ``interior``.  A failed solve (SingularMatrixError
    and UnsupportedConfigurationError included) or a non-finite value
    raises ValueError."""
    if interior:
        sol, diag = solve_mixed_linear(problem, ellipse_knots(problem.ellipse, n), interior)
    else:
        sol, diag = solve_boundary_only(problem, n)
    computed = evaluate(sol, problem.table_points)
    exact = np.array([problem.exact(p) for p in problem.table_points])
    if not (np.isfinite(computed).all() and np.isfinite(exact).all()):
        raise ValueError("non-finite solution values")
    return computed, exact, diag


def _cmd_solve(args: argparse.Namespace) -> int:
    problem = _PROBLEMS[args.problem]()
    if args.c is not None:
        problem = dataclasses.replace(problem, mq_shape_c=args.c)
    try:
        interior = _interior_points(problem.ellipse, args.interior)
    except ValueError as exc:  # more knots than the lattice has: a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        computed, exact, diag = _solve_table(problem, args.n, interior)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    out = _Output(args.out)
    rows = zip(problem.table_points, exact, computed)
    footer = [
        f"# cond_interp {diag.cond_interp:.3e}",
        f"# cond_bkm {diag.cond_bkm:.3e}",
        f"# residual_inf {diag.residual_inf:.3e}",
    ]
    if problem.notes:
        footer.append(f"# note: {problem.notes}")
    if args.format == "csv":
        out.add("x,y,exact,computed,rel_err_pct")
        for p, ex, co in rows:
            out.add(f"{p.x:.12g},{p.y:.12g},{ex:.12g},{co:.12g},{_rel_err_pct(co, ex):.12g}")
        print("\n".join(footer), file=sys.stderr)
    else:
        out.add(f"{'x':>8} {'y':>8} {'Exact':>10} {f'BKM({args.n})':>10} {'err%':>8}")
        for p, ex, co in rows:
            cells = (p.x, p.y, ex, co, _rel_err_pct(co, ex))
            # Rounded as printed; + 0.0 turns a -0.0 into 0.0, so zero prints unsigned.
            row = [round(float(v), d) + 0.0 for v, d in zip(cells, (3, 3, 3, 3, 2))]
            out.add("{:8.3f} {:8.3f} {:10.3f} {:10.3f} {:8.2f}".format(*row))
        out.lines += footer
    return out.emit()


def _cmd_convergence(args: argparse.Namespace) -> int:
    problem = _PROBLEMS[args.problem]()
    out = _Output(args.out)
    out.add("n,c,max_err,cond_bkm")
    for c in args.c or [problem.mq_shape_c]:
        run_problem = dataclasses.replace(problem, mq_shape_c=c)
        for n in args.n:
            try:
                computed, exact, diag = _solve_table(run_problem, n, [])
            except ValueError as exc:
                print(f"error: n={n} c={c}: {exc}", file=sys.stderr)
                return EXIT_NUMERICAL
            max_err = float(np.abs(computed - exact).max())
            out.add(f"{n},{c:.12g},{max_err:.12g},{diag.cond_bkm:.12g}")
    return out.emit()


def _radial_laplacian(f: Callable[[float], float], r: float, h: float, dim: int) -> float:
    """FD radial Laplacian f'' + (dim-1)/r f' at r."""
    d2 = (f(r + h) - 2.0 * f(r) + f(r - h)) / (h * h)
    d1 = (f(r + h) - f(r - h)) / (2.0 * h)
    return d2 + (dim - 1) * d1 / r


def _helmholtz_check(dim: int, sign: float):
    """(residual, value) of (lap + sign lam^2) / lam^2 on a radial kernel in
    dim dimensions: lap g + sign g, g(s) = kernel(s / lam), with FD step
    1e-4 in s = lam r.  A step in r errs like h^2 lam^4.  Where the step is
    below 1e6 ulps of s (s above about 5e5) the FD would read round-off, or
    0 once s + h rounds to s: the residual is then inf."""

    def check(kernel, lam: float, r: float) -> tuple[float, float]:
        value = kernel.eval(r)
        if math.ulp(lam * r) > 1e-10:
            return math.inf, value
        lap = _radial_laplacian(lambda s: kernel.eval(s / lam), lam * r, 1e-4, dim)
        return lap + sign * value, value

    return check


def _convection_check(kernel: DisplacementKernel, lam: float, r: float) -> tuple[float, float]:
    """(residual, value) of (D lap + v . grad + k + |v|^2/(2D)) phi / (D a^2),
    the operator the kernel annihilates, at displacement (r, r) / sqrt(2).
    With g(s) = phi(s / a) and c = v / (2D a) that is
    lap g + 2 c . grad g + (k / (D a^2) + 2 |c|^2) g, with FD step 1e-4 in
    s = a delta and a = max(mu, |v|/(2D)) (1 where both are 0); no product
    of D and a is formed, so none underflows.  As in ``_helmholtz_check``,
    the residual is inf where the step is below 1e6 ulps of a r, or where
    it overflows in delta."""
    D, vx, vy, k, mu = (kernel.params[key] for key in ("D", "vx", "vy", "k", "mu"))
    a = max(mu, math.hypot(vx, vy) / (2.0 * D)) or 1.0
    cx, cy = vx / (2.0 * D) / a, vy / (2.0 * D) / a

    def g(p: Point) -> float:
        return kernel.eval((p.x / a, p.y / a))

    h = 1e-4
    s = Point(a * r / math.sqrt(2.0), a * r / math.sqrt(2.0))
    value = g(s)
    if math.ulp(a * r) > 1e-10 or h / a == math.inf:
        return math.inf, value
    drift = 2.0 * (cx * _fd_dx(g, s, h) + cy * _fd_dy(g, s, h))
    reaction = k / D / a / a + 2.0 * (cx * cx + cy * cy)
    return _fd_laplacian(g, s, h) + drift + reaction * value, value


# The general-solution catalog of `bkm kernels`: name -> (the kernels built
# from the parsed options, one check per kernel, which gives its (residual,
# value) at a radius).  Each member of a biharmonic pair is checked against
# the factor of lap^2 - lam^4 that annihilates it.  --help lists the names
# in this order.
_CATALOG = {
    "j0": (lambda a: (helmholtz2d(a.lam),), (_helmholtz_check(2, 1.0),)),
    "i0": (lambda a: (modified_helmholtz2d(a.lam),), (_helmholtz_check(2, -1.0),)),
    "sinc3d": (lambda a: (helmholtz3d(a.lam),), (_helmholtz_check(3, 1.0),)),
    "sinh3d": (lambda a: (modified_helmholtz3d(a.lam),), (_helmholtz_check(3, -1.0),)),
    "biharmonic2d": (
        lambda a: biharmonic2d(a.lam),
        (_helmholtz_check(2, 1.0), _helmholtz_check(2, -1.0)),
    ),
    "biharmonic3d": (
        lambda a: biharmonic3d(a.lam),
        (_helmholtz_check(3, 1.0), _helmholtz_check(3, -1.0)),
    ),
    "convection2d": (
        lambda a: (convection_diffusion2d(a.D, (a.vx, a.vy), a.k),),
        (_convection_check,),
    ),
}


def _value_at(kernel, r: float) -> float:
    """A radial kernel's value at radius r; a displacement kernel's at (r, 0)."""
    return kernel.eval((r, 0.0)) if isinstance(kernel, DisplacementKernel) else kernel.eval(r)


def _cmd_kernels(args: argparse.Namespace) -> int:
    build, checks = _CATALOG[args.name]
    out = _Output(None)
    radii = np.linspace(0.1, 5.0, 50)
    max_residual = 0.0
    # Options out of range (ValueError), or a lam * r past a kernel's range
    # (OverflowError: I0 past 100, sinh past 710): usage errors, no output.
    try:
        for kernel, check in zip(build(args), checks):
            if args.r is not None:
                out.add(f"{kernel.label} value {_value_at(kernel, args.r):.12g}")
                continue
            out.add(f"kernel {kernel.label}  params {dict(kernel.params)}")
            for r in radii[::7]:
                out.add(f"  r={r:7.4f}  value={_value_at(kernel, float(r)): .10g}")
            for r in radii:
                residual, value = check(kernel, args.lam, float(r))
                max_residual = max(max_residual, abs(residual) / (1.0 + abs(value)))
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.r is not None:
        return out.emit()
    verdict = "<" if max_residual < _RESIDUAL_GATE else ">="
    out.add(f"max_residual {max_residual:.3e} {verdict} {_RESIDUAL_GATE:g}")
    return out.emit() or (EXIT_OK if max_residual < _RESIDUAL_GATE else EXIT_NUMERICAL)


# Built once, at import: a build costs more than a paper-table solve, and
# scripts, tests and the benchmark call main many times per process.
_PARSER = _build_parser()


if __name__ == "__main__":
    sys.exit(main())

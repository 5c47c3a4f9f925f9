#!/usr/bin/env python3
"""Reproduce the benchmark tables, the knot-count sweep, and the two
property demonstrations (mixed boundary conditions, scattered MTPS
interpolation).

Usage:
    python scripts/run_benchmarks.py [--csv-dir DIR]

The tables and the sweep are `bkm solve` and `bkm convergence` runs,
printed under a heading that names the command; the script exits with the
first non-zero exit code.  With --csv-dir they are written as CSV files in
DIR instead (`--format csv --out DIR/<problem>.csv`, and
DIR/<problem>_sweep.csv).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from bkm import (
    BoundaryCondition,
    Point,
    biharmonic_mfs_pair,
    ellipse_knots,
    evaluate,
    gsr_kernel,
    interior_grid,
    laplace_benchmark,
    rbf_interpolate,
    solve_mixed_linear,
)
from bkm.cli import main as bkm_main

TABLE_RUNS = (("laplace", 5), ("helmholtz", 7), ("burger", 5))
SWEEPS = (("laplace", "3,5,7,9"), ("helmholtz", "5,7"))


def run_cli(csv_dir: Path | None) -> None:
    """Each table and sweep through the CLI; exit on the first failure."""
    runs = [(name, ["solve", "--problem", name, "--n", str(n)]) for name, n in TABLE_RUNS]
    runs += [(f"{name}_sweep", ["convergence", "--problem", name, "--n", n]) for name, n in SWEEPS]
    if csv_dir is not None:
        csv_dir.mkdir(parents=True, exist_ok=True)
    for name, argv in runs:
        if csv_dir is not None:
            argv += ["--format", "csv"] if argv[0] == "solve" else []
            argv += ["--out", str(csv_dir / f"{name}.csv")]
        print(f"== bkm {' '.join(argv)} ==")
        code = bkm_main(argv)
        if code != 0:
            sys.exit(code)
        print()


def run_mixed_demo() -> None:
    problem = laplace_benchmark()
    n = 12
    knots = ellipse_knots(problem.ellipse, n)
    bc = []
    for i, k in enumerate(knots):
        if i < n // 2:
            bc.append(BoundaryCondition("dirichlet", k.position.x + k.position.y))
        else:
            bc.append(BoundaryCondition("neumann", k.normal[0] + k.normal[1]))
    sol, diag = solve_mixed_linear(problem, knots, (), bc=bc)
    probes = interior_grid(problem.ellipse, 0.35)
    got = evaluate(sol, probes)
    want = np.array([p.x + p.y for p in probes])
    print("== mixed boundary conditions: u = x + y, half Dirichlet / half Neumann ==")
    print(f"n={n} knots, {len(probes)} interior probes")
    print(f"max abs err {np.abs(got - want).max():.3e}   cond_bkm {diag.cond_bkm:.3e}")
    print()


def run_mtps_demo() -> None:
    mtps = gsr_kernel(biharmonic_mfs_pair()[0], m=1)
    rng = np.random.RandomState(42)
    coords = rng.uniform(-1.0, 1.0, (25, 2))
    points = [Point(x, y) for x, y in coords]
    values = [math.sin(p.x) * math.cos(p.y) for p in points]
    print("== MTPS r^2(ln r + 1) scattered interpolation of sin(x)cos(y) ==")
    for count in (9, 25):
        subset, subset_values = points[:count], values[:count]
        interp = rbf_interpolate(subset, subset_values, mtps)
        residual = float(np.abs(interp.at(subset) - np.array(subset_values)).max())
        errs = []
        for i in range(count):
            rest = subset[:i] + subset[i + 1 :]
            rest_values = subset_values[:i] + subset_values[i + 1 :]
            fit = rbf_interpolate(rest, rest_values, mtps)
            errs.append(abs(float(fit.at([subset[i]])[0]) - subset_values[i]))
        print(f"n={count:2d}  node residual {residual:.3e}   mean leave-one-out err {np.mean(errs):.3e}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--csv-dir", type=Path, default=None, help="write the CSVs here")
    args = parser.parse_args()
    run_cli(args.csv_dir)
    run_mixed_demo()
    run_mtps_demo()


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Reproduce the benchmark tables, the knot-count sweep and the mixed-BC demo.

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
import sys
from pathlib import Path

import numpy as np

from bkm import (
    BoundaryCondition,
    ellipse_knots,
    evaluate,
    interior_grid,
    laplace_benchmark,
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--csv-dir", type=Path, default=None, help="write the CSVs here")
    args = parser.parse_args()
    run_cli(args.csv_dir)
    run_mixed_demo()


if __name__ == "__main__":
    main()

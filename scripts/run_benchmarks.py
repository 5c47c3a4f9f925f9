#!/usr/bin/env python3
"""Reproduce the benchmark tables, the knot-count sweep, and the two
property demonstrations (mixed boundary conditions, scattered MTPS
interpolation).

Usage:
    python scripts/run_benchmarks.py [--csv-dir DIR]

Prints every section to stdout; with --csv-dir each table is also written
as a CSV file in DIR.
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

import numpy as np

from bkm import (
    BoundaryCondition,
    Point,
    biharmonic_mfs_pair,
    burger_benchmark,
    ellipse_knots,
    evaluate,
    gsr_kernel,
    helmholtz_benchmark,
    interior_grid,
    laplace_benchmark,
    rbf_interpolate,
    solve_boundary_only,
    solve_mixed_linear,
)
from bkm.cli import rel_err_pct

TABLE_RUNS = (
    (laplace_benchmark, 5),
    (helmholtz_benchmark, 7),
    (burger_benchmark, 5),
)

SWEEPS = (
    ("laplace", laplace_benchmark, (3, 5, 7, 9)),
    ("helmholtz", helmholtz_benchmark, (5, 7)),
)


def write_csv(csv_dir: Path | None, name: str, header: str, rows: list[str]) -> None:
    if csv_dir is None:
        return
    csv_dir.mkdir(parents=True, exist_ok=True)
    (csv_dir / f"{name}.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def run_tables(csv_dir: Path | None) -> None:
    for factory, n in TABLE_RUNS:
        problem = factory()
        sol, diag = solve_boundary_only(problem, n)
        computed = evaluate(sol, problem.table_points)
        exact = np.array([problem.exact(p) for p in problem.table_points])
        print(f"== {problem.name}: n={n}, c={problem.mq_shape_c:g} ==")
        print(f"{'x':>8} {'y':>8} {'Exact':>10} {f'BKM({n})':>10} {'err%':>8}")
        csv_rows = []
        for p, ex, co in zip(problem.table_points, exact, computed):
            err = rel_err_pct(co, ex)
            print(f"{p.x:8.3f} {p.y:8.3f} {ex:10.3f} {co:10.3f} {err:8.2f}")
            csv_rows.append(f"{p.x:.12g},{p.y:.12g},{ex:.12g},{co:.12g},{err:.12g}")
        nonzero = np.abs(exact) > 1e-12
        avg_rel = float(np.mean(np.abs(computed - exact)[nonzero] / np.abs(exact)[nonzero]))
        print(f"max abs err {np.abs(computed - exact).max():.3e}   avg rel err {100 * avg_rel:.2f}%")
        print(f"cond_bkm {diag.cond_bkm:.3e}   boundary residual {diag.residual_inf:.3e}")
        print()
        write_csv(csv_dir, problem.name, "x,y,exact,computed,rel_err_pct", csv_rows)


def run_sweeps(csv_dir: Path | None) -> None:
    print("== knot-count sweep: max table error ==")
    print("problem,n,c,max_err,cond_bkm")
    csv_rows = []
    for label, factory, counts in SWEEPS:
        problem = factory()
        for n in counts:
            sol, diag = solve_boundary_only(problem, n)
            computed = evaluate(sol, problem.table_points)
            exact = np.array([problem.exact(p) for p in problem.table_points])
            max_err = float(np.abs(computed - exact).max())
            row = f"{label},{n},{problem.mq_shape_c:g},{max_err:.12g},{diag.cond_bkm:.12g}"
            print(row)
            csv_rows.append(row)
    print("note: the laplace errors sit at round-off for every n, since the")
    print("linear tail of the DRM interpolant reproduces u = x + y exactly;")
    print("without the tail the n=9 error is 2.6e-1 (see README, Known limitations).")
    print()
    write_csv(csv_dir, "sweep", "problem,n,c,max_err,cond_bkm", csv_rows)


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
    parser.add_argument("--csv-dir", type=Path, default=None, help="also write CSVs here")
    args = parser.parse_args()
    run_tables(args.csv_dir)
    run_sweeps(args.csv_dir)
    run_mixed_demo()
    run_mtps_demo()


if __name__ == "__main__":
    main()

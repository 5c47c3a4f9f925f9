#!/usr/bin/env python3
"""Benchmark of the boundary knot method solver.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]

The first form runs one workload in this process; the second runs every
workload, each in its own process, untraced and then traced.  Load is a
closed loop with one client and one case in flight, no worker threads, and
BLAS threads capped at the number of usable CPUs.  Whole rounds are run,
each a seeded permutation of the workload's cases, until ``--seconds``
have passed; one untimed round comes first.  Every case's output is
checked against the exact solution.

Right after each case, outside its timed span, a fixed reference
computation is timed (``reference``; it never calls the program).  Shared
hosts change speed for seconds to minutes at a time, by about 1.5x, so
raw case times of two runs of the same code can differ by a third.  A
case time divided by the reference time next to it cancels the host's
speed: over ten seeds on a shared 2-vCPU Xeon virtual machine, the
spread (interquartile range over median) of the median case time was
0.08-0.27 in ms and 0.015-0.033 in ``ref``.  Such times are in units of
``ref``, the reference's time at that moment.

Untraced runs (``--trace 0``) report the end-to-end metrics:

    setup_s           median set-up time: import bkm's modules afresh and
                      build the cases, 16 times spread over the run, each
                      timed against the references run just before and
                      after it, and turned into seconds at REF_MS_NOMINAL
                      per reference
    case_p50_ref      median of case time / reference time
    cases_per_ref     closed-loop throughput against the reference: total
                      reference time / total case time, i.e. cases done in
                      the time the reference runs once
    peak_rss_mb       peak resident set of the workload's process after
                      set-up and one untimed round of every case
    case_ms_p50       median case time in ms, as measured
    case_ms_tail      highest percentile with >= 10 samples beyond it,
                      printed with that percentile and the sample count
    cases_per_s       closed-loop throughput, as measured
    ref_ms_p50        median reference time, to convert ``ref`` to ms
    setup_s.measured  median set-up time, as measured
    error_rate        failed cases / attempted cases
    max_err           max |u_h - u_exact| over cases with seed cond_bkm <= 1e8

BENCHMARK.json gates the first four.  The times as measured are printed
but not gated, because on a shared host they measure the host's speed as
much as the program; the error rate and max_err are 0 or undefined on some
workloads.

Traced runs (``--trace 1``) spend the first half of the time untraced and
the second half traced, and report per-layer metrics as means per traced
case; every ``_ms`` metric is self time (span duration minus the time of
the spans it called).  ``trace.overhead_pct`` compares the halves'
``case_p50_ref``.

Which end-to-end metric each layer metric should move, and where:

    linalg.*                      case_p50_ref on paper_tables, mixed_interior
                                  (field_eval: no change expected)
    drm.interp_matrix_*, drm.solve_alpha_ms, drm.rho_matrix_ms,
    drm.particular_matrix_ms      paper_tables, mixed_interior
    drm.u_p_at_ms                 those, and field_eval
    bkm.assemble_ms               paper_tables
    bkm.evaluate_ms               field_eval
    bkm.mixed_self_ms,
    kernels.normal_derivative_calls  mixed_interior
    kernels.*, specfun.calls      field_eval
    geometry.ms, problems.*,
    cli.self_ms                   paper_tables
    bkm.cond_bkm_max, bkm.max_err_all  accuracy, reported and never gated

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are the
``end_to_end`` (untraced) or ``per_layer`` (traced) names of
BENCHMARK.json.  A metric that is 0 on some workload (a layer the workload
never calls) is printed but not listed there.  Every metric is printed by
name with its unit, and written with the environment (Python, numpy, BLAS
and its thread cap, CPUs, commit, seed) to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads  # caps BLAS threads, so it comes before numpy's import
from tracing import Tracer

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"

# Set-ups timed per run, spread evenly over it.
SETUP_REPEATS = 16

# References run back to back on each side of a set-up.  A set-up lasts
# tens of ms, so one reference alone is too short to stand for the host's
# speed over it.
SETUP_REF_BLOCK = 20

# The reference's median time on the shared 2-vCPU Xeon virtual machine
# the benchmark was tuned on; setup_s is in seconds at this speed.
REF_MS_NOMINAL = 0.75

# Input of the reference computation, see reference.
_REF_X = np.linspace(0.1, 1.0, 16)

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

# Per-layer metrics: name -> (unit, span name or counter, kind).  "self"
# sums the span's self time, "calls" counts the span, "count" reads a
# counter.  All are means per traced case.
LAYER_METRICS = {
    "linalg.lu_factor_calls": ("calls/case", "linalg.lu_factor", "calls"),
    "linalg.lu_factor_ms": ("ms/case", "linalg.lu_factor", "self"),
    "linalg.lu_solve_ms": ("ms/case", "linalg.lu_solve", "self"),
    "linalg.cond_estimate_ms": ("ms/case", "linalg.cond_estimate_1norm", "self"),
    "linalg.factor_flops_computed": ("flop/case", "linalg.factor_flops", "count"),
    "drm.interp_matrix_calls": ("calls/case", "drm.interp_matrix", "calls"),
    "drm.interp_matrix_ms": ("ms/case", "drm.interp_matrix", "self"),
    "drm.solve_alpha_ms": ("ms/case", "drm.solve_alpha", "self"),
    "drm.rho_matrix_ms": ("ms/case", "drm.rho_matrix", "self"),
    "drm.particular_matrix_ms": ("ms/case", "drm.particular_matrix", "self"),
    "drm.u_p_at_ms": ("ms/case", "drm.u_p_at", "self"),
    "bkm.assemble_ms": ("ms/case", "bkm.assemble_bkm_matrix", "self"),
    "bkm.solve_self_ms": ("ms/case", "bkm.solve_boundary_only", "self"),
    "bkm.evaluate_ms": ("ms/case", "bkm.evaluate", "self"),
    "bkm.mixed_self_ms": ("ms/case", "bkm.solve_mixed_linear", "self"),
    "kernels.eval_calls": ("calls/case", "kernels.eval", "count"),
    "kernels.deriv_calls": ("calls/case", "kernels.deriv", "count"),
    "kernels.normal_derivative_calls": ("calls/case", "kernels.normal_derivative", "count"),
    "specfun.calls": ("calls/case", "specfun", "count"),
    "geometry.ms": ("ms/case", ("geometry.ellipse_knots", "geometry.interior_grid"), "self"),
    "problems.callback_calls": ("calls/case", "problems.callback", "calls"),
    "problems.callback_ms": ("ms/case", "problems.callback", "self"),
    "cli.self_ms": ("ms/case", "cli.main", "self"),
}


@dataclass(frozen=True)
class CaseResult:
    kind: str
    ms: float | None  # None when the timed call raised
    ref_ms: float | None  # the reference timed right after the case
    passed: bool
    err: float
    cond: float
    well_conditioned: bool
    known_defect: bool
    error: str = ""  # what the call or the read raised, if anything


@dataclass(frozen=True)
class Round:
    """One seeded permutation of the workload's cases, run back to back."""

    results: list
    wall_s: float


def samples(rounds) -> list[float]:
    return [r.ms for rnd in rounds for r in rnd.results if r.ms is not None]


def ref_ratios(rounds) -> list[float]:
    """Each timed case's time in units of the reference timed next to it."""
    return [r.ms / r.ref_ms for rnd in rounds for r in rnd.results if r.ms is not None]


def reference() -> float:
    """Time, in ms, a fixed computation that never calls the program.

    It is made of what the program's cases are made of: small numpy
    ufuncs and reductions, and the interpreter around them.  About 0.75 ms
    on a shared 2-vCPU Xeon virtual machine.
    """
    start = time.perf_counter()
    for _ in range(100):
        float(np.sum(np.cos(_REF_X) * _REF_X + np.sqrt(_REF_X)))
    return (time.perf_counter() - start) * 1e3


def reference_block() -> float:
    """Mean time, in ms, of SETUP_REF_BLOCK references in a row."""
    return statistics.mean(reference() for _ in range(SETUP_REF_BLOCK))


def results_of(rounds) -> list:
    return [r for rnd in rounds for r in rnd.results]


def run_case(case, tracer=None) -> CaseResult:
    """Time one case's call, then check its output outside the timed span."""
    call = case.call if tracer is None else tracer.timed("case", case.call)
    start = time.perf_counter()
    try:
        raw = call()
    except Exception as exc:  # a raising case is a counted failure, not a crash
        return CaseResult(case.kind, None, None, False, math.inf, math.nan,
                          case.well_conditioned, case.known_defect, repr(exc))
    ms = (time.perf_counter() - start) * 1e3
    ref_ms = reference()
    try:
        values, cond = case.read(raw)
    except Exception as exc:
        return CaseResult(case.kind, ms, ref_ms, False, math.inf, math.nan,
                          case.well_conditioned, case.known_defect, repr(exc))
    passed, err = workloads.check(case, values)
    return CaseResult(case.kind, ms, ref_ms, passed, err, cond, case.well_conditioned,
                      case.known_defect)


def warm_up(cases) -> None:
    """One untimed round, so that caches fill and lazy set-up finishes."""
    for case in cases:
        run_case(case)


def measure(cases, order, seconds: float, tracer=None) -> list[Round]:
    """Run whole seeded rounds for ``seconds``."""
    if tracer is not None:
        tracer.reset()
    rounds: list[Round] = []
    done = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        results = []
        for index in order.permutation(len(cases)):
            if tracer is not None:
                tracer.case = done
            results.append(run_case(cases[index], tracer))
            done += 1
        if tracer is not None:
            tracer.case = None
        rounds.append(Round(results, time.perf_counter() - round_start))
        if time.perf_counter() - start >= seconds:
            return rounds


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest of TAIL_LADDER that
    leaves at least ten samples beyond it, else the median."""
    for q in reversed(TAIL_LADDER):
        value = float(np.percentile(values, q))
        beyond = sum(1 for v in values if v > value)
        if beyond >= 10 or q == TAIL_LADDER[0]:
            return q, value, beyond


def verdict(results) -> tuple[bool, int, int]:
    """(correct, attempted, failed).  Every failure is counted; only a
    failure of a case not listed as a known defect makes the run incorrect."""
    failed = [r for r in results if not r.passed]
    return not any(not r.known_defect for r in failed), len(results), len(failed)


def _finite_max(values) -> float | None:
    finite = [v for v in values if math.isfinite(v)]
    return max(finite) if finite else None


def case_p50_ref(rounds: list[Round]) -> float:
    ratios = ref_ratios(rounds)
    if not ratios:
        raise RuntimeError("no case completed, so the run cannot be timed")
    return statistics.median(ratios)


def end_to_end(rounds: list[Round], setups: list[tuple[float, float]], peak_rss_mb: float) -> dict:
    """``setups`` holds each set-up's (seconds, time in ``ref``)."""
    everything = results_of(rounds)
    timed = [r for r in everything if r.ms is not None]
    p50_ref = case_p50_ref(rounds)
    tail_q, tail_ms, beyond = tail(samples(rounds))
    _, attempted, failed = verdict(everything)
    return {
        "setup_s": (statistics.median(ref for _, ref in setups) * REF_MS_NOMINAL / 1e3, "s"),
        "case_p50_ref": (p50_ref, "ref"),
        "cases_per_ref": (sum(r.ref_ms for r in timed) / sum(r.ms for r in timed), "1/ref"),
        "case_ms_p50": (statistics.median(samples(rounds)), "ms"),
        "case_ms_tail": (tail_ms, "ms"),
        "case_ms_tail.percentile": (tail_q, "%"),
        "case_ms_tail.samples_beyond": (beyond, "count"),
        "case_ms.samples": (len(timed), "count"),
        "cases_per_s": (len(everything) / sum(r.wall_s for r in rounds), "1/s"),
        "ref_ms_p50": (statistics.median(r.ref_ms for r in timed), "ms"),
        "setup_s.measured": (statistics.median(s for s, _ in setups), "s"),
        "error_rate": (failed / attempted, "1"),
        "max_err": (_finite_max(r.err for r in everything if r.well_conditioned), "1"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, untraced: list[Round], traced: list[Round]) -> dict:
    traced_results = results_of(traced)
    n_cases = len(traced_results)
    calls, seconds = tracer.by_name()
    metrics = {}
    for name, (unit, source, kind) in LAYER_METRICS.items():
        sources = source if isinstance(source, tuple) else (source,)
        if kind == "self":
            value = sum(seconds[s] for s in sources) * 1e3
        elif kind == "calls":
            value = sum(calls[s] for s in sources)
        else:
            value = sum(tracer.counts[s] for s in sources)
        metrics[name] = (value / n_cases, unit)
    everything = results_of(untraced) + traced_results
    metrics["bkm.cond_bkm_max"] = (_finite_max(r.cond for r in everything), "1")
    metrics["bkm.max_err_all"] = (_finite_max(r.err for r in everything), "1")
    p50 = [case_p50_ref(p) for p in (untraced, traced)]
    metrics["trace.overhead_pct"] = (100.0 * (p50[1] / p50[0] - 1.0), "%")
    # Per problem, calls per case of the layers whose seed counts are known.
    kinds = [r.kind for r in traced_results]
    for span in ("linalg.lu_factor", "drm.interp_matrix"):
        per_case = tracer.calls_by_case(span)
        for kind in sorted(set(kinds)):
            ids = [i for i, k in enumerate(kinds) if k == kind]
            mean = sum(per_case[i] for i in ids) / len(ids)
            metrics[f"{span}_calls.{kind}"] = (mean, "calls/case")
    return metrics


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": workloads.BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "load": "closed loop, 1 client, 1 case in flight",
    }


def _commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def set_up(workload: str, seed: int):
    """Set up from scratch and time it: drop bkm's modules, import them
    again and build the cases.  numpy and the standard library stay loaded,
    so this times the program's own import and the workload's build.

    The objects alive before the set-up, such as the results the run has
    kept so far, are frozen out of the garbage collector's sight while it
    is timed, as they are not there in a fresh process; otherwise each
    collection during a late set-up would walk all of them.

    Returns the set-up's seconds, its time in ``ref`` and its result."""
    for name in [m for m in sys.modules if m == "bkm" or m.startswith("bkm.")]:
        del sys.modules[name]
    gc.collect()
    before = reference_block()
    gc.freeze()
    try:
        start = time.perf_counter()
        cases, order = workloads.build(workload, seed)
        elapsed = time.perf_counter() - start
    finally:
        gc.unfreeze()
    after = reference_block()
    return elapsed, elapsed * 1e3 / ((before + after) / 2.0), cases, order


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    env = environment(workload, seed, seconds, trace)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    if trace:
        cases, order = workloads.build(workload, seed)
        warm_up(cases)
        untraced = measure(cases, order, seconds / 2.0)
        tracer = Tracer()
        tracer.install()
        try:
            cases, order = workloads.build(workload, seed)
            warm_up(cases)
            traced = measure(cases, order, seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, untraced, traced)
        results = results_of(untraced) + results_of(traced)
        listed = [m["name"] for m in spec["per_layer"]]
    else:
        # Set-ups are spread over the run, so that their median does not
        # rest on one phase of the host.
        setups, rounds, order = [], [], None
        for i in range(SETUP_REPEATS):
            cases = None  # free the last segment's inputs before the next set-up
            setup_s, setup_ref, cases, fresh_order = set_up(workload, seed)
            if order is None:
                order = fresh_order
                warm_up(cases)
                # Read before per-case results pile up, so that the figure
                # does not grow with the number of cases a run completes.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setups.append((setup_s, setup_ref))
            # Each segment runs until the run's measured time reaches its
            # share, so round overshoot does not pile up across segments.
            target = (i + 1) * seconds / SETUP_REPEATS - sum(r.wall_s for r in rounds)
            rounds += measure(cases, order, target)
        metrics = end_to_end(rounds, setups, peak_rss_mb)
        results = results_of(rounds)
        listed = [m["name"] for m in spec["end_to_end"]]

    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name} = {shown} {unit}")
    correct, attempted, failed = verdict(results)
    errors = sorted({f"{r.kind}: {r.error}" for r in results if r.error})
    for error in errors:
        print(f"case error: {error}", file=sys.stderr)
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    stem = workloads.OUT / f"{workload}-seed{seed}-trace{trace}"
    record = {
        "env": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_kinds": sorted({r.kind for r in results if not r.passed}),
        "errors": errors,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if trace:
        tracer.write(stem.with_suffix(".spans.tsv"))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in listed},
    }


def run_all(seed: int, seconds: float) -> int:
    """Run every workload in its own process, untraced then traced."""
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} trace={trace}", flush=True)
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, timeout=600,
            )
            status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads.load_bkm()
    except workloads.BenchmarkSetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

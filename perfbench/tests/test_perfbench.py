"""Tests of the benchmark itself, on short runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Every metric the benchmark reports, listed in BENCHMARK.json or not.
END_TO_END = {
    "setup_s": "s",
    "case_p50_ref": "ref",
    "cases_per_ref": "1/ref",
    "case_ms_p50": "ms",
    "case_ms_tail": "ms",
    "cases_per_s": "1/s",
    "ref_ms_p50": "ms",
    "setup_s.measured": "s",
    "error_rate": "1",
    "max_err": "1",
    "peak_rss_mb": "MB",
}
PER_LAYER = {name: unit for name, (unit, _, _) in run.LAYER_METRICS.items()} | {
    "bkm.cond_bkm_max": "1",
    "bkm.max_err_all": "1",
    "trace.overhead_pct": "%",
}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run_emits_every_metric_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()

    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])

    printed = {}
    for line in lines:
        if " = " in line:
            name, rest = line.split(" = ", 1)
            printed[name] = rest.rsplit(" ", 1)[-1]
    for name, unit in (PER_LAYER if trace else END_TO_END).items():
        assert printed.get(name) == unit, name

    record = json.loads((workloads.OUT / f"{workload}-seed3-trace{trace}.json").read_text())
    assert record["env"]["seed"] == 3
    assert {"python", "numpy", "blas", "blas_threads", "nproc", "commit"} <= set(record["env"])
    # Only the documented defect (mixed Laplace at c = 25) may fail.
    allowed = {"laplace"} if workload == "mixed_interior" else set()
    assert set(record["failed_kinds"]) <= allowed
    if not trace:
        rate = record["metrics"]["error_rate"]["value"]
        assert rate == pytest.approx(result["failed"] / result["attempted"])


@pytest.mark.parametrize("corruption", [0.1, math.nan])
def test_corrupted_solution_value_counts_in_error_rate(monkeypatch, corruption):
    cases, order = workloads.build("paper_tables", 5)
    bkm = workloads.load_bkm()
    real_evaluate = bkm.cli.evaluate

    def corrupted(sol, points):
        values = real_evaluate(sol, points)
        values[0] += corruption
        return values

    monkeypatch.setattr(bkm.cli, "evaluate", corrupted)
    rounds = run.measure(cases, order, seconds=0.0)
    correct, attempted, failed = run.verdict(run.results_of(rounds))
    assert (attempted, failed, correct) == (3, 3, False)
    metrics = run.end_to_end(rounds, setups=[(1.0, 1.0)], peak_rss_mb=1.0)
    assert metrics["error_rate"][0] == 1.0


def test_raising_case_is_counted_and_left_out_of_latency(monkeypatch):
    cases, order = workloads.build("field_eval", 5)
    bkm = workloads.load_bkm()

    def singular(problem, n_knots):
        raise bkm.SingularMatrixError(0)

    monkeypatch.setattr(bkm, "solve_boundary_only", singular)
    rounds = run.measure(cases, order, seconds=0.0)
    assert run.verdict(run.results_of(rounds)) == (False, 3, 3)
    assert run.samples(rounds) == []
    assert all("SingularMatrixError" in r.error for r in run.results_of(rounds))


def test_tracer_counts_seed_factorizations_and_restores_bindings():
    bkm = workloads.load_bkm()
    original = bkm.drm.lu_solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bkm.drm.lu_solve is not original
        assert bkm.drm.lu_solve is bkm.bkm.lu_solve is bkm.lu_solve
        for name, factorizations, interp_matrices in (
            ("laplace_benchmark", 6, 2),
            ("helmholtz_benchmark", 6, 2),
            ("burger_benchmark", 7, 3),
        ):
            problem = getattr(bkm, name)()
            tracer.reset()
            tracer.case = 0
            bkm.solve_boundary_only(problem, 5)
            tracer.case = None
            calls, seconds = tracer.by_name()
            assert calls["linalg.lu_factor"] == factorizations
            assert calls["drm.interp_matrix"] == interp_matrices
            assert calls["problems.callback"] == 10  # forcing and dirichlet per knot
            assert tracer.counts["linalg.factor_flops"] > 0
            assert tracer.counts["kernels.eval"] > 0
            assert tracer.counts["specfun"] > 0
            assert all(s >= 0.0 for s in seconds.values())
    finally:
        tracer.uninstall()
    assert bkm.drm.lu_solve is original
    assert bkm.bkm.lu_solve is original


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 5.0, 6.0, 0, 0],
        ["d", 2.0, 3.0, 1, 0],
    ]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_reference_times_cancel_the_host_speed():
    def round_of(ms, ref_ms):
        results = [run.CaseResult("laplace", ms, ref_ms, True, 0.0, 1.0, True, False)] * 3
        return run.Round(results, 3 * (ms + ref_ms) * 1e-3)

    # The same program on a host at full speed, and at 1.8x slower for part of a run.
    steady = [round_of(10.0, 0.5), round_of(10.0, 0.5)]
    slowed = [round_of(10.0, 0.5), round_of(18.0, 0.9), round_of(18.0, 0.9)]
    for rounds in (steady, slowed):
        metrics = run.end_to_end(rounds, setups=[(0.03, 40.0)], peak_rss_mb=1.0)
        assert metrics["case_p50_ref"][0] == pytest.approx(20.0)
        assert metrics["cases_per_ref"][0] == pytest.approx(0.05)
        assert metrics["setup_s"][0] == pytest.approx(40.0 * run.REF_MS_NOMINAL / 1e3)
    assert run.end_to_end(slowed, [(0.03, 40.0)], 1.0)["case_ms_p50"][0] == 18.0


def test_reference_is_timed_after_every_timed_case():
    cases, order = workloads.build("paper_tables", 5)
    results = run.results_of(run.measure(cases, order, seconds=0.0))
    assert len(results) == 3
    assert all(r.ref_ms > 0.0 and r.ms > 0.0 for r in results)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(v) for v in range(100)]) == (90.0, pytest.approx(89.1), 10)
    assert run.tail([1.0] * 5) == (50.0, 1.0, 0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench(
        "--workload", "paper_tables", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout

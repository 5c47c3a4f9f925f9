"""Command-line interface: exit codes, output formats, and round-trips."""

import contextlib
import csv
import io
import os
import re
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bkm import cli
from bkm.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main


# The printed table rows of `bkm solve` for the three paper tables, pinned
# so that a change to the solve keeps the same values at printed precision.
# Of the footers, the condition numbers are pinned too (``PAPER_CONDS``);
# the residual is not: it moves with round-off.
LAPLACE_5_ROWS = [
    "       x        y      Exact     BKM(5)     err%",
    "   1.500    0.000      1.500      1.500     0.00",
    "   1.200   -0.350      0.850      0.850     0.00",
    "   0.600   -0.450      0.150      0.150     0.00",
    "   0.000   -0.450     -0.450     -0.450     0.00",
    "   0.900    0.000      0.900      0.900     0.00",
    "   0.300    0.000      0.300      0.300     0.00",
    "   0.000    0.000      0.000      0.000     0.00",
]

HELMHOLTZ_7_ROWS = [
    "       x        y      Exact     BKM(7)     err%",
    "   1.500    0.000      2.497      2.499     0.07",
    "   1.200   -0.350      2.132      2.131    -0.04",
    "   0.600   -0.450      1.165      1.157    -0.62",
    "   0.000    0.000      0.000     -0.005    -0.52",
    "   0.900    0.000      1.683      1.679    -0.24",
    "   0.300    0.000      0.596      0.589    -1.07",
    "   0.000    0.000      0.000     -0.005    -0.52",
]

BURGER_5_ROWS = [
    "       x        y      Exact     BKM(5)     err%",
    "   4.500    0.000      0.444      0.479     7.86",
    "   4.200   -0.350      0.476      0.515     8.18",
    "   3.600   -0.450      0.556      0.586     5.44",
    "   3.000   -0.450      0.667      0.666    -0.15",
    "   2.400   -0.450      0.833      0.808    -3.09",
    "   1.800   -0.350      1.111      1.089    -1.98",
    "   1.500    0.000      1.333      1.300    -2.46",
    "   3.900    0.000      0.513      0.563     9.73",
    "   3.300    0.000      0.606      0.632     4.24",
    "   3.000    0.000      0.667      0.672     0.73",
    "   2.700    0.000      0.741      0.726    -2.04",
    "   2.100    0.000      0.952      0.918    -3.57",
]

# The `# cond_interp` and `# cond_bkm` footers of the three paper tables.
PAPER_CONDS = {
    "laplace": ["# cond_interp 4.785e+08", "# cond_bkm 1.486e+01"],
    "helmholtz": ["# cond_interp 2.059e+04", "# cond_bkm 1.921e+02"],
    "burger": ["# cond_interp 6.325e+02", "# cond_bkm 1.486e+01"],
}


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class TestExitCodes:
    def test_solve_success(self, capsys):
        assert main(["solve", "--problem", "laplace", "--n", "5"]) == EXIT_OK

    def test_unknown_problem_is_usage_error(self, capsys):
        for command in ("solve", "convergence"):
            assert main([command, "--problem", "poisson"]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert "invalid choice" in err and "'poisson'" in err

    def test_unknown_kernel_is_usage_error(self, capsys):
        assert main(["kernels", "wave1d"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "invalid choice" in err and "'wave1d'" in err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_malformed_knot_count_is_usage_error(self, capsys):
        assert main(["solve", "--problem", "laplace", "--n", "abc"]) == EXIT_USAGE

    def test_malformed_sweep_list_is_usage_error(self, capsys):
        assert main(["convergence", "--problem", "laplace", "--n", "3;5"]) == EXIT_USAGE

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == EXIT_OK

    def test_burger_interior_knots_fail_numerically(self, capsys):
        # the quadratic feedback term has no linear coupled system, so
        # requesting interior knots is reported as a solve failure
        code = main(["solve", "--problem", "burger", "--n", "7", "--interior", "4"])
        assert code == EXIT_NUMERICAL
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", ["laplace", "helmholtz"])
    def test_linear_tail_on_two_knots_fails_numerically(self, capsys, problem):
        # The bordered DRM matrix is singular by construction: Laplace once
        # printed 6.6e15 at (1.2, -0.35) and exited 0.
        assert main(["solve", "--problem", problem, "--n", "2"]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: the linear tail (1, x, y) needs three knots" in captured.err
        assert "Traceback" not in captured.err

    def test_convergence_over_two_knots_fails_numerically(self, capsys):
        assert main(["convergence", "--problem", "laplace", "--n", "2,5"]) == EXIT_NUMERICAL
        assert "error: n=2" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_burger_has_no_tail_and_solves_on_one_or_two_knots(self, capsys, n):
        assert main(["solve", "--problem", "burger", "--n", n]) == EXIT_OK

    def test_more_interior_knots_than_the_lattice_is_usage_error(self, capsys):
        code = main(["solve", "--problem", "laplace", "--interior", "1000"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: requested 1000 interior knots, lattice has 93" in captured.err

    def test_main_reads_sys_argv_when_not_given(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["bkm", "kernels", "i0", "--r", "0"])
        assert main(None) == EXIT_OK
        assert "i0 value 1" in capsys.readouterr().out


class TestSolveOutput:
    def test_table_has_headers_and_diagnostics(self, capsys):
        assert main(["solve", "--problem", "laplace", "--n", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Exact" in out
        assert "BKM(5)" in out
        assert "# cond_bkm" in out
        assert "# residual_inf" in out

    @pytest.mark.parametrize(
        "problem, n, want",
        [
            ("laplace", "5", LAPLACE_5_ROWS),
            ("helmholtz", "7", HELMHOLTZ_7_ROWS),
            ("burger", "5", BURGER_5_ROWS),
        ],
    )
    def test_paper_table_rows_are_pinned(self, capsys, problem, n, want):
        assert main(["solve", "--problem", problem, "--n", n]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if not line.startswith("#")] == want
        assert [line for line in lines if line.startswith("# cond_")] == PAPER_CONDS[problem]

    def test_values_rounding_to_zero_print_unsigned(self, capsys, monkeypatch):
        """Computed values a hair below exact print as 0.000 and 0.00, not
        -0.000 and -0.00; CSV keeps the sign."""
        problem = cli._PROBLEMS["laplace"]()

        def below_exact(sol, points):
            return np.array([problem.exact(p) - 1e-9 for p in points])

        monkeypatch.setattr(cli, "evaluate", below_exact)
        assert main(["solve", "--problem", "laplace", "--n", "5"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        rows = [line for line in lines if not line.startswith("#")]
        assert rows[-1] == LAPLACE_5_ROWS[-1]
        assert not any(re.search(r"-0\.0+(\s|$)", row) for row in rows)
        assert main(["solve", "--problem", "laplace", "--n", "5", "--format", "csv"]) == EXIT_OK
        assert float(_rows(capsys.readouterr().out)[-1]["computed"]) == -1e-9

    def test_csv_round_trips_at_twelve_digits(self, capsys):
        assert main(["solve", "--problem", "laplace", "--n", "5", "--format", "csv"]) == EXIT_OK
        captured = capsys.readouterr()
        rows = _rows(captured.out)
        assert len(rows) == 7
        assert list(rows[0]) == ["x", "y", "exact", "computed", "rel_err_pct"]
        for row in rows:
            exact = float(row["exact"])
            computed = float(row["computed"])
            scale = abs(exact) if abs(exact) > 1e-12 else 1.0
            want_err = 100.0 * (computed - exact) / scale
            assert float(row["rel_err_pct"]) == pytest.approx(want_err, rel=1e-9, abs=1e-9)
            assert abs(computed - exact) < 5e-3

    def test_csv_keeps_stdout_parseable(self, capsys):
        main(["solve", "--problem", "laplace", "--n", "5", "--format", "csv"])
        captured = capsys.readouterr()
        assert not any(line.startswith("#") for line in captured.out.splitlines())
        assert "# cond_interp" in captured.err
        assert "# note:" in captured.err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "run.csv"
        code = main(
            ["solve", "--problem", "helmholtz", "--n", "7", "--format", "csv", "--out", str(path)]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        rows = _rows(path.read_text())
        assert len(rows) == 7
        assert all(abs(float(r["computed"]) - float(r["exact"])) < 0.05 for r in rows)

    def test_shape_parameter_override(self, capsys):
        assert main(["solve", "--problem", "laplace", "--n", "5", "--c", "5"]) == EXIT_OK

    def test_interior_knots_accepted_for_linear_feedback(self, capsys):
        code = main(
            ["solve", "--problem", "helmholtz", "--n", "7", "--interior", "5", "--format", "csv"]
        )
        assert code == EXIT_OK
        rows = _rows(capsys.readouterr().out)
        assert all(abs(float(r["computed"]) - float(r["exact"])) < 0.05 for r in rows)


class TestConvergence:
    def test_header_and_laplace_errors_do_not_grow(self, capsys):
        assert main(["convergence", "--problem", "laplace", "--n", "3,5,7"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,c,max_err,cond_bkm"
        errs = [float(line.split(",")[2]) for line in lines[1:]]
        assert len(errs) == 3
        # Below 256 * eps * max|u| over the table points (u = x + y, max 1.5)
        # the errors are rounding noise and their order carries no meaning.
        floor = 256.0 * sys.float_info.epsilon * 1.5
        assert errs[1] <= max(errs[0], floor) and errs[2] <= max(errs[1], floor)

    def test_helmholtz_refines_from_five_to_seven(self, capsys):
        assert main(["convergence", "--problem", "helmholtz", "--n", "5,7"]) == EXIT_OK
        rows = _rows(capsys.readouterr().out)
        err = {int(r["n"]): float(r["max_err"]) for r in rows}
        assert err[7] < err[5]

    def test_shape_parameter_sweep(self, capsys):
        assert main(["convergence", "--problem", "laplace", "--n", "5", "--c", "10,25"]) == EXIT_OK
        rows = _rows(capsys.readouterr().out)
        assert [float(r["c"]) for r in rows] == [10.0, 25.0]

    def test_single_row(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        assert main(["convergence", "--problem", "laplace", "--n", "5", "--out", str(path)]) == EXIT_OK
        rows = _rows(path.read_text())
        assert len(rows) == 1
        assert rows[0]["n"] == "5"
        assert float(rows[0]["c"]) == 25.0


class TestOutputFile:
    """``--out`` overwrites a file in place and cuts it to length; the bytes
    are those of the stdout run."""

    HELMHOLTZ = ["solve", "--problem", "helmholtz", "--n", "7", "--format", "csv"]
    SWEEP = ["convergence", "--problem", "laplace", "--n", "3,5"]

    @staticmethod
    def _stdout_bytes(capsys, argv):
        assert main(argv) == EXIT_OK
        return capsys.readouterr().out.encode("utf-8")

    @pytest.mark.parametrize("argv", [HELMHOLTZ, SWEEP], ids=["solve", "convergence"])
    def test_longer_file_is_cut_to_the_stdout_bytes(self, capsys, tmp_path, argv):
        want = self._stdout_bytes(capsys, argv)
        path = tmp_path / "run.csv"
        path.write_bytes(b"x" * 5000)
        assert main(argv + ["--out", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == want

    def test_symlink_updates_its_target(self, capsys, tmp_path):
        want = self._stdout_bytes(capsys, self.HELMHOLTZ)
        target = tmp_path / "target.csv"
        target.write_bytes(b"x" * 5000)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(self.HELMHOLTZ + ["--out", str(link)]) == EXIT_OK
        assert link.is_symlink()
        assert target.read_bytes() == want

    def test_existing_file_keeps_its_inode_and_mode(self, capsys, tmp_path):
        path = tmp_path / "run.csv"
        path.write_bytes(b"x" * 5000)
        path.chmod(0o640)
        before = path.stat()
        assert main(self.HELMHOLTZ + ["--out", str(path)]) == EXIT_OK
        after = path.stat()
        assert after.st_ino == before.st_ino
        assert stat.S_IMODE(after.st_mode) == 0o640

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_gets_the_mode_of_open_for_writing(self, capsys, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "reference.csv", "w"):
                pass
            assert main(self.HELMHOLTZ + ["--out", str(tmp_path / "run.csv")]) == EXIT_OK
        finally:
            os.umask(old)
        want = stat.S_IMODE((tmp_path / "reference.csv").stat().st_mode)
        assert stat.S_IMODE((tmp_path / "run.csv").stat().st_mode) == want == 0o666 & ~umask

    def test_dev_null_is_written_not_truncated(self, capsys):
        assert main(self.HELMHOLTZ + ["--out", os.devnull]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" not in captured.err

    def test_pipe_is_written_not_truncated(self, capsys):
        want = self._stdout_bytes(capsys, self.SWEEP)
        read_end, write_end = os.pipe()
        with os.fdopen(read_end, "rb") as pipe:
            try:
                assert main(self.SWEEP + ["--out", f"/dev/fd/{write_end}"]) == EXIT_OK
            finally:
                os.close(write_end)
            assert pipe.read() == want
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [HELMHOLTZ, SWEEP], ids=["solve", "convergence"])
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_path_is_usage_error(self, capsys, tmp_path, argv, where):
        path = tmp_path / "missing" / "x.csv" if where == "missing_dir" else tmp_path
        assert main(argv + ["--out", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(rf"^error: cannot write {re.escape(str(path))}: \S", captured.err, re.M)
        assert "Traceback" not in captured.err

    def test_failed_solve_leaves_the_file_untouched(self, capsys, tmp_path):
        path = tmp_path / "run.csv"
        path.write_bytes(b"previous run")
        argv = ["solve", "--problem", "burger", "--interior", "3", "--out", str(path)]
        assert main(argv) == EXIT_NUMERICAL
        assert path.read_bytes() == b"previous run"

    @pytest.mark.parametrize("argv", [HELMHOLTZ, SWEEP], ids=["solve", "convergence"])
    def test_out_never_opens_with_truncation(self, capsys, tmp_path, monkeypatch, argv):
        """Truncating to zero makes the file system flush the file at close,
        and the next run's truncation waits for it: --out must not pass O_TRUNC."""
        path = tmp_path / "run.csv"
        path.write_bytes(b"x" * 5000)
        calls = []
        real_open = os.open

        def recording_open(file, flags, *args, **kwargs):
            calls.append((os.fspath(file), flags))
            return real_open(file, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        for _ in range(4):
            assert main(argv + ["--out", str(path)]) == EXIT_OK
        opened = [flags for file, flags in calls if file == str(path)]
        assert len(opened) == 4
        assert not any(flags & os.O_TRUNC for flags in opened)


class TestKernels:
    def test_value_at_radius(self, capsys):
        assert main(["kernels", "sinc3d", "--lambda", "1", "--r", "2"]) == EXIT_OK
        assert "sinc3d value 0.454648713413" in capsys.readouterr().out

    def test_value_at_zero_radius(self, capsys):
        assert main(["kernels", "i0", "--lambda", "1", "--r", "0"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "i0 value 1"

    def test_pair_prints_both_members(self, capsys):
        assert main(["kernels", "biharmonic2d", "--lambda", "1", "--r", "1"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("j0 value")
        assert lines[1].startswith("i0 value")

    @pytest.mark.parametrize(
        "name", ["j0", "i0", "sinc3d", "sinh3d", "biharmonic2d", "biharmonic3d"]
    )
    def test_residual_sweep_passes_gate(self, capsys, name):
        assert main(["kernels", name, "--lambda", "1.3"]) == EXIT_OK
        verdict = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(r"max_residual \d\.\d{3}e[+-]\d{2} < 1e-05", verdict)

    def test_convection_sweep_passes_gate(self, capsys):
        code = main(
            ["kernels", "convection2d", "--D", "1", "--vx", "2", "--vy", "0.7", "--k", "0.5"]
        )
        assert code == EXIT_OK
        assert " < 1e-05" in capsys.readouterr().out.splitlines()[-1]

    def test_convection_value_matches_product_form(self, capsys):
        # displacement (1, 0) with D=1, v=(1,0), k=0.75 gives
        # exp(-1/2) * J0(sqrt(1/4 + 3/4)) = exp(-1/2) * J0(1)
        code = main(
            ["kernels", "convection2d", "--D", "1", "--vx", "1", "--k", "0.75", "--r", "1"]
        )
        assert code == EXIT_OK
        value = float(capsys.readouterr().out.split()[-1])
        assert value == pytest.approx(0.46411585763858434, rel=1e-12)


    @pytest.mark.parametrize(
        "argv",
        [
            ["i0", "--r", "200"],
            ["i0", "--lambda", "30"],
            ["biharmonic2d", "--lambda", "30"],
            ["j0", "--lambda", "10", "--r", "1e308"],
        ],
        ids=" ".join,
    )
    def test_argument_past_bessel_range_is_usage_error(self, capsys, argv):
        # bessel_i0 raises OverflowError past 100, and lam * r = inf is not finite.
        assert main(["kernels", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: [^\n]*(out of range|must be finite)[^\n]*\n", captured.err)

    @pytest.mark.parametrize(
        "name, line",
        [
            ("j0", "j0 value 6.10423036569e-101"),
            ("convection2d", "convection2d value 6.10423036569e-101"),
            ("sinc3d", "sinc3d value -6.4396871854e-201"),
        ],
    )
    def test_huge_radius_warns_nothing(self, capsys, name, line):
        # 25 / r^2 in J0's asymptotic form and the sin(s)/s series at large s
        # once overflowed on the way to these finite values.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["kernels", name, "--r", "1e200"]) == EXIT_OK
        assert capsys.readouterr().out == line + "\n"


class TestCatalog:
    """Every name of the kernel catalog, through `bkm kernels`."""

    def test_help_lists_every_name_in_catalog_order(self, capsys):
        assert main(["kernels", "--help"]) == EXIT_OK
        help_text = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
        assert "{" + ",".join(cli._CATALOG) + "}" in help_text

    @pytest.mark.parametrize("name", tuple(cli._CATALOG))
    def test_value_at_unit_radius_prints_one_line_per_kernel(self, capsys, name):
        assert main(["kernels", name, "--r", "1"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == (2 if name.startswith("biharmonic") else 1)
        for line in lines:
            label, word, value = line.split()
            assert word == "value"
            assert np.isfinite(float(value))


class TestClosedStdout:
    """A stdout whose reader is gone (as in `bkm kernels j0 | head -1`)
    exits 1 with nothing on stderr.  The pipe's read end is closed before
    the run starts, so the outcome does not depend on timing."""

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--problem", "laplace", "--n", "5"],
            ["convergence", "--problem", "laplace", "--n", "3,5"],
            ["kernels", "j0"],
        ],
        ids=["solve", "convergence", "kernels"],
    )
    def test_exits_1_without_traceback(self, argv, buffered):
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        flags = [] if buffered else ["-u"]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, *flags, "-m", "bkm.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == EXIT_NUMERICAL
        assert b"Traceback" not in done.stderr
        assert done.stderr == b""


def _run_with_fd1_closed(argv: list[str]) -> subprocess.CompletedProcess:
    """Run ``python -m bkm.cli argv`` under ``sh -c '... >&-'``: Python starts
    with fd 1 closed and sets sys.stdout to None."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "bkm.cli", *argv],
        stderr=subprocess.PIPE,
        env=env,
        timeout=120,
    )


class TestStdoutClosedAtStartup:
    """With fd 1 closed before the start, a command that needs stdout exits 1
    without a traceback (solve and convergence used to end in an
    AttributeError, kernels printed nothing and exited 0); with --out it
    writes the file and exits 0."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--problem", "laplace", "--n", "5"],
            ["solve", "--problem", "laplace", "--n", "5", "--format", "csv"],
            ["convergence", "--problem", "laplace", "--n", "3,5"],
            ["kernels", "j0"],
            ["kernels", "j0", "--r", "1"],
        ],
        ids=["solve", "solve-csv", "convergence", "kernels", "kernels-r"],
    )
    def test_needing_stdout_exits_1_without_traceback(self, argv):
        done = _run_with_fd1_closed(argv)
        assert done.returncode == EXIT_NUMERICAL
        assert b"Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--problem", "laplace", "--n", "5"],
            ["convergence", "--problem", "laplace", "--n", "3,5"],
        ],
        ids=["solve", "convergence"],
    )
    def test_out_file_is_written(self, capsys, tmp_path, argv):
        path = tmp_path / "out.txt"
        done = _run_with_fd1_closed([*argv, "--out", str(path)])
        assert done.returncode == EXIT_OK
        assert b"Traceback" not in done.stderr
        assert main(argv) == EXIT_OK
        assert path.read_text() == capsys.readouterr().out


# Argvs that the parser rejects: each exits 2 with argparse's one-line
# message and no traceback.
INVALID_ARGVS = [
    ["solve", "--problem", "laplace", "--c", "-5"],
    ["solve", "--problem", "laplace", "--c", "0"],
    ["solve", "--problem", "laplace", "--c", "nan"],
    ["solve", "--problem", "laplace", "--c", "inf"],
    ["solve", "--problem", "laplace", "--c", "1e400"],
    ["solve", "--problem", "laplace", "--n", "0"],
    ["solve", "--problem", "laplace", "--n", "-3"],
    ["solve", "--problem", "laplace", "--interior", "-2"],
    ["convergence", "--problem", "laplace", "--n", ","],
    ["convergence", "--problem", "laplace", "--n", "5,0"],
    ["convergence", "--problem", "laplace", "--c", "0"],
    ["convergence", "--problem", "laplace", "--c", "25,nan"],
    ["kernels", "j0", "--lambda", "nan", "--r", "1"],
    ["kernels", "j0", "--r", "inf"],
    ["kernels", "sinc3d", "--r", "-3"],
    ["kernels", "convection2d", "--r", "-1"],
    ["kernels", "convection2d", "--D", "nan"],
    ["kernels", "convection2d", "--vx=-inf"],
    ["kernels", "convection2d", "--vy", "1e400"],
    ["kernels", "convection2d", "--k", "nan"],
]


class TestArgumentValidation:
    @pytest.mark.parametrize("argv", INVALID_ARGVS, ids=" ".join)
    def test_out_of_range_value_is_usage_error(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(r"^bkm \w+: error: argument --\w+: expected a ", captured.err, re.M)
        assert "Traceback" not in captured.err

    def test_zero_radius_is_valid(self, capsys):
        assert main(["kernels", "j0", "--lambda", "2", "--r", "0"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "j0 value 1"

    def test_sweep_lists_skip_blank_items(self, capsys):
        argv = ["convergence", "--problem", "laplace", "--n", "3,,5,", "--c", " 25"]
        assert main(argv) == EXIT_OK
        rows = _rows(capsys.readouterr().out)
        assert [(r["n"], r["c"]) for r in rows] == [("3", "25"), ("5", "25")]

    def test_default_sweep_is_parsed(self):
        args = cli._PARSER.parse_args(["convergence", "--problem", "laplace"])
        assert args.n == [3, 5, 7]
        assert args.c is None


class TestSharedParser:
    """main reuses one parser, built at import; no call may leak into the next."""

    LAPLACE = ["solve", "--problem", "laplace", "--n", "5"]

    def test_option_does_not_carry_over(self, capsys):
        assert main(self.LAPLACE + ["--c", "10"]) == EXIT_OK
        with_c = capsys.readouterr().out
        assert main(self.LAPLACE) == EXIT_OK
        second = capsys.readouterr().out
        fresh = cli._build_parser().parse_args(self.LAPLACE)
        assert fresh.handler(fresh) == EXIT_OK
        assert second == capsys.readouterr().out
        assert second != with_c  # the footer's condition numbers depend on c

    def test_each_parse_returns_a_fresh_namespace(self):
        first = cli._PARSER.parse_args(self.LAPLACE + ["--c", "10", "--interior", "3"])
        second = cli._PARSER.parse_args(self.LAPLACE)
        assert first is not second
        assert (first.c, first.interior) == (10.0, 3)
        assert (second.c, second.interior) == (None, 0)

    def test_usage_error_after_success_reaches_that_calls_stderr(self, capsys):
        assert main(self.LAPLACE) == EXIT_OK
        capsys.readouterr()
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            assert main(self.LAPLACE + ["--c", "-5"]) == EXIT_USAGE
        assert "error: argument --c" in stderr.getvalue()
        assert capsys.readouterr().err == ""
        assert main(["solve", "--problem", "laplace", "--n", "abc"]) == EXIT_USAGE
        assert "error: argument --n" in capsys.readouterr().err

    def test_help_goes_to_the_calls_stdout(self, capsys):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["solve", "--help"]) == EXIT_OK
        assert stdout.getvalue().startswith("usage: bkm solve")
        assert capsys.readouterr().out == ""

    def test_main_does_not_rebuild_the_parser(self, capsys, monkeypatch):
        def rebuilt():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(cli, "_build_parser", rebuilt)
        assert main(self.LAPLACE) == EXIT_OK
        assert "BKM(5)" in capsys.readouterr().out


_VALUES = ("0", "-1", "nan", "inf", "1e400", "abc", ",", "5")
_OPTIONS = {
    "solve": ("--n", "--interior", "--c"),
    "convergence": ("--n", "--c"),
    "kernels": ("--lambda", "--r", "--D", "--vx", "--vy", "--k"),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    if command == "kernels":
        head = [command, draw(st.sampled_from((*cli._CATALOG, "abc")))]
    else:
        head = [command, "--problem", draw(st.sampled_from(sorted(cli._PROBLEMS) + ["abc"]))]
    names = draw(st.lists(st.sampled_from(_OPTIONS[command]), unique=True, max_size=3))
    return head + [part for name in names for part in (name, draw(st.sampled_from(_VALUES)))]


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=_argvs())
def test_main_never_raises(capsys, argv):
    assert main(argv) in (EXIT_OK, EXIT_NUMERICAL, EXIT_USAGE)
    capsys.readouterr()

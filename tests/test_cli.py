import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ringflow
from ringflow import cli, verify
from ringflow.cli import main
from ringflow.manifest import THREAD_VARIABLES, peak_rss_mb, sha256_of

from conftest import needs_openblas_threads


def run(args):
    return main(args)


def write_state(outdir, *options) -> str:
    """Solve a state with the state command; the path of the state.csv it writes."""
    assert run(["state", *options, "--outdir", str(outdir)]) == 0
    return str(outdir / "state.csv")


def check_manifest(outdir, command, data_files):
    """The manifest names the command and holds one valid digest per data file."""
    manifest = json.loads((outdir / f"{command}.manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["tool_version"] == ringflow.__version__
    written = {p.name for p in outdir.iterdir() if not p.name.endswith(".manifest.json")}
    assert written == set(data_files)
    assert sorted(Path(o["path"]).name for o in manifest["outputs"]) == sorted(data_files)
    for output in manifest["outputs"]:
        assert sha256_of(output["path"]) == output["sha256"]
    assert manifest["thread_env"] == {name: os.environ.get(name) for name in THREAD_VARIABLES}
    peak = manifest["peak_rss_mb"]
    assert peak is None or peak > 0


class TestPeakRss:
    def test_read_from_vmhwm(self, tmp_path):
        status = tmp_path / "status"
        status.write_text("Name:\tpython\nVmPeak:\t  99999 kB\nVmHWM:\t   40960 kB\n")
        assert peak_rss_mb(status) == 40.0
        status.write_text("Name:\tpython\n")
        assert peak_rss_mb(status) is None
        assert peak_rss_mb(tmp_path / "missing") is None

    def test_in_manifest_not_in_data(self, tmp_path):
        # two runs: the manifests carry each process's peak, the data files
        # stay byte-identical
        for outdir in ("a", "b"):
            args = ["eigen", "--alpha", "1.0", "--n", "40", "--outdir", str(tmp_path / outdir)]
            assert run(args) == 0
            manifest = json.loads((tmp_path / outdir / "eigen.manifest.json").read_text())
            if Path("/proc/self/status").exists():
                # VmHWM never falls, so the value written is at most today's
                assert 0 < manifest["peak_rss_mb"] <= peak_rss_mb()
            else:
                assert manifest["peak_rss_mb"] is None
        assert (tmp_path / "a" / "eigen.json").read_bytes() == \
            (tmp_path / "b" / "eigen.json").read_bytes()


class TestEigenCommand:
    def test_reference_value(self, tmp_path, capsys):
        code = run(
            [
                "eigen",
                "--alpha-over-pi", "0.3703965",
                "--beta", "0",
                "--n", "800",
                "--outdir", str(tmp_path),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("lambda_min = -0.11681560946")
        record = json.loads((tmp_path / "eigen.json").read_text())
        assert record["lambda_min"] == pytest.approx(-0.11681560946083251, abs=1e-9)

    def test_alpha_flags_exclusive(self, tmp_path):
        code = run(
            [
                "eigen",
                "--alpha", "1.0",
                "--alpha-over-pi", "0.5",
                "--n", "10",
                "--outdir", str(tmp_path),
            ]
        )
        assert code == 2

    def test_missing_alpha(self, tmp_path):
        assert run(["eigen", "--n", "10", "--outdir", str(tmp_path)]) == 2

    def test_invalid_n(self, tmp_path):
        assert run(["eigen", "--alpha", "1.0", "--n", "0", "--outdir", str(tmp_path)]) == 2

    def test_negative_beta_in_exponent_notation(self, tmp_path):
        # argparse alone reads -1e-3 as an option and --beta as missing its value
        assert run(["eigen", "--alpha", "1.0", "--beta", "-1e-3", "--n", "10",
                    "--outdir", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "eigen.json").read_text())["beta"] == -1e-3


ALL_COMMANDS = ("eigen", "extrapolate", "sweep", "infimum", "twomode", "state", "current",
                "linelimit", "verify")


class TestParser:
    def test_help_lists_every_command(self, capsys):
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        assert all(f"    {name} " in out for name in ALL_COMMANDS)

    def test_unknown_command(self, capsys):
        assert run(["bogus"]) == 2
        err = capsys.readouterr().err
        assert "error: argument subcommand: invalid choice: 'bogus'" in err
        assert all(name in err for name in ALL_COMMANDS)

    def test_one_command_parser_keeps_the_usage(self):
        # main builds only the invoked command's options; its errors still
        # print the usage that names every command
        parser = cli.build_parser("state")
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(subparsers.choices) == ["state"]
        assert parser.format_usage() == cli.build_parser().format_usage()
        assert "{" + ",".join(ALL_COMMANDS) + "}" in parser.format_usage()


class TestSweepCommand:
    def test_zeros_and_determinism(self, tmp_path):
        args = [
            "sweep",
            "--beta", "0",
            "--alpha-over-pi-min", "1",
            "--alpha-over-pi-max", "3",
            "--steps", "3",
            "--schedule", "50,60,70,80",
        ]
        assert run(args + ["--outdir", str(tmp_path / "a")]) == 0
        assert run(args + ["--outdir", str(tmp_path / "b")]) == 0
        first = (tmp_path / "a" / "sweep.csv").read_bytes()
        second = (tmp_path / "b" / "sweep.csv").read_bytes()
        assert first == second
        for line in first.decode().splitlines()[1:]:
            p = float(line.split(",")[2])
            assert abs(p) <= 1e-10

    def test_manifest_digests(self, tmp_path, monkeypatch):
        for name in THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("RINGFLOW_JOBS", "2")
        run(
            [
                "sweep",
                "--beta", "0",
                "--alpha-over-pi-min", "1",
                "--alpha-over-pi-max", "2",
                "--steps", "2",
                "--schedule", "50 60 70 80",
                "--outdir", str(tmp_path),
            ]
        )
        check_manifest(tmp_path, "sweep", ["sweep.csv"])
        manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
        assert manifest["thread_env"] == {"OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": "1",
                                          "MKL_NUM_THREADS": None, "RINGFLOW_JOBS": "2"}
        # two FAST points are far below the fork floor: one scan, in process
        assert manifest["diagnostics"] == {"scans": [
            {"points": 2, "schedule": [50, 60, 70, 80], "workers": 1, "start_method": None}]}

    SWEEP_ARGS = ["sweep", "--beta", "0", "--alpha-over-pi-min", "0.3",
                  "--alpha-over-pi-max", "2", "--steps", "4", "--schedule", "50,60,70,80"]

    def test_pool_gives_the_same_file(self, tmp_path, monkeypatch):
        import ringflow.sweep as sw

        assert run(self.SWEEP_ARGS + ["--jobs", "1", "--outdir", str(tmp_path / "a")]) == 0
        monkeypatch.setattr(sw, "_MODES_PER_WORKER", 1)
        assert run(self.SWEEP_ARGS + ["--jobs", "2", "--outdir", str(tmp_path / "b")]) == 0
        for sub, workers, method in (("a", 1, None), ("b", 2, "fork")):
            scan, = json.loads((tmp_path / sub / "sweep.manifest.json").read_text())[
                "diagnostics"]["scans"]
            assert (scan["workers"], scan["start_method"]) == (workers, method)
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()

    @pytest.mark.parametrize(
        "options, message",
        [(["--alpha-over-pi-min", "-0.5", "--alpha-over-pi-max", "0.5", "--steps", "3"],
          "alpha must be positive"),
         (["--schedule", "20,30,40"], "at least 4"),
         (["--schedule", "20,20,30,40"], "distinct"),
         (["--schedule", "0,30,40,50"], "n_trunc >= 1"),
         (["--alpha-over-pi-min", "0.5", "--alpha-over-pi-max", "inf", "--steps", "3"],
          "got inf"),
         (["--alpha-over-pi-min", "nan", "--alpha-over-pi-max", "0.5", "--steps", "3"],
          "got nan")],
        ids=["non-positive-alpha", "three-sizes", "repeated-size", "zero-size",
             "inf-alpha", "nan-alpha"],
    )
    def test_bad_inputs_exit_2_before_any_solve(self, tmp_path, monkeypatch, capsys,
                                                options, message):
        # validation errors, not per-point solver failures written as nan rows;
        # a non-finite bound is caught before np.linspace could warn
        import ringflow.sweep as sw

        def no_solve(alpha, beta, schedule):
            raise AssertionError("solved a point")

        monkeypatch.setattr(sw, "extrapolated_infimum", no_solve)
        args = self.SWEEP_ARGS + ["--schedule", "20,30,40,50", *options]
        assert run(args + ["--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_dead_worker_exits_1(self, tmp_path, monkeypatch, capsys):
        import ringflow.sweep as sw

        parent = os.getpid()

        def dying(alpha, beta, schedule):
            if os.getpid() != parent:
                os._exit(1)
            raise AssertionError("ran in the calling process")

        monkeypatch.setattr(sw, "extrapolated_infimum", dying)
        monkeypatch.setattr(sw, "_MODES_PER_WORKER", 1)
        assert run(self.SWEEP_ARGS + ["--jobs", "2", "--outdir", str(tmp_path)]) == 1
        assert "worker process died" in capsys.readouterr().err


# one bad input per file-writing subcommand, each rejected before a file is written
BAD_INVOCATIONS = {
    "eigen": ["eigen", "--alpha", "-1", "--n", "10"],
    "extrapolate": ["extrapolate", "--alpha", "1", "--schedule", "1,2,3"],
    "sweep": ["sweep", "--alpha-over-pi-min", "-0.5", "--alpha-over-pi-max", "0.5",
              "--steps", "3", "--schedule", "20,30,40,50"],
    "infimum": ["infimum", "--alpha-over-pi-min", "0.5", "--alpha-over-pi-max", "0.3"],
    "twomode": ["twomode", "--steps", "0"],
    "state": ["state", "--alpha", "-1", "--n", "10"],
    "current": ["current", "--state-file", "missing.csv"],
    "linelimit": ["linelimit", "--ring-route", "--alpha", "-1"],
}


@pytest.mark.parametrize("case", sorted(BAD_INVOCATIONS))
def test_bad_input_leaves_no_outdir(tmp_path, monkeypatch, capsys, case):
    # the outdir is made only when a command writes its outputs
    monkeypatch.chdir(tmp_path)
    assert run(BAD_INVOCATIONS[case] + ["--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_failed_solve_leaves_no_outdir(tmp_path, monkeypatch, capsys):
    def failing(kernel):
        raise RuntimeError("no convergence")

    monkeypatch.setattr(cli, "min_eigen", failing)
    argv = ["eigen", "--alpha", "1", "--n", "10", "--outdir", str(tmp_path / "out")]
    assert run(argv) == 1
    assert capsys.readouterr().err == "computation failed: no convergence\n"
    assert not (tmp_path / "out").exists()


# every other file-writing subcommand; sweep is TestSweepCommand's case
MANIFEST_CASES = {
    "eigen": (["eigen", "--alpha", "1.0", "--n", "20"], ["eigen.json"]),
    "extrapolate": (
        ["extrapolate", "--alpha-over-pi", "1", "--schedule", "50,60,70,80"],
        ["extrapolation.json"],
    ),
    "twomode-curve": (["twomode", "--steps", "5"], ["twomode_curve.csv"]),
    "twomode-global": (["twomode", "--global"], ["twomode_global.json"]),
    "state": (["state", "--alpha", "1.0", "--n", "20"], ["state.csv", "state_report.json"]),
    # samples the "state" case's state, solved into a directory beside the outdir
    "current": (["current", "--samples", "11"], ["current.csv"]),
    "linelimit-nystrom": (["linelimit", "--n-points", "100"], ["linelimit.json"]),
    "linelimit-ring": (
        ["linelimit", "--ring-route", "--alpha", "0.1", "--n", "100"],
        ["linelimit.json"],
    ),
}


@pytest.mark.parametrize("case", sorted(MANIFEST_CASES))
def test_manifest_digests(tmp_path, case):
    argv, data_files = MANIFEST_CASES[case]
    if case == "current":
        state = write_state(tmp_path / "state", *MANIFEST_CASES["state"][0][1:])
        argv = argv + ["--state-file", state]
    assert run(argv + ["--outdir", str(tmp_path / "out")]) == 0
    check_manifest(tmp_path / "out", argv[0], data_files)


class TestCanonicalBeta:
    def test_extrapolate_reports_reduced_beta(self, tmp_path):
        args = ["extrapolate", "--alpha-over-pi", "0.5", "--schedule", "50,60,70,80"]
        assert run(args + ["--beta", "0.5", "--outdir", str(tmp_path / "raw")]) == 0
        assert run(args + ["--beta", "-0.5", "--outdir", str(tmp_path / "canon")]) == 0
        raw = json.loads((tmp_path / "raw" / "extrapolation.json").read_text())
        canon = json.loads((tmp_path / "canon" / "extrapolation.json").read_text())
        assert raw["beta"] == -0.5
        assert raw == canon

    def test_sweep_rows_carry_reduced_beta(self, tmp_path):
        args = [
            "sweep",
            "--alpha-over-pi-min", "0.5",
            "--alpha-over-pi-max", "1",
            "--steps", "2",
            "--schedule", "50,60,70,80",
        ]
        assert run(args + ["--beta", "1.5", "--outdir", str(tmp_path / "raw")]) == 0
        assert run(args + ["--beta", "-0.5", "--outdir", str(tmp_path / "canon")]) == 0
        raw = (tmp_path / "raw" / "sweep.csv").read_bytes()
        assert raw == (tmp_path / "canon" / "sweep.csv").read_bytes()
        assert all(line.split(",")[1] == "-0.5" for line in raw.decode().splitlines()[1:])


class TestExtrapolateCommand:
    def test_record_fields(self, tmp_path):
        code = run(
            [
                "extrapolate",
                "--alpha-over-pi", "1",
                "--schedule", "50,60,70,80",
                "--outdir", str(tmp_path),
            ]
        )
        assert code == 0
        record = json.loads((tmp_path / "extrapolation.json").read_text())
        assert set(record) >= {"alpha", "beta", "schedule", "lambdas", "a0", "a1", "a2", "residual"}
        assert abs(record["p_estimate"]) < 1e-12

    def test_rung_diagnostics_in_manifest_only(self, tmp_path):
        args = ["extrapolate", "--alpha-over-pi", "0.37", "--schedule", "100,200,300,400"]
        for name in ("a", "b"):
            assert run(args + ["--outdir", str(tmp_path / name)]) == 0
        data = [(tmp_path / name / "extrapolation.json").read_bytes() for name in ("a", "b")]
        assert data[0] == data[1]
        assert set(json.loads(data[0])) == {"alpha", "beta", "schedule", "lambdas", "a0", "a1",
                                            "a2", "residual", "p_estimate"}
        manifest = json.loads((tmp_path / "a" / "extrapolate.manifest.json").read_text())
        rungs = manifest["diagnostics"]["rungs"]
        assert [r["n"] for r in rungs] == [100, 200, 300, 400]
        assert [r["warm_started"] for r in rungs] == [False, True, True, True]
        assert all(r["iterations"] > 0 and 0 <= r["residual_norm"] < 1e-9 for r in rungs)

    @pytest.mark.parametrize(
        "options, message",
        [(["--alpha", "-1", "--schedule", "50,60,70,80"], "alpha must be positive"),
         (["--alpha", "1", "--schedule", "0,1,2,3"], "n_trunc"),
         (["--alpha", "1", "--schedule", "50,50,60,70"], "distinct")],
        ids=["negative-alpha", "zero-n", "repeated-n"],
    )
    def test_bad_parameters_are_validation_errors(self, tmp_path, capsys, options, message):
        # checked before any solve, so they exit 2 and are not solver failures
        assert run(["extrapolate", *options, "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "extrapolation.json").exists()

    def test_schedule_rejected_with_reference_schedule(self, tmp_path, capsys, monkeypatch):
        # the reference route would drop the given schedule, yet record it
        monkeypatch.setattr(cli, "REFERENCE_SCHEDULE", (50, 60, 70, 80, 90))
        args = ["extrapolate", "--alpha-over-pi", "1", "--reference-schedule"]
        assert run(args + ["--schedule", "50,60,70,80", "--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "error: --schedule is not an option of --reference-schedule\n"
        assert not (tmp_path / "out").exists()


class TestTwomodeCommand:
    def test_curve_csv(self, tmp_path):
        code = run(
            [
                "twomode",
                "--m1", "0",
                "--m2", "1",
                "--steps", "20",
                "--outdir", str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "twomode_curve.csv").read_text().splitlines()
        assert lines[0] == "alpha_over_pi,beta,p_min"
        assert len(lines) == 1 + 20 * 5  # five beta values

    def test_global_optimum(self, tmp_path):
        code = run(["twomode", "--global", "--outdir", str(tmp_path)])
        assert code == 0
        record = json.loads((tmp_path / "twomode_global.json").read_text())
        assert record["p_min"] == pytest.approx(-0.101727, abs=1e-5)

    @pytest.mark.parametrize(
        "options",
        [["--m1", "1", "--m2", "1"], ["--m1", "-2", "--m2", "1"], ["--steps", "0"],
         ["--alpha-over-pi-min", "-1", "--alpha-over-pi-max", "0", "--steps", "3"],
         ["--alpha-over-pi-max", "inf", "--steps", "3"],
         ["--alpha-over-pi-min", "nan", "--steps", "3"]],
        ids=["equal-pair", "negative-m1", "no-steps", "non-positive-alpha", "inf-alpha",
             "nan-alpha"],
    )
    def test_curve_validation(self, tmp_path, capsys, options):
        # the curve checks its pair and grid as --global and sweep do, and a
        # non-finite bound before np.linspace could warn
        assert run(["twomode", *options, "--outdir", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        for value in ("inf", "nan"):
            assert (value in options) == (f"got {value}" in err)

    @pytest.mark.parametrize(
        "option", [["--alpha-over-pi-min", "0.1"], ["--alpha-over-pi-max", "1"], ["--steps", "0"]],
        ids=["alpha-over-pi-min", "alpha-over-pi-max", "steps"],
    )
    def test_global_rejects_curve_options(self, tmp_path, capsys, option):
        # --global reads no grid, so a grid option would enter the manifest unread
        assert run(["twomode", "--global", *option, "--outdir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {option[0]} is not an option of --global\n"
        assert not (tmp_path / "out").exists()

    def test_global_manifest_records_own_options(self, tmp_path):
        assert run(["twomode", "--global", "--outdir", str(tmp_path)]) == 0
        recorded = json.loads((tmp_path / "twomode.manifest.json").read_text())["parameters"]
        assert recorded == {"subcommand": "twomode", "outdir": str(tmp_path),
                            "m1": 0, "m2": 1, "global_opt": True}


class TestInfimumCommand:
    def test_scans_in_manifest_only(self, tmp_path):
        # a budget of 3 stops the search inside its coarse scan, on
        # find_infimum's default coarse schedule
        args = ["infimum", "--alpha-over-pi-min", "0.3", "--alpha-over-pi-max", "0.4",
                "--budget", "3", "--jobs", "2", "--outdir", str(tmp_path)]
        assert run(args) == 0
        check_manifest(tmp_path, "infimum", ["infimum.json"])
        record = json.loads((tmp_path / "infimum.json").read_text())
        assert set(record) == {"alpha_over_pi", "beta", "p", "evaluations",
                               "budget_exhausted", "stages"}
        manifest = json.loads((tmp_path / "infimum.manifest.json").read_text())
        assert manifest["diagnostics"] == {"scans": [
            {"points": 3, "schedule": [300, 400, 600, 800], "workers": 1, "start_method": None}]}

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one_is_a_validation_error(self, tmp_path, capsys, budget):
        args = ["infimum", "--alpha-over-pi-min", "0.3", "--alpha-over-pi-max", "0.4"]
        assert run([*args, "--budget", budget, "--outdir", str(tmp_path)]) == 2
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "box, value", [(["0.3", "inf"], "inf"), (["nan", "0.4"], "nan"), (["-inf", "0.4"], "-inf")],
        ids=["inf", "nan", "minus-inf"],
    )
    def test_non_finite_box_is_a_validation_error(self, tmp_path, capsys, box, value):
        # both ends are checked before np.linspace could warn or a nan reach the scan
        args = ["infimum", "--alpha-over-pi-min", box[0], "--alpha-over-pi-max", box[1]]
        assert run([*args, "--outdir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: alpha must be positive and finite, got {value}\n")
        assert not (tmp_path / "out").exists()


class TestStateAndCurrentCommands:
    def test_state_and_current_roundtrip(self, tmp_path):
        code = run(
            [
                "state",
                "--alpha-over-pi", "0.3703965",
                "--n", "300",
                "--outdir", str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "state_report.json").read_text())
        assert report["coefficient_decay_below_c0_over_m2"] is True

        code = run(
            [
                "current",
                "--state-file", str(tmp_path / "state.csv"),
                "--samples", "101",
                "--tau-min", "-0.5",
                "--tau-max", "0.5",
                "--outdir", str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "current.csv").read_text().splitlines()
        assert len(lines) == 2 + 101

    def test_byte_identical_repeat(self, tmp_path):
        state = write_state(tmp_path / "state", "--alpha-over-pi", "0.37", "--n", "50")
        args = ["current", "--state-file", state, "--samples", "33"]
        run(args + ["--outdir", str(tmp_path / "a")])
        run(args + ["--outdir", str(tmp_path / "b")])
        assert (tmp_path / "a" / "current.csv").read_bytes() == (
            tmp_path / "b" / "current.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "window, first, last",
        [([], "-1.5", "1.5"), (["--tau-min=-0.25", "--tau-max", "0.75"], "-0.25", "0.75")],
        ids=["default", "given"],
    )
    def test_header_names_the_window(self, tmp_path, window, first, last):
        state = write_state(tmp_path / "state", "--alpha-over-pi", "0.37", "--n", "10")
        code = run(["current", "--state-file", state, "--samples", "9",
                    *window, "--outdir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "current.csv").read_text().splitlines()
        assert lines[0] == f"# theta=0 window=({first},{last})"
        assert lines[2].split(",")[0] == first and lines[-1].split(",")[0] == last

    @pytest.mark.parametrize(
        "option, value", [("--theta", "nan"), ("--tau-min", "-inf"), ("--tau-max", "inf")]
    )
    def test_non_finite_window_rejected(self, tmp_path, capsys, option, value):
        state = write_state(tmp_path / "state", "--alpha-over-pi", "0.37", "--n", "10")
        code = run(["current", "--state-file", state, f"{option}={value}",
                    "--outdir", str(tmp_path)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "current.csv").exists()

    @pytest.mark.parametrize("key", ["alpha", "beta"])
    def test_state_file_header_without_key(self, tmp_path, capsys, key):
        header = {"alpha": "1", "beta": "0", "n_trunc": "1"}
        del header[key]
        path = tmp_path / "state.csv"
        path.write_text("# " + " ".join(f"{k}={v}" for k, v in header.items())
                        + "\nm,re_c,im_c\n0,1,0\n1,0,0\n")
        code = run(["current", "--state-file", str(path), "--samples", "3",
                    "--outdir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: state file {path} header lacks {key}\n"
        assert not (tmp_path / "current.csv").exists()

    @pytest.mark.parametrize(
        "header, rows, reason",
        [
            ("alpha=nan beta=0", "0,1,0\n1,0,0", "alpha must be positive and finite"),
            ("alpha=inf beta=0", "0,1,0\n1,0,0", "alpha must be positive and finite"),
            ("alpha=-1 beta=0", "0,1,0\n1,0,0", "alpha must be positive and finite"),
            ("alpha=0 beta=0", "0,1,0\n1,0,0", "alpha must be positive and finite"),
            ("alpha=1 beta=0", "0,1,0\n1,nan,0", "coefficients must be finite"),
            ("alpha=1 beta=0", "0,1,0\n1,0,-inf", "coefficients must be finite"),
            ("alpha=1 beta=0", "0,1,0\n1,2", "line 4 is not three numbers: '1,2'"),
            ("alpha=1 beta=0", "0,1,0\n1,abc,0", "line 4 is not three numbers: '1,abc,0'"),
            ("alpha=1 beta=0", "0,1\n1,0", "line 3 is not three numbers: '0,1'"),
            # float() reads 1_0, np.loadtxt does not: the error is loadtxt's
            ("alpha=1 beta=0", "0,1_0,0", "'1_0'"),
        ],
        ids=["alpha-nan", "alpha-inf", "alpha-negative", "alpha-zero", "coeff-nan",
             "coeff-inf", "short-row", "text-value", "two-columns", "underscore"],
    )
    def test_bad_state_file_rejected(self, tmp_path, capsys, header, rows, reason):
        path = tmp_path / "state.csv"
        path.write_text(f"# {header} n_trunc=1\nm,re_c,im_c\n{rows}\n")
        code = run(["current", "--state-file", str(path), "--samples", "3",
                    "--outdir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: state file {path}") and reason in err
        assert not (tmp_path / "current.csv").exists()

    @pytest.mark.parametrize("n", ["20", "300"], ids=["21-modes", "301-modes"])
    def test_manifest_records_nufft(self, tmp_path, n):
        # the plan depends on the samples, not the modes: one transform of
        # 2 * 80 outputs (80 is the smallest 5-smooth number >= 3/4 of 101
        # samples) on a grid of 320
        state = write_state(tmp_path / "state", "--alpha", "1.0", "--n", n)
        code = run(["current", "--state-file", state, "--samples", "101",
                    "--outdir", str(tmp_path)])
        assert code == 0
        diagnostics = json.loads((tmp_path / "current.manifest.json").read_text())["diagnostics"]
        # what the first-order term leaves out, far below the current at alpha = 1
        assert 0 < diagnostics.pop("remainder_bound") < 1e-20
        assert diagnostics == {"method": "nufft", "windows": 1, "grid_length": 320,
                               "spread_half_width": 16, "first_order_term": True}
        assert (tmp_path / "current.csv").read_text().splitlines()[1] == "tau,tj"

    def test_manifest_records_exact_grid(self, tmp_path):
        # h = 1/128: every sample of np.linspace(-0.5, 0.5, 129) is -0.5 + k h
        # exactly, so the first-order term is left out; 100 is the smallest
        # 5-smooth number >= 3/4 of 129 samples
        state = write_state(tmp_path / "state", "--alpha", "1.0", "--n", "20")
        code = run(["current", "--state-file", state, "--samples", "129", "--tau-min", "-0.5",
                    "--tau-max", "0.5", "--outdir", str(tmp_path)])
        assert code == 0
        diagnostics = json.loads((tmp_path / "current.manifest.json").read_text())["diagnostics"]
        assert diagnostics == {"method": "nufft", "windows": 1, "grid_length": 400,
                               "spread_half_width": 16, "first_order_term": False,
                               "remainder_bound": 0.0}

    @pytest.mark.parametrize(
        "header, rows, line, reason",
        [
            ("n_trunc=5", "0,1,0\n5,0,0", 4, "m = 5 in the row of mode 1"),
            ("n_trunc=1", "1,0,0\n0,1,0", 3, "m = 1 in the row of mode 0"),
            ("n_trunc=2", "0,1,0\n1,0,0", 1, "n_trunc=2 but the file has 2 mode rows"),
        ],
        ids=["gap", "reordered", "count-mismatch"],
    )
    def test_mode_rows_checked(self, tmp_path, capsys, header, rows, line, reason):
        # each file is a normalized state that would read as a two-mode state
        path = tmp_path / "state.csv"
        path.write_text(f"# alpha=1 beta=0 {header}\nm,re_c,im_c\n{rows}\n")
        code = run(["current", "--state-file", str(path), "--samples", "3",
                    "--outdir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: state file {path} line {line}: ") and reason in err
        assert not (tmp_path / "current.csv").exists()

    def test_state_file_header_token_without_value(self, tmp_path, capsys):
        path = tmp_path / "state.csv"
        path.write_text("# alpha=1 beta\nm,re_c,im_c\n0,1,0\n1,0,0\n")
        code = run(["current", "--state-file", str(path), "--samples", "3",
                    "--outdir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: state file {path} header token 'beta' is not key=value\n")
        assert not (tmp_path / "current.csv").exists()

    @pytest.mark.parametrize("alpha", [["--alpha", "5"], ["--alpha-over-pi", "0.37"]],
                             ids=["alpha", "alpha-over-pi"])
    def test_state_file_with_alpha_rejected(self, tmp_path, capsys, alpha):
        # the file sets alpha and beta: current takes neither, nor --n, as an option
        path = tmp_path / "state.csv"
        path.write_text("# alpha=1 beta=0\nm,re_c,im_c\n0,1,0\n1,0,0\n")
        code = run(["current", "--state-file", str(path), *alpha, "--n", "7",
                    "--samples", "3", "--outdir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {alpha[0]} {alpha[1]} --n 7" in err
        assert not (tmp_path / "out").exists()


def check_solve(outdir, command, n) -> dict:
    """The manifest records the command's one solve with a ladder rung's keys."""
    manifest = json.loads((outdir / f"{command}.manifest.json").read_text())
    solve = manifest["diagnostics"]["solve"]
    assert set(solve) == {"n", "iterations", "residual_norm", "warm_started"}
    assert (solve["n"], solve["warm_started"]) == (n, False)
    assert solve["iterations"] >= 0 and 0 <= solve["residual_norm"] < 1e-9
    return solve


class TestSolveProvenance:
    def test_eigen(self, tmp_path):
        args = ["eigen", "--alpha-over-pi", "0.3703965", "--n", "300"]
        assert run(args + ["--outdir", str(tmp_path)]) == 0
        assert check_solve(tmp_path, "eigen", 300)["iterations"] > 0

    def test_state(self, tmp_path):
        args = ["state", "--alpha-over-pi", "0.3703965", "--n", "300"]
        assert run(args + ["--outdir", str(tmp_path)]) == 0
        assert check_solve(tmp_path, "state", 300)["iterations"] > 0
        report = json.loads((tmp_path / "state_report.json").read_text())
        assert set(report) == {"lambda_min", "mean_energy", "coefficient_decay_below_c0_over_m2"}

    def test_current_without_state_file(self, tmp_path, capsys):
        # current solves nothing: without a state file it exits 2 before making its outdir
        assert run(["current", "--samples", "9", "--outdir", str(tmp_path / "read")]) == 2
        assert capsys.readouterr().err == "error: --state-file is required\n"
        assert run(["current", "--alpha", "1.0", "--n", "20",
                    "--outdir", str(tmp_path / "read")]) == 2
        assert not (tmp_path / "read").exists()
        # the state command records the solve; current, reading its file, has none
        state = write_state(tmp_path / "state", "--alpha-over-pi", "0.37", "--n", "50")
        check_solve(tmp_path / "state", "state", 50)
        assert run(["current", "--state-file", state, "--samples", "9",
                    "--outdir", str(tmp_path / "read")]) == 0
        manifest = json.loads((tmp_path / "read" / "current.manifest.json").read_text())
        assert "solve" not in manifest["diagnostics"]

    def test_linelimit_ring_route(self, tmp_path):
        args = ["linelimit", "--ring-route", "--alpha", "1e-3", "--n", "1000"]
        assert run(args + ["--outdir", str(tmp_path)]) == 0
        assert check_solve(tmp_path, "linelimit", 1000)["iterations"] > 0
        record = json.loads((tmp_path / "linelimit.json").read_text())
        assert set(record) == {"route", "alpha", "beta", "n_trunc", "lambda_min"}


class TestLinelimitCommand:
    def test_nystrom_route(self, tmp_path):
        code = run(
            [
                "linelimit",
                "--u-max", "10",
                "--n-points", "400",
                "--outdir", str(tmp_path),
            ]
        )
        assert code == 0
        record = json.loads((tmp_path / "linelimit.json").read_text())
        assert record["route"] == "nystrom"
        result = ringflow.line_limit_min(10.0, 400)
        for key in ("lambda_min", "lambda_interval", "lambda_half_interval", "u_half"):
            assert record[key] == pytest.approx(getattr(result, key), abs=1e-14)
        assert set(record) == {"route", "u_max", "n_points", "lambda_min", "lambda_interval",
                               "lambda_half_interval", "u_half"}
        manifest = json.loads((tmp_path / "linelimit.manifest.json").read_text())
        rungs = manifest["diagnostics"]["rungs"]
        assert [r["n"] for r in rungs] == [199, 399]
        assert [r["warm_started"] for r in rungs] == [False, True]
        assert all(r["iterations"] >= 0 and 0 <= r["residual_norm"] < 1e-9 for r in rungs)

    def test_ring_route(self, tmp_path):
        argv = ["linelimit", "--ring-route", "--alpha", "1e-3", "--n", "1000"]
        assert run(argv + ["--outdir", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "linelimit.json").read_text())
        assert record["lambda_min"] == pytest.approx(-0.0384517, abs=1e-3)
        assert record["beta"] == 0.0
        # the record names the rule: beta = -1/2 (given here as 1/2) is the midpoint rule
        args = ["linelimit", "--ring-route", "--alpha", "0.1", "--n", "100", "--beta", "0.5"]
        assert run(args + ["--outdir", str(tmp_path / "mid")]) == 0
        assert json.loads((tmp_path / "mid" / "linelimit.json").read_text())["beta"] == -0.5

    @pytest.mark.parametrize(
        "options, other",
        [(["--n-points", "100", "--alpha", "3", "--beta", "0.5"], "--alpha"),
         (["--n-points", "100", "--beta", "0.5"], "--beta"),
         (["--n-points", "100", "--n", "7"], "--n"),
         (["--ring-route", "--alpha", "0.1", "--n", "100", "--u-max", "99"], "--u-max"),
         (["--ring-route", "--alpha", "0.1", "--n", "100", "--n-points", "50"], "--n-points")],
        ids=["nystrom-alpha", "nystrom-beta", "nystrom-n", "ring-u-max", "ring-n-points"],
    )
    def test_other_routes_option_rejected(self, tmp_path, capsys, options, other):
        # the route would not read it, yet the manifest would record it
        assert run(["linelimit", *options, "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {other} is not an option of ")
        assert not (tmp_path / "linelimit.json").exists()

    @pytest.mark.parametrize(
        "options, parameters",
        [(["--n-points", "100"], {"ring_route": False, "u_max": 10.0, "n_points": 100}),
         (["--ring-route", "--alpha", "0.1", "--n", "100"],
          {"ring_route": True, "alpha": 0.1, "beta": 0.0, "n": 100})],
        ids=["nystrom", "ring"],
    )
    def test_manifest_records_own_options(self, tmp_path, options, parameters):
        assert run(["linelimit", *options, "--outdir", str(tmp_path)]) == 0
        recorded = json.loads((tmp_path / "linelimit.manifest.json").read_text())["parameters"]
        assert recorded == {"subcommand": "linelimit", "outdir": str(tmp_path), **parameters}

    def test_ring_route_rejects_bad_alpha(self, tmp_path, capsys):
        # alpha is checked before the coverage warning takes its square root
        argv = ["linelimit", "--ring-route", "--alpha", "-1", "--outdir", str(tmp_path)]
        assert run(argv) == 2
        assert "alpha must be positive" in capsys.readouterr().err


class TestConfigPrecedence:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("n = 20\nbeta = -0.25\n")
        code = run(
            [
                "eigen",
                "--alpha", "1.0",
                "--beta", "0",
                "--config", str(config),
                "--outdir", str(tmp_path),
            ]
        )
        assert code == 0
        record = json.loads((tmp_path / "eigen.json").read_text())
        assert record["n_trunc"] == 20  # from config
        assert record["beta"] == 0.0  # flag beats config

    @pytest.mark.parametrize(
        "flags,config,output",
        [(["--global"], "global_opt = false", "twomode_global.json"),
         (["--glob"], "global_opt = false", "twomode_global.json"),
         ([], "global = true", "twomode_global.json"),
         ([], "global_opt = false", "twomode_curve.csv")],
    )
    def test_option_matched_to_its_dest(self, tmp_path, flags, config, output):
        # --global stores to global_opt: the given flag, also as a prefix,
        # beats the config key, and the key may be named either way; only
        # the curve takes --steps
        (tmp_path / "run.cfg").write_text(config + "\n")
        steps = ["--steps", "2"] if output == "twomode_curve.csv" else []
        args = ["twomode", *flags, *steps, "--config", str(tmp_path / "run.cfg")]
        assert run(args + ["--outdir", str(tmp_path / "out")]) == 0
        assert {p.name for p in (tmp_path / "out").iterdir()} == {"twomode.manifest.json", output}

    def test_config_values_typed_as_their_flags(self, tmp_path):
        # a path and a schedule from the file work as the flags do; a bad
        # value exits 2 from the file as from the command line
        (tmp_path / "run.cfg").write_text(f"outdir = {tmp_path / 'cfg-out'}\nschedule = 50 60 70 80\n")
        args = ["extrapolate", "--alpha-over-pi", "1", "--config", str(tmp_path / "run.cfg")]
        assert run(args) == 0
        check_manifest(tmp_path / "cfg-out", "extrapolate", ["extrapolation.json"])
        record = json.loads((tmp_path / "cfg-out" / "extrapolation.json").read_text())
        assert record["schedule"] == [50, 60, 70, 80]
        assert run(["eigen", "--alpha", "1", "--n", "x", "--outdir", str(tmp_path / "a")]) == 2
        (tmp_path / "bad.cfg").write_text("n = x\n")
        args = ["eigen", "--alpha", "1", "--config", str(tmp_path / "bad.cfg")]
        assert run(args + ["--outdir", str(tmp_path / "b")]) == 2


class TestConfigBooleans:
    @pytest.mark.parametrize(
        "raw,code,schedule",
        [("false", 0, [50, 60, 70, 80]), ("TRUE", 0, [50, 60, 70, 80, 90]), ("yes", 2, None)],
    )
    def test_reference_schedule_value(self, tmp_path, monkeypatch, raw, code, schedule):
        # a cheap stand-in for the reference schedule, which runs to N = 10000
        monkeypatch.setattr(cli, "REFERENCE_SCHEDULE", (50, 60, 70, 80, 90))
        (tmp_path / "run.cfg").write_text(f"reference-schedule = {raw}\n")
        args = ["extrapolate", "--alpha-over-pi", "1", "--config", str(tmp_path / "run.cfg")]
        # --schedule is an option of the given-schedule route only
        args += [] if raw == "TRUE" else ["--schedule", "50,60,70,80"]
        args += ["--outdir", str(tmp_path)]
        assert run(args) == code
        out = tmp_path / "extrapolation.json"
        assert (json.loads(out.read_text())["schedule"] if out.exists() else None) == schedule


class TestJobs:
    @pytest.mark.parametrize(
        "flag,env,config,want",
        [([], "2", "", 2), ([], "2", "jobs = 3", 3), (["--jobs", "4"], "2", "jobs = 3", 4),
         (["--jobs", "0"], "1", "", None), (["--jobs", "-2"], "1", "", None),
         ([], "abc", "", None), ([], "0", "", None), ([], "1", "jobs = 0", None),
         ([], "1", "jobs = 1.5", None)],
    )
    def test_source_and_range(self, tmp_path, monkeypatch, flag, env, config, want):
        # --jobs beats the config file, which beats RINGFLOW_JOBS; anything
        # but an integer >= 1 exits 2 before a file is written
        monkeypatch.setenv("RINGFLOW_JOBS", env)
        (tmp_path / "run.cfg").write_text(config)
        args = ["sweep", "--alpha-over-pi-min", "1", "--alpha-over-pi-max", "1", "--steps", "1",
                "--schedule", "50,60,70,80", "--config", str(tmp_path / "run.cfg")]
        code = run(args + flag + ["--outdir", str(tmp_path)])
        manifest = tmp_path / "sweep.manifest.json"
        jobs = json.loads(manifest.read_text())["parameters"]["jobs"] if manifest.exists() else None
        assert (code, jobs) == (2 if want is None else 0, want)

    def test_only_sweeps_take_jobs(self, tmp_path, monkeypatch):
        # only sweep and infimum run sweep_alpha; the other commands neither
        # take --jobs nor read RINGFLOW_JOBS or a config jobs key
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            name: {opt for action in sub._actions for opt in action.option_strings}
            for name, sub in subparsers.choices.items()
        }
        assert {name for name, opts in options.items() if "--jobs" in opts} == {"sweep", "infimum"}
        assert not any("--beta-min" in opts for opts in options.values())
        monkeypatch.setenv("RINGFLOW_JOBS", "abc")
        (tmp_path / "run.cfg").write_text("jobs = 0\nbeta_min = -0.5\n")
        args = ["eigen", "--alpha", "1", "--n", "5", "--config", str(tmp_path / "run.cfg")]
        assert run(args + ["--outdir", str(tmp_path)]) == 0


def test_commands_run_without_scipy(tmp_path):
    # an eigen solve and the full default extrapolate, in a fresh interpreter
    script = (
        "import sys\n"
        "import ringflow.cli\n"
        f"out = {str(tmp_path)!r}\n"
        "for argv in (['eigen', '--alpha-over-pi', '0.3703965', '--n', '800'],\n"
        "             ['extrapolate', '--alpha-over-pi', '0.3703965']):\n"
        "    assert ringflow.cli.main(argv + ['--outdir', out]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(ringflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[]"
    assert json.loads((tmp_path / "eigen.json").read_text())["method"] == "lobpcg"


@needs_openblas_threads
class TestOneBlasThreadAtLoad:
    """Importing ringflow before numpy loads OpenBLAS with one thread, so no
    worker starts (and none busy-waits); a caller's own setting, or a numpy
    loaded first, is left as it is.  Each case runs in a fresh interpreter."""

    @staticmethod
    def python(*args, openblas=None):
        src = str(Path(ringflow.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        if openblas is not None:
            env["OPENBLAS_NUM_THREADS"] = openblas
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=env, timeout=120, check=True).stdout

    # the thread count is checked only where it is fixed: OpenBLAS's own
    # default, and a value above the core count, depend on the machine
    @pytest.mark.parametrize("imports, openblas, expected, threads", [
        ("ringflow", None, "1", "1"),
        ("ringflow", "2", "2", None),
        ("numpy, ringflow", None, "None", None),
    ])
    def test_variable_after_import(self, imports, openblas, expected, threads):
        script = (f"import os, {imports}\n"
                  "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))")
        value, tasks = self.python("-c", script, openblas=openblas).split()
        assert value == expected
        assert threads in (None, tasks)

    def test_cli_manifest_records_one_thread(self, tmp_path):
        self.python("-m", "ringflow.cli", "eigen", "--alpha", "1", "--n", "30",
                    "--outdir", str(tmp_path))
        manifest = json.loads((tmp_path / "eigen.manifest.json").read_text())
        assert manifest["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"


class TestVerifyCommand:
    # unit tests whose every assertion a check makes, as tightly, are folded in here
    @pytest.mark.parametrize("check", verify.ALL_CHECKS, ids=lambda check: check.__name__)
    def test_check(self, check):
        check()

    def test_exit_zero(self, capsys):
        assert run(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_broken_kernel_caught_under_optimize(self):
        # python -O strips assert statements; the checks must still fail
        script = (
            "import sys\n"
            "import ringflow.verify as v\n"
            "from ringflow.kernel import RingConfig, build_kernel\n"
            "def broken(cfg):\n"
            "    return build_kernel(RingConfig(cfg.alpha + 0.5, cfg.beta, cfg.n_trunc))\n"
            "v.build_kernel = broken\n"
            "print(sys.flags.optimize, v.run_all(out=lambda line: None))\n"
        )
        src = str(Path(ringflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        optimize, failures = map(int, proc.stdout.split())
        assert optimize == 1
        assert failures > 0


class TestRunPath:
    """main runs every command one way: it writes, prints and exits from the
    Result the command returns."""

    @pytest.mark.parametrize("options, messages", [
        (["--u-max", "100", "--n-points", "2000"],
         ["u_max**2/n_points = 5.00 > 1; the grid under-resolves the kernel's oscillation"]),
        (["--ring-route", "--alpha", "1e-3", "--n", "10"],
         ["n_trunc*sqrt(alpha) = 0.32 < 8; u-coverage too small for the line limit"]),
        (["--ring-route", "--alpha", "1e-3", "--n", "1000"], []),
    ], ids=["nystrom", "ring", "none"])
    def test_library_warnings_on_stderr_and_in_manifest(self, tmp_path, capsys, options,
                                                        messages):
        # each as one line, without the source line Python's own display adds;
        # a run that does not warn has no warnings key
        assert run(["linelimit", *options, "--outdir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == "".join(f"warning: {m}\n" for m in messages)
        diagnostics = json.loads((tmp_path / "linelimit.manifest.json").read_text())["diagnostics"]
        assert diagnostics.get("warnings") == (messages or None)

    def test_error_filter_still_fails_the_run(self, tmp_path, monkeypatch, capsys):
        # main records warnings without resetting the filters, so a RuntimeWarning
        # that an error filter raises still fails the run
        def overflowing_solve(kernel):
            return np.float64(1e308) * 10.0

        monkeypatch.setattr(cli, "min_eigen", overflowing_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            argv = ["eigen", "--alpha", "1", "--n", "5", "--outdir", str(tmp_path / "out")]
            assert run(argv) == 1
        assert capsys.readouterr().err == (
            "computation failed: overflow encountered in scalar multiply\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alpha", [1e200, 1e300, 1e17, 1e18])
    def test_current_with_overflowing_phases_exits_2(self, tmp_path, capsys, alpha):
        # each passes the 2^52 turns the reduction mod 2pi holds: an error naming
        # alpha, theta and the tau range, and no RuntimeWarning, which the test
        # configuration's error filter would turn into exit 1.  Unchecked, 1e18
        # wrote T*J(0) = 3.4e-174 in place of 7.13e17
        state = tmp_path / "state.csv"
        state.write_text(f"# alpha={alpha!r} beta=0 n_trunc=2\nm,re_c,im_c\n"
                         "0,0.6,0\n1,0.8,0\n2,0,0\n")
        argv = ["current", "--state-file", str(state), "--samples", "5"]
        assert run([*argv, "--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: the phases at alpha = {alpha!r}, theta = 0.0 and tau in "
                       f"(-1.5, 1.5) overflow (a phase of {6 * alpha:.3g} rad is past the "
                       "2^52 turns that the reduction mod 2pi holds)\n")
        assert not (tmp_path / "out").exists()

    def test_eigen_with_overflowing_phases_exits_2(self, tmp_path, capsys):
        argv = ["eigen", "--alpha", "1e300", "--n", "5", "--outdir", str(tmp_path / "out")]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: the phases at alpha = 1e+300 overflow (a phase of 2.5e+301 rad is past "
            "the 2^52 turns that the reduction mod 2pi holds)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, alpha, phase", [
        (["eigen", "--alpha", "1e13", "--n", "3000"], "10000000000000.0", "9e+19"),
        (["state", "--alpha", "1e15", "--n", "30"], "1000000000000000.0", "9e+17"),
    ], ids=["eigen", "state"])
    def test_phases_past_2_52_turns_exit_2(self, tmp_path, capsys, argv, alpha, phase):
        # past 2^52 turns rint(phase/2pi) drops whole turns: unchecked, 1e13
        # wrote sines 3.8e-13 off
        assert run([*argv, "--outdir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: the phases at alpha = {alpha} overflow (a phase of "
                                f"{phase} rad is past the 2^52 turns that the reduction mod "
                                "2pi holds)\n")
        assert not (tmp_path / "out").exists()

    def test_current_off_grid_at_large_alpha_warns(self, tmp_path, capsys):
        # 4001 samples over (-1.5, 1.5) at alpha = 1e12: the second-order term
        # left out reaches 1.5e-7 of max|T*J|
        state = tmp_path / "state.csv"
        state.write_text("# alpha=1e12 beta=0 n_trunc=2\nm,re_c,im_c\n0,0.6,0\n1,0.8,0\n2,0,0\n")
        argv = ["current", "--state-file", str(state), "--samples", "4001"]
        assert run([*argv, "--outdir", str(tmp_path / "out")]) == 0
        warned = capsys.readouterr().err.splitlines()
        diagnostics = json.loads((tmp_path / "out" / "current.manifest.json").read_text())[
            "diagnostics"]
        assert len(warned) == 1 and warned[0].startswith("warning: remainder_bound = 1.1e+05 "
                                                         "exceeds 1e-08 of max|T*J|"), warned
        assert diagnostics["warnings"] == [warned[0][len("warning: "):]]
        assert diagnostics["remainder_bound"] > 1e-8 * 2e12 / np.pi

"""The command-line runs of an install without the test extras, end to end.

Every command runs through cli.main in a fresh interpreter that cannot
import scipy, mpmath or hypothesis: with sys.modules[name] = None set before
ringflow.cli is imported, any import of them fails, and so does the command
that makes it.  The interpreter also turns an EncodingWarning into an error,
so a text file opened without naming its encoding fails the command.  One
interpreter, with OPENBLAS_NUM_THREADS unset, runs every command; a second,
with it set to 1, runs only the large-N ladder, whose bytes must not depend
on it.  Each prints every command's exit code, stdout and stderr, and whether
numpy.random has been imported by then, as JSON, and the tests assert on that
report and on the files the commands wrote.
"""

import json
import math

import pytest

from ringflow import cli

from conftest import fresh_python

SCRIPT = r"""
import contextlib, io, json, os, sys, warnings
for name in ("scipy", "mpmath", "hypothesis"):
    sys.modules[name] = None
# from Python 3.12 a fork with live threads warns: shown, it is a "warning:" line
warnings.filterwarnings("always", r"This process \(pid=\d+\) is multi-threaded",
                        DeprecationWarning)
from ringflow.cli import main
os.chdir(sys.argv[1])
report = {}
for key, argv in json.loads(sys.argv[2]).items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    report[key] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                   "numpy_random": "numpy.random" in sys.modules}
print(json.dumps(report))
"""

ALPHA_STAR = ["--alpha-over-pi", "0.3703965"]
# above 10^4 modes a threaded ddot would sum in another order
LADDER = ["extrapolate", *ALPHA_STAR, "--schedule", "10000,20000,40000,80000"]
README_BOX = ["infimum", "--alpha-over-pi-min", "0.3", "--alpha-over-pi-max", "0.45"]
SWEEP = ["sweep", "--alpha-over-pi-min", "0.2", "--alpha-over-pi-max", "1", "--jobs", "2"]

# key -> argv; each command writes to the outdir named by its key
RUNS = {
    # 4 x 4600 modes runs in process; 10 x 4600 forks 2 workers
    "below": [*SWEEP, "--steps", "4"],
    "above": [*SWEEP, "--steps", "10"],
    "ladder-unset": LADDER,
    "state": ["state", *ALPHA_STAR, "--n", "2000"],
    "current": ["current", "--state-file", "state/state.csv", "--samples", "4001"],
    # the small-alpha ring route, where max D = 0.64: 56 LOBPCG iterations with
    # the preconditioner 1/max(D, 1), 71 with 1/(D + 1)
    "ring": ["linelimit", "--ring-route", "--alpha", "1e-3", "--n", "1000"],
    "ring-config": ["linelimit", "--config", "ring.cfg"],
    "nystrom": ["linelimit"],
    "extrapolate": ["extrapolate", *ALPHA_STAR],
    "eigen": ["eigen", *ALPHA_STAR, "--n", "800"],
    "infimum": README_BOX,
    "infimum-27": [*README_BOX, "--budget", "27"],
    "verify": ["verify"],
}
HELP = {f"help-{name}": [name, "--help"] for name in cli._COMMANDS}


def run_commands(workdir, runs, openblas):
    argv = {key: [*args, "--outdir", key] for key, args in runs.items()}
    argv.update(HELP if openblas is None else {})
    stdout = fresh_python("-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                          "-c", SCRIPT, str(workdir), json.dumps(argv),
                          env={"OPENBLAS_NUM_THREADS": openblas})
    return json.loads(stdout)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("numpy-only")
    (workdir / "ring.cfg").write_text("ring-route = true\nalpha = 1e-3\nn = 1000\n")
    report = run_commands(workdir, RUNS, openblas=None)
    report.update(run_commands(workdir, {"ladder-one": LADDER}, openblas="1"))
    return workdir, report


def outdir(runs, key):
    """The outdir of the run key, which exited 0 with nothing on stderr."""
    workdir, report = runs
    assert (report[key]["code"], report[key]["stderr"]) == (0, ""), report[key]
    return workdir / key


def diagnostics(runs, key, command):
    return json.loads((outdir(runs, key) / f"{command}.manifest.json").read_text())["diagnostics"]


def test_commands_run_without_test_extras(runs):
    assert json.loads((outdir(runs, "eigen") / "eigen.json").read_text())["method"] == "lobpcg"
    assert (outdir(runs, "extrapolate") / "extrapolation.json").exists()


def test_fork_floor(runs):
    # the sweeps' empty stderr also holds the fork warning of Python >= 3.12
    for key, workers in (("below", 1), ("above", 2)):
        scan, = diagnostics(runs, key, "sweep")["scans"]
        assert scan["workers"] == workers, (key, scan)


def test_ladder_bytes_do_not_depend_on_openblas_threads(runs):
    unset, one = (outdir(runs, key) / "extrapolation.json" for key in ("ladder-unset", "ladder-one"))
    assert unset.read_bytes() == one.read_bytes()


def test_state_current_round_trip(runs):
    outdir(runs, "state")
    rows = (outdir(runs, "current") / "current.csv").read_text().splitlines()[2:]
    assert len(rows) == 4001
    assert all(math.isfinite(float(x)) for row in rows for x in row.split(",")), "non-finite row"


def test_ring_route_iterations(runs):
    solve = diagnostics(runs, "ring", "linelimit")["solve"]
    assert solve["iterations"] <= 60, solve


def test_config_file_runs_as_its_flags(runs):
    flag, config = (outdir(runs, key) for key in ("ring", "ring-config"))
    assert (flag / "linelimit.json").read_bytes() == (config / "linelimit.json").read_bytes()
    flag, config = (json.loads((d / "linelimit.manifest.json").read_text())["parameters"]
                    for d in (flag, config))
    assert (flag.pop("outdir"), config.pop("outdir")) == ("ring", "ring-config")
    assert flag == config


def test_default_nystrom_rungs(runs):
    rungs = diagnostics(runs, "nystrom", "linelimit")["rungs"]
    assert [(r["n"], r["iterations"]) for r in rungs] == [(999, 54), (1999, 34)], rungs


def test_default_schedule_rungs_warm_started(runs):
    # every rung built from (alpha, beta, N), each after the first warm-started
    rungs = diagnostics(runs, "extrapolate", "extrapolate")["rungs"]
    assert [r["n"] for r in rungs] == [400, 600, 800, 1200, 1600], rungs
    assert [r["warm_started"] for r in rungs] == [False, True, True, True, True], rungs


SEARCH_SCHEDULES = [[300, 400, 600, 800], [400, 600, 800, 1200, 1600],
                    [400, 600, 800, 1200, 1600], [800, 1000, 1200, 1600, 2000]]


@pytest.mark.parametrize("key, points, counts, p_tol", [
    ("infimum", [16, 11, 11, 11], (49, 3, False), 1e-5),
    # the budget runs out as the second refinement stage begins, 2.4e-5 above p*
    ("infimum-27", [16, 11], (27, 2, True), 1e-4),
], ids=["full", "budget-27"])
def test_infimum_on_the_readme_box(runs, key, points, counts, p_tol):
    scans = diagnostics(runs, key, "infimum")["scans"]
    assert [(s["points"], s["schedule"]) for s in scans] == list(zip(points, SEARCH_SCHEDULES))
    record = json.loads((outdir(runs, key) / "infimum.json").read_text())
    assert (record["evaluations"], record["stages"], record["budget_exhausted"]) == counts
    assert abs(record["p"] + 0.116816) < p_tol, record
    assert abs(record["alpha_over_pi"] - 0.3704) < 1e-3, record


def test_verify_passes_without_numpy_random(runs):
    # the checks draw from the stdlib's Mersenne Twister, and no command
    # imports numpy.random
    _, report = runs
    outdir(runs, "verify")
    lines = report["verify"]["stdout"].splitlines()
    assert [line.split()[0] for line in lines] == ["PASS"] * 10 + ["0"], lines
    assert lines[-1] == "0 failure(s)"
    assert [key for key, run in report.items() if run["numpy_random"]] == []


def test_help_for_every_command(runs):
    _, report = runs
    for key, (name, _) in HELP.items():
        assert report[key]["code"] == 0, report[key]
        assert report[key]["stdout"].startswith(f"usage: ringflow {name} "), report[key]

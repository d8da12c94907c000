"""The benchmark's workloads: the CLI commands each one runs and the gates
that check their outputs.

Every workload is a batch of ``ringflow`` commands run one after another
(closed loop, one client).  The seed varies the sweep grid's interior points,
the current workload's extra angles and its spot-check times; the
reference-point workloads are pinned by their reference values and ignore it.

An operation is one checked output: a lambda(N) of the extrapolation, a sweep
row, a state or current file, an oracle command.  A nonzero exit, an error row
or a value outside its tolerance fails the operation.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

# Schedule of acceptance criterion 3: the reference schedule up to N = 3000.
# Its tail (N = 4000 ... 10000) needs more memory than dense solves have here.
EXTRAPOLATE_SCHEDULE = (800, 1000, 1200, 1400, 1600, 1800, 2000, 2200, 2400, 3000)
SWEEP_STEPS = 4
STATE_N = 2000
CURRENT_SAMPLES = 4001
EXTRA_ANGLES = 2
SPOT_CHECKS = 4


@dataclass(frozen=True)
class CommandRun:
    rc: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Op:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    commands: object  # (seed, outdir) -> list of argv lists
    check: object  # (seed, outdir, runs) -> list of Op
    expected_calls: dict  # traced function -> calls per pass


def run_command(cli, argv) -> CommandRun:
    """One CLI command in-process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
    return CommandRun(rc, out.getvalue(), err.getvalue())


def _failed_exit(run: CommandRun) -> str:
    tail = (run.stderr.strip().splitlines() or ["no message"])[-1]
    return f"exit {run.rc}: {tail}"


# --- extrapolate-ref -------------------------------------------------------

def extrapolate_commands(seed, outdir: Path):
    return [["extrapolate", "--alpha-over-pi", str(ref.ALPHA_OVER_PI_STAR), "--beta", "0",
             "--schedule", ",".join(map(str, EXTRAPOLATE_SCHEDULE)),
             "--outdir", str(outdir / "extrapolate")]]


def check_extrapolation(record: dict) -> list[Op]:
    """Each lambda(N) at its reference, non-increasing in N; a0 near -c_ring."""
    lambdas = dict(zip(record["schedule"], record["lambdas"]))
    ops = []
    previous = math.inf
    for n in EXTRAPOLATE_SCHEDULE:
        lam = lambdas.get(n)
        if lam is None:
            ops.append(Op(f"lambda({n})", False, "missing"))
            continue
        err = abs(lam - ref.REFERENCE_LAMBDAS[n])
        monotone = lam <= previous
        ops.append(Op(f"lambda({n})", err <= ref.LAMBDA_TOL and monotone,
                      f"|delta| = {err:.2e}" + ("" if monotone else ", increases with N")))
        previous = lam
    a0 = record["a0"]
    ops.append(Op("a0", abs(a0 + ref.C_RING) <= ref.C_RING_TOL, f"a0 = {a0!r}"))
    return ops


def extrapolate_check(seed, outdir: Path, runs):
    (run,) = runs
    if run.rc != 0:
        return [Op("extrapolate", False, _failed_exit(run))] * (len(EXTRAPOLATE_SCHEDULE) + 1)
    return check_extrapolation(json.loads((outdir / "extrapolate" / "extrapolation.json").read_text()))


# --- sweep -----------------------------------------------------------------

def _sweep_ranges(seed):
    """Two seeded ranges whose grids end on alpha/pi = 1 and 2."""
    rng = random.Random(seed)
    return [(0.05 + 0.2 * rng.random(), 1.0), (1.05 + 0.2 * rng.random(), 2.0)]


def sweep_commands(seed, outdir: Path):
    return [["sweep", "--beta", "0", "--alpha-over-pi-min", repr(lo),
             "--alpha-over-pi-max", repr(hi), "--steps", str(SWEEP_STEPS), "--jobs", "2",
             "--outdir", str(outdir / f"sweep{k}")]
            for k, (lo, hi) in enumerate(_sweep_ranges(seed))]


def two_mode_bound(alpha_over_pi: float) -> float:
    """Closed-form two-mode (m = 0, 1) minimum at beta = 0, an upper bound on p."""
    alpha = alpha_over_pi * math.pi
    return alpha_over_pi * (1.0 - math.sqrt(1.0 + (math.sin(alpha) / alpha) ** 2))


def check_sweep_row(alpha_over_pi: float, p: float) -> Op:
    name = f"p(alpha/pi={alpha_over_pi:.6g})"
    if not math.isfinite(p):
        return Op(name, False, "error row")
    if abs(alpha_over_pi - round(alpha_over_pi)) < 1e-12:
        return Op(name, abs(p) <= ref.ZERO_TOL, f"p = {p!r} at alpha = k pi")
    upper = two_mode_bound(alpha_over_pi) + 1e-9
    return Op(name, -ref.C_RING - ref.C_RING_TOL <= p <= upper,
              f"p = {p!r}, allowed [{-ref.C_RING - ref.C_RING_TOL!r}, {upper!r}]")


def sweep_check(seed, outdir: Path, runs):
    ops = []
    for k, run in enumerate(runs):
        path = outdir / f"sweep{k}" / "sweep.csv"
        if not path.exists():
            ops += [Op(f"sweep{k}", False, _failed_exit(run))] * SWEEP_STEPS
            continue
        rows = path.read_text().splitlines()[1:]
        ops += [check_sweep_row(float(aop), float(p))
                for aop, _, p, _ in (row.split(",") for row in rows)]
        if len(rows) != SWEEP_STEPS:
            ops.append(Op(f"sweep{k}", False, f"{len(rows)} rows, expected {SWEEP_STEPS}"))
        if run.rc != 0:
            ops.append(Op(f"sweep{k}", False, _failed_exit(run)))
    return ops


# --- state-current ---------------------------------------------------------

def _state_plan(seed):
    """(angles, spot-check sample indices per angle) for one seed."""
    rng = random.Random(seed)
    angles = [0.0] + [rng.uniform(0.0, 2.0 * math.pi) for _ in range(EXTRA_ANGLES)]
    spots = [rng.sample(range(CURRENT_SAMPLES), SPOT_CHECKS) for _ in angles]
    return angles, spots


def state_commands(seed, outdir: Path):
    angles, _ = _state_plan(seed)
    cmds = [["state", "--alpha-over-pi", str(ref.ALPHA_OVER_PI_STAR), "--n", str(STATE_N),
             "--outdir", str(outdir / "state")]]
    for k, theta in enumerate(angles):
        cmds.append(["current", "--state-file", str(outdir / "state" / "state.csv"),
                     "--samples", str(CURRENT_SAMPLES), "--theta", repr(theta),
                     "--outdir", str(outdir / f"current{k}")])
    return cmds


def read_state_csv(path: Path):
    """(coefficients, alpha, beta) from a state file."""
    lines = path.read_text().splitlines()
    header = dict(tok.split("=") for tok in lines[0][1:].split())
    rows = [line.split(",") for line in lines[2:]]
    coeffs = np.array([complex(float(re), float(im)) for _, re, im in rows])
    return coeffs / np.linalg.norm(coeffs), float(header["alpha"]), float(header["beta"])


def direct_current(coeffs, alpha, beta, theta, tau) -> float:
    """T*J(theta, tau) as the double sum (alpha/pi) sum_{m,n} (m+n-2 beta) Re(conj(a_m) a_n),
    a_m = c_m exp(i m theta - i 2 alpha (m-beta)^2 tau), evaluated in row blocks."""
    m = np.arange(len(coeffs), dtype=float)
    a = coeffs * np.exp(1j * m * theta) * np.exp(-1j * (2.0 * alpha * (m - beta) ** 2) * tau)
    total = 0.0
    for lo in range(0, len(a), 256):
        rows = slice(lo, lo + 256)
        weight = m[rows, None] + m[None, :] - 2.0 * beta
        total += float(np.sum(weight * np.real(np.conj(a[rows, None]) * a[None, :])))
    return alpha / math.pi * total


def state_check(seed, outdir: Path, runs):
    angles, spots = _state_plan(seed)
    state_run, current_runs = runs[0], runs[1:]
    if state_run.rc != 0:
        return [Op("state", False, _failed_exit(state_run))] * (1 + len(angles))
    report = json.loads((outdir / "state" / "state_report.json").read_text())
    lam_err = abs(report["lambda_min"] - ref.REFERENCE_LAMBDAS[STATE_N])
    energy = report["mean_energy"]
    decay = report["coefficient_decay_below_c0_over_m2"]
    ops = [Op("state", lam_err <= ref.LAMBDA_TOL
              and abs(energy - ref.MEAN_ENERGY) <= ref.MEAN_ENERGY_TOL and decay is True,
              f"|delta lambda| = {lam_err:.2e}, <E>T/hbar = {energy!r}, decay {decay}")]
    coeffs, alpha, beta = read_state_csv(outdir / "state" / "state.csv")
    for k, (theta, run, spot) in enumerate(zip(angles, current_runs, spots)):
        name = f"current(theta={theta:.4f})"
        if run.rc != 0:
            ops.append(Op(name, False, _failed_exit(run)))
            continue
        rows = (outdir / f"current{k}" / "current.csv").read_text().splitlines()[2:]
        worst = 0.0
        for i in spot:
            tau, tj = map(float, rows[i].split(","))
            worst = max(worst, abs(tj - direct_current(coeffs, alpha, beta, theta, tau)))
        ops.append(Op(name, len(rows) == CURRENT_SAMPLES and worst <= ref.CURRENT_TOL,
                      f"{len(rows)} samples, worst |delta| = {worst:.2e}"))
    return ops


# --- oracles ---------------------------------------------------------------

ORACLE_COMMANDS = (
    ("twomode", ["twomode", "--global"]),
    ("nystrom", ["linelimit", "--u-max", "40", "--n-points", "4000"]),
    ("ring-route", ["linelimit", "--ring-route", "--alpha", "1e-3", "--n", "1000"]),
    ("verify", ["verify"]),
)


def oracle_commands(seed, outdir: Path):
    return [argv + ["--outdir", str(outdir / name)] for name, argv in ORACLE_COMMANDS]


def oracle_check(seed, outdir: Path, runs):
    ops = []
    for (name, _), run in zip(ORACLE_COMMANDS, runs):
        if run.rc != 0:
            ops.append(Op(name, False, _failed_exit(run)))
        elif name == "twomode":
            p = json.loads((outdir / name / "twomode_global.json").read_text())["p_min"]
            ops.append(Op(name, abs(p - ref.TWO_MODE_P_STAR) <= ref.TWO_MODE_TOL, f"p* = {p!r}"))
        elif name == "verify":
            last = (run.stdout.strip().splitlines() or [""])[-1]
            ops.append(Op(name, last == "0 failure(s)", last))
        else:
            lam = json.loads((outdir / name / "linelimit.json").read_text())["lambda_min"]
            ops.append(Op(name, abs(lam + ref.C_LINE) <= ref.C_LINE_TOL, f"lambda = {lam!r}"))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("extrapolate-ref", extrapolate_commands, extrapolate_check, {
            "cli.main": 1,
            "kernel.build_kernel": len(EXTRAPOLATE_SCHEDULE),
            "eigen.min_eigen": len(EXTRAPOLATE_SCHEDULE),
            "extrapolate.extrapolated_infimum": 1,
            "extrapolate.fit_quadratic": 1,
        }),
        Workload("sweep", sweep_commands, sweep_check, {
            "cli.main": 2,
            "sweep.sweep_alpha": 2,
            "extrapolate.extrapolated_infimum": 2 * SWEEP_STEPS,
            "extrapolate.fit_quadratic": 2 * SWEEP_STEPS,
            "kernel.build_kernel": 2 * SWEEP_STEPS * 5,
            "eigen.min_eigen": 2 * SWEEP_STEPS * 5,
        }),
        Workload("state-current", state_commands, state_check, {
            "cli.main": 2 + EXTRA_ANGLES,
            "state.maximizing_state": 1,
            "kernel.build_kernel": 1,
            "eigen.min_eigen": 1,
            "state.make_state": 1 + EXTRA_ANGLES,
            "state.current_series": 1 + EXTRA_ANGLES,
            "state.write_series_csv": 1 + EXTRA_ANGLES,
        }),
        Workload("oracles", oracle_commands, oracle_check, {
            "cli.main": len(ORACLE_COMMANDS),
            "twomode.global_two_mode_min": 1,
            "linelimit.line_limit_min": 1,
            "linelimit.ring_small_alpha_limit": 1,
            "verify.run_all": 1,
            "state.time_quadrature_p": 3,
        }),
    )
}

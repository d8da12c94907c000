"""Command-line front end.

Every subcommand but verify writes deterministic CSV/JSON outputs plus a
run manifest with content digests; verify takes --outdir only because the
benchmark passes one to every command.  Exit codes: 0 success, 2 validation
error (an alpha whose phases overflow among them), 1 computation failure, a
sweep with failed points or a verify with failures.

_COMMANDS declares every command and option, with each option's type,
default, requiredness and route; build_parser adds the options from it, and
_settle applies it to the parsed options: it rejects an option of the route
not taken, fills in defaults, requires what has none and checks that the
outdir can be made, all before any computation.

Each command cmd_<name>(args) validates and computes from the settled
options alone, and returns a Result: its outputs by file name, the summary
line, its diagnostics for the manifest and whether it failed.  main alone
does the rest: it builds the manifest before the command runs, has _emit
make the outdir and write the outputs and the manifest (verify writes
none), prints the summary and returns the exit code, so a failed run leaves
no outdir.  A warning the library raises during a command is printed as a
"warning: <message>" line on stderr and listed under the manifest's
diagnostics.warnings; the warning filters are kept, so one a filter turns
into an error fails the run.

alpha can be given as --alpha or --alpha-over-pi; current samples the state
file that state writes, which sets alpha and beta.  An option's value comes
from, in this order: its flag, a flat key=value config file (--config; UTF-8,
which may start with a byte-order mark), RINGFLOW_JOBS for --jobs (sweep and
infimum only) and its default.  A config value is read with its option's
type, so path, schedule and number options work there as flags do; on/off
flags take true or false.  --jobs, however given, is an integer >= 1: one
that is no integer exits 2 with argparse's message, one below 1 with the
sweep's "jobs must be an integer >= 1".  A float option takes a negative
value in any notation: --beta -1e-3 and --alpha-over-pi-min -inf are read as
values.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import verify as verify_mod
from .eigen import min_eigen
from .extrapolate import DEFAULT_SWEEP_SCHEDULE, REFERENCE_SCHEDULE, extrapolated_infimum
from .kernel import RingConfig, _check_alpha, build_kernel, canonicalize
from .linelimit import line_limit_min, ring_small_alpha_limit
from .manifest import RunManifest, _read_lines, _write_csv, _write_json
from .state import (
    current_series,
    maximizing_state,
    mean_energy,
    read_state_csv,
    write_series_csv,
    write_state_csv,
)
from .sweep import find_infimum, scan_diagnostics, sweep_alpha
from .twomode import global_two_mode_min, two_mode_curve


def _read_config(path) -> dict:
    values = {}
    for number, line in enumerate(map(str.strip, _read_lines(path, "config")), 1):
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ValueError(f"config file {path} line {number}: {line!r} is not key = value")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _resolve_alpha(args) -> float:
    if args.alpha is not None and args.alpha_over_pi is not None:
        raise ValueError("give either --alpha or --alpha-over-pi, not both")
    if args.alpha is not None:
        return args.alpha
    if args.alpha_over_pi is not None:
        return args.alpha_over_pi * math.pi
    raise ValueError("alpha is required (--alpha or --alpha-over-pi)")


def _schedule_arg(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"a schedule is integers separated by commas or spaces, got {raw!r}") from None


class Result(NamedTuple):
    """What a command returns; main writes the outputs and manifest, prints
    the summary and picks the exit code from it."""

    outputs: dict  # file name -> a dict, written as JSON, or a callable that writes the path
    summary: str  # the line printed on success
    diagnostics: dict = {}  # how the results were obtained, for the manifest; main only reads it
    failed: bool = False  # a sweep with failed points or a verify with failures: exit 1


def _emit(manifest: RunManifest, outdir: Path, outputs: dict) -> None:
    """Make outdir, write each named output into it, then the manifest with their digests.

    A dict is written as indented, key-sorted JSON; a callable is called with
    the target path and writes the file itself.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    for name, content in outputs.items():
        path = outdir / name
        if callable(content):
            content(path)
        else:
            _write_json(path, content)
        manifest.add_output(path)
    manifest.write(outdir / f"{manifest.command}.manifest.json")


def cmd_eigen(args) -> Result:
    alpha = _resolve_alpha(args)
    kernel = build_kernel(RingConfig(alpha, args.beta, args.n))
    result = min_eigen(kernel)
    record = {"alpha": alpha, "beta": kernel.config.beta, "lambda_min": result.lambda_min,
              "n_trunc": result.n_trunc, "residual_norm": result.residual_norm,
              "method": "lobpcg", "iterations": result.iterations}
    return Result({"eigen.json": record}, f"lambda_min = {result.lambda_min:.17g}",
                  {"solve": result.diagnostics})


def cmd_extrapolate(args) -> Result:
    alpha = _resolve_alpha(args)
    schedule = REFERENCE_SCHEDULE if args.reference_schedule else args.schedule
    p, fit = extrapolated_infimum(alpha, args.beta, schedule)
    record = {"alpha": alpha, "beta": canonicalize(args.beta)[0], "p_estimate": p,
              "schedule": list(fit.n_values), "lambdas": list(fit.lambda_values),
              "a0": fit.a0, "a1": fit.a1, "a2": fit.a2, "residual": fit.residual}
    return Result({"extrapolation.json": record}, f"P estimate = {p:.17g}", {"rungs": fit.rungs})


def _write_sweep_csv(records, path) -> None:
    # a failed point carries nan for both p and residual, which formats as "nan"
    rows = [(r.alpha / math.pi, r.beta, r.p_estimate, r.fit_residual) for r in records]
    _write_csv(path, "alpha_over_pi,beta,p,residual\n", *zip(*rows))


def _alpha_over_pi_grid(args):
    """np.linspace over the --alpha-over-pi bounds, each checked as an alpha first."""
    for bound in (args.alpha_over_pi_min, args.alpha_over_pi_max):
        _check_alpha(bound * math.pi)
    return np.linspace(args.alpha_over_pi_min, args.alpha_over_pi_max, args.steps)


def cmd_sweep(args) -> Result:
    grid = _alpha_over_pi_grid(args)
    records = sweep_alpha(args.beta, [a * math.pi for a in grid], args.schedule, jobs=args.jobs)
    failures = sum(1 for r in records if r.error is not None)
    return Result({"sweep.csv": lambda path: _write_sweep_csv(records, path)},
                  f"wrote {args.outdir / 'sweep.csv'} ({len(records)} points, {failures} failed)",
                  {"scans": [scan_diagnostics(len(grid), args.schedule, args.jobs)]}, failures > 0)


def cmd_infimum(args) -> Result:
    result = find_infimum(
        (args.alpha_over_pi_min * math.pi, args.alpha_over_pi_max * math.pi),
        args.beta_max,
        budget=args.budget,
        jobs=args.jobs,
    )
    record = {
        "alpha_over_pi": result.alpha / math.pi,
        "beta": result.beta,
        "p": result.p,
        "evaluations": result.evaluations,
        "budget_exhausted": result.budget_exhausted,
        "stages": result.stages,
    }
    summary = (f"alpha/pi* = {result.alpha / math.pi:.17g}  beta* = {result.beta:.17g}  "
               f"p* = {result.p:.17g}")
    return Result({"infimum.json": record}, summary, {"scans": list(result.scans)})


def cmd_twomode(args) -> Result:
    if args.global_opt:
        alpha_s, beta_s, p_s = global_two_mode_min(args.m1, args.m2)
        record = {
            "m1": args.m1,
            "m2": args.m2,
            "alpha_over_pi": alpha_s / math.pi,
            "beta": beta_s,
            "p_min": p_s,
        }
        summary = f"p* = {p_s:.17g} at alpha/pi = {alpha_s / math.pi:.17g}, beta = {beta_s:.17g}"
        return Result({"twomode_global.json": record}, summary)
    rows = two_mode_curve(args.m1, args.m2, _alpha_over_pi_grid(args))
    head = "alpha_over_pi,beta,p_min\n"
    return Result({"twomode_curve.csv": lambda path: _write_csv(path, head, *zip(*rows))},
                  f"wrote {args.outdir / 'twomode_curve.csv'}")


def cmd_state(args) -> Result:
    alpha = _resolve_alpha(args)
    state = maximizing_state(alpha, args.beta, args.n)
    report = {
        "lambda_min": state.lambda_min,
        "mean_energy": mean_energy(state),
        "coefficient_decay_below_c0_over_m2": verify_mod.decay_exponent(state.coeffs) > 2,
    }
    return Result(
        {"state.csv": lambda path: write_state_csv(state, path), "state_report.json": report},
        f"lambda_min = {state.lambda_min:.17g}  <E>T/hbar = {report['mean_energy']:.17g}",
        {"solve": state.solve},
    )


def cmd_current(args) -> Result:
    state = read_state_csv(args.state_file)
    series = current_series(state, args.theta, (args.tau_min, args.tau_max), args.samples)
    return Result({"current.csv": lambda path: write_series_csv(series, path)},
                  f"wrote {args.outdir / 'current.csv'}", series.diagnostics)


def cmd_linelimit(args) -> Result:
    if args.ring_route:
        alpha = _resolve_alpha(args)
        result = ring_small_alpha_limit(alpha, args.beta, args.n)
        diagnostics = {"solve": result.diagnostics}
        record = {"route": "ring", "alpha": alpha, "beta": canonicalize(args.beta)[0],
                  "n_trunc": args.n, "lambda_min": result.lambda_min}
    else:
        result = line_limit_min(args.u_max, args.n_points)
        diagnostics = {"rungs": result.rungs}
        record = {"route": "nystrom", "u_max": args.u_max, "n_points": args.n_points,
                  "lambda_min": result.lambda_min, "lambda_interval": result.lambda_interval,
                  "lambda_half_interval": result.lambda_half_interval, "u_half": result.u_half}
    return Result({"linelimit.json": record}, f"lambda_min = {result.lambda_min:.17g}",
                  diagnostics)


def cmd_verify(args) -> Result:
    failures = verify_mod.run_all()
    return Result({}, f"{failures} failure(s)", failed=failures != 0)


_REQUIRED = object()  # the default of an option a command cannot run without


class _Option(NamedTuple):
    """An option of a command in _COMMANDS, where its flag is its key."""

    type: Callable  # bool for an on/off flag
    default: object = None  # or _REQUIRED; a callable is called when the parser is built
    route: bool | None = None  # the route, False or True, that alone reads it
    dest: str | None = None  # where it is stored, when not under the flag's name
    help: str | None = None


_ALPHA_BETA = {"--alpha": (float,), "--alpha-over-pi": (float,), "--beta": (float, 0.0)}
_FILES = {"--outdir": (Path, Path(".")), "--config": (Path,)}
_ALPHA_OVER_PI_RANGE = {"--alpha-over-pi-min": (float, _REQUIRED),
                        "--alpha-over-pi-max": (float, _REQUIRED)}
# a string default is converted with the type, so RINGFLOW_JOBS is read as --jobs is;
# sweep_alpha and find_infimum check the range
_JOBS = {"--jobs": (int, lambda: os.environ.get("RINGFLOW_JOBS", "1"))}

# each command's help line, its handler, the dest of the on/off flag that picks
# its route (two-route commands only), and its options in --help's order as
# flag: _Option fields
_COMMANDS = {
    "eigen": ("smallest kernel eigenvalue at one (alpha, beta, N)", cmd_eigen, None,
              {**_ALPHA_BETA, "--n": (int, _REQUIRED), **_FILES}),
    "extrapolate": ("extrapolate lambda_min over a truncation schedule", cmd_extrapolate,
                    "reference_schedule", {
        **_ALPHA_BETA, "--schedule": (_schedule_arg, DEFAULT_SWEEP_SCHEDULE, False),
        "--reference-schedule": _Option(bool, False,
                                        help="use the 15-point high-accuracy schedule"), **_FILES}),
    "sweep": ("sweep the extrapolated infimum over an alpha grid", cmd_sweep, None, {
        "--beta": (float, 0.0), **_ALPHA_OVER_PI_RANGE, "--steps": (int, _REQUIRED),
        "--schedule": (_schedule_arg, DEFAULT_SWEEP_SCHEDULE), **_FILES, **_JOBS}),
    "infimum": ("staged grid search for the global infimum", cmd_infimum, None, {
        **_ALPHA_OVER_PI_RANGE, "--beta-max": (float, 0.0), "--budget": (int, 200), **_FILES,
        **_JOBS}),
    "twomode": ("two-mode closed-form curve or global optimum", cmd_twomode, "global_opt", {
        "--m1": (int, 0), "--m2": (int, 1), "--global": _Option(bool, False, dest="global_opt"),
        "--alpha-over-pi-min": (float, 0.01, False), "--alpha-over-pi-max": (float, 2.0, False),
        "--steps": (int, 400, False), **_FILES}),
    "state": ("backflow-maximizing state and decay report", cmd_state, None,
              {**_ALPHA_BETA, "--n": (int, _REQUIRED), **_FILES}),
    "current": ("time-resolved current of a state file", cmd_current, None, {
        "--state-file": (Path, _REQUIRED), "--theta": (float, 0.0), "--tau-min": (float, -1.5),
        "--tau-max": (float, 1.5), "--samples": (int, 4001), **_FILES}),
    "linelimit": ("straight-line constant via Nystrom or ring route", cmd_linelimit,
                  "ring_route", {
        "--u-max": (float, 10.0, False), "--n-points": (int, 2000, False),
        "--ring-route": (bool, False), "--alpha": (float, None, True),
        "--alpha-over-pi": (float, None, True), "--beta": (float, 0.0, True),
        "--n": (int, 1000, True), **_FILES}),
    "verify": ("run the fast oracle/property suite", cmd_verify, None, _FILES),
}

# each two-route command's routes by name, without its flag and with it
_ROUTE_NAMES = {"linelimit": ("the Nystrom route (no --ring-route)", "--ring-route"),
                "twomode": ("the curve (no --global)", "--global"),
                "extrapolate": ("a given schedule", "--reference-schedule")}


def _options(command):
    """Each of command's options as (flag, dest, _Option), in --help's order."""
    for flag, fields in _COMMANDS[command][3].items():
        opt = _Option(*fields)
        yield flag, opt.dest or flag[2:].replace("-", "_"), opt


# argparse (3.10 to 3.13) reads a token that starts with '-' as a value only
# if it matches its own pattern for -12 or -1.5, so "--beta -1e-3" and
# "--alpha-over-pi-min -inf" failed with "expected one argument".  This
# pattern takes every float literal; it matches no option string of ours,
# which argparse requires before it reads such tokens as values.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
                              re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, subcommands' included, that reads a negative float
    in any notation as an option's value."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or of command's options alone.

    Building the options takes most of a parser's cost, so main builds only
    the invoked command's; its usage line names every command all the same.
    """
    parser = _Parser(prog="ringflow", description="Backflow bound for a charged particle on a ring")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    if command is not None:
        sub.metavar = "{" + ",".join(_COMMANDS) + "}"
    parser.commands = sub.choices  # each built command's parser, for _parse_with_config
    for name in _COMMANDS if command is None else [command]:
        p = sub.add_parser(name, help=_COMMANDS[name][0])
        for flag, dest, opt in _options(name):
            default = opt.default() if callable(opt.default) else argparse.SUPPRESS
            kind = {"action": "store_true"} if opt.type is bool else {"type": opt.type}
            p.add_argument(flag, dest=dest, default=default, help=opt.help, **kind)
    return parser


def _parse_with_config(parser, args, argv):
    """Parse argv again with the config file's values as subcommand defaults.

    Argparse applies a default only to an option not given on the command
    line, and converts a string default with the option's type; so flags win
    over the config file, whose values are typed as their flags.  A key is
    the option's name (global) or its dest (global_opt); keys the subcommand
    lacks are ignored.  A given --alpha or --alpha-over-pi drops both config
    alphas.
    """
    options = {name: (dest, opt) for flag, dest, opt in _options(args.subcommand)
               for name in (dest, flag[2:].replace("-", "_"))}
    if {"alpha", "alpha_over_pi"} & vars(args).keys():
        del options["alpha"], options["alpha_over_pi"]
    sub = parser.commands[args.subcommand]
    for key, raw in _read_config(args.config).items():
        dest, opt = options.get(key, (None, None))
        if dest is None:
            continue
        if opt.type is bool and raw.lower() not in ("true", "false"):
            sub.error(f"config {key}: an on/off setting takes true or false, got {raw!r}")
        sub.set_defaults(**{dest: raw.lower() == "true" if opt.type is bool else raw})
    return parser.parse_args(argv)


def _settle(args) -> None:
    """Apply _COMMANDS to the parsed options, before any computation.

    Every option but --jobs has the parser default SUPPRESS, so one missing
    from args was given neither as a flag nor in the config file.  An option
    of the route not taken is rejected, since it would go unread
    yet enter the manifest; an unset option of the route taken gets its
    default; an unset _REQUIRED option is an error.  A command that writes
    needs an outdir that is, or can be made, a directory.
    """
    taken = vars(args).get(_COMMANDS[args.subcommand][2], False)
    for flag, dest, opt in _options(args.subcommand):
        if dest in args and opt.route not in (None, taken):
            route = _ROUTE_NAMES[args.subcommand][taken]
            raise ValueError(f"{flag} is not an option of {route}")
        if dest not in args and opt.default is _REQUIRED:
            raise ValueError(f"{flag} is required")
        if dest not in args and opt.route in (None, taken):
            setattr(args, dest, opt.default)
    found = next(path for path in (args.outdir, *args.outdir.parents) if path.exists())
    if args.subcommand != "verify" and not found.is_dir():
        raise ValueError(f"--outdir {args.outdir}: {found} is not a directory")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        if "config" in args:
            args = _parse_with_config(parser, args, argv)
        _settle(args)
        params = {k: str(v) if isinstance(v, Path) else v for k, v in vars(args).items()
                  if k != "config" and v is not None}
        manifest = RunManifest(args.subcommand, parameters=params)
        # the filters stay as they are: an error filter still raises in the command
        with warnings.catch_warnings(record=True) as caught:
            result = _COMMANDS[args.subcommand][1](args)
        manifest.diagnostics.update(result.diagnostics)
        notes = [str(w.message) for w in caught]
        for note in notes:
            print(f"warning: {note}", file=sys.stderr)
        if notes:
            manifest.diagnostics["warnings"] = notes
        if result.outputs:
            _emit(manifest, args.outdir, result.outputs)
        print(result.summary)
        return int(result.failed)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

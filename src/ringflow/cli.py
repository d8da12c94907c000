"""Command-line front end.

Every subcommand but verify writes deterministic CSV/JSON outputs plus a
run manifest with content digests; verify takes --outdir only because the
benchmark passes one to every command.  Exit codes: 0 success, 2 validation
error, 1 computation failure.

main settles every option, a two-route command's by _ROUTES, and builds the
manifest; each command validates and computes, and _emit alone makes the
outdir and writes, so a failed run leaves no outdir.

alpha can be given as --alpha or --alpha-over-pi; current samples the state
file that state writes, which sets alpha and beta.  An option's value comes
from, in this order: its flag, a flat key=value config file (--config),
RINGFLOW_JOBS for --jobs (sweep and infimum only) and its default.  A config
value is read with its option's type, so path, schedule and number options
work there as flags do; on/off flags take true or false.  --jobs, however
given, is an integer >= 1: one that is no integer exits 2 with argparse's
message, one below 1 with the sweep's "jobs must be an integer >= 1".  A
float option takes a negative value in any notation: --beta -1e-3 and
--alpha-over-pi-min -inf are read as values.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .eigen import min_eigen
from .extrapolate import DEFAULT_SWEEP_SCHEDULE, REFERENCE_SCHEDULE, extrapolated_infimum
from .kernel import RingConfig, _check_alpha, build_kernel, canonicalize
from .linelimit import line_limit_min, ring_small_alpha_limit
from .manifest import RunManifest, _write_csv, _write_json
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


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _read_config(path) -> dict:
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
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


def _add_alpha_beta(parser, beta_default=None):
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--alpha-over-pi", type=float, default=None)
    parser.add_argument("--beta", type=float, default=beta_default)


def _add_common(parser):
    parser.add_argument("--outdir", type=Path, default=Path("."))
    parser.add_argument("--config", type=Path, default=None)


def _add_jobs(parser):
    # a string default is converted with the type, so RINGFLOW_JOBS is read as --jobs is;
    # sweep_alpha and find_infimum check the range
    parser.add_argument("--jobs", type=int, default=os.environ.get("RINGFLOW_JOBS", "1"))


def _schedule_arg(raw: str) -> list[int]:
    return [int(tok) for tok in raw.replace(",", " ").split()]


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required")


# each two-route command's flag that picks its route, and per route its name
# and the options only it reads, with their defaults
_ROUTES = {
    "linelimit": ("ring_route", {
        False: ("the Nystrom route (no --ring-route)", {"u_max": 10.0, "n_points": 2000}),
        True: ("--ring-route", {"alpha": None, "alpha_over_pi": None, "beta": 0.0, "n": 1000}),
    }),
    "twomode": ("global_opt", {
        False: ("the curve (no --global)",
                {"alpha_over_pi_min": 0.01, "alpha_over_pi_max": 2.0, "steps": 400}),
        True: ("--global", {}),
    }),
    "extrapolate": ("reference_schedule", {
        False: ("a given schedule", {"schedule": DEFAULT_SWEEP_SCHEDULE}),
        True: ("--reference-schedule", {}),
    }),
}


def _apply_route(args) -> None:
    """Reject an option of the route not taken, which would go unread yet
    enter the manifest; give the taken route's unset options their defaults."""
    if args.subcommand not in _ROUTES:
        return
    flag, routes = _ROUTES[args.subcommand]
    taken = getattr(args, flag)
    for name in routes[not taken][1]:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} is not an option of {routes[taken][0]}")
    for name, default in routes[taken][1].items():
        if getattr(args, name) is None:
            setattr(args, name, default)


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


def cmd_eigen(args, manifest) -> int:
    _require(args, "n")
    alpha = _resolve_alpha(args)
    kernel = build_kernel(RingConfig(alpha, args.beta, args.n))
    result = min_eigen(kernel)
    manifest.diagnostics["solve"] = result.diagnostics
    record = {"alpha": alpha, "beta": kernel.config.beta, "lambda_min": result.lambda_min,
              "n_trunc": result.n_trunc, "residual_norm": result.residual_norm,
              "method": "lobpcg", "iterations": result.iterations}
    _emit(manifest, args.outdir, {"eigen.json": record})
    print(f"lambda_min = {_fmt(result.lambda_min)}")
    return 0


def cmd_extrapolate(args, manifest) -> int:
    alpha = _resolve_alpha(args)
    schedule = REFERENCE_SCHEDULE if args.reference_schedule else args.schedule
    p, fit = extrapolated_infimum(alpha, args.beta, schedule)
    record = {"alpha": alpha, "beta": canonicalize(args.beta)[0], "p_estimate": p,
              "schedule": list(fit.n_values), "lambdas": list(fit.lambda_values),
              "a0": fit.a0, "a1": fit.a1, "a2": fit.a2, "residual": fit.residual}
    manifest.diagnostics["rungs"] = fit.rungs
    _emit(manifest, args.outdir, {"extrapolation.json": record})
    print(f"P estimate = {_fmt(p)}")
    return 0


def _write_sweep_csv(records, path) -> None:
    # a failed point carries nan for both p and residual, which formats as "nan"
    rows = [(r.alpha / math.pi, r.beta, r.p_estimate, r.fit_residual) for r in records]
    _write_csv(path, "alpha_over_pi,beta,p,residual\n", "%.17g,%.17g,%.17g,%.17g\n", *zip(*rows))


def _alpha_over_pi_grid(args):
    """np.linspace over the --alpha-over-pi bounds, each checked as an alpha first."""
    for bound in (args.alpha_over_pi_min, args.alpha_over_pi_max):
        _check_alpha(bound * math.pi)
    return np.linspace(args.alpha_over_pi_min, args.alpha_over_pi_max, args.steps)


def cmd_sweep(args, manifest) -> int:
    _require(args, "alpha_over_pi_min", "alpha_over_pi_max", "steps")
    grid = _alpha_over_pi_grid(args)
    records = sweep_alpha(args.beta, [a * math.pi for a in grid], args.schedule, jobs=args.jobs)
    manifest.diagnostics["scans"] = [scan_diagnostics(len(grid), args.schedule, args.jobs)]
    _emit(manifest, args.outdir, {"sweep.csv": lambda path: _write_sweep_csv(records, path)})
    failures = sum(1 for r in records if r.error is not None)
    print(f"wrote {args.outdir / 'sweep.csv'} ({len(records)} points, {failures} failed)")
    return 0 if failures == 0 else 1


def cmd_infimum(args, manifest) -> int:
    _require(args, "alpha_over_pi_min", "alpha_over_pi_max")
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
    manifest.diagnostics["scans"] = list(result.scans)
    _emit(manifest, args.outdir, {"infimum.json": record})
    print(
        f"alpha/pi* = {_fmt(result.alpha / math.pi)}  beta* = {_fmt(result.beta)}  "
        f"p* = {_fmt(result.p)}"
    )
    return 0


def cmd_twomode(args, manifest) -> int:
    if args.global_opt:
        alpha_s, beta_s, p_s = global_two_mode_min(args.m1, args.m2)
        record = {
            "m1": args.m1,
            "m2": args.m2,
            "alpha_over_pi": alpha_s / math.pi,
            "beta": beta_s,
            "p_min": p_s,
        }
        _emit(manifest, args.outdir, {"twomode_global.json": record})
        print(f"p* = {_fmt(p_s)} at alpha/pi = {_fmt(alpha_s / math.pi)}, beta = {_fmt(beta_s)}")
        return 0
    grid = _alpha_over_pi_grid(args)
    rows = two_mode_curve(args.m1, args.m2, grid)
    head, row = "alpha_over_pi,beta,p_min\n", "%.17g,%.17g,%.17g\n"
    _emit(manifest, args.outdir,
          {"twomode_curve.csv": lambda path: _write_csv(path, head, row, *zip(*rows))})
    print(f"wrote {args.outdir / 'twomode_curve.csv'}")
    return 0


def cmd_state(args, manifest) -> int:
    _require(args, "n")
    alpha = _resolve_alpha(args)
    state = maximizing_state(alpha, args.beta, args.n)
    manifest.diagnostics["solve"] = state.solve
    report = {
        "lambda_min": state.lambda_min,
        "mean_energy": mean_energy(state),
        "coefficient_decay_below_c0_over_m2": verify_mod.decay_exponent(state.coeffs) > 2,
    }
    _emit(
        manifest,
        args.outdir,
        {"state.csv": lambda path: write_state_csv(state, path), "state_report.json": report},
    )
    print(f"lambda_min = {_fmt(state.lambda_min)}  <E>T/hbar = {_fmt(report['mean_energy'])}")
    return 0


def cmd_current(args, manifest) -> int:
    _require(args, "state_file")
    state = read_state_csv(args.state_file)
    series = current_series(state, args.theta, (args.tau_min, args.tau_max), args.samples)
    manifest.diagnostics.update(series.diagnostics)
    _emit(manifest, args.outdir, {"current.csv": lambda path: write_series_csv(series, path)})
    print(f"wrote {args.outdir / 'current.csv'}")
    return 0


def cmd_linelimit(args, manifest) -> int:
    if args.ring_route:
        alpha = _resolve_alpha(args)
        result = ring_small_alpha_limit(alpha, args.beta, args.n)
        manifest.diagnostics["solve"] = result.diagnostics
        record = {"route": "ring", "alpha": alpha, "beta": canonicalize(args.beta)[0],
                  "n_trunc": args.n, "lambda_min": result.lambda_min}
    else:
        result = line_limit_min(args.u_max, args.n_points)
        record = {"route": "nystrom", "u_max": args.u_max, "n_points": args.n_points,
                  "lambda_min": result.lambda_min, "lambda_interval": result.lambda_interval,
                  "lambda_half_interval": result.lambda_half_interval, "u_half": result.u_half}
        manifest.diagnostics["rungs"] = result.rungs
    _emit(manifest, args.outdir, {"linelimit.json": record})
    print(f"lambda_min = {_fmt(result.lambda_min)}")
    return 0


def cmd_verify(args, manifest) -> int:
    failures = verify_mod.run_all()
    print(f"{failures} failure(s)")
    return 0 if failures == 0 else 1


def _alpha_beta_n_options(p):
    _add_alpha_beta(p, beta_default=0.0)
    p.add_argument("--n", type=int, default=None)
    _add_common(p)


def _extrapolate_options(p):
    _add_alpha_beta(p, beta_default=0.0)
    p.add_argument("--schedule", type=_schedule_arg, default=None)  # by route, in _ROUTES
    p.add_argument("--reference-schedule", action="store_true",
                   help="use the 15-point high-accuracy schedule")
    _add_common(p)


def _sweep_options(p):
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--alpha-over-pi-min", type=float, default=None)
    p.add_argument("--alpha-over-pi-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--schedule", type=_schedule_arg, default=list(DEFAULT_SWEEP_SCHEDULE))
    _add_common(p)
    _add_jobs(p)


def _infimum_options(p):
    p.add_argument("--alpha-over-pi-min", type=float, default=None)
    p.add_argument("--alpha-over-pi-max", type=float, default=None)
    p.add_argument("--beta-max", type=float, default=0.0)
    p.add_argument("--budget", type=int, default=200)
    _add_common(p)
    _add_jobs(p)


def _twomode_options(p):
    p.add_argument("--m1", type=int, default=0)
    p.add_argument("--m2", type=int, default=1)
    p.add_argument("--global", dest="global_opt", action="store_true")
    p.add_argument("--alpha-over-pi-min", type=float, default=None)  # by route, in _ROUTES
    p.add_argument("--alpha-over-pi-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    _add_common(p)


def _current_options(p):
    p.add_argument("--state-file", type=Path, default=None)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--tau-min", type=float, default=-1.5)
    p.add_argument("--tau-max", type=float, default=1.5)
    p.add_argument("--samples", type=int, default=4001)
    _add_common(p)


def _linelimit_options(p):
    p.add_argument("--u-max", type=float, default=None)
    p.add_argument("--n-points", type=int, default=None)
    p.add_argument("--ring-route", action="store_true")
    _add_alpha_beta(p)  # defaults by route, in _ROUTES
    p.add_argument("--n", type=int, default=None)
    _add_common(p)


# each command's help line, the function that adds its options, and its handler
_COMMANDS = {
    "eigen": ("smallest kernel eigenvalue at one (alpha, beta, N)", _alpha_beta_n_options,
              cmd_eigen),
    "extrapolate": ("extrapolate lambda_min over a truncation schedule", _extrapolate_options,
                    cmd_extrapolate),
    "sweep": ("sweep the extrapolated infimum over an alpha grid", _sweep_options, cmd_sweep),
    "infimum": ("staged grid search for the global infimum", _infimum_options, cmd_infimum),
    "twomode": ("two-mode closed-form curve or global optimum", _twomode_options, cmd_twomode),
    "state": ("backflow-maximizing state and decay report", _alpha_beta_n_options, cmd_state),
    "current": ("time-resolved current of a state file", _current_options, cmd_current),
    "linelimit": ("straight-line constant via Nystrom or ring route", _linelimit_options,
                  cmd_linelimit),
    "verify": ("run the fast oracle/property suite", _add_common, cmd_verify),
}

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
    for name, (help_line, add_options, func) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_line)
            add_options(p)
            p.set_defaults(func=func)
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
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = subparsers.choices[args.subcommand]
    actions = {
        name: action
        for action in sub._actions
        if action.default is not argparse.SUPPRESS
        for name in (action.dest, *(opt[2:].replace("-", "_") for opt in action.option_strings))
    }
    if {vars(args).get("alpha"), vars(args).get("alpha_over_pi")} != {None}:
        del actions["alpha"], actions["alpha_over_pi"]
    defaults = {}
    for key, raw in _read_config(args.config).items():
        action = actions.get(key)
        if action is None:
            continue
        if action.nargs == 0:  # an on/off flag, which has no type to convert with
            if raw.lower() not in ("true", "false"):
                sub.error(f"config {key}: an on/off setting takes true or false, got {raw!r}")
            raw = raw.lower() == "true"
        defaults[action.dest] = raw
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = _parse_with_config(parser, args, argv)
        _apply_route(args)
        params = {
            k: (str(v) if isinstance(v, Path) else v)
            for k, v in vars(args).items()
            if k not in ("func", "config") and v is not None
        }
        return args.func(args, RunManifest(command=args.subcommand, parameters=params))
    except SystemExit as exc:  # argparse's usage errors
        return exc.code
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

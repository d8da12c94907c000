"""One pass of one workload in a fresh process.

Measures set-up (interpreter start to ``ringflow`` imported and output
directory made, against the spawn time run.py passes in), then runs the
workload's CLI commands in-process through ``ringflow.cli.main`` and checks
their outputs.  wall_s and cpu_s (user plus system, all threads) cover the
commands only; peak_rss_mb is the whole process's ru_maxrss, read before the
gates run.  With --trace, wraps the ringflow layers first and reports
per-layer metrics.  Prints one JSON object on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --outdir DIR --t0 T [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of run.py when it spawned this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import ringflow.cli as cli

    args.outdir.mkdir(parents=True, exist_ok=True)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    commands = workload.commands(args.seed, args.outdir)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.monotonic()
    runs = [workloads.run_command(cli, argv) for argv in commands]
    wall_s = time.monotonic() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": _cpu_seconds(usage1) - _cpu_seconds(usage0),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
    }
    bytes_out = sum(f.stat().st_size for f in args.outdir.rglob("*") if f.is_file())
    try:
        ops = workload.check(args.seed, args.outdir, runs)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        ops = [workloads.Op(f"outputs of {args.workload}", False, f"{type(exc).__name__}: {exc}")]
    result["ops"] = [[op.name, op.ok, op.detail] for op in ops]

    if tracer is not None:
        calls = spans.call_counts(tracer.spans)
        missing = {name: (calls[name], want) for name, want in workload.expected_calls.items()
                   if calls[name] != want}
        if missing:
            for name, (got, want) in missing.items():
                print(f"traced {name}: {got} calls, expected {want}", file=sys.stderr)
            return 3
        layers = spans.layer_metrics(tracer.spans)
        layers["cli.bytes_out"] = bytes_out
        result["layers"] = layers
        result["per_n"] = {str(n): v for n, v in spans.per_n_times(tracer.spans).items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

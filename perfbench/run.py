"""The ringflow benchmark.

Runs a workload through the ``ringflow`` CLI for a fixed time, each pass in a
fresh worker process, checks every output against its reference, and prints
the end-to-end metrics (with --trace 1, the per-layer metrics) as medians over
the passes.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py             # every workload, one summary table
    python3 perfbench/run.py --trace 1   # every workload, traced

Load shape: batch, closed loop, one client.  A command starts when the one
before it ends; the only concurrency is the program's own ``sweep --jobs 2``.
BLAS thread variables are left as found and recorded in the machine block.

A traced run alternates untraced and traced passes: per-layer metrics come
from the traced passes, and trace.overhead_s is the difference of the two
kinds' median wall times.  Exit status is 0 only if every gate passed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from machine import machine_block
from spans import LAYER_PREDICTIONS, PER_N_BASELINE
from stats import median, quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
PER_N_MIN = 400  # smaller kernels (verify's checks) are left out of the per-N table
DEADLINE_S = 170.0


class HarnessError(RuntimeError):
    """The benchmark itself could not measure (not a program failure)."""


def spawn(workload: str, seed: int, outdir: Path, timeout: float,
          trace: bool = False, setup_only: bool = False) -> dict:
    """One worker process; returns its JSON report."""
    if timeout <= 0:
        raise HarnessError(f"{workload}: out of time before the next pass")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--outdir", str(outdir)]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    try:
        proc = subprocess.run(argv + ["--t0", repr(time.monotonic())], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload}: a pass took longer than {timeout:.0f} s") from exc
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{workload}: worker exited {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Set-up probes, then passes until `seconds` have been measured."""
    t_start = time.monotonic()
    scratch = ROOT / ".bench_out"
    counter = itertools.count()

    def one(**kw):
        outdir = scratch / f"{name}-{os.getpid()}-{next(counter)}"
        return spawn(name, seed, outdir, DEADLINE_S - (time.monotonic() - t_start), **kw)

    one(setup_only=True)  # warm the file cache and bytecode; not counted
    setups = [one(setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    passes = []
    loop_start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append((traced, one(trace=traced)))
        if time.monotonic() - loop_start >= seconds and (not trace or len(passes) >= 2):
            break
    try:
        scratch.rmdir()
    except OSError:
        pass

    untraced = [p for t, p in passes if not t]
    traced_passes = [p for t, p in passes if t]
    ops = [op for _, p in passes for op in p["ops"]]
    failed = [op for op in ops if not op[1]]
    samples = {
        "setup_s": setups + [p["setup_s"] for _, p in passes],
        "wall_s": [p["wall_s"] for p in untraced],
        "cpu_s": [p["cpu_s"] for p in untraced],
        "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
    }
    if trace:
        metrics = {m["name"]: median(p["layers"][m["name"]] for p in traced_passes)
                   for m in spec["per_layer"] if m["name"] != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (median(p["wall_s"] for p in traced_passes)
                                       - median(samples["wall_s"]))
    else:
        metrics = {m: median(v) for m, v in samples.items()}
        metrics["ok_frac"] = (len(ops) - len(failed)) / len(ops)
    return {
        "workload": name,
        "seed": seed,
        "passes": len(passes),
        "traced_passes": len(traced_passes),
        "samples": samples,
        "metrics": metrics,
        "attempted": len(ops),
        "failed": failed,
        "per_n": traced_passes[-1]["per_n"] if traced_passes else {},
    }


def report(result: dict, spec: dict, trace: bool) -> None:
    """Human-readable summary of one workload (stdout, before the JSON line)."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {result['workload']}  seed {result['seed']}  passes {result['passes']}"
          f" (traced {result['traced_passes']})")
    if not trace:
        for name, values in result["samples"].items():
            q1, q2, q3 = quartiles(values)
            print(f"   {name:<12} {q2:12.6g} {units[name]:<6} q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
        print(f"   {'ok_frac':<12} {result['metrics']['ok_frac']:12.6g} {units['ok_frac']}")
    else:
        for name, value in result["metrics"].items():
            print(f"   {name:<28} {value:14.6g} {units[name]}")
        per_n = {n: v for n, v in result["per_n"].items() if int(n) >= PER_N_MIN}
        if per_n:
            print("   per N (last traced pass)   build_s   eigen_s   baseline build/eigen")
            for n, (build_s, eigen_s) in per_n.items():
                base = PER_N_BASELINE.get(int(n))
                base_txt = f"{base[0] / 1e3:.3f} / {base[1] / 1e3:.3f}" if base else ""
                print(f"   N = {n:>6}               {build_s:8.4f}  {eigen_s:8.4f}   {base_txt}")
    print(f"   {'fail_frac':<12} {len(result['failed'])}/{result['attempted']} operations")
    for name, _, detail in result["failed"]:
        print(f"   FAILED {name}: {detail}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all, with a summary table)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ringflow" / "__init__.py").is_file():
        print(f"error: no ringflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    machine = machine_block(ROOT)
    print("machine: " + json.dumps(machine, sort_keys=True))
    trace = bool(args.trace)
    results = []
    try:
        for name in [args.workload] if args.workload else names:
            results.append(run_workload(name, args.seed, args.seconds, trace, spec))
            report(results[-1], spec, trace)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if trace:
        print("layer predictions (which end-to-end metric each layer should move):")
        for layer, prediction in LAYER_PREDICTIONS.items():
            print(f"   {layer:<12} {prediction}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.workload:
        metrics = results[0]["metrics"]
    else:
        e2e = [m["name"] for m in spec["end_to_end"]]
        print(f"{'workload':<16}" + "".join(f"{f'{m} [{units[m]}]':>20}" for m in e2e)
              + f"{'fail_frac [1]':>20}")
        for r in results:
            row = "".join(f"{r['metrics'][m]:20.6g}" if m in r["metrics"] else f"{'-':>20}"
                          for m in e2e)
            print(f"{r['workload']:<16}{row}{len(r['failed']) / r['attempted']:20.6g}")
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["failed"]) for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k.rpartition("/")[2]]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

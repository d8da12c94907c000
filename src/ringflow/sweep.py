"""Alpha sweeps of the extrapolated infimum and its global search.

The infimum is non-increasing in beta on (-1, 0], so the global search runs
in alpha alone, at the largest beta it covers.  The landscape in alpha has
fine structure on scales below 1e-4 in alpha/pi, so that search uses dense
staged grid refinement rather than derivative-based local descent.
_staged_min is that refinement, and twomode.global_two_mode_min runs it too.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .extrapolate import DEFAULT_SWEEP_SCHEDULE, _check_schedule, extrapolated_infimum
from .kernel import _check_alpha, _check_beta_max, canonicalize

# How pool workers start.  Named, because Python 3.14 moves the Linux default
# to forkserver.  A forked worker inherits the loaded modules, where a spawned
# one would pay the 0.2 s import of numpy and ringflow.  ringflow loads
# OpenBLAS with one thread, so a fork finds no other thread; where numpy was
# loaded first or more threads were asked for, OpenBLAS's worker is there, and
# OpenBLAS stops its threads before a fork (a pthread_atfork handler) and
# restarts them on the next threaded call.
START_METHOD = "fork"

# Fewest truncation modes (grid points x sum of the schedule) a pool worker
# must get for forking it to pay; smaller grids run in the calling process.
# Measured on 2 cores, Python 3.11: sweep_alpha over alpha/pi in [0.2, 0.9]
# in fresh processes, serially and on a fork pool of 2, 10 alternated pairs
# per grid; "won" counts the pairs where the pool's wall time was lower.
#
#   modes/worker   grids (points x schedule sum)          pool won
#   4600-11500     2-5 x 4600, 8 x 2100                   2 of 50
#   12600-18400    6, 8 x 4600; 12, 16 x 2100             28 of 60
#   21000-36800    10, 12, 16 x 4600; 20, 24 x 2100       40 of 50
#
# At 4 points x 4600 the pool took 0.073 s (median) against 0.049 s in
# process; at 24 x 2100, 0.144 s against 0.201 s.  The pool always costs
# 10-100% more CPU in total, so it runs only where it won.
_MODES_PER_WORKER = 20000

# find_infimum's stages, each (grid points, truncation schedule): a coarse
# grid over the alpha box on a fast schedule, then grids 10 times narrower
# each around the best alpha so far, the last on the most accurate schedule
_SEARCH_PLAN = (
    (16, (300, 400, 600, 800)),
    (11, DEFAULT_SWEEP_SCHEDULE),
    (11, DEFAULT_SWEEP_SCHEDULE),
    (11, (800, 1000, 1200, 1600, 2000)),
)


@dataclass(frozen=True)
class SweepRecord:
    alpha: float
    beta: float
    p_estimate: float
    fit_residual: float
    error: str | None = None


@dataclass(frozen=True)
class InfimumResult:
    alpha: float
    beta: float
    p: float
    evaluations: int
    budget_exhausted: bool
    stages: int
    # scan_diagnostics of every sweep_alpha scan, in order, for the run
    # manifest; left out of == and hash, which dicts would break
    scans: tuple[dict, ...] = field(default=(), compare=False)


def _one_point(alpha, beta, schedule):
    try:
        p, fit = extrapolated_infimum(alpha, beta, schedule)
        return SweepRecord(alpha, beta, p, fit.residual)
    except Exception as exc:  # per-point failures stay in-band
        return SweepRecord(alpha, beta, float("nan"), float("nan"), str(exc))


def _check_count(name: str, value) -> None:
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def sweep_workers(points: int, schedule, jobs: int) -> int:
    """Worker processes sweep_alpha uses for a grid of `points` alphas on
    `schedule`, at most `jobs`; 1 means the grid runs in the calling process."""
    _check_count("jobs", jobs)
    return int(max(1, min(jobs, points * sum(schedule) // _MODES_PER_WORKER)))


def scan_diagnostics(points: int, schedule, jobs: int) -> dict:
    """How sweep_alpha runs such a scan, for the run manifest."""
    workers = sweep_workers(points, schedule, jobs)
    return {
        "points": int(points),
        "schedule": [int(n) for n in schedule],
        "workers": workers,
        "start_method": START_METHOD if workers > 1 else None,
    }


def _pool_map(point, alphas: list, workers: int) -> list[SweepRecord]:
    # imported here, so that importing ringflow loads no pool machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context(START_METHOD)
    chunk = -(-len(alphas) // workers)  # one chunk per worker
    try:
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            return list(pool.map(point, alphas, chunksize=chunk))
    except BrokenProcessPool as exc:
        raise RuntimeError(
            f"a sweep worker process died; {len(alphas)} points on {workers} workers"
        ) from exc


def sweep_alpha(
    beta: float,
    alpha_grid,
    schedule=DEFAULT_SWEEP_SCHEDULE,
    jobs: int = 1,
) -> list[SweepRecord]:
    """One extrapolated-infimum record per grid alpha, in grid order.

    Records carry beta canonicalized to (-1, 0], and are bitwise the same for
    every jobs.  A grid runs on sweep_workers(...) forked worker processes,
    one chunk of the grid each, or in the calling process when that is 1:
    each worker must get _MODES_PER_WORKER modes for the fork to pay.  A
    worker process that dies raises RuntimeError, a bad schedule or grid
    alpha ValueError before any solve.
    """
    alpha_grid = list(alpha_grid)
    if not alpha_grid:
        raise ValueError("empty alpha grid")
    _check_schedule(schedule)
    for alpha in alpha_grid:
        _check_alpha(float(alpha))
    workers = sweep_workers(len(alpha_grid), schedule, jobs)
    beta, _ = canonicalize(beta)
    point = functools.partial(_one_point, beta=beta, schedule=schedule)
    if workers == 1:
        return [point(a) for a in alpha_grid]
    return _pool_map(point, alpha_grid, workers)


def _staged_min(evaluate, box, plan, budget):
    """Minimize over the interval box by staged grid refinement.

    Runs plan, one (grid points, arg) pair per stage: stage 0 grids the whole
    box, each later stage the best point so far +- a span 10 times narrower
    than the one before, clamped to the box.  evaluate(grid, arg) returns one
    value per grid point, nan where the point failed, which is never chosen;
    only a strictly lower value replaces the best, so the first minimum wins.
    budget counts evaluated points: the grid that would pass it is cut short
    and the search stops there.  Returns (x, value, evaluations,
    budget_exhausted, stages), stages counting the refinement stages begun.
    A coarse grid with no successful point raises RuntimeError.
    """
    used, best, best_value = 0, None, np.inf
    for stage, (points, arg) in enumerate(plan):
        lo, hi = box
        if stage:
            span = 2.0 * (box[1] - box[0]) / max(plan[0][0] - 1, 1) / 10 ** (stage - 1)
            lo, hi = max(best - span, box[0]), min(best + span, box[1])
        grid = np.linspace(lo, hi, points)[: budget - used]
        if len(grid):
            used += len(grid)
            values = np.asarray(evaluate(grid, arg), dtype=float)
            i = np.argmin(np.fmin(values, np.inf))  # a nan counts as +inf
            if values[i] < best_value:
                best, best_value = float(grid[i]), float(values[i])
        if best is None:
            raise RuntimeError("no successful evaluation in the coarse scan")
        if len(grid) < points:
            break
    return best, best_value, used, len(grid) < points, stage


def find_infimum(
    alpha_box: tuple[float, float],
    beta_max: float,
    budget: int = 200,
    jobs: int = 1,
) -> InfimumResult:
    """Locate the minimum of the extrapolated infimum over alpha_box x (-1, beta_max].

    Only alpha is searched, at beta = beta_max.  With a_m = alpha(m - beta)^2,
    dK/dbeta = -(2 alpha/pi)(c c^T + s s^T), c = cos a and s = sin a, is
    negative semidefinite, so every eigenvalue of the truncated kernel, and
    their N -> oo limit, is non-increasing in beta on (-1, 0].  The search
    minimizes the fitted a0, a mixed-sign combination of the lambda(N_i), which
    inherits that ordering only up to fit error: about 1e-10, against
    dlambda/dbeta ~ -0.56 at the optimum.

    _staged_min runs _SEARCH_PLAN, one sweep_alpha grid per stage on that
    stage's schedule: stage 0 over the whole box, each later stage around the
    best alpha so far, on a span 10 times narrower than the one before; a
    failed point is never chosen.  Budget counts extrapolated-infimum
    evaluations; the grid that would pass it is cut short, the search stops
    there with budget_exhausted set, and the best point so far is returned.
    stages counts the refinement stages begun.
    """
    a_lo, a_hi = alpha_box
    _check_alpha(a_lo)
    _check_alpha(a_hi)
    if not a_lo <= a_hi:
        raise ValueError("alpha box must be ordered")
    _check_beta_max(beta_max)
    _check_count("budget", budget)
    _check_count("jobs", jobs)

    scans = []

    def evaluate(alphas, schedule):
        scans.append(scan_diagnostics(len(alphas), schedule, jobs))
        return [r.p_estimate for r in sweep_alpha(beta_max, alphas, schedule, jobs)]

    alpha, p, used, exhausted, stages = _staged_min(evaluate, alpha_box, _SEARCH_PLAN, budget)
    return InfimumResult(alpha, canonicalize(beta_max)[0], p, used, exhausted, stages, tuple(scans))

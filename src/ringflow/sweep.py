"""Parameter-plane sweeps of the extrapolated infimum and global search.

The infimum landscape in alpha has fine structure on scales below 1e-4 in
alpha/pi, so the global search uses dense staged grid refinement rather than
derivative-based local descent.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .extrapolate import DEFAULT_SWEEP_SCHEDULE, extrapolated_infimum
from .kernel import canonicalize


@dataclass(frozen=True)
class SweepRecord:
    alpha: float
    beta: float
    p_estimate: float
    schedule: tuple[int, ...]
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


def _one_point(alpha, beta, schedule):
    try:
        p, fit = extrapolated_infimum(alpha, beta, schedule)
        return SweepRecord(alpha, beta, p, tuple(schedule), fit.residual)
    except Exception as exc:  # per-point failures stay in-band
        return SweepRecord(alpha, beta, float("nan"), tuple(schedule), float("nan"), str(exc))


def _evaluate(points, schedule, jobs: int) -> list[SweepRecord]:
    """One record per (alpha, beta) point, in the order given; jobs > 1 spreads
    the points over a thread pool."""
    if jobs <= 1:
        return [_one_point(a, b, schedule) for a, b in points]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda ab: _one_point(*ab, schedule), points))


def sweep_alpha(
    beta: float,
    alpha_grid,
    schedule=DEFAULT_SWEEP_SCHEDULE,
    jobs: int = 1,
) -> list[SweepRecord]:
    """One extrapolated-infimum record per grid alpha, in grid order.

    Records carry beta canonicalized to (-1, 0].  Thread workers overlap the
    eigensolves where they run outside the GIL: dense LAPACK solves almost
    wholly, LOBPCG solves only in their FFTs and array arithmetic, because
    its iteration loop is Python (two workers on 2 cores ran them about 1.15x
    as fast as one).
    """
    alpha_grid = list(alpha_grid)
    if not alpha_grid:
        raise ValueError("empty alpha grid")
    beta, _ = canonicalize(beta)
    return _evaluate([(a, beta) for a in alpha_grid], schedule, jobs)


def find_infimum(
    alpha_box: tuple[float, float],
    beta_box: tuple[float, float],
    budget: int = 200,
    coarse_points: int = 16,
    refine_points: int = 11,
    stages: int = 3,
    coarse_schedule=(300, 400, 600, 800),
    refine_schedule=DEFAULT_SWEEP_SCHEDULE,
    final_schedule=(800, 1000, 1200, 1600, 2000),
    jobs: int = 1,
) -> InfimumResult:
    """Locate the minimum of the extrapolated infimum over a parameter box.

    Coarse grid scan at a fast truncation schedule, then successive local grid
    refinement (factor 10 per stage) around the incumbent with increasingly
    accurate schedules.  The final stage pins beta to the incumbent.
    Budget counts extrapolated-infimum evaluations; on exhaustion the incumbent
    is returned with budget_exhausted set.
    """
    a_lo, a_hi = alpha_box
    b_lo, b_hi = beta_box
    if not (0 < a_lo <= a_hi):
        raise ValueError("alpha box must be positive and ordered")
    if not (-1 < b_lo <= b_hi <= 0):
        raise ValueError("beta box must sit inside (-1, 0]")

    used = 0
    exhausted = False
    best = None  # (p, alpha, beta)

    def scan(alphas, betas, schedule):
        nonlocal used, exhausted, best
        points = [(a, b) for a in alphas for b in betas]
        if used + len(points) > budget:
            points = points[: max(0, budget - used)]
            exhausted = True
        if not points:
            return
        used += len(points)
        for r in _evaluate(points, schedule, jobs):
            if r.error is None and (best is None or r.p_estimate < best[0]):
                best = (r.p_estimate, r.alpha, r.beta)

    n_beta = 1 if b_lo == b_hi else 3
    alphas = np.linspace(a_lo, a_hi, coarse_points)
    betas = np.linspace(b_lo, b_hi, n_beta)
    scan(alphas, betas, coarse_schedule)
    if best is None:
        raise RuntimeError("no successful evaluation in the coarse scan")

    db = (b_hi - b_lo) / max(n_beta - 1, 1) if n_beta > 1 else 0.0
    stage = 0
    while stage < stages and not exhausted:
        stage += 1
        final = stage == stages
        span_a = 2.0 * (a_hi - a_lo) / max(coarse_points - 1, 1) / 10 ** (stage - 1)
        span_b = 2.0 * db / 10 ** (stage - 1)
        _, a0, b0 = best
        alphas = np.linspace(max(a0 - span_a, a_lo), min(a0 + span_a, a_hi), refine_points)
        if span_b > 0 and not final:
            betas = np.linspace(max(b0 - span_b, b_lo), min(b0 + span_b, b_hi), n_beta)
        else:
            betas = np.array([b0])
        scan(alphas, betas, final_schedule if final else refine_schedule)

    p, a0, b0 = best
    return InfimumResult(
        alpha=a0,
        beta=b0,
        p=p,
        evaluations=used,
        budget_exhausted=exhausted,
        stages=stage,
    )

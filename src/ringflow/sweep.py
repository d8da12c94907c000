"""Alpha sweeps of the extrapolated infimum and its global search.

The infimum is non-increasing in beta on (-1, 0], so the global search runs
in alpha alone, at the largest beta it covers.  The landscape in alpha has
fine structure on scales below 1e-4 in alpha/pi, so that search uses dense
staged grid refinement rather than derivative-based local descent.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .extrapolate import DEFAULT_SWEEP_SCHEDULE, extrapolated_infimum
from .kernel import _check_beta_max, canonicalize


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


def _one_point(alpha, beta, schedule):
    try:
        p, fit = extrapolated_infimum(alpha, beta, schedule)
        return SweepRecord(alpha, beta, p, fit.residual)
    except Exception as exc:  # per-point failures stay in-band
        return SweepRecord(alpha, beta, float("nan"), float("nan"), str(exc))


def sweep_alpha(
    beta: float,
    alpha_grid,
    schedule=DEFAULT_SWEEP_SCHEDULE,
    jobs: int = 1,
) -> list[SweepRecord]:
    """One extrapolated-infimum record per grid alpha, in grid order.

    Records carry beta canonicalized to (-1, 0].  Thread workers overlap the
    LOBPCG solves only in their FFTs and array arithmetic, outside the GIL,
    because the iteration loop is Python.  A solve uses no BLAS threads, so
    the GIL alone holds them back: on 2 cores, a 16-point grid on the default
    schedule took 0.32-0.37 s on two workers against 0.22-0.29 s on one.
    """
    alpha_grid = list(alpha_grid)
    if not alpha_grid:
        raise ValueError("empty alpha grid")
    beta, _ = canonicalize(beta)
    if jobs <= 1:
        return [_one_point(a, beta, schedule) for a in alpha_grid]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda a: _one_point(a, beta, schedule), alpha_grid))


def find_infimum(
    alpha_box: tuple[float, float],
    beta_max: float,
    budget: int = 200,
    coarse_points: int = 16,
    refine_points: int = 11,
    stages: int = 3,
    coarse_schedule=(300, 400, 600, 800),
    refine_schedule=DEFAULT_SWEEP_SCHEDULE,
    final_schedule=(800, 1000, 1200, 1600, 2000),
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

    Coarse grid scan in alpha at a fast truncation schedule, then successive
    local grid refinement (factor 10 per stage) around the incumbent with
    increasingly accurate schedules.  Budget counts extrapolated-infimum
    evaluations; on exhaustion the incumbent is returned with budget_exhausted
    set.
    """
    a_lo, a_hi = alpha_box
    if not (0 < a_lo <= a_hi):
        raise ValueError("alpha box must be positive and ordered")
    _check_beta_max(beta_max)
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget!r}")

    used = 0
    exhausted = False
    best = None  # SweepRecord

    def scan(alphas, schedule):
        nonlocal used, exhausted, best
        alphas = list(alphas)
        if used + len(alphas) > budget:
            alphas = alphas[: max(0, budget - used)]
            exhausted = True
        if not alphas:
            return
        used += len(alphas)
        for r in sweep_alpha(beta_max, alphas, schedule, jobs):
            if r.error is None and (best is None or r.p_estimate < best.p_estimate):
                best = r

    scan(np.linspace(a_lo, a_hi, coarse_points), coarse_schedule)
    if best is None:
        raise RuntimeError("no successful evaluation in the coarse scan")

    stage = 0
    while stage < stages and not exhausted:
        stage += 1
        span = 2.0 * (a_hi - a_lo) / max(coarse_points - 1, 1) / 10 ** (stage - 1)
        a0 = best.alpha
        alphas = np.linspace(max(a0 - span, a_lo), min(a0 + span, a_hi), refine_points)
        scan(alphas, final_schedule if stage == stages else refine_schedule)

    return InfimumResult(
        alpha=best.alpha,
        beta=best.beta,
        p=best.p_estimate,
        evaluations=used,
        budget_exhausted=exhausted,
        stages=stage,
    )

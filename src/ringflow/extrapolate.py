"""Extrapolation of the truncated smallest eigenvalue to infinite truncation.

lambda_min(N) is fitted by a0 + a1/N + a2/N^2 in the least-squares sense and
a0 taken as the infinite-N estimate.  The fit is done in x = 1/N after
centering/scaling x to [-1, 1]; naive normal equations in raw x lose digits
because x spans [1e-4, 1e-3].

The schedule is solved in increasing N, and each rung's LOBPCG starts from
the previous rung's eigenvector: the kernel at N is the leading block of the
kernel at N' > N, so that start already has Rayleigh quotient lambda(N) at
N'.  The same interlacing says lambda(N') <= lambda(N); a rung that rises
above its predecessor by more than rounding is a failed solve, and raises.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .eigen import min_eigen
from .kernel import RingConfig, build_kernel

# Truncation schedule used for the reference high-accuracy table.
REFERENCE_SCHEDULE = (
    800, 1000, 1200, 1400, 1600, 1800, 2000, 2200, 2400,
    3000, 4000, 5000, 6000, 8000, 10000,
)

# Cheaper default for parameter sweeps, where 1e-6 accuracy is plenty.
DEFAULT_SWEEP_SCHEDULE = (400, 600, 800, 1200, 1600)


# lambda(N') may exceed lambda(N), N' > N, by at most this times max|D| at N',
# the certificate's scale, before extrapolated_infimum raises.  Interlacing
# makes the exact values non-increasing, so a rise is rounding or a failed
# solve.  A Ritz value carries the matvec's rounding, a few 1e-16 times
# max|sin a| + max|D|.  On every ladder tried, warm or cold (the default sweep
# schedule over 0 < alpha/pi <= 3 at beta = 0, -0.4, -0.5, -0.99, down to
# alpha/pi = 1e-6, and the alpha = k pi zeros), no lambda rose by more than
# 5e-33 times max|D|, and that only at alpha = k pi, where lambda ~ 1e-31 is
# itself rounding.  A solve that lands on a higher eigenpair rises by a
# spectral gap, orders of magnitude above this.
_INTERLACING_FACTOR = 1e-12


class ExtrapolationError(RuntimeError):
    """Eigensolve failed inside an extrapolation run; carries the offending N."""

    def __init__(self, n_trunc: int, cause: Exception):
        super().__init__(f"solver failed at N={n_trunc}: {cause}")
        self.n_trunc = n_trunc


@dataclass(frozen=True)
class ExtrapolationFit:
    a0: float
    a1: float
    a2: float
    residual: float
    n_values: tuple[int, ...]
    lambda_values: tuple[float, ...]
    band_ok: bool = field(default=True, compare=False)
    # per-rung solver diagnostics for the run manifest, not the data file
    rungs: tuple[dict, ...] = field(default=(), compare=False)

    def to_record(self) -> dict:
        return {
            "schedule": list(self.n_values),
            "lambdas": list(self.lambda_values),
            "a0": self.a0,
            "a1": self.a1,
            "a2": self.a2,
            "residual": self.residual,
        }


def fit_quadratic(points) -> ExtrapolationFit:
    """Ordinary least squares of lambda on {1, 1/N, 1/N^2}.

    points: iterable of (N, lambda) pairs, at least 4 distinct N.
    residual is the sum of squared fit errors.
    """
    pts = sorted((int(n), float(lam)) for n, lam in points)
    ns = np.array([p[0] for p in pts], dtype=float)
    lams = np.array([p[1] for p in pts])
    if len(ns) < 4:
        raise ValueError(f"need at least 4 points for a quadratic fit, got {len(ns)}")
    if len(set(ns)) != len(ns):
        raise ValueError("duplicate N values make the design matrix rank-deficient")

    x = 1.0 / ns
    xm = 0.5 * (x.max() + x.min())
    xr = 0.5 * (x.max() - x.min())
    t = (x - xm) / xr
    design = np.vander(t, 3, increasing=True)
    coeffs, *_ = np.linalg.lstsq(design, lams, rcond=None)
    c0, c1, c2 = coeffs
    # expand c0 + c1*(x-xm)/xr + c2*((x-xm)/xr)^2 back to powers of x
    a0 = c0 - c1 * xm / xr + c2 * (xm / xr) ** 2
    a1 = c1 / xr - 2.0 * c2 * xm / xr**2
    a2 = c2 / xr**2
    fitted = a0 + a1 * x + a2 * x * x
    residual = float(np.sum((fitted - lams) ** 2))

    # sanity band: a0 should not stray far beyond the last increment; the
    # absolute floor keeps eigensolver-level noise near zero from flagging
    last, prev = lams[-1], lams[-2]
    band_ok = abs(a0 - last) <= 10.0 * abs(last - prev) + 1e-12
    if not band_ok:
        warnings.warn(
            f"extrapolated a0={a0!r} is outside the sanity band around "
            f"lambda({int(ns[-1])})={last!r}",
            stacklevel=2,
        )
    return ExtrapolationFit(
        a0=float(a0),
        a1=float(a1),
        a2=float(a2),
        residual=residual,
        n_values=tuple(int(n) for n in ns),
        lambda_values=tuple(float(v) for v in lams),
        band_ok=band_ok,
    )


def extrapolated_infimum(
    alpha: float, beta: float, schedule=DEFAULT_SWEEP_SCHEDULE
) -> tuple[float, ExtrapolationFit]:
    """Estimate inf_Psi P at (alpha, beta) by solving along a truncation schedule.

    Runs min_eigen at each N of the schedule in increasing order, each solve
    started from the previous one's eigenvector, fits the quadratic in 1/N
    and returns (a0, fit); fit.rungs holds each solve's N, iterations,
    residual and start.  ExtrapolationError, naming N, if a solve fails or
    lambda rises from one rung to the next by more than rounding.
    """
    schedule = sorted(int(n) for n in schedule)
    if len(schedule) < 4:
        raise ValueError("schedule must contain at least 4 truncation sizes")
    configs = [RingConfig(alpha, beta, n) for n in schedule]  # ValueError before any solve
    points, rungs = [], []
    previous = None
    for config in configs:
        try:
            start = None if previous is None else previous.eigenvector
            result = min_eigen(build_kernel(config), start)
            if previous is not None:
                _check_interlacing(previous, result, config)
        except Exception as exc:
            raise ExtrapolationError(config.n_trunc, exc) from exc
        points.append((config.n_trunc, result.lambda_min))
        rungs.append({
            "n": config.n_trunc,
            "iterations": result.iterations,
            "residual_norm": result.residual_norm,
            "warm_started": result.warm_started,
        })
        previous = result
    fit = replace(fit_quadratic(points), rungs=tuple(rungs))
    return fit.a0, fit


def _check_interlacing(lower, upper, config) -> None:
    """Raise ArithmeticError if upper, the solve at config, rises above lower,
    the solve of a leading block, by more than rounding."""
    rise = upper.lambda_min - lower.lambda_min
    # max|D| = 2 alpha (N - beta)/pi, the certificate's scale, for beta in (-1, 0]
    tol = _INTERLACING_FACTOR * 2.0 * config.alpha * (config.n_trunc - config.beta) / math.pi
    if rise > tol:
        raise ArithmeticError(
            f"lambda({upper.n_trunc}) = {upper.lambda_min!r} exceeds "
            f"lambda({lower.n_trunc}) = {lower.lambda_min!r} by {rise:.3e} > {tol:.3e}; "
            "interlacing makes lambda non-increasing in N"
        )

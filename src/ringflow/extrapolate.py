"""Truncation ladders and their extrapolation in 1/N, for c_ring and c_line alike.

A ladder is (alpha, beta, sizes).  solve_ladder builds the kernel at each
truncation N in sizes and solves them in increasing N, each rung started from
the previous rung's eigenvector: a kernel is a function of its (alpha, beta,
N) alone, and the kernel at N is bitwise the leading block of the kernel at
N' > N, so that start already has Rayleigh quotient lambda(N) at N'.  The
same interlacing says lambda(N') <= lambda(N); a rung that rises above its
predecessor by more than rounding is a failed solve.  fit_inverse_powers fits
a polynomial in x = 1/N by least squares in x centred/scaled to [-1, 1];
naive normal equations in raw x lose digits because x spans [1e-4, 1e-3].
Its a0 is the infinite-N estimate.

The solves add nothing to a0's error bar.  By Kato-Temple a Ritz value with
residual r lies at most r^2/gap above its eigenvalue, gap the distance to the
next one.  At alpha* the kernel has one negative eigenvalue and the gap is
0.92 (N = 400 and 2000), at least 0.06 at every alpha tried; the certified
residuals on the reference schedule are at most 7e-11 (1.4e-11 up to
N = 3000).  So r^2/gap is at most 5e-21 at alpha* (2.2e-22 up to N = 3000)
and below 1e-19 even at a gap of 0.06, against the 1e-11 by which a0
exceeds the variational bound lambda(320000).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .eigen import EigenResult, min_eigen
from .kernel import RingConfig, build_kernel

# Truncation schedule used for the reference high-accuracy table.
REFERENCE_SCHEDULE = (
    800, 1000, 1200, 1400, 1600, 1800, 2000, 2200, 2400,
    3000, 4000, 5000, 6000, 8000, 10000,
)

# Cheaper default for parameter sweeps, where 1e-6 accuracy is plenty.
DEFAULT_SWEEP_SCHEDULE = (400, 600, 800, 1200, 1600)


# lambda(N') may exceed lambda(N), N' > N, by at most this times max|D| at N',
# the certificate's scale, before solve_ladder raises.  Interlacing
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
    # per-rung solver diagnostics for the run manifest, not the data file
    rungs: tuple[dict, ...] = field(default=(), compare=False)


def fit_inverse_powers(sizes, values, degree: int) -> tuple[np.ndarray, float]:
    """Least squares of values on {1, 1/n, ..., 1/n^degree} over the sizes n.

    Returns the coefficients of 1/n^0 .. 1/n^degree and the sum of squared
    fit errors.  Fitted in t, 1/n mapped onto [-1, 1], and expanded back to
    powers of 1/n by Horner's rule; needs degree + 1 distinct sizes.
    """
    x = 1.0 / np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(x) < degree + 1:
        raise ValueError(f"need at least {degree + 1} points for degree {degree}, got {len(x)}")
    if len(set(x)) != len(x):
        raise ValueError("duplicate sizes make the design matrix rank-deficient")
    xm = 0.5 * (x.max() + x.min())
    xr = 0.5 * (x.max() - x.min())
    t = (x - xm) / xr
    c, *_ = np.linalg.lstsq(np.vander(t, degree + 1, increasing=True), values, rcond=None)
    # c_0 + t (c_1 + t (c_2 + ...)) with t = -xm/xr + x/xr, in increasing powers of x
    coeffs = c[-1:]
    for cj in c[-2::-1]:
        coeffs = np.convolve(coeffs, [-xm / xr, 1.0 / xr])
        coeffs[0] += cj
    fitted = sum(a * x**j for j, a in enumerate(coeffs))
    return coeffs, float(np.sum((fitted - values) ** 2))


def fit_quadratic(points) -> ExtrapolationFit:
    """Ordinary least squares of lambda on {1, 1/N, 1/N^2}.

    points: iterable of (N, lambda) pairs, at least 4 distinct N.
    residual is the sum of squared fit errors.
    """
    pts = sorted((int(n), float(lam)) for n, lam in points)
    if len(pts) < 4:
        raise ValueError(f"need at least 4 points for a quadratic fit, got {len(pts)}")
    ns, lams = zip(*pts)
    coeffs, residual = fit_inverse_powers(ns, lams, 2)
    return ExtrapolationFit(*map(float, coeffs), residual, ns, lams)


def solve_ladder(alpha: float, beta: float, sizes) -> tuple[list[EigenResult], tuple[dict, ...]]:
    """Smallest eigenpairs of the kernel at (alpha, beta) truncated at each
    N in sizes, increasing.

    Sizes that do not strictly increase are a ValueError before any kernel
    is built.  Every rung is built before the first solve, so a bad alpha,
    beta or N is a ValueError before any solve.  Each solve after the first
    starts from the previous one's eigenvector.  Returns the results and, per
    rung, its N, iterations, residual and start for the run manifest.
    ExtrapolationError, naming N, if a solve fails or lambda rises from one
    rung to the next by more than rounding.
    """
    sizes = list(sizes)
    if any(n >= m for n, m in zip(sizes, sizes[1:])):
        raise ValueError(f"ladder sizes must strictly increase, got {sizes}")
    kernels = [build_kernel(RingConfig(alpha, beta, n)) for n in sizes]
    results = []
    while kernels:
        # taken off the list, so each kernel's FFT buffers go once it is solved
        kernel = kernels.pop(0)
        n_trunc = kernel.config.n_trunc
        try:
            start = results[-1].eigenvector if results else None
            result = min_eigen(kernel, start)
            if results:
                _check_interlacing(results[-1], result, kernel)
        except Exception as exc:
            raise ExtrapolationError(n_trunc, exc) from exc
        results.append(result)
    return results, tuple(r.diagnostics for r in results)


def extrapolated_infimum(
    alpha: float, beta: float, schedule=DEFAULT_SWEEP_SCHEDULE
) -> tuple[float, ExtrapolationFit]:
    """Estimate inf_Psi P at (alpha, beta) by solving along a truncation schedule.

    Solves the schedule as one ladder, fits the quadratic in 1/N and returns
    (a0, fit); fit.rungs holds the ladder's diagnostics.  ExtrapolationError
    as in solve_ladder.
    """
    results, rungs = solve_ladder(alpha, beta, _check_schedule(schedule))
    fit = replace(fit_quadratic((r.n_trunc, r.lambda_min) for r in results), rungs=rungs)
    return fit.a0, fit


def _check_schedule(schedule) -> list[int]:
    """The schedule sorted; ValueError unless it is at least 4 distinct integers >= 1."""
    sizes = sorted(schedule)
    if not (len(set(sizes)) == len(sizes) >= 4
            and all(isinstance(n, numbers.Integral) and n >= 1 for n in sizes)):
        raise ValueError(f"schedule needs at least 4 distinct sizes n_trunc >= 1, got {sizes}")
    return [int(n) for n in sizes]


def _check_interlacing(lower, upper, kernel) -> None:
    """Raise ArithmeticError if upper, the solve of kernel, rises above lower,
    the solve of a smaller truncation, by more than rounding."""
    rise = upper.lambda_min - lower.lambda_min
    # max|D|, the scale of min_eigen's certificate
    tol = _INTERLACING_FACTOR * np.max(np.abs(kernel.diagonal()))
    if rise > tol:
        raise ArithmeticError(
            f"lambda({upper.n_trunc}) = {upper.lambda_min!r} exceeds "
            f"lambda({lower.n_trunc}) = {lower.lambda_min!r} by {rise:.3e} > {tol:.3e}; "
            "interlacing makes lambda non-increasing in N"
        )

"""Recovery of the straight-line backflow constant from the ring problem.

Two routes to the half-line eigenproblem
(1/pi) int_0^inf dv (u + v) sinc(u^2 - v^2) f(v) = lambda f(u), both through
the ring kernel: with u_m = (m - beta) h and alpha = h^2,
K[m, n] = (h/pi)(u_m + u_n) sinc(u_m^2 - u_n^2) up to rounding (under 3e-13
of the largest entry at n = 4000).  beta = -1/2 is the midpoint Nystrom rule
on (0, (N+1) h], which line_limit_min uses; the small-alpha ring route at
beta = 0 is the left-endpoint rule, with a node at u = 0.

The eigenfunction decays slowly, so the half-line truncation u_max dominates
the error of the Nystrom route: the smallest eigenvalue of the operator cut
off at (0, u_max] follows lambda(U) ~ lambda_inf + a/U + b/U^2 with
a ~ 0.0336, however fine the grid.  line_limit_min removes the leading a/U
term at fixed spacing: the first k = n//2 midpoint nodes span (0, U*k/n],
and their Nystrom matrix is the leading k x k block of the full one, so the
two are one truncation ladder (extrapolate.solve_ladder: 46 LOBPCG
iterations in place of 67 at u_max = 40, n = 4000), and a degree-1 fit in
1/u through its rungs leaves O(1/U^2).  The raw interval eigenvalue,
ring_small_alpha_limit((u_max/n)**2, -0.5, n - 1).lambda_min, is reported
beside it.

Near u_max the phase u_m^2 - u_n^2 steps by about 2 u_max^2/n between nodes.
Against n = 16000 at u_max = 40 the estimate errs by 1.6e-6 at u_max^2/n =
0.4, 6.9e-6 at 0.8, 6.8e-5 at 1.6 and 1.5e-3 at 3.2, so above 1 it warns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .eigen import EigenResult, min_eigen
from .extrapolate import fit_inverse_powers, solve_ladder
from .kernel import RingConfig, build_kernel


@dataclass(frozen=True)
class LineLimitResult:
    """The extrapolated estimate and the interval eigenvalues on (0, u_max]
    and (0, u_half] that it combines, with the ladder's diagnostics (rungs)
    for the run manifest."""

    lambda_min: float
    lambda_interval: float
    lambda_half_interval: float
    u_half: float
    rungs: tuple[dict, ...] = field(default=(), compare=False)


def line_limit_min(u_max: float = 10.0, n_points: int = 2000) -> LineLimitResult:
    """Half-line smallest eigenvalue, with the leading 1/u_max truncation term
    removed; approaches -c_line as the grid is refined and u_max grows.

    The Nystrom matrix on n_points midpoint nodes of (0, u_max] is the ring
    kernel at alpha = (u_max/n_points)^2, beta = -1/2.  lambda(U) on all nodes
    and lambda(U') on the first k = n_points//2, U' = u_max*k/n_points, are
    solved as one ladder, and lambda_min is a0 of a0 + a1/u through them.
    UserWarning when u_max**2/n_points > 1: the grid under-resolves the kernel.
    """
    # checked here: a negative u_max would square to a valid alpha
    if not 0 < u_max < math.inf:
        raise ValueError(f"u_max must be positive and finite, got {u_max!r}")
    if n_points < 2:
        raise ValueError(f"need at least 2 grid points, got {n_points!r}")
    if u_max**2 / n_points > 1:
        warnings.warn(f"u_max**2/n_points = {u_max**2 / n_points:.2f} > 1; the grid "
                      "under-resolves the kernel's oscillation", stacklevel=2)
    h = u_max / n_points
    kernel = build_kernel(RingConfig(h * h, -0.5, n_points - 1))
    k = n_points // 2
    (half, full), rungs = solve_ladder([kernel.leading_block(k), kernel])
    # at fixed h, u is proportional to the node count, and a0 does not see the scale
    (a0, _), _ = fit_inverse_powers([k, n_points], [half.lambda_min, full.lambda_min], 1)
    return LineLimitResult(float(a0), full.lambda_min, half.lambda_min, u_max * k / n_points,
                           rungs)


def ring_small_alpha_limit(alpha: float, beta: float, n_trunc: int) -> EigenResult:
    """The smallest eigenpair of the ring kernel at small alpha; its
    lambda_min tends to -c_line.

    The mode index covers u = m*sqrt(alpha) up to n_trunc*sqrt(alpha), so
    n_trunc must grow like 1/sqrt(alpha) for the limit to be visible.

    beta = 0 is the left-endpoint rule, O(sqrt(alpha)) below the beta = -1/2
    midpoint rule: at alpha = 1e-3, n_trunc = 1000 it gives -0.0394142,
    2.04e-3 below the midpoint value -0.0373757, which lies 1.08e-3 above
    -c_line from truncation at u ~ 31.6; the two errors partly cancel.
    """
    config = RingConfig(alpha, beta, n_trunc)  # validates alpha before its square root
    if n_trunc * math.sqrt(alpha) < 8.0:
        warnings.warn(
            f"n_trunc*sqrt(alpha) = {n_trunc * math.sqrt(alpha):.2f} < 8; "
            "u-coverage too small for the line limit",
            stacklevel=2,
        )
    return min_eigen(build_kernel(config))


"""Recovery of the straight-line backflow constant from the ring problem.

Two independent routes:
  * direct Nystrom discretization of the half-line integral eigenproblem
    (1/pi) int_0^inf dv (u + v) sinc(u^2 - v^2) f(v) = lambda f(u),
  * the small-alpha limit of the ring kernel, where u = m*sqrt(alpha) turns
    the mode sum into a Riemann sum over the same equation.

The eigenfunction decays slowly, so the half-line truncation u_max dominates
the error of the Nystrom route; the observed deficit shrinks roughly like
1/u_max.  Convergence is reported rather than assumed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .eigen import min_eigen
from .kernel import RingConfig, build_kernel, sinc


@dataclass(frozen=True)
class LineGrid:
    """Uniform midpoint grid on (0, u_max]; keeps the Nystrom matrix symmetric
    with uniform weights and avoids the u = 0 endpoint."""

    u_max: float
    n_points: int
    spacing: float = field(init=False)
    nodes: np.ndarray = field(init=False)

    def __post_init__(self):
        if not (self.u_max > 0):
            raise ValueError("u_max must be positive")
        if self.n_points < 2:
            raise ValueError("need at least 2 grid points")
        spacing = self.u_max / self.n_points
        nodes = (np.arange(self.n_points) + 0.5) * spacing
        nodes.setflags(write=False)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "nodes", nodes)


def line_kernel(grid: LineGrid) -> np.ndarray:
    """Nystrom matrix A_ij = (spacing/pi) (u_i + u_j) sinc(u_i^2 - u_j^2)."""
    u = grid.nodes
    usq = u * u
    arg = usq[:, None] - usq[None, :]
    a = (grid.spacing / np.pi) * (u[:, None] + u[None, :]) * sinc(arg)
    a.setflags(write=False)
    return a


def line_limit_min(u_max: float = 10.0, n_points: int = 2000) -> float:
    """Smallest eigenvalue of the Nystrom matrix; approaches -c_line as the
    grid is refined and u_max grows."""
    return min_eigen(line_kernel(LineGrid(u_max, n_points))).lambda_min


def ring_small_alpha_limit(alpha: float, beta: float, n_trunc: int) -> float:
    """lambda_min of the ring kernel at small alpha; tends to -c_line.

    The mode index covers u = m*sqrt(alpha) up to n_trunc*sqrt(alpha), so
    n_trunc must grow like 1/sqrt(alpha) for the limit to be visible.
    """
    if n_trunc * math.sqrt(alpha) < 8.0:
        warnings.warn(
            f"n_trunc*sqrt(alpha) = {n_trunc * math.sqrt(alpha):.2f} < 8; "
            "u-coverage too small for the line limit",
            stacklevel=2,
        )
    return min_eigen(build_kernel(RingConfig(alpha, beta, n_trunc))).lambda_min


def convergence_study(
    u_max: float = 10.0, n_points: int = 500, doublings: int = 3
) -> list[tuple[float, int, float]]:
    """(u_max, n_points, lambda_min) under simultaneous doubling of both."""
    rows = []
    for k in range(doublings + 1):
        um, n = u_max * 2**k, n_points * 2**k
        rows.append((um, n, line_limit_min(um, n)))
    return rows


def write_convergence_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write("u_max,n_points,lambda_min\n")
        for um, n, lam in rows:
            fh.write(f"{um:.17g},{n},{lam:.17g}\n")

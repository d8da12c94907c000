"""Closed-form analysis of two-eigenstate superpositions.

A state built from ring eigenstates m1 < m2 with mixing angle phi and relative
phase gamma has integrated current

    P(phi, gamma) = (alpha/pi) * [A - B*cos(phi) + A*sinc(alpha*A*B)*cos(gamma)*sin(phi)]

with A = m1 + m2 - 2*beta and B = m2 - m1.  The minimum over (phi, gamma) has
a closed form, the smallest eigenvalue of the (m1, m2) principal 2x2 block of
the ring kernel, and so like the kernel it is non-increasing in beta on
(-1, 0].  Minimizing it over alpha at beta = 0 already beats the line bound by
a factor of about 2.6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import _check_alpha, _check_beta_max, canonicalize, sinc


# the beta values of two_mode_curve, a plotting choice
CURVE_BETAS = (0.0, -0.25, -0.5, -0.75, -0.999)


def _check_pair(m1: int, m2: int) -> None:
    if not (0 <= m1 < m2):
        raise ValueError(f"need 0 <= m1 < m2, got ({m1}, {m2})")


@dataclass(frozen=True)
class TwoModeResult:
    p_min: float
    phi_star: float
    gamma_star: float


def two_mode_p(m1, m2, alpha, beta, phi, gamma):
    """Integrated current of the (m1, m2) superposition at given (phi, gamma)."""
    _check_pair(m1, m2)
    _check_alpha(alpha)
    beta, _ = canonicalize(beta)
    a = m1 + m2 - 2.0 * beta
    b = float(m2 - m1)
    return (alpha / np.pi) * (
        a - b * np.cos(phi) + a * sinc(alpha * a * b) * np.cos(gamma) * np.sin(phi)
    )


def two_mode_p_min(m1, m2, alpha, beta):
    """Closed-form min over (phi, gamma): (alpha/pi)(A - sqrt(B^2 + A^2 sinc^2(alpha A B))).

    Vectorized over alpha/beta; beta is assumed already in (-1, 0].
    """
    a = m1 + m2 - 2.0 * np.asarray(beta, dtype=float)
    b = float(m2 - m1)
    alpha = np.asarray(alpha, dtype=float)
    return (alpha / np.pi) * (a - np.sqrt(b * b + a * a * sinc(alpha * a * b) ** 2))


def minimize_two_mode(m1, m2, alpha, beta) -> TwoModeResult:
    """Closed-form minimizer over the superposition parameters (phi, gamma)."""
    _check_pair(m1, m2)
    _check_alpha(alpha)
    beta, _ = canonicalize(beta)
    a = m1 + m2 - 2.0 * beta
    b = float(m2 - m1)
    coupling = a * sinc(alpha * a * b)
    p_min = two_mode_p_min(m1, m2, alpha, beta)
    phi_star = float(np.arctan2(abs(coupling), b))
    # the gamma term enters as +coupling*cos(gamma); pick the sign that lowers P
    gamma_star = np.pi if coupling > 0 else 0.0
    return TwoModeResult(p_min=float(p_min), phi_star=phi_star, gamma_star=float(gamma_star))


def global_two_mode_min(m1: int, m2: int, beta_max: float = 0.0) -> tuple[float, float, float]:
    """Minimize the closed-form two-mode bound over alpha and beta in (-1, beta_max].

    The bound is non-increasing in beta, so beta_star is beta_max and only
    alpha is searched: a coarse grid over alpha/pi in [1e-4, 2], then staged
    local grid refinement.  Returns (alpha_star, beta_star, p_star) with
    p_star resolved to well below 1e-6.  beta_max must lie in (-1, 0],
    otherwise ValueError is raised.
    """
    _check_pair(m1, m2)
    _check_beta_max(beta_max)
    beta = float(beta_max)

    def grid_min(ap_grid):
        p = two_mode_p_min(m1, m2, ap_grid * np.pi, beta)
        i = np.argmin(p)
        return ap_grid[i], float(p[i])

    ap = np.linspace(1e-4, 2.0, 4001)
    da = ap[1] - ap[0]
    a0, p0 = grid_min(ap)
    for stage in range(7):
        span = 2.0 * da / 10**stage
        a0, p0 = grid_min(
            np.linspace(max(a0 - span, 1e-9), min(a0 + span, 2.0), 41)
        )
    return a0 * np.pi, beta, p0


def two_mode_curve(m1, m2, alpha_over_pi_grid):
    """Rows (alpha/pi, beta, p_min) over an alpha grid for each of CURVE_BETAS."""
    _check_pair(m1, m2)
    alpha_over_pi_grid = list(alpha_over_pi_grid)
    if not alpha_over_pi_grid:
        raise ValueError("empty alpha grid")
    if not all(aop > 0 for aop in alpha_over_pi_grid):
        raise ValueError("alpha must be positive on the whole grid")
    rows = []
    for b in CURVE_BETAS:
        bc, _ = canonicalize(b)
        for aop in alpha_over_pi_grid:
            rows.append((float(aop), float(b), float(two_mode_p_min(m1, m2, aop * np.pi, bc))))
    return rows

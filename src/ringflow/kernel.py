"""Backflow kernel for a charged particle on a ring.

The central object is the real symmetric matrix

    K[m, n] = (alpha/pi) * (m + n - 2*beta) * sinc(alpha * (m + n - 2*beta) * (m - n))

whose quadratic form with the mode coefficients gives the time-integrated
probability current through theta = 0.  Everything is dimensionless: alpha
collects the measurement time, mass and ring radius; beta is the magnetic
flux through the ring, canonicalized to (-1, 0].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Below this the Taylor series 1 - z^2/6 + z^4/120 is more accurate than sin(z)/z.
_SINC_TAYLOR_CUTOFF = 1e-4


def sinc(z):
    """sin(z)/z with sinc(0) = 1, safe near zero.

    Accepts scalars or arrays.  Not the numpy convention (no implicit pi).
    """
    z = np.abs(np.asarray(z, dtype=float))
    small = z < _SINC_TAYLOR_CUTOFF
    zsq = np.where(small, z * z, 1.0)
    safe = np.where(small, 1.0, z)
    out = np.where(small, 1.0 - zsq / 6.0 * (1.0 - zsq / 20.0), np.sin(safe) / safe)
    if out.ndim == 0:
        return float(out)
    return out


def canonicalize(beta_raw: float) -> tuple[float, int]:
    """Reduce beta to the canonical interval (-1, 0].

    Returns (beta, shift) with beta = beta_raw - shift and shift = ceil(beta_raw).
    The integrated current is invariant under beta -> beta + 1 together with an
    index shift of the coefficients, so nothing is lost.
    """
    if not math.isfinite(beta_raw):
        raise ValueError(f"beta must be finite, got {beta_raw!r}")
    shift = math.ceil(beta_raw)
    beta = beta_raw - shift
    if beta <= -1.0:
        # beta_raw sits within one rounding step above the integer shift-1, so
        # the subtraction lands on the excluded endpoint; snap to the integer.
        shift -= 1
        beta = 0.0
    return beta, shift


@dataclass(frozen=True)
class RingConfig:
    """Dimensionless problem parameters plus truncation size.

    beta is canonicalized on construction; the applied integer shift is kept
    in beta_shift.  Matrix indices run m = 0..n_trunc.
    """

    alpha: float
    beta: float
    n_trunc: int
    beta_shift: int = field(default=0, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        beta, shift = canonicalize(self.beta)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "beta_shift", shift)
        if not isinstance(self.n_trunc, (int, np.integer)) or self.n_trunc < 1:
            raise ValueError(f"n_trunc must be an integer >= 1, got {self.n_trunc!r}")
        object.__setattr__(self, "n_trunc", int(self.n_trunc))

    @property
    def size(self) -> int:
        return self.n_trunc + 1


@dataclass(frozen=True)
class BackflowKernel:
    config: RingConfig
    entries: np.ndarray

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.entries)


def kernel_entries(alpha: float, beta: float, size: int) -> np.ndarray:
    """K[m, n] for m, n = 0..size-1, the package's one evaluation of the formula.

    beta is taken as given, not canonicalized.  Bitwise symmetric: the sinc
    argument enters through its absolute value, identical for (m, n) and
    (n, m).  Formed in place, so only s and the sinc values outlive sinc.
    """
    m = np.arange(size, dtype=float)
    s = m[:, None] + m[None, :]
    s -= 2.0 * beta
    z = sinc(alpha * s * (m[:, None] - m[None, :]))
    s *= alpha / np.pi
    s *= z
    return s


def build_kernel(config: RingConfig) -> BackflowKernel:
    """Construct the (n_trunc+1) x (n_trunc+1) backflow kernel."""
    entries = kernel_entries(config.alpha, config.beta, config.size)
    entries.setflags(write=False)
    return BackflowKernel(config=config, entries=entries)


def integrated_current(coeffs: np.ndarray, kernel: BackflowKernel) -> float:
    """Quadratic form sum_{m,n} conj(c_m) K[m,n] c_n for a normalized state.

    One matrix-vector product per real and imaginary part and one dot
    product, all in fixed BLAS order, so the result is reproducible across
    runs.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.shape[0] != kernel.size:
        raise ValueError(
            f"coefficient length {c.shape} does not match kernel size {kernel.size}"
        )
    norm_sq = float(np.sum(np.abs(c) ** 2))
    if abs(norm_sq - 1.0) > 1e-10:
        raise ValueError(f"state not normalized: sum |c_m|^2 = {norm_sq!r}")

    k = kernel.entries
    total = np.vdot(c, k @ c.real + 1j * (k @ c.imag))
    if abs(total.imag) > 1e-12:
        raise ArithmeticError(f"quadratic form has imaginary part {total.imag!r}")
    return float(total.real)

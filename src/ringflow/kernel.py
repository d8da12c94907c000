"""Backflow kernel for a charged particle on a ring.

The central object is the real symmetric matrix

    K[m, n] = (alpha/pi) * (m + n - 2*beta) * sinc(alpha * (m + n - 2*beta) * (m - n))

whose quadratic form with the mode coefficients gives the time-integrated
probability current through theta = 0.  Everything is dimensionless: alpha
collects the measurement time, mass and ring radius; beta is the magnetic
flux through the ring, canonicalized to (-1, 0].

With the phases a_m = alpha*(m - beta)^2, the sinc argument is a_m - a_n, so

    K = (1/pi) * (S T C - C T S) + D,

with S = diag(sin a), C = diag(cos a), T the skew Toeplitz matrix 1/(m - n)
(zero diagonal) and D = diag(2*alpha*(m - beta)/pi).  BackflowKernel keeps
only sin a, cos a and D, and applies K through a circulant embedding of T:
one numpy.fft rfft/irfft pair per product, at the smallest 5-smooth length
of at least 2N - 1: O(N log N) time and O(N) memory.  The FFT of the
embedded symbol is computed on the first product and kept; the N x N
entries are built anew on each request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Below this the Taylor series 1 - z^2/6 + z^4/120 is more accurate than sin(z)/z.
_SINC_TAYLOR_CUTOFF = 1e-4
# Elements per block of sinc's in-place sin(z)/z: 512 KB, a multiple of any
# SIMD width, so each element meets the same ufunc loop as in one whole-array call.
_SINC_BLOCK = 1 << 16


def sinc(z):
    """sin(z)/z with sinc(0) = 1, safe near zero.

    Accepts scalars or arrays.  Not the numpy convention (no implicit pi).
    The result is |z| overwritten block by block with sin(|z|)/|z|, and then
    with the Taylor series on the entries below the cutoff: one array the
    size of z, plus a boolean mask.
    """
    out = np.array(z, dtype=float, order="C")
    flat = np.abs(out, out=out).reshape(-1)
    small = flat < _SINC_TAYLOR_CUTOFF
    zsq = flat[small]
    zsq *= zsq
    flat[small] = 1.0
    for start in range(0, flat.size, _SINC_BLOCK):
        block = flat[start:start + _SINC_BLOCK]
        ratio = np.sin(block)
        ratio /= block
        block[...] = ratio
    flat[small] = 1.0 - zsq / 6.0 * (1.0 - zsq / 20.0)
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


def _check_alpha(alpha: float) -> None:
    """Raise ValueError unless alpha is positive and finite."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")


def _check_beta_max(beta_max: float) -> None:
    """Raise ValueError unless beta_max, the upper end of a beta search, lies in (-1, 0]."""
    if not (-1 < beta_max <= 0):
        raise ValueError(f"beta_max must lie in (-1, 0], got {beta_max!r}")


@dataclass(frozen=True)
class RingConfig:
    """Dimensionless problem parameters plus truncation size.

    beta is canonicalized on construction, which sets beta_shift to the
    applied integer shift.  Matrix indices run m = 0..n_trunc.
    """

    alpha: float
    beta: float
    n_trunc: int
    beta_shift: int = field(init=False, default=0, compare=False)

    def __post_init__(self):
        _check_alpha(self.alpha)
        beta, shift = canonicalize(self.beta)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "beta_shift", shift)
        if not isinstance(self.n_trunc, (int, np.integer)) or self.n_trunc < 1:
            raise ValueError(f"n_trunc must be an integer >= 1, got {self.n_trunc!r}")
        object.__setattr__(self, "n_trunc", int(self.n_trunc))

    @property
    def size(self) -> int:
        return self.n_trunc + 1


# Dekker's splitter for exact products of doubles, and 2*pi and 1/(2*pi) as
# sums of two doubles, for the phase reductions in _phase and state.py.
_SPLIT = 134217729.0  # 2**27 + 1
_TWO_PI_HI = 6.283185307179586
_TWO_PI_LO = 2.4492935982947064e-16
_INV_TWO_PI_HI = 0.15915494309189535
_INV_TWO_PI_LO = -9.839338337591243e-18


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    p = a * b
    ca, cb = _SPLIT * a, _SPLIT * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _phase(alpha: float, beta: float, size: int) -> np.ndarray:
    """alpha*(m - beta)^2 reduced to about [-pi, pi], for m = 0..size-1.

    The product is carried in double-double arithmetic and reduced by a
    double-double 2*pi, so the reduced phase is accurate to a few units in
    the last place.  Plain doubles lose |a_m| * 1e-16, 3e-8 at size 1e4.
    """
    m = np.arange(size, dtype=float)
    uh, ul = _two_sum(m, -beta)
    sh, sl = _two_prod(uh, uh)
    sl += 2.0 * uh * ul
    ph, pl = _two_prod(alpha, sh)
    pl += alpha * sl
    hi, lo = _reduce_two_pi(ph, pl)
    return hi + lo


def _reduce_two_pi(ph, pl):
    """The double-double ph + pl reduced by a double-double 2*pi to about
    [-pi, pi], as a double-double (hi, lo); hi is ph less whole turns, exactly."""
    turns = np.rint(ph / _TWO_PI_HI)
    qh, ql = _two_prod(turns, _TWO_PI_HI)
    ql += turns * _TWO_PI_LO
    return ph - qh, pl - ql


def _fft_size(n: int) -> int:
    """The smallest 5-smooth integer >= n: pocketfft is slowest on large prime factors."""
    while True:
        r = n
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return n
        n += 1


@dataclass(frozen=True, eq=False)
class BackflowKernel:
    """The kernel at config's (alpha, beta) on modes m = 0..size-1, as an operator.

    size is config.size for the full kernel and smaller for a leading block.
    Holds sin_phase and cos_phase, sin and cos of the phases a_m, and the
    diagonal.  matvec computes the FFT of T's circulant embedding on first
    request and keeps it, and keeps its FFT work buffers beside it, one set
    per column count k: the zero-padded (2k, L) input, its spectrum and the
    product, about 48*k*L bytes for the FFT length L.  Buffers allocated
    afresh were faulted in on every product from N of about 4000 on: 70 page
    faults a one-column matvec at N = 4000, 464 a three-column one at
    N = 10000, where kept buffers take 0 and 249 (the rest are pocketfft's own
    scratch).  dense() builds the entries anew on each call.
    """

    config: RingConfig
    size: int
    sin_phase: np.ndarray = field(init=False, repr=False)
    cos_phase: np.ndarray = field(init=False, repr=False)
    _diag: np.ndarray = field(init=False, repr=False)
    _circulant: tuple[int, np.ndarray] | None = field(init=False, repr=False, default=None)
    # column count k -> (padded input, spectrum, product), matvec's FFT buffers
    _buffers: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.size <= self.config.size:
            raise ValueError(f"size must be in 1..{self.config.size}, got {self.size!r}")
        alpha, beta = self.config.alpha, self.config.beta
        phase = _phase(alpha, beta, self.size)
        m = np.arange(self.size, dtype=float)
        # the operation order of kernel_entries, so the diagonal is bitwise its own
        diag = (m + m - 2.0 * beta) * (alpha / np.pi)
        arrays = {"sin_phase": np.sin(phase), "cos_phase": np.cos(phase), "_diag": diag}
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def diagonal(self) -> np.ndarray:
        return self._diag

    def matvec(self, x) -> np.ndarray:
        """K @ x, a new array, for x of shape (size,) or (size, k).

        One FFT pair on 2k zero-padded rows [c*x; s*x], along the contiguous
        axis; each row is transformed alone, so a column gives bitwise the
        same numbers alone as in a block.  The work happens in the kernel's
        kept buffers, so matvec is not reentrant: two threads must not call
        it on one kernel at the same time.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self.size:
            raise ValueError(f"need shape ({self.size},) or ({self.size}, k), got {x.shape}")
        n, rows = self.size, x.reshape(self.size, -1).T
        k = rows.shape[0]
        if self._circulant is None:
            # first column of a circulant whose leading size x size block is
            # the skew Toeplitz 1/(pi*(m - n)): t below the diagonal, -t above
            length = _fft_size(2 * n - 1)
            t = 1.0 / (np.pi * np.arange(1, n))
            col = np.zeros(length)
            col[1:n] = t
            col[length - n + 1:] = -t[::-1]
            symbol = np.fft.rfft(col)
            symbol.setflags(write=False)
            object.__setattr__(self, "_circulant", (length, symbol))
        length, symbol = self._circulant
        if k not in self._buffers:
            # only [:, :n] of buf is ever written, so its padding stays zero
            self._buffers[k] = (np.zeros((2 * k, length)),
                                np.empty((2 * k, symbol.size), dtype=complex),
                                np.empty((2 * k, length)))
        buf, spectrum, prod = self._buffers[k]
        np.multiply(rows, self.cos_phase, out=buf[:k, :n])
        np.multiply(rows, self.sin_phase, out=buf[k:, :n])
        np.fft.rfft(buf, out=spectrum)
        spectrum *= symbol
        np.fft.irfft(spectrum, n=length, out=prod)
        out = np.multiply(prod[:k, :n], self.sin_phase)
        cos_term = np.multiply(prod[k:, :n], self.cos_phase, out=prod[k:, :n])
        out -= cos_term
        out += np.multiply(rows, self._diag, out=prod[:k, :n])
        return out[0] if x.ndim == 1 else out.T

    def leading_block(self, k: int) -> "BackflowKernel":
        """The same operator on the first k modes."""
        return BackflowKernel(self.config, k)

    def dense(self) -> np.ndarray:
        """The entries as a read-only size x size array, from kernel_entries."""
        entries = kernel_entries(self.config.alpha, self.config.beta, self.size)
        entries.setflags(write=False)
        return entries


def kernel_entries(alpha: float, beta: float, size: int) -> np.ndarray:
    """K[m, n] for m, n = 0..size-1, the package's one evaluation of the formula.

    beta is taken as given, not canonicalized.  Bitwise symmetric: the sinc
    argument enters through its absolute value, identical for (m, n) and
    (n, m).  Formed in place, and m + n - 2*beta is formed again after sinc
    rather than kept, so at most two size x size arrays are alive at a time.
    """
    m = np.arange(size, dtype=float)

    def index_sum():
        s = m[:, None] + m[None, :]
        s -= 2.0 * beta
        return s

    z = index_sum()
    z *= alpha
    z *= m[:, None] - m[None, :]
    z = sinc(z)
    s = index_sum()
    s *= alpha / np.pi
    s *= z
    return s


def build_kernel(config: RingConfig) -> BackflowKernel:
    """The (n_trunc+1) x (n_trunc+1) backflow kernel as an operator; O(N) memory."""
    return BackflowKernel(config, config.size)


def integrated_current(coeffs: np.ndarray, kernel: BackflowKernel) -> float:
    """Quadratic form sum_{m,n} conj(c_m) K[m,n] c_n for a normalized state.

    One operator product on the real and imaginary parts together and one
    dot product, in a fixed order, so the result is reproducible across runs.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.shape[0] != kernel.size:
        raise ValueError(
            f"coefficient length {c.shape} does not match kernel size {kernel.size}"
        )
    norm_sq = float(np.sum(np.abs(c) ** 2))
    if abs(norm_sq - 1.0) > 1e-10:
        raise ValueError(f"state not normalized: sum |c_m|^2 = {norm_sq!r}")

    kc = kernel.matvec(np.column_stack([c.real, c.imag]))
    total = np.vdot(c, kc[:, 0] + 1j * kc[:, 1])
    if abs(total.imag) > 1e-12:
        raise ArithmeticError(f"quadratic form has imaginary part {total.imag!r}")
    return float(total.real)

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
only sin a, cos a and D, and applies K to one vector at a time through a
circulant embedding of T: one numpy.fft rfft/irfft pair per product, at the
smallest 5-smooth length of at least 2N - 1: O(N log N) time and O(N)
memory.  The FFT of the embedded symbol and one set of FFT work buffers are
made on the first product and kept; the N x N entries are built anew on
each request.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

# Below this the Taylor series 1 - z^2/6 + z^4/120 is more accurate than sin(z)/z.
_SINC_TAYLOR_CUTOFF = 1e-4


def sinc(z):
    """sin(z)/z with sinc(0) = 1, safe near zero.

    Accepts scalars or arrays.  Not the numpy convention (no implicit pi).
    sin(|z|)/|z| in one whole-array pass, then the Taylor series on the
    entries below the cutoff.
    """
    a = np.array(z, dtype=float, ndmin=1)
    np.abs(a, out=a)
    small = a < _SINC_TAYLOR_CUTOFF
    zsq = a[small]
    zsq *= zsq
    a[small] = 1.0
    out = np.sin(a)
    out /= a
    out[small] = 1.0 - zsq / 6.0 * (1.0 - zsq / 20.0)
    if np.ndim(z) == 0:
        return float(out[0])
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
    diagonal.  The first matvec makes the FFT of T's circulant embedding and
    the FFT work buffers, about 48*L bytes for the FFT length L, and keeps
    them: buffers allocated afresh took 70 page faults a product at N = 4000,
    kept ones none.  dense() builds the entries anew on each call.
    """

    config: RingConfig
    size: int
    # a kernel on the same config and at least size modes, whose arrays are
    # sliced instead of computed again (leading_block)
    parent: InitVar[BackflowKernel | None] = None
    sin_phase: np.ndarray = field(init=False, repr=False)
    cos_phase: np.ndarray = field(init=False, repr=False)
    _diag: np.ndarray = field(init=False, repr=False)
    # (symbol, padded input, spectrum, product), made by the first matvec
    _fft: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self, parent):
        most = self.config.size if parent is None else parent.size
        if not 1 <= self.size <= most:
            raise ValueError(f"size must be in 1..{most}, got {self.size!r}")
        if parent is not None:
            # every entry depends on its own m alone, so the slices are
            # bitwise what this size computes
            arrays = {name: getattr(parent, name)[:self.size]
                      for name in ("sin_phase", "cos_phase", "_diag")}
        else:
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
        """K @ x, a new array, for x of shape (size,); ValueError for any other shape.

        One FFT pair on the two zero-padded rows [c*x; s*x], along the
        contiguous axis.  The work happens in the kernel's kept buffers, so
        matvec is not reentrant: two threads must not call it on one kernel
        at the same time.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.size,):
            raise ValueError(f"need shape ({self.size},), got {x.shape}")
        n = self.size
        if self._fft is None:
            # first column of a circulant whose leading size x size block is
            # the skew Toeplitz 1/(pi*(m - n)): t below the diagonal, -t above
            length = _fft_size(2 * n - 1)
            t = 1.0 / (np.pi * np.arange(1, n))
            col = np.zeros(length)
            col[1:n] = t
            col[length - n + 1:] = -t[::-1]
            symbol = np.fft.rfft(col)
            symbol.setflags(write=False)
            # only [:, :n] of the input is ever written, so its padding stays zero
            object.__setattr__(self, "_fft", (
                symbol, np.zeros((2, length)),
                np.empty((2, symbol.size), dtype=complex), np.empty((2, length))))
        symbol, buf, spectrum, prod = self._fft
        np.multiply(x, self.cos_phase, out=buf[0, :n])
        np.multiply(x, self.sin_phase, out=buf[1, :n])
        np.fft.rfft(buf, out=spectrum)
        spectrum *= symbol
        np.fft.irfft(spectrum, n=buf.shape[1], out=prod)
        out = np.multiply(prod[0, :n], self.sin_phase)
        out -= np.multiply(prod[1, :n], self.cos_phase, out=prod[1, :n])
        out += np.multiply(x, self._diag, out=prod[0, :n])
        return out

    def leading_block(self, k: int) -> "BackflowKernel":
        """The same operator on the first k modes, with this kernel's phases
        and diagonal sliced, not computed again."""
        return BackflowKernel(self.config, k, self)

    def dense(self) -> np.ndarray:
        """The entries as a read-only size x size array, from kernel_entries."""
        entries = kernel_entries(self.config.alpha, self.config.beta, self.size)
        entries.setflags(write=False)
        return entries


def kernel_entries(alpha: float, beta: float, size: int) -> np.ndarray:
    """K[m, n] for m, n = 0..size-1, the package's one evaluation of the formula.

    beta is taken as given, not canonicalized.  Bitwise symmetric: the sinc
    argument enters through its absolute value, identical for (m, n) and
    (n, m).  m + n - 2*beta is formed once and scaled in place into the
    result.  Four size x size arrays are alive at the peak, in sinc: the
    program builds only small blocks densely (LOBPCG's start, verify).
    """
    m = np.arange(size, dtype=float)
    s = m[:, None] + m[None, :]
    s -= 2.0 * beta
    z = s * alpha
    z *= m[:, None] - m[None, :]
    z = sinc(z)
    s *= alpha / np.pi
    s *= z
    return s


def build_kernel(config: RingConfig) -> BackflowKernel:
    """The (n_trunc+1) x (n_trunc+1) backflow kernel as an operator; O(N) memory."""
    return BackflowKernel(config, config.size)


def integrated_current(coeffs: np.ndarray, kernel: BackflowKernel) -> float:
    """Quadratic form sum_{m,n} conj(c_m) K[m,n] c_n for a normalized state.

    One operator product on the real part, one on the imaginary part and one
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

    total = np.vdot(c, kernel.matvec(c.real) + 1j * kernel.matvec(c.imag))
    if abs(total.imag) > 1e-12:
        raise ArithmeticError(f"quadratic form has imaginary part {total.imag!r}")
    return float(total.real)

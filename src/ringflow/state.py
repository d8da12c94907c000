"""Backflow-maximizing states and time-resolved probability currents.

Everything is dimensionless: time enters as tau = t/T, currents are reported
as T*J, and mode m evolves with phase 2*alpha*(m - beta)^2 * tau.  The current
at angle theta is evaluated through the O(N)-per-sample reduction

    T*J(theta, tau) = (2*alpha/pi) * Re{ conj(z) * w },
    z = sum_m c_m e^{i m theta} e^{-i 2 alpha (m-beta)^2 tau},
    w = sum_m (m - beta) c_m e^{i m theta} e^{-i 2 alpha (m-beta)^2 tau},

algebraically identical to the double sum over (m, n).

current_series samples z and w, and rz and rw (the sums with r_m c_m,
r_m (m-beta) c_m, r = 2 alpha (m-beta)^2) unless every sample lies on the
exact grid, on the grid tau_k = np.linspace(lo, hi, n)[k] without an
exponential per (sample, mode) pair, by a type-1 nonuniform FFT at every mode
count.

It evaluates the sums at the points t_k = lo + k h of an exact grid of step h
and adds the rest of each sample to first order: tau_k = t_k + eps_k with
eps_k the exact remainder (at most about 1e-16), and z -> z - i eps_k rz (the
same for w).  r reaches 1e7 at N = 2000, so r*eps reaches 1e-9 and the term
matters: on the N = 2000 maximizing state over (-1/2, 1/2), dropping it moves
T*J by up to 1.2e-11.  The second-order term it leaves out is at most

    remainder_bound = (2*alpha/pi) (eps^2/2) (Z_2 W_0 + Z_0 W_2),
    Z_p = sum |c_m| r_m^p,  W_p = sum |m - beta| |c_m| r_m^p,  eps = max |eps_k|,

which the diagnostics record.  It is 1.4e-19 on the N = 2000 state over
(-1.5, 1.5), but grows as alpha^2: on c = (0.6, 0.8, 0) with 4001 samples it
is 1.55e-13 of max|T*J| at alpha = 1e9, 1.55e-7 at 1e12 and 1.55e-3 at 1e14,
each just above the error measured against the closed form.  current_series
warns where it passes _REMAINDER_TOL (1e-8) of max|T*J|.  Where every eps_k
is zero, as for verify's 16385 samples over (-1/2, 1/2) (h = 2^-14), rz and
rw are neither formed nor transformed; T*J is then bitwise what the four
columns give, and the diagnostics say first_order_term = False and
remainder_bound = 0.

Samples are taken in windows of at most _NUFFT_WINDOW_SAMPLES.  In a window
around sample k0, with j = k - k0,

    z(t_k) = sum_m b_m e^{-i j x_m},  b_m = a_m e^{-i r_m (lo + k0 h)},  x_m = r_m h mod 2pi,

a type-1 nonuniform FFT (Dutt & Rokhlin, SIAM J. Sci. Comput. 14 (1993) 1368;
Greengard & Lee, SIAM Rev. 46 (2004) 443).  Each b_m is spread onto a 5-smooth
grid of 4*quarter points, oversampling R = 2 for the 2*quarter outputs, by a
Gaussian of half-width 16 grid points and parameter pi*16/(M^2 R (R - 1/2)),
M = 2*quarter; one FFT per window then gives every output, and dividing by the
Gaussian's Fourier coefficient undoes the spreading.  Each column costs
2*32*N weighted np.bincount entries and one FFT of the grid per window (four
columns, or two on an exact grid), and no BLAS call.  r_m is carried in
double-double from kernel._squares, the kernel's own (m - beta)^2; the start
phases r_m (lo + k0 h) and x_m are reduced mod 2pi in double-double by
kernel._turned, and x_m stays double-double until its offset from the grid
point below it, so no output carries j times the rounding of x_m.  The
reduction holds to 2^52 turns, 2.8e16 rad; a larger r_m h or r_m (lo + k0 h)
is a ValueError naming alpha, theta and the tau range.  The Gaussian's
truncation and aliasing are each below e^{-33} of sum |b_m|.  The division
raises them, and the FFT's rounding, e^{(4 pi/3)(j/quarter)^2}-fold at
output j: 66-fold at the band edge |j| = quarter.  So quarter is at least
3/4 of the window's samples, which keeps every output used within
|j| <= 2 quarter/3, at most 6.4-fold.

Measured against each phase r_m*tau formed exactly from alpha, beta and
tau and reduced mod 2pi in 40 digits, at the samples checked: the N = 2000
maximizing state over (-1.5, 1.5) with 4001 samples is within 9e-16; six 127-mode states with
coefficients decaying as 1/m^1.5, over (-7.3, 12.9) with 3 to 9001 samples,
within 1.8e-14; 400 random states of 2 to 16 modes sampled twice (one output
at j = -1) within 4.3e-14.  The same sums with each phase rounded to a
double, fl(r_m*tau), are up to 1.6e-10 off on those 127-mode states.  On
c = (0.6, 0.8, 0) at beta = -0.3 with 129 samples over (-1/2, 1/2), T*J is
within 1.3e-15 of 2 alpha/pi of 50-digit values at alpha = 1.16, 1e6 and 1e9;
r_m rounded to a double put it 1.8e-10 off at 1e6 and 1.9e-7 at 1e9.
On c = (0.6, 0, 0.8) on exact grids over (-1.5, 1.5) the closed form
(2 alpha/pi)(1.28 + 0.96 cos 8 alpha tau) is matched to 4.1e-15 of
2 alpha/pi with 5 to 4097 samples at alpha = 1e11 to 1e15 and with 257 and
2049 samples at 1e17, and to 1.2e-13 at alpha = 1e18 with 2049 samples,
where x_m reaches 1.2e16 rad.

Working memory is about 0.2 kB a mode, 0.2 kB a window sample, at most
0.4 MB for the spread's weights, grid points and products, and the grid
offsets of all samples, formed once: 8 bytes a sample, about 50 while they
are computed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .eigen import _phase_normalize, min_eigen
from .kernel import (
    RingConfig,
    _INV_TWO_PI_HI,
    _INV_TWO_PI_LO,
    _check_alpha,
    _fft_size,
    _phase_guard,
    _squares,
    _turned,
    _two_prod,
    _two_sum,
    build_kernel,
    canonicalize,
)
from .manifest import _read_lines, _write_csv


@dataclass(frozen=True)
class ModeAmplitudes:
    """Normalized mode coefficients of a nonnegative-angular-momentum state."""

    coeffs: np.ndarray
    alpha: float
    beta: float
    lambda_min: float | None = None
    # how maximizing_state's eigensolve went (EigenResult.diagnostics)
    solve: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        _check_alpha(self.alpha)
        c = np.asarray(self.coeffs, dtype=complex)
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        norm_sq = float(np.sum(np.abs(c) ** 2))
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"coefficients not normalized: sum |c_m|^2 = {norm_sq!r}")
        c = _phase_normalize(c)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def n_trunc(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class CurrentSeries:
    tau_samples: np.ndarray
    tj_values: np.ndarray
    theta: float
    # how the series was evaluated, for the run manifest, not the data file:
    # method "nufft" with its windows, grid length and spread half-width, and
    # whether the first-order term ran (false when every tau is on the grid)
    diagnostics: dict = field(default_factory=dict)


# The nonuniform FFT's spread half-width in grid points, and the most
# samples one transform serves (its window).
_NUFFT_SPREAD = 16
_NUFFT_WINDOW_SAMPLES = 4096

# The spread's weights, grid points and products are formed a few grid steps
# at a time, at most this many elements (128 KB) each, not for all 32 steps of
# every mode at once: a state of up to 512 modes takes all steps in one pass,
# one of 2001 modes 8 at a time.  All at once, they raised the state-current
# benchmark's peak_rss_mb by 1.1 MB (medians of 10 alternated pairs each).
# The 4001-sample series takes the same time either way; a 32001-sample one,
# whose eight windows each form the weights again, about 25% longer
# (24 -> 30 ms).
_SPREAD_ELEMENTS = 1 << 14

# make_state divides coefficients by their norm unless it is within this of
# 1.  A solved state's norm is 1 to a few units in the last place; dividing by
# it would move every coefficient by rounding alone, so a state file read back
# would not be the state that was written.
_UNIT_NORM_TOL = 1e-14

# current_series warns where the remainder_bound passes this share of
# max|T*J|: 1e-8, the scale to which the benchmark checks the current.
_REMAINDER_TOL = 1e-8


def make_state(coeffs, alpha: float, beta: float) -> ModeAmplitudes:
    """Normalize raw coefficients (norm and overall phase) into a state.

    Coefficients whose norm is already within _UNIT_NORM_TOL of 1 keep their
    values; others are divided by their norm.
    """
    c = np.asarray(coeffs, dtype=complex)
    if not np.all(np.isfinite(c)):  # before the norm, which they would turn into nan
        raise ValueError("coefficients must be finite")
    n = np.linalg.norm(c)
    if n == 0:
        raise ValueError("zero coefficient vector")
    beta, _ = canonicalize(beta)
    if abs(n - 1.0) > _UNIT_NORM_TOL:
        c = c / n
    return ModeAmplitudes(coeffs=c, alpha=alpha, beta=beta)


def maximizing_state(alpha: float, beta: float, n_trunc: int) -> ModeAmplitudes:
    """Eigenvector of the smallest kernel eigenvalue as a mode-amplitude state.

    The kernel is real symmetric, so the coefficients come out real.
    """
    config = RingConfig(alpha, beta, n_trunc)
    result = min_eigen(build_kernel(config))
    return ModeAmplitudes(
        coeffs=result.eigenvector.astype(complex),
        alpha=config.alpha,
        beta=config.beta,
        lambda_min=result.lambda_min,
        solve=result.diagnostics,
    )


def mean_energy(state: ModeAmplitudes) -> float:
    """Dimensionless mean energy <E>T/hbar = 2 alpha sum_m |c_m|^2 (m - beta)^2."""
    m = np.arange(len(state.coeffs))
    return float(2.0 * state.alpha * np.sum(np.abs(state.coeffs) ** 2 * (m - state.beta) ** 2))


def current_series(
    state: ModeAmplitudes,
    theta: float,
    tau_range: tuple[float, float],
    n_samples: int,
) -> CurrentSeries:
    """Sample T*J(theta, tau) on an evenly spaced tau grid by a nonuniform FFT."""
    lo, hi = tau_range
    if not all(math.isfinite(x) for x in (theta, lo, hi)):
        raise ValueError(f"theta and the tau range must be finite: {theta}, ({lo}, {hi})")
    if not (hi > lo):
        raise ValueError(f"empty tau range ({lo}, {hi})")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    m = np.arange(len(state.coeffs))
    # the phases m*theta and r_m*tau may overflow, or pass the turns _turned reduces
    where = f"alpha = {state.alpha!r}, theta = {theta!r} and tau in ({lo!r}, {hi!r})"
    with _phase_guard(where):
        tau = np.linspace(lo, hi, n_samples)
        # r_m = 2 alpha (m - beta)^2 in double-double, from the kernel's squares;
        # alpha, not 2 alpha, goes through Dekker's splitter (finite to 1.3e300)
        squares, squares_err = _squares(state.beta, len(m))
        rate, rate_err = _two_prod(state.alpha, squares)
        rate_err += state.alpha * squares_err
        c_theta = state.coeffs * np.exp(1j * m * theta)
        amps = np.stack([c_theta, (m - state.beta) * c_theta], axis=1)
        tj, diagnostics = _nufft_series(amps, 2.0 * rate, 2.0 * rate_err, tau,
                                        2.0 * state.alpha / np.pi)
    bound, peak = diagnostics["remainder_bound"], np.max(np.abs(tj))
    if bound > _REMAINDER_TOL * peak:
        warnings.warn(f"remainder_bound = {bound:.2g} exceeds {_REMAINDER_TOL:g} of max|T*J| = "
                      f"{peak:.2g}: off the exact tau grid the samples are corrected to first "
                      "order only; a tau step of a power of 2 puts them on it", stacklevel=2)
    return CurrentSeries(tau_samples=tau, tj_values=tj, theta=theta, diagnostics=diagnostics)


def _nufft_series(amps, phase_rate, rate_err, tau, scale):
    """(T*J at every tau, the transform's settings and remainder_bound), from
    one Gaussian-gridding type-1 nonuniform FFT per window of samples.  amps
    holds the z and w columns; the rz and rw columns, r = phase_rate +
    rate_err (a double-double), join them only when some tau lies off the
    exact grid lo + k h."""
    n_samples, n_modes = len(tau), len(phase_rate)
    lo, h = tau[0], (tau[-1] - tau[0]) / (n_samples - 1)  # np.linspace's step
    eps = _grid_offsets(tau, lo, h)
    first_order = bool(eps.any())
    if first_order:
        amps = np.concatenate([amps, phase_rate[:, None] * amps], axis=1)
    columns = amps.shape[1]
    windows = -(-n_samples // _NUFFT_WINDOW_SAMPLES)
    width = -(-n_samples // windows)  # samples a window; the last may have fewer
    # A transform gives the outputs j = -quarter .. quarter-1 from a grid of
    # 4*quarter points; a window of samples k sits at j = k - k0 around its
    # centre k0.  The Gaussian's parameter is pi*spread / (M^2 R (R - 1/2))
    # for M = 2*quarter outputs and the oversampling R = 2.  quarter is at
    # least 3/4 of the window's samples, so every |j| <= 2*quarter/3, where
    # the deconvolution raises rounding at most 6.4-fold (66-fold at quarter).
    quarter = _fft_size(-(-3 * width // 4))
    grid, spread = 4 * quarter, _NUFFT_SPREAD
    gauss = math.pi * spread / (3.0 * (2 * quarter) ** 2)
    # Each mode's frequency x_m = r_m h mod 2pi, in grid steps of 2pi/grid, is
    # spread to the 2*spread grid points around it with Gaussian weights.
    # x_m is carried in double-double up to its offset from the grid point
    # below it, so it is placed to about 1e-16 of a step, and output j does
    # not carry the j-fold rounding error of x_m rounded to a double.
    x_hi, x_lo = _turned(phase_rate, h, rate_err=rate_err)
    per_radian, per_radian_err = _two_prod(float(grid), _INV_TWO_PI_HI)
    per_radian_err += grid * _INV_TWO_PI_LO
    x, x_err = _two_prod(x_hi, per_radian)
    x_err += x_hi * per_radian_err + x_lo * per_radian
    below = np.floor(x)
    fraction = (x - below) + x_err
    below = below.astype(np.intp) % grid
    del x_hi, x_lo, x, x_err
    decay = -(2.0 * math.pi / grid) ** 2 / (4.0 * gauss)  # per squared step
    # the steps -spread+1 .. spread are taken `rows` at a time (see _SPREAD_ELEMENTS)
    rows = max(1, min(2 * spread, _SPREAD_ELEMENTS // n_modes))
    weights = np.empty((rows, n_modes))
    index = np.empty((rows, n_modes), dtype=np.intp)
    spreading = np.empty_like(weights)
    # The grid is multiplied by i^xi = e^{2 pi i quarter xi / grid}, exactly,
    # which moves output j to FFT bin j + quarter; each output is divided by
    # the Gaussian's Fourier coefficient sqrt(gauss/pi) e^{-j^2 gauss} and by grid.
    j = np.arange(-quarter, quarter)
    deconvolve = np.exp(j * (j * gauss)) * (math.sqrt(math.pi / gauss) / grid)
    turned = np.empty((columns, n_modes), dtype=complex)
    parts = np.empty((columns, 2, n_modes))  # Re and Im of each turned column
    gridded = np.empty((columns, grid), dtype=complex)
    planes = gridded.view(float).reshape(columns, grid, 2)
    by_quarter = gridded.reshape(columns, quarter, 4)
    tj = np.empty(n_samples)
    for first in range(0, n_samples, width):
        last = min(first + width, n_samples)
        centre = first + (last - first) // 2
        # turn the amplitudes by e^{-i r_m tau_c} at tau_c = lo + centre*h,
        # carried in double-double and reduced mod 2pi
        offset, offset_err = _two_prod(float(centre), h)
        start, start_err = _two_sum(lo, offset)
        phase, _ = _turned(phase_rate, start, start_err + offset_err, rate_err)
        np.multiply(amps.T, np.cos(phase) - 1j * np.sin(phase), out=turned)
        np.copyto(parts[:, 0], turned.real)
        np.copyto(parts[:, 1], turned.imag)
        planes.fill(0.0)
        for step in range(1 - spread, spread + 1, rows):
            steps = np.arange(step, min(step + rows, spread + 1))[:, None]
            count = len(steps)
            weight, point, product = weights[:count], index[:count], spreading[:count]
            np.subtract(fraction, steps, out=weight)
            weight *= weight
            weight *= decay
            np.exp(weight, out=weight)
            np.add(below, steps, out=point)
            point %= grid
            for q in range(columns):
                for part in range(2):
                    np.multiply(weight, parts[q, part], out=product)
                    planes[q, :, part] += np.bincount(point.ravel(), product.ravel(),
                                                      minlength=grid)
        by_quarter[:, :, 1] *= 1j
        by_quarter[:, :, 2] *= -1.0
        by_quarter[:, :, 3] *= -1j
        np.fft.fft(gridded, out=gridded)
        bins = slice(quarter + first - centre, quarter + last - centre)
        values = gridded[:, bins]
        values *= deconvolve[bins]
        z, w = values[:2]
        z_re, z_im, w_re, w_im = z.real, z.imag, w.real, w.imag
        if first_order:
            # z - i eps rz and w - i eps rw: the first-order remainder term
            rz, rw = values[2:]
            offsets = eps[first:last]
            z_re = z_re + offsets * rz.imag
            z_im = z_im - offsets * rz.real
            w_re = w_re + offsets * rw.imag
            w_im = w_im - offsets * rw.real
        tj[first:last] = scale * (z_re * w_re + z_im * w_im)
    # The leading term the first-order one leaves out bounds the error of
    # every sample: with Z_p = sum |c_m| r_m^p and W_p = sum |m - beta| |c_m| r_m^p,
    # scale * (eps^2/2) (Z_2 W_0 + Z_0 W_2) at eps = max |eps_k|, 0 on an exact grid.
    sizes = np.abs(amps[:, :2])
    reach = (np.max(np.abs(eps)) * phase_rate) ** 2
    (z0, w0), (z2, w2) = sizes.sum(axis=0), (reach[:, None] * sizes).sum(axis=0)
    diagnostics = {"method": "nufft", "windows": windows, "grid_length": grid,
                   "spread_half_width": spread, "first_order_term": first_order,
                   "remainder_bound": float(scale * 0.5 * (z2 * w0 + z0 * w2))}
    return tj, diagnostics


def _grid_offsets(tau: np.ndarray, lo: float, h: float) -> np.ndarray:
    """tau_k - (lo + k h) for k = 0, 1, ..., with tau - lo (TwoSum) and k h
    (TwoProduct) carried exactly, so the difference is rounded once in
    effect: the two leading parts agree to a few units and cancel exactly."""
    k = np.arange(len(tau), dtype=float)
    product, product_err = _two_prod(k, h)
    diff, diff_err = _two_sum(tau, -lo)
    return (diff - product) + (diff_err - product_err)


def time_quadrature_p(state: ModeAmplitudes, n_samples: int) -> float:
    """Composite-Simpson integral of T*J(0, tau) over tau in [-1/2, 1/2].

    Independent quadrature oracle for the kernel quadratic form; n_samples
    must be odd.
    """
    if n_samples < 3 or n_samples % 2 == 0:
        raise ValueError(f"composite Simpson needs an odd n_samples >= 3, got {n_samples}")
    series = current_series(state, 0.0, (-0.5, 0.5), n_samples)
    h = 1.0 / (n_samples - 1)
    weights = np.ones(n_samples)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    # np.sum, not np.dot: OpenBLAS threads a ddot above 10000 elements where it
    # has worker threads (numpy loaded before ringflow, or more threads asked for)
    return float(h / 3.0 * np.sum(weights * series.tj_values))


def write_state_csv(state: ModeAmplitudes, path) -> None:
    lam = "" if state.lambda_min is None else f" lambda_min={state.lambda_min:.17g}"
    head = (f"# alpha={state.alpha:.17g} beta={state.beta:.17g} "
            f"n_trunc={state.n_trunc}{lam}\nm,re_c,im_c\n")
    c = state.coeffs
    _write_csv(path, head, np.arange(len(c)), c.real, c.imag)


def read_state_csv(path) -> ModeAmplitudes:
    """The state in a file write_state_csv wrote: a '# key=value ...' header
    with alpha and beta, the column line m,re_c,im_c, then one row per mode.

    The rows must run m = 0..n-1 in order and a header n_trunc, when given,
    must be n - 1; otherwise ValueError names the file and the line.  The file
    is UTF-8, with or without a leading byte-order mark; one that cannot be
    read or decoded raises ValueError naming it.
    """
    lines = _read_lines(path, "state")
    header = None
    body = len(lines)
    for number, line in enumerate(lines):
        if line.startswith("#"):
            header, header_line = {}, number + 1
            for tok in line[1:].split():
                key, sep, value = tok.partition("=")
                if not sep:
                    raise ValueError(f"state file {path} header token {tok!r} is not key=value")
                header[key] = value
        elif line and not line.startswith("m,"):
            body = number
            break
    if header is None:
        raise ValueError(f"state file {path} has no header line")
    missing = [key for key in ("alpha", "beta") if key not in header]
    if missing:
        raise ValueError(f"state file {path} header lacks {', '.join(missing)}")
    values = _coefficient_rows(path, lines, body)
    _check_mode_rows(path, lines, body, values[:, 0])
    last_mode = str(len(values) - 1)
    if header.get("n_trunc", last_mode) != last_mode:
        raise ValueError(f"state file {path} line {header_line}: n_trunc={header['n_trunc']} "
                         f"but the file has {len(values)} mode rows")
    coeffs = np.empty(len(values), dtype=complex)
    coeffs.real, coeffs.imag = values[:, 1], values[:, 2]
    try:
        return make_state(coeffs, float(header["alpha"]), float(header["beta"]))
    except ValueError as exc:
        raise ValueError(f"state file {path}: {exc}") from None


def _check_mode_rows(path, lines, body, modes) -> None:
    """ValueError naming the file and the first row whose m is not its index."""
    wrong = np.flatnonzero(modes != np.arange(len(modes)))
    if wrong.size:
        row = wrong[0]
        # the lines np.loadtxt read as rows: it skips blank and '#' lines
        numbers = [number for number, line in enumerate(lines[body:], body + 1)
                   if line.strip() and not line.startswith("#")]
        raise ValueError(f"state file {path} line {numbers[row]}: m = {modes[row]:g} in the "
                         f"row of mode {row}; rows must run m = 0..n-1 in order")


def _coefficient_rows(path, lines, body) -> np.ndarray:
    """lines[body:] as an (n, 3) array of m, re_c, im_c, parsed in one
    np.loadtxt call; a ValueError names the file and the first bad line."""
    rows = lines[body:]
    reason = "rows are not m,re_c,im_c"
    try:
        values = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.empty((0, 3))
        if values.shape[1] == 3:
            return values
    except ValueError as exc:
        reason = str(exc)
    for number, line in enumerate(rows, body + 1):
        if not line.strip() or line.startswith("#"):  # loadtxt skips these too
            continue
        try:
            fields = [float(field) for field in line.split(",")]
        except ValueError:
            fields = []
        if len(fields) != 3:
            raise ValueError(f"state file {path} line {number} is not three numbers: {line!r}")
    raise ValueError(f"state file {path}: {reason}")


def write_series_csv(series: CurrentSeries, path) -> None:
    first, last = series.tau_samples[0], series.tau_samples[-1]
    head = f"# theta={series.theta:.17g} window=({first:.17g},{last:.17g})\ntau,tj\n"
    _write_csv(path, head, series.tau_samples, series.tj_values)

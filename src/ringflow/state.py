"""Backflow-maximizing states and time-resolved probability currents.

Everything is dimensionless: time enters as tau = t/T, currents are reported
as T*J, and mode m evolves with phase 2*alpha*(m - beta)^2 * tau.  The current
at angle theta is evaluated through the O(N)-per-sample reduction

    T*J(theta, tau) = (2*alpha/pi) * Re{ conj(z) * w },
    z = sum_m c_m e^{i m theta} e^{-i 2 alpha (m-beta)^2 tau},
    w = sum_m (m - beta) c_m e^{i m theta} e^{-i 2 alpha (m-beta)^2 tau},

algebraically identical to the double sum over (m, n).

The evolution factors are not exponentiated per (sample, mode) pair.  The tau
grid is cut into blocks of B = isqrt(n_samples) samples; a sample in the block
that starts at tau_s is tau_k = tau_s + o_j + eps_k, with o_j = fl(j*h) for the
grid step h and eps_k the exact remainder (TwoSum; at most about 1e-16), so

    e^{-i r tau_k} = e^{-i r tau_s} * e^{-i r o_j} * e^{-i r eps_k},  r = 2 alpha (m-beta)^2.

The table E[j, m] = e^{-i r_m o_j} is built once per series (B*N cos and sin
pairs), each block adds one length-N turn vector e^{-i r_m tau_s} and one
block product, and the last factor enters to first order,
z -> z - i eps_k * sum_m E[j, m] e^{-i r_m tau_s} r_m c_m (the same for w).
Its second-order term (r*eps)^2/2 is below the rounding of fl(r*tau) itself.
On the N = 2000 maximizing state over (-1/2, 1/2), dropping the correction
moves T*J by up to 2e-11 (at tau = 1/2); with it, the series matches an
exact-phase evaluation to 1e-12.

The block product is real.  The table is kept as rows cos(r o_j), sin(r o_j)
(2B x N), and the turned amplitudes a_m e^{-i r_m tau_s}, a = c, w, r c, r w,
as the N x 8 real (Re, Im) view of their complex array, with no copy; one
(2k x N)(N x 8) product then gives every Re = cos.Re + sin.Im and
Im = cos.Im - sin.Re of the block's k samples.  OpenBLAS hands a real product
to its worker threads from m*n*k of about 1e6 (a complex one from about 2e5),
and a woken worker busy-waits on a second core, so the modes are cut into
chunks that keep each product within _SERIAL_GEMM_MNK: every series runs on
the calling thread.  Blocks are evaluated in spans of about _SPAN_SAMPLES
samples: the products fill the span's sums, then the remainder term and T*J
run over the whole span, so the working memory does not grow with n_samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .eigen import EigenResult, min_eigen
from .kernel import RingConfig, _two_sum, build_kernel, canonicalize


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
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
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
    # samples per block, modes per matrix product and the number of products
    diagnostics: dict = field(default_factory=dict)


# OpenBLAS runs a real matrix product (dgemm) on the calling thread while
# m*n*k stays below about 1.0e6; above that it wakes its worker threads, which
# then busy-wait between calls and bill a second core.  Measured with numpy
# 2.4.6 and OpenBLAS 0.3.31 (Haswell kernels) on 2 cores, 200 products after a
# 0.5 s idle: (63 x 3900)(3900 x 4), m*n*k = 0.98e6, took 0.016 s with no CPU
# on other threads; (63 x 4001)(4001 x 4), 1.01e6, took 1.15 s, 0.56 s of it on
# another thread.  A complex zgemm threads from about 2e5.  current_series cuts
# the modes of every block product so that its m*n*k stays at most this.
_SERIAL_GEMM_MNK = 800_000

# current_series evaluates about this many samples at a time (whole blocks, at
# least one), so its working memory stays at about 128 bytes a sample of that
# span, not of the series: 32001 samples would otherwise hold 4 MB of sums.
_SPAN_SAMPLES = 1024


def _phase_normalize(c: np.ndarray) -> np.ndarray:
    for x in c:
        if abs(x) > 1e-12:
            return c * (np.conj(x) / abs(x))
    return c.copy()


def make_state(coeffs, alpha: float, beta: float) -> ModeAmplitudes:
    """Normalize raw coefficients (norm and overall phase) into a state."""
    c = np.asarray(coeffs, dtype=complex)
    if not np.all(np.isfinite(c)):  # before the norm, which they would turn into nan
        raise ValueError("coefficients must be finite")
    n = np.linalg.norm(c)
    if n == 0:
        raise ValueError("zero coefficient vector")
    beta, _ = canonicalize(beta)
    return ModeAmplitudes(coeffs=c / n, alpha=alpha, beta=beta)


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
    """Sample T*J(theta, tau) on an evenly spaced tau grid (block-factorized phases)."""
    lo, hi = tau_range
    if not all(math.isfinite(x) for x in (theta, lo, hi)):
        raise ValueError(f"theta and the tau range must be finite: {theta}, ({lo}, {hi})")
    if not (hi > lo):
        raise ValueError(f"empty tau range ({lo}, {hi})")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    tau = np.linspace(lo, hi, n_samples)
    n_modes = len(state.coeffs)
    m = np.arange(n_modes)
    phase_rate = 2.0 * state.alpha * (m - state.beta) ** 2
    c_theta = state.coeffs * np.exp(1j * m * theta)
    w_coeff = (m - state.beta) * c_theta
    amps = np.stack([c_theta, w_coeff, phase_rate * c_theta, phase_rate * w_coeff], axis=1)
    diagnostics = _block_plan(n_samples, n_modes)
    block, chunk = diagnostics["block_samples"], diagnostics["mode_chunk"]
    offsets = np.arange(block) * ((hi - lo) / (n_samples - 1))
    # rows 2j and 2j+1: cos and sin of r_m o_j, so E[j] = table[2j] - i table[2j+1]
    table = np.empty((block, 2, n_modes))
    phase = np.outer(offsets, phase_rate)
    np.cos(phase, out=table[:, 0])
    np.sin(phase, out=table[:, 1])
    del phase
    table = table.reshape(2 * block, n_modes)
    # A span of whole blocks is evaluated at a time: its block products fill
    # sums, then the remainder term and T*J run over all its samples at once.
    # sums[i] = [table[2j] @ x, table[2j+1] @ x] for sample i = start + j, with
    # x the block's turned amplitudes read as N rows of (Re, Im) pairs of z, w,
    # rz and rw, so Re = sums[i, 0, 2q] + sums[i, 1, 2q+1] and
    # Im = sums[i, 0, 2q+1] - sums[i, 1, 2q] for the q-th of them.
    span = block * max(1, _SPAN_SAMPLES // block)
    span_offsets = np.tile(offsets, span // block)
    sums = np.empty((min(span, n_samples), 2, 8))
    tj = np.empty(n_samples)
    turn = np.empty(n_modes, dtype=complex)
    rotated = np.empty_like(amps)
    rows = rotated.view(float)
    for first in range(0, n_samples, span):
        last = min(first + span, n_samples)
        for start in range(first, last, block):
            k = min(block, last - start)
            x = phase_rate * -tau[start]
            np.cos(x, out=turn.real)
            np.sin(x, out=turn.imag)
            np.multiply(amps, turn[:, None], out=rotated)
            out = sums[start - first : start - first + k].reshape(2 * k, 8)
            np.matmul(table[: 2 * k, :chunk], rows[:chunk], out=out)
            for mode in range(chunk, n_modes, chunk):
                out += table[: 2 * k, mode : mode + chunk] @ rows[mode : mode + chunk]
        width = last - first
        eps = _remainder(
            tau[first:last], np.repeat(tau[first:last:block], block)[:width], span_offsets[:width]
        )
        # z - i eps rz and w - i eps rw: the first-order remainder term
        c, s = sums[:width, 0].T, sums[:width, 1].T
        z_re = c[0] + s[1] + eps * (c[5] - s[4])
        z_im = c[1] - s[0] - eps * (c[4] + s[5])
        w_re = c[2] + s[3] + eps * (c[7] - s[6])
        w_im = c[3] - s[2] - eps * (c[6] + s[7])
        tj[first:last] = (2.0 * state.alpha / np.pi) * (z_re * w_re + z_im * w_im)
    return CurrentSeries(tau_samples=tau, tj_values=tj, theta=theta, diagnostics=diagnostics)


def _block_plan(n_samples: int, n_modes: int) -> dict:
    """Samples per block (isqrt(n_samples)), modes per matrix product, so that
    each product's m*n*k = (2*block)*chunk*8 stays within _SERIAL_GEMM_MNK,
    and the number of products a series makes."""
    block = math.isqrt(n_samples)
    chunk = max(1, _SERIAL_GEMM_MNK // (16 * block))
    products = -(-n_samples // block) * -(-n_modes // chunk)
    return {"block_samples": block, "mode_chunk": chunk, "blas_products": products}


def _remainder(tau: np.ndarray, tau_s: float, offsets: np.ndarray) -> np.ndarray:
    """tau - tau_s - offsets, with tau - tau_s carried exactly by TwoSum."""
    diff, err = _two_sum(tau, -tau_s)
    return (diff - offsets) + err


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
    # np.sum, not np.dot: OpenBLAS threads a ddot above 10000 elements
    return float(h / 3.0 * np.sum(weights * series.tj_values))


def _format_rows(row: str, *columns) -> str:
    """Every row of the columns formatted by row, in one % operation on
    Python floats (%d prints an integer-valued one as an int); the same bytes
    as formatting row by row, at about half the time on a 4001-row series."""
    values = np.column_stack(columns).ravel().tolist()
    return (row * len(columns[0])) % tuple(values)


def write_state_csv(state: ModeAmplitudes, path) -> None:
    lam = "" if state.lambda_min is None else f" lambda_min={state.lambda_min:.17g}"
    with open(path, "w") as fh:
        fh.write(
            f"# alpha={state.alpha:.17g} beta={state.beta:.17g} "
            f"n_trunc={state.n_trunc}{lam}\n"
        )
        fh.write("m,re_c,im_c\n")
        c = state.coeffs
        fh.write(_format_rows("%d,%.17g,%.17g\n", np.arange(len(c)), c.real, c.imag))


def read_state_csv(path) -> ModeAmplitudes:
    """The state in a file write_state_csv wrote: a '# key=value ...' header
    with alpha and beta, the column line m,re_c,im_c, then one row per mode.

    The rows must run m = 0..n-1 in order and a header n_trunc, when given,
    must be n - 1; otherwise ValueError names the file and the line.
    """
    lines = Path(path).read_text().splitlines()
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
    with open(path, "w") as fh:
        first, last = series.tau_samples[0], series.tau_samples[-1]
        fh.write(f"# theta={series.theta:.17g} window=({first:.17g},{last:.17g})\n")
        fh.write("tau,tj\n")
        fh.write(_format_rows("%.17g,%.17g\n", series.tau_samples, series.tj_values))

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ringflow import (
    ModeAmplitudes,
    RingConfig,
    build_kernel,
    current_series,
    integrated_current,
    make_state,
    maximizing_state,
    mean_energy,
    minimize_two_mode,
    time_quadrature_p,
)
from ringflow import state as state_mod
from ringflow.state import (
    CurrentSeries,
    _block_plan,
    _remainder,
    read_state_csv,
    write_series_csv,
    write_state_csv,
)
from ringflow.verify import decay_exponent, quadrature_deviation, random_state

from conftest import ALPHA_STAR, needs_openblas_threads, other_threads_cpu_s


def literal_double_sum_current(state, theta, tau):
    """Direct O(N^2) evaluation of the mode double sum for T*J(theta, tau)."""
    c = state.coeffs
    m = np.arange(len(c))
    phases = np.exp(1j * m * theta) * np.exp(
        -2j * state.alpha * (m - state.beta) ** 2 * tau
    )
    total = 0.0
    for mm in range(len(c)):
        for nn in range(len(c)):
            total += (
                (mm + nn - 2 * state.beta)
                * np.conj(c[mm] * phases[mm])
                * c[nn]
                * phases[nn]
            ).real
    return state.alpha / math.pi * total


def exact_phase_current(state, theta, tau):
    """T*J(theta, tau) with each phase r_m*tau formed as a rational and reduced
    mod 2*pi in 40-digit arithmetic, so the evolution factors carry no phase error."""
    import mpmath

    m = np.arange(len(state.coeffs))
    rate = 2.0 * state.alpha * (m - state.beta) ** 2
    c_theta = state.coeffs * np.exp(1j * m * theta)
    with mpmath.workdps(40):
        two_pi = 2 * mpmath.pi
        phases = []
        for r in rate:
            p = Fraction(float(r)) * Fraction(float(tau))
            phases.append(float(mpmath.fmod(mpmath.mpf(p.numerator) / p.denominator, two_pi)))
    evol = np.exp(-1j * np.array(phases))
    z = evol @ c_theta
    w = evol @ ((m - state.beta) * c_theta)
    return 2.0 * state.alpha / math.pi * float(np.real(np.conj(z) * w))


class TestModeAmplitudes:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            from ringflow import ModeAmplitudes

            ModeAmplitudes(coeffs=np.array([1.0, 1.0]), alpha=1.0, beta=0.0)

    def test_phase_convention(self):
        c = np.array([0.0, 1j, 1.0]) / math.sqrt(2)
        state = make_state(c, 1.0, 0.0)
        first = state.coeffs[np.abs(state.coeffs) > 1e-12][0]
        assert first.imag == pytest.approx(0.0, abs=1e-15)
        assert first.real > 0

    def test_make_state_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            make_state(np.zeros(4), 1.0, 0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0, 0.0])
    def test_alpha_positive_and_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            make_state(np.array([1.0, 0.0]), alpha, 0.0)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            ModeAmplitudes(coeffs=np.array([1.0, 0.0]), alpha=alpha, beta=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_coefficients_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            make_state(np.array([1.0, bad]), 1.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            ModeAmplitudes(coeffs=np.array([1.0, bad]), alpha=1.0, beta=0.0)


class TestMaximizingState:
    def test_trivial_at_alpha_pi(self):
        state = maximizing_state(math.pi, 0.0, 50)
        assert abs(state.coeffs[0]) == pytest.approx(1.0, abs=1e-10)
        assert state.lambda_min == pytest.approx(0.0, abs=1e-12)

    def test_reference_state_quadratic_form(self, maximizing_state_2000):
        kern = build_kernel(RingConfig(ALPHA_STAR, 0.0, 2000))
        p = integrated_current(maximizing_state_2000.coeffs, kern)
        assert p == pytest.approx(-0.11681564340085021, abs=1e-9)

    def test_reference_state_coefficient_decay(self, maximizing_state_2000):
        assert decay_exponent(maximizing_state_2000.coeffs) > 2


class TestDecayExponent:
    def test_envelope_exponent(self):
        # per-mode exponents log(c_0/|c_m|)/log(m) at m = 2, 3 are 2 and 3
        assert decay_exponent([1.0, 0.5, 0.25, 1 / 27]) == pytest.approx(2.0, rel=1e-15)
        assert decay_exponent([1.0, 0.0, 0.0]) == math.inf
        assert decay_exponent([0.5, -0.5, 0.0]) == -math.inf

    def test_threshold_two_is_the_relation(self):
        # the relation written out, mode by mode
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            c = rng.standard_normal(n) / np.arange(1, n + 1) ** rng.uniform(0, 4)
            want = all(abs(c[m]) < abs(c[0]) / m**2 for m in range(1, n))
            assert (decay_exponent(c) > 2) == want


class TestMeanEnergy:
    def test_reference_value(self, maximizing_state_2000):
        assert mean_energy(maximizing_state_2000) == pytest.approx(0.3855, abs=2e-3)

    def test_stability_against_larger_truncation(self, maximizing_state_2000):
        bigger = maximizing_state(ALPHA_STAR, 0.0, 3000)
        assert mean_energy(bigger) == pytest.approx(
            mean_energy(maximizing_state_2000), abs=1e-4
        )

    def test_ground_mode_zero(self):
        c = np.zeros(4)
        c[0] = 1.0
        assert mean_energy(make_state(c, 2.0, 0.0)) == 0.0

    def test_single_excited_mode(self):
        c = np.zeros(4)
        c[1] = 1.0
        assert mean_energy(make_state(c, math.pi, 0.0)) == pytest.approx(2 * math.pi)


class TestCurrentSeries:
    def test_single_mode_constant(self):
        c = np.zeros(5)
        c[2] = 1.0
        state = make_state(c, math.pi, 0.0)
        for theta in (0.0, 1.3):
            series = current_series(state, theta, (-0.5, 0.5), 64)
            assert np.allclose(series.tj_values, 4.0, atol=1e-12)

    def test_double_sum_vs_reduction(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            state = make_state(
                random_state(rng, n),
                float(rng.uniform(0.2, 5.0)),
                float(rng.uniform(-0.9, 0.0)),
            )
            for _ in range(2):
                theta = float(rng.uniform(0, 2 * math.pi))
                tau = float(rng.uniform(-1, 1))
                series = current_series(state, theta, (tau, tau + 1.0), 2)
                assert series.tj_values[0] == pytest.approx(
                    literal_double_sum_current(state, theta, tau), abs=1e-13
                )

    @pytest.mark.parametrize("n_samples", [2, 3, 63**2 - 1, 63**2, 63**2 + 1])
    def test_block_remainders(self, n_samples):
        # Blocks hold isqrt(n_samples) samples: these counts give one-sample
        # blocks, a full last block, and last blocks of one and of B - 1 samples.
        # alpha, beta and the tau grid are multiples of 2^-6 and 2^-12, so every
        # phase r*tau is exact in both evaluations and 1e-13 tests the block
        # bookkeeping alone; with arbitrary doubles the rounding of r*tau near
        # 3e3 moves either evaluation by up to 2.5e-12 from the exact phases.
        block = math.isqrt(n_samples)
        last = (n_samples - 1) // block * block
        rng = np.random.default_rng(n_samples)
        for _ in range(3):
            n = int(rng.integers(2, 13))
            state = make_state(
                random_state(rng, n),
                int(rng.integers(13, 321)) / 64,
                -int(rng.integers(0, 58)) / 64,
            )
            theta = float(rng.uniform(0, 2 * math.pi))
            lo = int(rng.integers(-64, 65)) / 64
            series = current_series(state, theta, (lo, lo + (n_samples - 1) / 4096), n_samples)
            picks = {0, block - 1, block, last - 1, last, n_samples - 1}
            for i in sorted(k for k in picks if 0 <= k < n_samples):
                assert series.tj_values[i] == pytest.approx(
                    literal_double_sum_current(state, theta, series.tau_samples[i]), abs=1e-13
                )

    def test_exact_phase_reference_full_size(self, maximizing_state_2000):
        # first and last sample of three blocks (B = 63), and tau = 0.5, where
        # dropping the first-order remainder term moves T*J most (2e-11)
        n_samples = 4001
        series = current_series(maximizing_state_2000, 0.0, (-0.5, 0.5), n_samples)
        assert series.tau_samples[-1] == 0.5
        for i in (0, 62, 2016, 2078, 3969, 4000):
            exact = exact_phase_current(maximizing_state_2000, 0.0, series.tau_samples[i])
            assert series.tj_values[i] == pytest.approx(exact, abs=1e-11)

    def test_exact_phase_reference_many_chunks(self, maximizing_state_2000):
        # 32001 samples: eight transforms of 4001 samples (the last of 3994);
        # samples near the start of the first and the end of the last, among
        # them tau = -0.5 and 0.5
        n_samples = 32001
        series = current_series(maximizing_state_2000, 0.0, (-0.5, 0.5), n_samples)
        assert series.diagnostics == {"method": "nufft", "windows": 8, "grid_length": 8100,
                                      "spread_half_width": 16}
        for i in (0, 177, 178, 355, 31862, 32000):
            exact = exact_phase_current(maximizing_state_2000, 0.0, series.tau_samples[i])
            assert series.tj_values[i] == pytest.approx(exact, abs=1e-11)

    def test_exact_phase_reference_default_window(self, maximizing_state_2000):
        # the CLI's window: both ends tau = -1.5 and 1.5, where r*tau is
        # largest, and the centre of the one transform, where its output j = 0
        n_samples = 4001
        series = current_series(maximizing_state_2000, 0.0, (-1.5, 1.5), n_samples)
        assert (series.tau_samples[0], series.tau_samples[-1]) == (-1.5, 1.5)
        for i in (0, 1, 1000, 2000, 2001, 3999, 4000):
            exact = exact_phase_current(maximizing_state_2000, 0.0, series.tau_samples[i])
            assert series.tj_values[i] == pytest.approx(exact, abs=1e-12)
        assert series.diagnostics["method"] == "nufft"

    @pytest.mark.parametrize("offset", [-1, 0], ids=["blocks-below", "nufft-from"])
    def test_methods_agree_at_the_crossover(self, monkeypatch, offset):
        # states of _NUFFT_MIN_MODES - 1 and _NUFFT_MIN_MODES modes, each
        # evaluated by the method the mode count picks and by the other one,
        # over two transform windows; exact grids as in test_block_remainders
        n_modes = state_mod._NUFFT_MIN_MODES + offset
        rng = np.random.default_rng(n_modes)
        m = np.arange(n_modes)
        state = make_state(random_state(rng, n_modes) / (1 + m), 77 / 64, -13 / 64)
        window = (-0.5, -0.5 + 6000 / 4096)
        picked = current_series(state, 0.9, window, 6001)
        assert ("method" in picked.diagnostics) == (offset == 0)
        monkeypatch.setattr(state_mod, "_NUFFT_MIN_MODES", n_modes + 1 if offset == 0 else n_modes)
        other = current_series(state, 0.9, window, 6001)
        assert ("method" in other.diagnostics) == (offset != 0)
        assert np.max(np.abs(picked.tj_values - other.tj_values)) <= 1e-12
        for i in (0, 3000, 3001, 6000):
            assert picked.tj_values[i] == pytest.approx(
                literal_double_sum_current(state, 0.9, picked.tau_samples[i]), abs=1e-12
            )

    @pytest.mark.parametrize("chunk", [1, 2, 5, 12])
    def test_mode_chunk_edges(self, monkeypatch, chunk):
        # products of 1, 2, 5 and 12 modes on states of 2..13 modes, so sums run
        # across chunk edges and most end on a shorter chunk; blocks of 64 in
        # spans of 1024 samples, the last of one sample; exact grids as in
        # test_block_remainders, so 1e-13 tests the chunk, block and span
        # bookkeeping alone
        n_samples = 64**2 + 1
        monkeypatch.setattr(state_mod, "_SERIAL_GEMM_MNK", 16 * 64 * chunk)
        rng = np.random.default_rng(chunk)
        for _ in range(3):
            n = int(rng.integers(2, 14))
            state = make_state(
                random_state(rng, n),
                int(rng.integers(13, 321)) / 64,
                -int(rng.integers(0, 58)) / 64,
            )
            theta = float(rng.uniform(0, 2 * math.pi))
            series = current_series(state, theta, (-0.5, -0.5 + (n_samples - 1) / 4096), n_samples)
            assert series.diagnostics == {"block_samples": 64, "mode_chunk": chunk,
                                          "blas_products": 65 * -(-n // chunk)}
            for i in (0, 63, 64, 1023, 1024, 4095, 4096):
                assert series.tj_values[i] == pytest.approx(
                    literal_double_sum_current(state, theta, series.tau_samples[i]), abs=1e-13
                )

    @pytest.mark.parametrize("n_samples", [2, 4001, 32001, 10**6, 10**9])
    def test_products_stay_under_the_threading_floor(self, n_samples):
        # a product is (2 * block samples) x chunk times chunk x 8
        plan = _block_plan(n_samples, 10001)
        assert plan["block_samples"] == math.isqrt(n_samples)
        assert 16 * plan["block_samples"] * plan["mode_chunk"] <= state_mod._SERIAL_GEMM_MNK

    def test_block_remainder_exact(self):
        # with an endpoint near 0, tau - tau_s is not always a double; the
        # remainder is still the exact rational tau - tau_s - o_j, rounded once
        tau = np.linspace(1e-9, 1.0, 4001)[:63]
        offsets = np.arange(63) * ((1.0 - 1e-9) / 4000)
        eps = _remainder(tau, tau[0], offsets)
        for e, t, o in zip(eps, tau, offsets):
            exact = Fraction(t) - Fraction(tau[0]) - Fraction(o)
            assert abs(Fraction(e) - exact) <= abs(exact) * 2**-53
        assert np.any(tau - tau[0] - offsets != eps)

    def test_empty_range_rejected(self):
        state = make_state(np.array([1.0, 0.0]), 1.0, 0.0)
        with pytest.raises(ValueError):
            current_series(state, 0.0, (0.5, 0.5), 10)

    def test_continuity_equation(self):
        # d/dtau |Psi|^2 + d/dtheta (T*J) = 0, checked by central differences
        rng = np.random.default_rng(17)
        state = make_state(random_state(rng, 6), 1.7, -0.3)
        m = np.arange(6)

        def density(theta, tau):
            amp = np.sum(
                state.coeffs
                * np.exp(1j * m * theta - 2j * state.alpha * (m - state.beta) ** 2 * tau)
            ) / math.sqrt(2 * math.pi)
            return abs(amp) ** 2

        def tj(theta, tau):
            return current_series(state, theta, (tau, tau + 1.0), 2).tj_values[0]

        theta0, tau0 = 0.83, 0.21
        errors = []
        for h in (1e-3, 5e-4, 2.5e-4):
            ddt = (density(theta0, tau0 + h) - density(theta0, tau0 - h)) / (2 * h)
            ddtheta = (tj(theta0 + h, tau0) - tj(theta0 - h, tau0)) / (2 * h)
            # T*J differentiates in theta; density differentiates in tau = t/T
            errors.append(abs(ddt + ddtheta))
        # residual is pure central-difference truncation, so it shrinks ~h^2
        assert errors[0] < 1e-3
        assert errors[2] < errors[0] / 8

    def test_probability_conservation(self):
        rng = np.random.default_rng(2)
        state = make_state(random_state(rng, 9), 2.2, -0.6)
        # Parseval: the integral of |Psi|^2 over the ring is the coefficient norm
        assert np.sum(np.abs(state.coeffs) ** 2) == pytest.approx(1.0, abs=1e-13)


@needs_openblas_threads
def test_series_leave_blas_threads_idle(maximizing_state_2000):
    # A complex block product (zgemm) wakes OpenBLAS's worker threads from
    # m*n*k of about 2e5, a real one from about 1e6 and a ddot above 10000
    # elements; the worker then busy-waits between calls.  Every product of
    # current_series stays below, and Simpson's sum over 16385 samples is no ddot.
    wide = make_state(random_state(np.random.default_rng(3), 10001), ALPHA_STAR, 0.0)
    current_series(maximizing_state_2000, 0.0, (-0.5, 0.5), 101)
    time.sleep(0.5)  # longer than OpenBLAS's spin, so a woken worker sleeps again
    cpu0, t0 = other_threads_cpu_s(), time.perf_counter()
    for state, n_samples in ((maximizing_state_2000, 4001), (maximizing_state_2000, 32001),
                             (wide, 4001)):
        current_series(state, 0.0, (-1.5, 1.5), n_samples)
    time_quadrature_p(make_state(random_state(np.random.default_rng(4), 9), 1.1, -0.3), 16385)
    wall = time.perf_counter() - t0
    assert other_threads_cpu_s() - cpu0 <= 0.1 * wall


class TestTimeQuadrature:
    def test_constant_integrand_exact(self):
        c = np.zeros(3)
        c[1] = 1.0
        state = make_state(c, math.pi, 0.0)
        for n in (3, 11, 101):
            assert time_quadrature_p(state, n) == pytest.approx(2.0, abs=1e-13)

    def test_even_samples_rejected(self):
        state = make_state(np.array([1.0, 0.0]), 1.0, 0.0)
        with pytest.raises(ValueError):
            time_quadrature_p(state, 100)

    def test_matches_quadratic_form(self):
        rng = np.random.default_rng(8)
        alpha = 0.37 * math.pi
        worst = quadrature_deviation(
            rng, 1, alphas=(alpha, alpha), betas=(-0.3, -0.3), n_modes=(8, 9), samples=16385
        )
        assert worst <= 1e-8

    def test_matches_two_mode_optimum(self):
        alpha, beta = 1.1, -0.35
        res = minimize_two_mode(0, 1, alpha, beta)
        c = np.array(
            [math.cos(res.phi_star / 2), math.sin(res.phi_star / 2) * np.exp(1j * res.gamma_star)]
        )
        state = make_state(c, alpha, beta)
        assert time_quadrature_p(state, 16385) == pytest.approx(res.p_min, abs=1e-8)

    def test_simpson_convergence_order(self):
        rng = np.random.default_rng(14)
        state = make_state(random_state(rng, 6), 2.6, -0.4)
        kern = build_kernel(RingConfig(state.alpha, state.beta, 5))
        exact = integrated_current(state.coeffs, kern)
        errs = [abs(time_quadrature_p(state, n) - exact) for n in (65, 129, 257)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(o > 3.0 for o in orders)


class TestCsvExports:
    def test_state_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        state = make_state(random_state(rng, 5), 1.5, -0.25)
        path = tmp_path / "state.csv"
        write_state_csv(state, path)
        loaded = read_state_csv(path)
        assert np.allclose(loaded.coeffs, state.coeffs, atol=1e-12)
        assert loaded.alpha == state.alpha
        assert loaded.beta == state.beta

    def test_solved_state_roundtrip(self, tmp_path):
        # a file as write_state_csv writes it, n_trunc in the header and rows
        # m = 0..n_trunc, passes read_state_csv's mode-row checks unchanged
        state = maximizing_state(1.2, -0.3, 60)
        path = tmp_path / "state.csv"
        write_state_csv(state, path)
        assert path.read_text().splitlines()[0].split()[3] == "n_trunc=60"
        loaded = read_state_csv(path)
        assert (loaded.n_trunc, loaded.alpha, loaded.beta) == (60, state.alpha, state.beta)
        assert np.max(np.abs(loaded.coeffs - state.coeffs)) <= 1e-15

    def test_series_csv(self, tmp_path):
        c = np.zeros(3)
        c[1] = 1.0
        series = current_series(make_state(c, math.pi, 0.0), 0.0, (-0.5, 0.5), 5)
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        lines = path.read_text().splitlines()
        assert lines[1] == "tau,tj"
        assert len(lines) == 7

    def test_writers_match_row_by_row_formatting(self, tmp_path):
        special = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
                   1e-300, 1.7976931348623157e308, 1e16, 1e17, 123456789012345678.0, 0.1, -1 / 3]
        tau = np.array(special)
        tj = np.array(special[::-1])
        write_series_csv(CurrentSeries(tau, tj, -0.0), tmp_path / "series.csv")
        rows = "".join(f"{t:.17g},{j:.17g}\n" for t, j in zip(tau, tj))
        lines = (tmp_path / "series.csv").read_text().splitlines(keepends=True)
        assert lines[0] == "# theta=-0 window=(-0,-0.33333333333333331)\n"
        assert "".join(lines[2:]) == rows

        c = np.array([-0.0, 5e-324 - 1e-300j, 0.6, -0.8j, 1e-17 + 0.0j])
        state = make_state(c, 1.5, -0.25)
        write_state_csv(state, tmp_path / "state.csv")
        rows = "".join(f"{m},{x.real:.17g},{x.imag:.17g}\n" for m, x in enumerate(state.coeffs))
        assert "".join((tmp_path / "state.csv").read_text().splitlines(keepends=True)[2:]) == rows

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ringflow import (
    ModeAmplitudes,
    RingConfig,
    build_kernel,
    cli,
    current_series,
    integrated_current,
    make_state,
    maximizing_state,
    mean_energy,
    minimize_two_mode,
    time_quadrature_p,
)
import ringflow.state as state_module
from ringflow.state import (
    CurrentSeries,
    read_state_csv,
    write_series_csv,
    write_state_csv,
)
from ringflow.sweep import SweepRecord
from ringflow.twomode import two_mode_curve
from ringflow.verify import decay_exponent, quadrature_deviation, random_state

from conftest import (
    ALPHA_STAR,
    exact_phases,
    literal_double_sum_current,
    needs_openblas_threads,
    other_threads_cpu_s,
)


def exact_phase_current(state, theta, tau):
    """T*J(theta, tau) through the z*w reduction, with exact phases."""
    m = np.arange(len(state.coeffs))
    c_theta = state.coeffs * np.exp(1j * m * theta)
    evol = np.exp(-1j * exact_phases(state, tau))
    z = evol @ c_theta
    w = evol @ ((m - state.beta) * c_theta)
    return 2.0 * state.alpha / math.pi * float(np.real(np.conj(z) * w))


def fifty_digit_current(state, taus):
    """T*J(0, tau) at each tau through the z*w reduction in 50-digit
    arithmetic, each phase formed as a rational from the doubles alpha, beta
    and tau."""
    import mpmath

    alpha, beta = Fraction(state.alpha), Fraction(state.beta)
    values = []
    with mpmath.workdps(50):
        for tau in taus:
            z = w = mpmath.mpc(0)
            for m, c in enumerate(state.coeffs):
                phase = 2 * alpha * (m - beta) ** 2 * Fraction(float(tau))
                phase = mpmath.mpf(phase.numerator) / phase.denominator
                term = mpmath.expj(-phase) * mpmath.mpc(c.real, c.imag)
                z += term
                w += (m - mpmath.mpf(state.beta)) * term
            scale = 2 * mpmath.mpf(state.alpha) / mpmath.pi
            values.append(float(scale * (mpmath.conj(z) * w).real))
    return np.array(values)


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
    def test_exact_grid_samples(self, n_samples):
        # One window of 2, 3 or about 3969 samples on states of 2..12 modes:
        # both ends, and each side of stride = isqrt(n_samples) and of the last
        # multiple of stride.  alpha, beta and the tau grid are multiples of
        # 2^-6 and 2^-12, so every phase r*tau is exact in doubles as well,
        # and tau_k lies on the grid lo + k h
        stride = math.isqrt(n_samples)
        last = (n_samples - 1) // stride * stride
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
            picks = {0, stride - 1, stride, last - 1, last, n_samples - 1}
            for i in sorted(k for k in picks if 0 <= k < n_samples):
                assert series.tj_values[i] == pytest.approx(
                    literal_double_sum_current(state, theta, series.tau_samples[i]), abs=1e-13
                )

    def test_exact_phase_reference_full_size(self, maximizing_state_2000):
        # both ends, among them tau = 0.5, where dropping the first-order
        # remainder term moves T*J most (1.2e-11), and samples between
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
        diagnostics = dict(series.diagnostics)
        assert 0 < diagnostics.pop("remainder_bound") < 1e-18
        assert diagnostics == {"method": "nufft", "windows": 8, "grid_length": 12288,
                               "spread_half_width": 16, "first_order_term": True}
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

    @pytest.mark.parametrize("n_modes", [8, 2001])
    def test_exact_grid_drops_first_order_term(self, monkeypatch, n_modes):
        # h = 1/128 and 1/16384: every tau_k is -0.5 + k h exactly, so only
        # z and w are transformed, and T*J is bitwise what the four columns
        # give with every offset zero
        m = np.arange(n_modes)
        state = make_state(random_state(np.random.default_rng(n_modes), n_modes)
                           / (1 + m) ** 1.5, 1.3, -0.3)
        for n_samples in (129, 16385):
            series = current_series(state, 0.7, (-0.5, 0.5), n_samples)
            assert series.diagnostics["first_order_term"] is False
            for i in (0, 1, n_samples // 2, n_samples - 1):
                assert series.tj_values[i] == pytest.approx(
                    literal_double_sum_current(state, 0.7, series.tau_samples[i]), abs=1e-12)

            class Offsets(np.ndarray):
                def any(self, *args, **kwargs):
                    return True  # zero offsets taken as if some were not

            offsets = state_module._grid_offsets
            monkeypatch.setattr(state_module, "_grid_offsets",
                                lambda *args: offsets(*args).view(Offsets))
            four = current_series(state, 0.7, (-0.5, 0.5), n_samples)
            monkeypatch.undo()
            assert four.diagnostics["first_order_term"] is True
            assert np.array_equal(four.tj_values, series.tj_values)
        off_grid = current_series(state, 0.7, (-0.5, 0.5), 101)
        assert off_grid.diagnostics["first_order_term"] is True

    def test_phases_exact_far_from_zero(self):
        # 127 modes over (-7.3, 12.9), where r*tau reaches 1.3e6: phases
        # rounded to doubles put up to 5e-11 on T*J, double-double ones none.
        # Both ends, both sides of the window edges (three windows of 3001
        # samples) and samples between
        m = np.arange(127)
        rng = np.random.default_rng(127)
        state = make_state(random_state(rng, 127) / (1 + m) ** 1.5, 3.1, -0.3)
        series = current_series(state, 0.9, (-7.3, 12.9), 9001)
        assert (series.tau_samples[0], series.tau_samples[-1]) == (-7.3, 12.9)
        for i in (0, 1, 3000, 3001, 4500, 6001, 6002, 6750, 8999, 9000):
            assert series.tj_values[i] == pytest.approx(
                exact_phase_current(state, 0.9, series.tau_samples[i]), abs=1e-13
            )

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


def two_mode_closed_form(coeffs, alpha, tau):
    """T*J(0, tau) of c_0 + c_k at beta = 0, k the second nonzero mode,
    (2 alpha/pi)(k c_k^2 + k c_0 c_k cos(2 alpha k^2 tau)), in 40 digits."""
    import mpmath

    k = int(np.flatnonzero(coeffs)[1])
    c0, ck = coeffs[0], coeffs[k]
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        return np.array([float(2 * a / mpmath.pi * (k * ck**2 + k * c0 * ck
                                                    * mpmath.cos(2 * a * k**2 * mpmath.mpf(t))))
                         for t in tau])


class TestLargePhases:
    """Phases up to 2^52 turns on exact grids, and the bound on the
    second-order term off them."""

    @pytest.mark.parametrize("coeffs, alpha, n_samples, tol", [
        ((0.6, 0.8, 0.0), 1e15, 5, 4e-16),
        # x_m = r_m h reaches 1.2e15 rad; the reduced pair's low part, left
        # unnormalized, moved each mode hundreds of grid steps off its place
        ((0.6, 0.0, 0.8), 1e17, 2049, 4e-15),
    ], ids=["5-samples", "2049-samples"])
    def test_exact_grid_matches_closed_form(self, coeffs, alpha, n_samples, tol):
        # on the grid nothing is left out, so nothing warns, however large alpha
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = current_series(make_state(np.array(coeffs), alpha, 0.0), 0.0,
                                    (-1.5, 1.5), n_samples)
        assert series.diagnostics["first_order_term"] is False
        assert series.diagnostics["remainder_bound"] == 0.0
        exact = two_mode_closed_form(coeffs, alpha, series.tau_samples)
        assert np.max(np.abs(series.tj_values - exact)) <= tol * (2 * alpha / math.pi)

    @pytest.mark.parametrize("alpha", [1.16, 1e6, 1e9])
    def test_rate_off_integer_beta_matches_50_digits(self, alpha):
        # at beta = -0.3 the rate 2 alpha (m - beta)^2 is no double; rounded
        # to one, it put T*J off by 1.1e-10 of 2 alpha/pi at alpha = 1e6 and
        # 1.1e-7 at 1e9.  h = 1/128 keeps every sample on the exact grid.
        state = make_state(np.array([0.6, 0.8, 0.0]), alpha, -0.3)
        series = current_series(state, 0.0, (-0.5, 0.5), 129)
        exact = fifty_digit_current(state, series.tau_samples)
        assert np.max(np.abs(series.tj_values - exact)) <= 1e-14 * (2 * alpha / math.pi)

    @pytest.mark.parametrize("alpha, warns", [(1e9, False), (1e10, False), (1e12, True),
                                               (1e14, True)])
    def test_remainder_bound_covers_the_error(self, alpha, warns):
        # 4001 samples over (-1.5, 1.5) lie off the exact grid by up to 2.2e-16;
        # the bound lies a few percent above the error, which grows as alpha^2
        coeffs = (0.6, 0.8, 0.0)
        state = make_state(np.array(coeffs), alpha, 0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            series = current_series(state, 0.0, (-1.5, 1.5), 4001)
        bound = series.diagnostics["remainder_bound"]
        error = np.max(np.abs(series.tj_values - two_mode_closed_form(coeffs, alpha,
                                                                      series.tau_samples)))
        assert error <= bound <= 1.1 * error
        assert [str(w.message).startswith(f"remainder_bound = {bound:.2g} exceeds 1e-08 of")
                for w in caught] == ([True] if warns else [])
        assert all(w.category is UserWarning for w in caught)

    @pytest.mark.parametrize("tau_range, n_samples", [((-1.5, 1.5), 4001), ((-0.5, 0.5), 32001)])
    def test_benchmark_state_does_not_warn(self, maximizing_state_2000, tau_range, n_samples):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = current_series(maximizing_state_2000, 0.0, tau_range, n_samples)
        assert 0 < series.diagnostics["remainder_bound"] < 1e-18

    @pytest.mark.parametrize("theta, tau_range, reason", [
        (1e308, (-1.5, 1.5), "overflow encountered in multiply"),
        (0.0, (-1e300, 1e300), "a phase of 4e+300 rad is past the 2^52 turns"),
    ], ids=["theta", "tau-range"])
    def test_refusal_names_alpha_theta_and_tau_range(self, theta, tau_range, reason):
        # theta or the tau range is out of range, not alpha = 1: the message names all three
        state = make_state(np.array([0.6, 0.8, 0.0]), 1.0, 0.0)
        with pytest.raises(ValueError) as caught:
            current_series(state, theta, tau_range, 5)
        assert str(caught.value).startswith(
            f"the phases at alpha = 1.0, theta = {theta!r} and tau in "
            f"({tau_range[0]!r}, {tau_range[1]!r}) overflow ({reason}")

@needs_openblas_threads
def test_series_leave_blas_threads_idle(maximizing_state_2000):
    # OpenBLAS wakes its worker threads for a complex matrix product from
    # m*n*k of about 2e5, a real one from about 1e6 and a ddot above 10000
    # elements; the worker then busy-waits between calls.  current_series makes
    # no BLAS call (np.bincount and pocketfft), and Simpson's sum over 16385
    # samples is no ddot.
    wide = make_state(random_state(np.random.default_rng(3), 10001), ALPHA_STAR, 0.0)
    current_series(maximizing_state_2000, 0.0, (-0.5, 0.5), 101)
    time.sleep(0.5)  # longer than OpenBLAS's spin, so a woken worker sleeps again
    cpu0, t0 = other_threads_cpu_s(), time.perf_counter()
    # the quadrature first, so a worker it woke would spin through the series
    time_quadrature_p(make_state(random_state(np.random.default_rng(4), 9), 1.1, -0.3), 16385)
    for state, n_samples in ((maximizing_state_2000, 4001), (maximizing_state_2000, 32001),
                             (wide, 4001)):
        current_series(state, 0.0, (-1.5, 1.5), n_samples)
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

    @pytest.mark.parametrize("n", [50, 300], ids=["blocks", "nufft"])
    def test_state_file_route_matches_in_process(self, tmp_path, n):
        # the state file holds the solved coefficients to the last bit, and
        # reading it leaves them so (_UNIT_NORM_TOL): the series are the same
        state = maximizing_state(0.37 * math.pi, 0.0, n)
        write_state_csv(state, tmp_path / "state.csv")
        read = read_state_csv(tmp_path / "state.csv")
        solved, loaded = (current_series(s, 0.7, (-1.5, 1.5), 9) for s in (state, read))
        assert loaded.tau_samples.tobytes() == solved.tau_samples.tobytes()
        assert loaded.tj_values.tobytes() == solved.tj_values.tobytes()

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

        # the last point failed: nan for p and residual
        records = [SweepRecord(a * math.pi, b, p, r)
                   for a, b, p, r in zip(special, special[::-1], special[1:], special[2:])]
        records.append(SweepRecord(0.7 * math.pi, -0.0, math.nan, math.nan, "failed"))
        cli._write_sweep_csv(records, tmp_path / "sweep.csv")
        rows = "".join(f"{r.alpha / math.pi:.17g},{r.beta:.17g},{r.p_estimate:.17g},"
                       f"{r.fit_residual:.17g}\n" for r in records)
        assert rows.endswith(",-0,nan,nan\n")
        assert (tmp_path / "sweep.csv").read_text() == "alpha_over_pi,beta,p,residual\n" + rows

        assert cli.main(["twomode", "--alpha-over-pi-min", "1e-300", "--alpha-over-pi-max", "2",
                         "--steps", "7", "--outdir", str(tmp_path)]) == 0
        curve = two_mode_curve(0, 1, np.linspace(1e-300, 2.0, 7))
        rows = "".join(f"{a:.17g},{b:.17g},{p:.17g}\n" for a, b, p in curve)
        assert (tmp_path / "twomode_curve.csv").read_text() == "alpha_over_pi,beta,p_min\n" + rows

import math

import numpy as np
import pytest

from ringflow import RingConfig, build_kernel, extrapolated_infimum, fit_quadratic, min_eigen
from ringflow.eigen import EigenResult
from ringflow.extrapolate import DEFAULT_SWEEP_SCHEDULE, ExtrapolationError, fit_inverse_powers

from conftest import ALPHA_STAR, REFERENCE_FIT, REFERENCE_LAMBDAS


class TestFitQuadratic:
    def test_reference_table_replay(self):
        fit = fit_quadratic(REFERENCE_LAMBDAS.items())
        assert fit.a0 == pytest.approx(REFERENCE_FIT["a0"], abs=1e-10)
        assert fit.a1 == pytest.approx(REFERENCE_FIT["a1"], abs=1e-12)
        assert fit.a2 == pytest.approx(REFERENCE_FIT["a2"], abs=1e-8)
        # residual matches to one significant figure
        assert fit.residual == pytest.approx(7.3e-20, rel=0.05)

    def test_scale_consistency(self):
        rng = np.random.default_rng(9)
        ns = [100, 150, 300, 500, 900]
        lams = [1.0 / n + rng.normal(0, 1e-6) for n in ns]
        base = fit_quadratic(zip(ns, lams))
        scaled = fit_quadratic(zip(ns, [7.5 * v for v in lams]))
        for a, b in [(base.a0, scaled.a0), (base.a1, scaled.a1), (base.a2, scaled.a2)]:
            assert b == pytest.approx(7.5 * a, rel=1e-12, abs=1e-15)
        assert math.sqrt(scaled.residual) == pytest.approx(
            7.5 * math.sqrt(base.residual), rel=1e-10
        )

    def test_duplicate_n_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            fit_quadratic([(100, 1.0), (100, 1.1), (200, 1.2), (300, 1.3)])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            fit_quadratic([(100, 1.0), (200, 1.1), (300, 1.2)])


class TestFitInversePowers:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_recovers_exact_polynomial(self, degree):
        coeffs = [-0.1168, 0.37, -2.5, 40.0][: degree + 1]
        sizes = [400, 600, 800, 1200, 1600]
        values = [sum(a / n**j for j, a in enumerate(coeffs)) for n in sizes]
        fitted, residual = fit_inverse_powers(sizes, values, degree)
        assert len(fitted) == degree + 1
        for got, want in zip(fitted, coeffs):
            assert got == pytest.approx(want, rel=1e-8, abs=1e-14)
        assert residual <= 1e-28

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_zero_values_give_zero_coefficients(self, degree):
        fitted, residual = fit_inverse_powers([100, 200, 300, 400], [0.0] * 4, degree)
        assert list(fitted) == [0.0] * (degree + 1)
        assert residual == 0.0

    def test_duplicate_sizes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            fit_inverse_powers([100, 200, 200], [1.0, 1.1, 1.2], 1)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 3 points for degree 2"):
            fit_inverse_powers([100, 200], [1.0, 1.1], 2)


class TestExtrapolatedInfimum:
    def test_zero_at_alpha_pi(self):
        p, fit = extrapolated_infimum(math.pi, 0.0, [50, 60, 70, 80])
        assert abs(p) < 1e-12

    def test_reference_point_short_schedule(self, optimum_eigen_cache, monkeypatch):
        import ringflow.extrapolate as ex

        # the session's cached solves stand in for the solve; the kernels are
        # built, in O(N), for the interlacing check's max|D|
        def cached(kernel, start=None):
            config = kernel.config
            assert (config.alpha, config.beta) == (ALPHA_STAR, 0.0)
            return optimum_eigen_cache(config.n_trunc)

        monkeypatch.setattr(ex, "min_eigen", cached)
        schedule = [800, 1000, 1200, 1400, 1600, 1800, 2000, 2200, 2400, 3000]
        p, fit = extrapolated_infimum(ALPHA_STAR, 0.0, schedule)
        assert p == pytest.approx(-0.1168156, abs=5e-7)

    def test_solver_failure_carries_n(self, monkeypatch):
        import ringflow.extrapolate as ex

        def boom(kernel, start=None):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(ex, "min_eigen", boom)
        with pytest.raises(ExtrapolationError) as err:
            extrapolated_infimum(1.0, 0.0, [10, 20, 30, 40])
        assert err.value.n_trunc == 10

    def test_short_schedule_rejected(self):
        with pytest.raises(ValueError):
            extrapolated_infimum(1.0, 0.0, [10, 20, 30])

    def test_monotone_truncation_regression(self, optimum_eigen_cache):
        lams = [optimum_eigen_cache(n).lambda_min for n in (800, 1000, 1200, 1400)]
        assert all(b < a for a, b in zip(lams, lams[1:]))


class TestWarmStartedLadder:
    def test_reference_rungs_match_cold_solves(self, optimum_eigen_cache):
        schedule = [800, 1000, 1200, 1400, 1600, 1800, 2000, 2200, 2400, 3000]
        _, fit = extrapolated_infimum(ALPHA_STAR, 0.0, schedule)
        cold = [optimum_eigen_cache(n) for n in schedule]
        for lam, result in zip(fit.lambda_values, cold):
            assert abs(lam - result.lambda_min) <= 1e-13
        assert [r["n"] for r in fit.rungs] == schedule
        assert [r["warm_started"] for r in fit.rungs] == [False] + [True] * 9
        # the counts are deterministic: 61 warm against 100 cold
        assert [r["iterations"] for r in fit.rungs] == [10, 7, 6, 6, 6, 6, 5, 5, 5, 5]
        assert sum(r.iterations for r in cold) == 100

    @pytest.mark.parametrize("alpha,beta", [(0.05 * math.pi, 0.0), (0.05 * math.pi, -0.4),
                                            (ALPHA_STAR, -0.4)])
    def test_default_schedule_rungs_match_cold_solves(self, alpha, beta):
        _, fit = extrapolated_infimum(alpha, beta)
        cold = [min_eigen(build_kernel(RingConfig(alpha, beta, n)))
                for n in DEFAULT_SWEEP_SCHEDULE]
        for lam, result in zip(fit.lambda_values, cold):
            assert abs(lam - result.lambda_min) <= 1e-13
        for rung in fit.rungs:
            assert rung["residual_norm"] <= 1e-10 * 2 * alpha * (rung["n"] - beta) / math.pi
        assert sum(r["iterations"] for r in fit.rungs) < sum(r.iterations for r in cold)

    def test_rise_along_schedule_raises(self, monkeypatch):
        import ringflow.extrapolate as ex

        lams = iter([-0.2, -0.3, -0.25, -0.4])

        def rising(kernel, start=None):
            v = np.ones(kernel.size) / np.sqrt(kernel.size)
            return EigenResult(next(lams), v, kernel.size - 1, 0.0, "lobpcg", 1)

        monkeypatch.setattr(ex, "min_eigen", rising)
        with pytest.raises(ExtrapolationError, match=r"lambda\(30\) .* lambda\(20\)") as err:
            extrapolated_infimum(1.0, 0.0, [10, 20, 30, 40])
        assert err.value.n_trunc == 30

    @pytest.mark.parametrize("beta", [0.0, -0.4])
    def test_interlacing_holds_on_sweep_grids(self, beta):
        # the benchmark's sweep grids end on alpha = pi and 2 pi, where at
        # beta = 0 lambda ~ 1e-31 is rounding and may rise by 1e-46; any rise
        # past the guard raises
        for alpha_over_pi in (0.05, 0.4, 0.7, 1.0, 1.05, 1.4, 1.7, 2.0):
            p, fit = extrapolated_infimum(alpha_over_pi * math.pi, beta)
            lams = fit.lambda_values
            if beta == 0.0 and alpha_over_pi in (1.0, 2.0):
                assert abs(p) < 1e-12
            else:
                assert all(b <= a for a, b in zip(lams, lams[1:]))

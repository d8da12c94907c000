import math

import numpy as np
import pytest

from ringflow import find_infimum, sweep_alpha

FAST = (50, 60, 70, 80)


class TestSweepAlpha:
    def test_zeros_at_multiples_of_pi(self):
        records = sweep_alpha(0.0, [k * math.pi for k in (1, 2, 3)], FAST)
        assert len(records) == 3
        for rec in records:
            assert rec.error is None
            assert abs(rec.p_estimate) <= 1e-10

    def test_grid_order_preserved(self):
        grid = [2 * math.pi, math.pi, 3 * math.pi]
        records = sweep_alpha(0.0, grid, FAST)
        assert [r.alpha for r in records] == grid

    def test_beta_monotonicity_near_optimum(self):
        alpha = 0.37 * math.pi
        schedule = (100, 140, 180, 220)
        p0 = sweep_alpha(0.0, [alpha], schedule)[0].p_estimate
        p_off = sweep_alpha(-0.999, [alpha], schedule)[0].p_estimate
        assert p_off > p0

    def test_jobs_give_same_answer(self):
        grid = [0.3 * math.pi, 0.5 * math.pi]
        serial = sweep_alpha(0.0, grid, FAST, jobs=1)
        parallel = sweep_alpha(0.0, grid, FAST, jobs=2)
        for a, b in zip(serial, parallel):
            assert b.p_estimate == a.p_estimate

    def test_failures_stay_in_band(self, monkeypatch):
        import ringflow.sweep as sw

        calls = {"n": 0}
        real = sw.extrapolated_infimum

        def flaky(alpha, beta, schedule):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("synthetic")
            return real(alpha, beta, schedule)

        monkeypatch.setattr(sw, "extrapolated_infimum", flaky)
        records = sweep_alpha(0.0, [math.pi, 2 * math.pi], FAST)
        assert records[0].error is not None
        assert math.isnan(records[0].p_estimate)
        assert records[1].error is None

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_alpha(0.0, [], FAST)


class TestFindInfimum:
    def test_degenerate_box(self):
        alpha = 0.37 * math.pi
        res = find_infimum(
            (alpha, alpha),
            0.0,
            coarse_points=1,
            refine_points=1,
            coarse_schedule=FAST,
            refine_schedule=FAST,
            final_schedule=FAST,
        )
        from ringflow import extrapolated_infimum

        p_direct, _ = extrapolated_infimum(alpha, 0.0, FAST)
        assert res.alpha == alpha
        assert res.p == p_direct

    def test_zero_excluded_from_argmin_near_pi(self):
        schedule = (60, 80, 100, 120)
        res = find_infimum(
            (0.9 * math.pi, 1.1 * math.pi),
            0.0,
            coarse_points=9,
            refine_points=5,
            stages=2,
            coarse_schedule=schedule,
            refine_schedule=schedule,
            final_schedule=schedule,
        )
        assert res.p < 0
        assert abs(res.alpha / math.pi - 1.0) > 1e-3

    def test_budget_exhaustion_flagged(self):
        res = find_infimum(
            (0.3 * math.pi, 0.5 * math.pi),
            0.0,
            budget=3,
            coarse_points=5,
            coarse_schedule=FAST,
            refine_schedule=FAST,
            final_schedule=FAST,
        )
        assert res.budget_exhausted
        assert res.evaluations <= 3

    def test_reproducible(self):
        from ringflow import extrapolated_infimum

        res = find_infimum(
            (0.35 * math.pi, 0.4 * math.pi),
            0.0,
            coarse_points=6,
            refine_points=5,
            stages=2,
            coarse_schedule=FAST,
            refine_schedule=FAST,
            final_schedule=FAST,
        )
        p_again, _ = extrapolated_infimum(res.alpha, res.beta, FAST)
        assert p_again == res.p

    def test_only_upper_beta_end_evaluated(self, monkeypatch):
        import ringflow.sweep as sw

        betas = []
        real = sw.extrapolated_infimum

        def recording(alpha, beta, schedule):
            betas.append(beta)
            return real(alpha, beta, schedule)

        monkeypatch.setattr(sw, "extrapolated_infimum", recording)
        schedule = (60, 80, 100, 120)
        res = find_infimum(
            (0.35 * math.pi, 0.4 * math.pi),
            -0.1,
            coarse_points=6,
            refine_points=5,
            stages=2,
            coarse_schedule=schedule,
            refine_schedule=schedule,
            final_schedule=schedule,
        )
        assert betas and all(b == -0.1 for b in betas)
        assert res.beta == -0.1
        assert res.evaluations == len(betas) == 6 + 2 * 5

    def test_invalid_boxes(self):
        with pytest.raises(ValueError):
            find_infimum((-1.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            find_infimum((1.0, 2.0), -2.0)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_rejected_before_any_solve(self, monkeypatch, budget):
        import ringflow.sweep as sw

        def unexpected(*args):
            raise AssertionError("solved despite an invalid budget")

        monkeypatch.setattr(sw, "extrapolated_infimum", unexpected)
        with pytest.raises(ValueError, match="budget"):
            find_infimum((0.35 * math.pi, 0.4 * math.pi), 0.0, budget=budget)

    @pytest.mark.slow
    def test_reference_optimum_region(self):
        res = find_infimum(
            (0.3 * math.pi, 0.45 * math.pi),
            0.0,
            budget=500,
            jobs=2,
        )
        assert res.alpha / math.pi == pytest.approx(0.37040, abs=5e-4)
        assert res.p == pytest.approx(-0.116816, abs=1e-5)

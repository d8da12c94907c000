import dataclasses
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

import ringflow.sweep as sw
from ringflow import DEFAULT_SWEEP_SCHEDULE, find_infimum, sweep_alpha

FAST = (50, 60, 70, 80)


def bits(records):
    """Every field of every record, floats as their exact hex (nan included)."""
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(r))
        for r in records
    ]


def unexpected(*args):
    raise AssertionError("solved despite invalid arguments")


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

    def test_jobs_give_same_answer(self, monkeypatch):
        # a FAST grid is far below the fork floor, so lower the floor to send
        # it to the pool; the point at 0.5 pi fails in whichever process runs it
        real = sw.extrapolated_infimum
        parent = os.getpid()
        in_parent = []

        def failing_at_half_pi(alpha, beta, schedule):
            if os.getpid() == parent:
                in_parent.append(alpha)
            if alpha == 0.5 * math.pi:
                raise RuntimeError("synthetic")
            return real(alpha, beta, schedule)

        monkeypatch.setattr(sw, "extrapolated_infimum", failing_at_half_pi)
        grid = [0.3 * math.pi, math.pi, 0.5 * math.pi, 2 * math.pi, 0.7 * math.pi]
        serial = sweep_alpha(0.0, grid, FAST, jobs=1)
        assert len(in_parent) == len(grid)
        monkeypatch.setattr(sw, "_MODES_PER_WORKER", 1)
        for jobs in (2, 3):  # chunks of 3 and 2 points, then of 2, 2 and 1
            assert sw.sweep_workers(len(grid), FAST, jobs) == jobs
            parallel = sweep_alpha(0.0, grid, FAST, jobs=jobs)
            assert len(in_parent) == len(grid)  # every point ran in a worker
            assert [r.alpha for r in parallel] == grid
            assert parallel[2].error == "synthetic" and math.isnan(parallel[2].p_estimate)
            assert parallel[1].error is None and abs(parallel[1].p_estimate) <= 1e-10
            assert bits(parallel) == bits(serial)

    def test_benchmark_sized_grid_runs_in_process(self, monkeypatch):
        # 4 points on the default schedule at jobs=2, the benchmark's sweep
        # grid: below the fork floor, so every solve is seen in this process
        calls = []
        real = sw.extrapolated_infimum

        def counting(alpha, beta, schedule):
            calls.append(os.getpid())
            return real(alpha, beta, schedule)

        monkeypatch.setattr(sw, "extrapolated_infimum", counting)
        grid = [a * math.pi for a in np.linspace(0.15, 1.0, 4)]
        records = sweep_alpha(0.0, grid, DEFAULT_SWEEP_SCHEDULE, jobs=2)
        assert calls == [os.getpid()] * 4
        assert all(r.error is None for r in records)

    def test_workers_follow_the_mode_floor(self):
        assert sw.sweep_workers(4, DEFAULT_SWEEP_SCHEDULE, 2) == 1
        assert sw.sweep_workers(100, DEFAULT_SWEEP_SCHEDULE, 1) == 1
        floor = sw._MODES_PER_WORKER
        assert sw.sweep_workers(2 * floor, (1,), 2) == 2
        assert sw.sweep_workers(2 * floor - 1, (1,), 2) == 1
        assert sw.sweep_workers(100 * floor, (1,), 3) == 3
        assert sw.scan_diagnostics(3, FAST, 2) == {
            "points": 3, "schedule": list(FAST), "workers": 1, "start_method": None}
        assert sw.scan_diagnostics(2 * floor, (1,), 2)["start_method"] == "fork"

    def test_dead_worker_raises(self, monkeypatch):
        parent = os.getpid()

        def dying(alpha, beta, schedule):
            if os.getpid() != parent:
                os._exit(1)
            raise AssertionError("ran in the calling process")

        monkeypatch.setattr(sw, "extrapolated_infimum", dying)
        monkeypatch.setattr(sw, "_MODES_PER_WORKER", 1)
        with pytest.raises(RuntimeError, match="worker process died"):
            sweep_alpha(0.0, [0.3 * math.pi, 0.5 * math.pi], FAST, jobs=2)

    @pytest.mark.parametrize("jobs", [0, -2, 1.5, "2", None])
    def test_bad_jobs_rejected_before_any_solve(self, monkeypatch, jobs):
        monkeypatch.setattr(sw, "extrapolated_infimum", unexpected)
        with pytest.raises(ValueError, match="jobs"):
            sweep_alpha(0.0, [0.3 * math.pi], FAST, jobs=jobs)

    def test_failures_stay_in_band(self, monkeypatch):
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


def plan(coarse, refine, stages, schedule=FAST):
    """A search plan: a coarse grid, then `stages` refinement grids, all on one schedule."""
    return ((coarse, schedule),) + ((refine, schedule),) * stages


class TestFindInfimum:
    def test_degenerate_box(self, monkeypatch):
        monkeypatch.setattr(sw, "_SEARCH_PLAN", plan(1, 1, 3))
        alpha = 0.37 * math.pi
        res = find_infimum((alpha, alpha), 0.0)
        from ringflow import extrapolated_infimum

        p_direct, _ = extrapolated_infimum(alpha, 0.0, FAST)
        assert res.alpha == alpha
        assert res.p == p_direct

    def test_zero_excluded_from_argmin_near_pi(self, monkeypatch):
        monkeypatch.setattr(sw, "_SEARCH_PLAN", plan(9, 5, 2, (60, 80, 100, 120)))
        res = find_infimum((0.9 * math.pi, 1.1 * math.pi), 0.0)
        assert res.p < 0
        assert abs(res.alpha / math.pi - 1.0) > 1e-3

    def test_budget_exhaustion_flagged(self, monkeypatch):
        monkeypatch.setattr(sw, "_SEARCH_PLAN", plan(5, 11, 3))
        res = find_infimum((0.3 * math.pi, 0.5 * math.pi), 0.0, budget=3)
        assert res.budget_exhausted
        assert res.evaluations <= 3

    def test_reproducible(self, monkeypatch):
        from ringflow import extrapolated_infimum

        monkeypatch.setattr(sw, "_SEARCH_PLAN", plan(6, 5, 2))
        res = find_infimum((0.35 * math.pi, 0.4 * math.pi), 0.0)
        p_again, _ = extrapolated_infimum(res.alpha, res.beta, FAST)
        assert p_again == res.p

    def test_only_upper_beta_end_evaluated(self, monkeypatch):
        betas = []
        real = sw.extrapolated_infimum

        def recording(alpha, beta, schedule):
            betas.append(beta)
            return real(alpha, beta, schedule)

        monkeypatch.setattr(sw, "extrapolated_infimum", recording)
        monkeypatch.setattr(sw, "_SEARCH_PLAN", plan(6, 5, 2, (60, 80, 100, 120)))
        res = find_infimum((0.35 * math.pi, 0.4 * math.pi), -0.1)
        assert betas and all(b == -0.1 for b in betas)
        assert res.beta == -0.1
        assert res.evaluations == len(betas) == 6 + 2 * 5

    def test_default_plan(self, monkeypatch):
        # a fast smooth fake with its minimum inside the box, so that every
        # stage runs, centred on the best alpha so far
        def bowl(alpha, beta, schedule):
            return (alpha - 0.3704 * math.pi) ** 2 - 0.1168, SimpleNamespace(residual=0.0)

        def recording(beta, alphas, schedule, jobs):
            grids.append(list(alphas))
            return real(beta, alphas, schedule, jobs)

        grids = []
        real = sw.sweep_alpha
        monkeypatch.setattr(sw, "extrapolated_infimum", bowl)
        monkeypatch.setattr(sw, "sweep_alpha", recording)
        box = (0.3 * math.pi, 0.45 * math.pi)
        schedules = [[300, 400, 600, 800], [400, 600, 800, 1200, 1600],
                     [400, 600, 800, 1200, 1600], [800, 1000, 1200, 1600, 2000]]

        res = find_infimum(box, 0.0)
        assert [(scan["points"], scan["schedule"]) for scan in res.scans] == list(
            zip([16, 11, 11, 11], schedules))
        assert (res.evaluations, res.stages, res.budget_exhausted) == (49, 3, False)
        assert grids[0] == list(np.linspace(*box, 16))
        for stage in (1, 2, 3):
            best = min((a for grid in grids[:stage] for a in grid), key=lambda a: bowl(a, 0.0, None)[0])
            span = 2 * (box[1] - box[0]) / 15 / 10 ** (stage - 1)
            assert grids[stage][0] == pytest.approx(best - span, abs=1e-15)
            assert grids[stage][-1] == pytest.approx(best + span, abs=1e-15)

        res = find_infimum(box, 0.0, budget=27)
        assert [(scan["points"], scan["schedule"]) for scan in res.scans] == list(
            zip([16, 11], schedules))
        assert (res.evaluations, res.stages, res.budget_exhausted) == (27, 2, True)

    def test_failed_coarse_scan_raises_failed_refinement_keeps_best(self, monkeypatch):
        def failing(alpha, beta, schedule):
            if schedule is not FAST:
                raise ArithmeticError("synthetic")
            return -alpha, SimpleNamespace(residual=0.0)

        monkeypatch.setattr(sw, "extrapolated_infimum", failing)
        box = (0.35 * math.pi, 0.4 * math.pi)
        monkeypatch.setattr(sw, "_SEARCH_PLAN", ((3, FAST), (2, (60, 80, 100, 120))))
        res = find_infimum(box, 0.0)
        assert (res.alpha, res.p, res.evaluations, res.stages) == (box[1], -box[1], 5, 1)
        monkeypatch.setattr(sw, "_SEARCH_PLAN", ((3, (60, 80, 100, 120)), (2, FAST)))
        with pytest.raises(RuntimeError, match="no successful evaluation in the coarse scan"):
            find_infimum(box, 0.0)

    def test_invalid_boxes(self):
        with pytest.raises(ValueError):
            find_infimum((-1.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            find_infimum((1.0, 2.0), -2.0)
        with pytest.raises(ValueError, match="ordered"):
            find_infimum((2.0, 1.0), 0.0)
        for box, value in (((1.0, math.inf), "inf"), ((math.nan, 1.0), "nan")):
            with pytest.raises(ValueError, match=f"positive and finite, got {value}"):
                find_infimum(box, 0.0)

    @pytest.mark.parametrize("budget", [0, -3, 2.5, math.nan])
    def test_budget_below_one_rejected_before_any_solve(self, monkeypatch, budget):
        monkeypatch.setattr(sw, "extrapolated_infimum", unexpected)
        with pytest.raises(ValueError, match="budget"):
            find_infimum((0.35 * math.pi, 0.4 * math.pi), 0.0, budget=budget)

    @pytest.mark.parametrize("jobs", [0, -2, 1.5])
    def test_bad_jobs_rejected_before_any_solve(self, monkeypatch, jobs):
        monkeypatch.setattr(sw, "extrapolated_infimum", unexpected)
        with pytest.raises(ValueError, match="jobs"):
            find_infimum((0.35 * math.pi, 0.4 * math.pi), 0.0, jobs=jobs)

    def test_scans_recorded(self, monkeypatch):
        monkeypatch.setattr(sw, "_SEARCH_PLAN", plan(4, 3, 2))
        res = find_infimum((0.35 * math.pi, 0.4 * math.pi), 0.0, budget=9, jobs=2)
        assert res.scans == (
            sw.scan_diagnostics(4, FAST, 2),
            sw.scan_diagnostics(3, FAST, 2),
            sw.scan_diagnostics(2, FAST, 2),
        )
        assert sum(scan["points"] for scan in res.scans) == res.evaluations == 9

    def test_reference_optimum_region(self):
        res = find_infimum(
            (0.3 * math.pi, 0.45 * math.pi),
            0.0,
            budget=500,
            jobs=2,
        )
        assert res.alpha / math.pi == pytest.approx(0.37040, abs=5e-4)
        assert res.p == pytest.approx(-0.116816, abs=1e-5)

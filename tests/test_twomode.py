import math

import numpy as np
import pytest

from ringflow import (
    global_two_mode_min,
    minimize_two_mode,
    two_mode_p,
    two_mode_p_min,
)
from ringflow.twomode import two_mode_curve
from ringflow.verify import two_mode_scaling_deviation


class TestTwoModeP:
    def test_pure_ground_mode(self):
        for gamma in (0.0, 1.0, 3.0):
            assert two_mode_p(0, 1, math.pi, 0.0, 0.0, gamma) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_pure_excited_mode(self):
        for gamma in (0.0, 2.0):
            assert two_mode_p(0, 1, math.pi, 0.0, math.pi, gamma) == pytest.approx(
                2.0, abs=1e-12
            )

    def test_index_order_enforced(self):
        with pytest.raises(ValueError):
            two_mode_p(1, 1, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            two_mode_p(-1, 2, 1.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
def test_alpha_must_be_positive_and_finite(alpha):
    # the check RingConfig makes: a nan or inf alpha would give a nan current
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        two_mode_p(0, 1, alpha, 0.0, 0.5, 0.0)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        minimize_two_mode(0, 1, alpha, 0.0)


class TestMinimizeTwoMode:
    def test_zero_at_alpha_pi(self):
        res = minimize_two_mode(0, 1, math.pi, 0.0)
        assert res.p_min == pytest.approx(0.0, abs=1e-12)
        # sinc at the rounded pi leaves a sub-ulp coupling, so no exact
        # degeneracy flag; the optimal mixing angle still collapses to zero
        assert abs(res.phi_star) < 1e-15

    def test_closed_form_below_random_draws(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            alpha = float(rng.uniform(0.1, 6.0))
            beta = float(rng.uniform(-0.99, 0.0))
            m1 = int(rng.integers(0, 3))
            m2 = m1 + int(rng.integers(1, 4))
            res = minimize_two_mode(m1, m2, alpha, beta)
            phis = rng.uniform(0, math.pi, 500)
            gammas = rng.uniform(0, 2 * math.pi, 500)
            values = two_mode_p(m1, m2, alpha, beta, phis, gammas)
            assert res.p_min <= np.min(values) + 1e-12

    def test_minimizer_attains_minimum(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            alpha = float(rng.uniform(0.1, 6.0))
            beta = float(rng.uniform(-0.99, 0.0))
            res = minimize_two_mode(0, 1, alpha, beta)
            attained = two_mode_p(0, 1, alpha, beta, res.phi_star, res.gamma_star)
            assert attained == pytest.approx(res.p_min, abs=1e-12)

    def test_brute_force_grid_oracle(self):
        # dense (phi, gamma) grid never beats the closed form beyond O(dphi^2)
        phis = np.linspace(0, math.pi, 721)
        gammas = np.linspace(0, 2 * math.pi, 720, endpoint=False)
        pp, gg = np.meshgrid(phis, gammas, indexing="ij")
        for alpha, beta in [(0.7, -0.2), (2.9, -0.85), (1.224, 0.0)]:
            res = minimize_two_mode(0, 1, alpha, beta)
            grid_min = float(np.min(two_mode_p(0, 1, alpha, beta, pp, gg)))
            dphi = phis[1] - phis[0]
            assert res.p_min <= grid_min + 1e-12
            assert grid_min - res.p_min <= 10 * dphi**2

    def test_scaling_relation(self):
        rng = np.random.default_rng(77)
        worst = two_mode_scaling_deviation(
            rng, 100, alphas=(0.05, 8.0), betas=(-0.999, 0.0), m1s=(0, 5), gaps=(1, 5)
        )
        assert worst <= 1e-12


class TestGlobalTwoModeMin:
    def test_reference_optimum(self):
        alpha_s, beta_s, p_s = global_two_mode_min(0, 1)
        assert p_s == pytest.approx(-0.101727, abs=1e-5)
        assert beta_s == 0.0

    def test_scaling_consequence_for_higher_m2(self):
        # with m1 = 0 the scaling map covers the optimum, so the (0, m2)
        # optimum is exactly the (0, 1) one divided by m2
        _, _, p01 = global_two_mode_min(0, 1)
        for m2 in (2, 3):
            _, _, p = global_two_mode_min(0, m2)
            assert p == pytest.approx(p01 / m2, abs=1e-6)

    @pytest.mark.parametrize(
        "kwargs, beta",
        [({"beta_max": -0.5}, -0.5), ({}, 0.0)],
        ids=["pinned", "default"],
    )
    def test_beta_slice_against_dense_scan(self, kwargs, beta):
        # staged refinement vs brute-force alpha scan at beta_max
        alpha_s, beta_s, p_s = global_two_mode_min(0, 1, **kwargs)
        ap = np.arange(1e-4, 2.0 + 1e-9, 1e-4)
        brute = float(np.min(two_mode_p_min(0, 1, ap * math.pi, beta)))
        assert beta_s == beta
        assert p_s <= brute + 1e-12
        assert brute - p_s <= 1e-6

    @pytest.mark.parametrize("beta_max", [0.5, -1.0, -1.5, float("nan")])
    def test_beta_outside_canonical_range_rejected(self, beta_max):
        # two_mode_p_min takes beta as canonical, so beta_max = 0.5 would
        # return p* = -2.0 at the grid's end, alpha = 2 pi
        with pytest.raises(ValueError, match="beta_max must lie in"):
            global_two_mode_min(0, 1, beta_max=beta_max)


class TestTwoModeCurve:
    @pytest.mark.parametrize("m1, m2", [(1, 1), (-2, 1), (2, 1)])
    def test_invalid_pair_rejected(self, m1, m2):
        with pytest.raises(ValueError, match="m1 < m2"):
            two_mode_curve(m1, m2, [0.1, 0.2])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            two_mode_curve(0, 1, np.linspace(0.1, 1.0, 0))

    # the last two are inf as alpha = pi * alpha/pi, which the curve is computed at
    @pytest.mark.parametrize("grid", [[-0.5, 0.5], [0.0, 0.5], [0.5, float("nan")],
                                      [0.5, float("inf")], [0.5, 1e308]])
    def test_non_positive_alpha_rejected(self, grid):
        with pytest.raises(ValueError, match="alpha must be positive"):
            two_mode_curve(0, 1, grid)

import math
import warnings

import numpy as np
import pytest

from ringflow import RingConfig, build_kernel, line_limit_min, ring_small_alpha_limit
from ringflow.eigen import EigenResult
from ringflow.extrapolate import ExtrapolationError

C_LINE = 0.0384517


def nystrom_matrix(u_max, n_points):
    """Midpoint Nystrom matrix of the half-line operator, as the package builds it."""
    h = u_max / n_points
    return h, build_kernel(RingConfig(h * h, -0.5, n_points - 1)).dense()


class TestLineKernel:
    def test_matches_midpoint_formula(self):
        # (h/pi)(u_m + u_n) sinc(u_m^2 - u_n^2) on u_m = (m + 1/2) h, written
        # out with numpy's sinc(x) = sin(pi x)/(pi x)
        h, a = nystrom_matrix(10.0, 400)
        u = (np.arange(400) + 0.5) * h
        direct = (h / math.pi) * (u[:, None] + u[None, :]) * np.sinc(
            (u[:, None] ** 2 - u[None, :] ** 2) / math.pi
        )
        assert np.max(np.abs(a - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_symmetric_bitwise(self):
        _, a = nystrom_matrix(7.3, 64)
        assert np.array_equal(a, a.T)

    def test_diagonal(self):
        h, a = nystrom_matrix(5.0, 16)
        nodes = (np.arange(16) + 0.5) * h
        assert np.allclose(np.diagonal(a), h / math.pi * 2 * nodes)


class TestLineLimit:
    def test_interval_truncated_value(self):
        # the operator restricted to (0, 10] converges to about -0.03513 in
        # the grid; the remaining gap to -c_line is half-line truncation error
        lam = ring_small_alpha_limit((10.0 / 2000) ** 2, -0.5, 1999).lambda_min
        assert lam == pytest.approx(-0.035127, abs=5e-5)

    def test_reports_interval_eigenvalues(self):
        result = line_limit_min(10.0, 400)
        interval = ring_small_alpha_limit((10.0 / 400) ** 2, -0.5, 399).lambda_min
        assert result.lambda_interval == pytest.approx(interval, abs=1e-14)
        assert result.u_half == 5.0
        assert result.lambda_min == pytest.approx(
            (400 * result.lambda_interval - 200 * result.lambda_half_interval) / 200, rel=1e-15
        )

    def test_truncation_deficit_shrinks_with_u_max(self):
        lam40 = line_limit_min(40.0, 4000).lambda_min
        assert abs(lam40 + C_LINE) <= 1e-3

    def test_invalid_inputs(self):
        # 2 and 3 points would leave the half rung fewer than 2 modes
        for u_max, n_points in ((0.0, 10), (-1.0, 10), (float("nan"), 10), (5.0, 1), (10.0, 2),
                                (10.0, 3)):
            with pytest.raises(ValueError):
                line_limit_min(u_max, n_points)

    def test_warm_started_full_solve_unchanged(self):
        # the full solve starts from the half block's eigenvector; values
        # from cold solves of both blocks
        result = line_limit_min(40.0, 4000)
        assert abs(result.lambda_interval - -0.037611140569786136) <= 1e-13
        assert abs(result.lambda_half_interval - -0.03677729255611154) <= 1e-13
        assert abs(result.lambda_min - -0.03844498858346074) <= 1e-13

    def test_rung_iterations(self):
        # deterministic counts of the half-block and warm full solves: a
        # change to the preconditioner or the warm start shows here
        assert [r["iterations"] for r in line_limit_min(40.0, 4000).rungs] == [66, 34]

    def test_rise_between_rungs_raises(self, monkeypatch):
        import ringflow.extrapolate as ex

        lams = iter([-0.04, -0.03])

        def rising(kernel, start=None):
            v = np.ones(kernel.size) / np.sqrt(kernel.size)
            return EigenResult(lambda_min=next(lams), eigenvector=v, n_trunc=kernel.size - 1,
                               residual_norm=0.0, iterations=1)

        monkeypatch.setattr(ex, "min_eigen", rising)
        with pytest.raises(ExtrapolationError, match=r"lambda\(399\) .* lambda\(199\)") as err:
            line_limit_min(10.0, 400)
        assert err.value.n_trunc == 399

    def test_coarse_grid_warns(self):
        # u_max**2/n_points = 3.2: the phase steps by about 6 rad per node
        with pytest.warns(UserWarning, match="under-resolves"):
            line_limit_min(40.0, 500)

    def test_resolved_grid_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            line_limit_min(40.0, 4000)

    def test_simultaneous_refinement_converges(self):
        # u_max and n_points doubled together, so the spacing h stays fixed
        rows = [line_limit_min(5.0 * 2**k, 250 * 2**k).lambda_min for k in range(4)]
        diffs = [abs(rows[i + 1] - rows[i]) for i in range(3)]
        assert diffs[0] > diffs[1] > diffs[2]


class TestRingRoute:
    def test_small_alpha_limit(self):
        lam = ring_small_alpha_limit(1e-3, 0.0, 1000).lambda_min
        assert abs(lam + C_LINE) <= 1e-3

    def test_small_alpha_iterations(self):
        # max D is 0.64 here, so the preconditioner 1/max(D, 1) is the
        # identity; one that scales these rows over-damps the low modes
        assert ring_small_alpha_limit(1e-3, 0.0, 1000).iterations == 56

    def test_endpoint_rule_gap_shrinks_like_sqrt_alpha(self):
        # beta = 0 is the left-endpoint rule, beta = -1/2 the midpoint rule;
        # at u_max ~ 40 their gap is -4.09e-3 at alpha = 4e-3 and -2.05e-3 at
        # alpha = 1e-3, so it halves when alpha drops by 4
        gaps = [
            ring_small_alpha_limit(alpha, 0.0, n).lambda_min
            - ring_small_alpha_limit(alpha, -0.5, n).lambda_min
            for alpha, n in ((4e-3, 632), (1e-3, 1265))
        ]
        assert gaps[0] < gaps[1] < 0
        assert gaps[0] / gaps[1] == pytest.approx(2.0, abs=0.05)

    def test_beta_independence_of_limit(self):
        lam = ring_small_alpha_limit(1e-3, -0.5, 1000).lambda_min
        assert abs(lam + C_LINE) <= 1.2e-3

    def test_far_from_limit_at_alpha_pi(self):
        lam = ring_small_alpha_limit(math.pi, 0.0, 200).lambda_min
        assert abs(lam) < 1e-12

    def test_coverage_warning(self):
        with pytest.warns(UserWarning, match="u-coverage"):
            ring_small_alpha_limit(1e-4, 0.0, 100)

    def test_routes_agree_at_converged_settings(self):
        ring = ring_small_alpha_limit(1e-3, 0.0, 1000).lambda_min
        nystrom = line_limit_min(40.0, 4000).lambda_min
        assert abs(ring - nystrom) <= 2e-3

"""Acceptance gate: every headline number at its stated tolerance.

Each test prints a PASS/FAIL line so the gate can be read off the -s output.
The heavy eigensolves are shared through the session-scoped cache.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ringflow

from ringflow import (
    current_series,
    fit_quadratic,
    global_two_mode_min,
    line_limit_min,
    make_state,
    mean_energy,
    ring_small_alpha_limit,
)
from ringflow import verify

from conftest import REFERENCE_FIT, REFERENCE_LAMBDAS, exact_phases

C_RING = 0.116816
C_LINE = 0.0384517


def report(label, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {label} {detail}".rstrip())
    assert ok, f"{label}: {detail}"


def test_criterion_1_reference_eigenvalues(optimum_eigen_cache):
    worst = 0.0
    for n in (800, 1000, 1200, 1400, 1600, 1800, 2000):
        lam = optimum_eigen_cache(n).lambda_min
        worst = max(worst, abs(lam - REFERENCE_LAMBDAS[n]))
    report("criterion 1: reference lambda_min(N) to 1e-9", worst <= 1e-9, f"worst |delta| = {worst:.2e}")


def test_criterion_2_extrapolation_replay():
    fit = fit_quadratic(REFERENCE_LAMBDAS.items())
    ok = (
        abs(fit.a0 - REFERENCE_FIT["a0"]) <= 1e-10
        and abs(fit.a1 - REFERENCE_FIT["a1"]) <= 1e-12
        and fit.residual == pytest.approx(7.3e-20, rel=0.05)
    )
    report(
        "criterion 2: reference quadratic fit replay",
        ok,
        f"a0 delta {abs(fit.a0 - REFERENCE_FIT['a0']):.1e}, "
        f"a1 delta {abs(fit.a1 - REFERENCE_FIT['a1']):.1e}, residual {fit.residual:.2e}",
    )


def test_criterion_3_main_result(optimum_eigen_cache):
    schedule = (800, 1000, 1200, 1400, 1600, 1800, 2000, 2200, 2400, 3000)
    fit = fit_quadratic((n, optimum_eigen_cache(n).lambda_min) for n in schedule)
    ok = abs(fit.a0 - (-C_RING)) <= 1e-5
    report("criterion 3: c_ring from self-computed schedule", ok, f"P = {fit.a0:.8f}")


def test_reference_schedule_end_to_end(tmp_path):
    # the CLI in a fresh process over all 15 N up to 10000, with the child's
    # own peak RSS; a dense N = 10000 kernel alone would take 800 MB.  The
    # peak is VmHWM: Linux carries the forking process's peak into the
    # child's ru_maxrss across exec, and this test process may have been large.
    script = (
        "import sys\n"
        "from ringflow.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(*[line for line in open('/proc/self/status') if line.startswith('VmHWM')])\n"
        "sys.exit(code)\n"
    )
    src = str(Path(ringflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["extrapolate", "--alpha-over-pi", "0.3703965", "--reference-schedule",
            "--outdir", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=env, timeout=600, check=True)
    peak_kib = int(proc.stdout.split()[-2])  # "VmHWM: <n> kB"
    record = json.loads((tmp_path / "extrapolation.json").read_text())
    lams = record["lambdas"]
    increases = [b - a for a, b in zip(lams, lams[1:]) if b > a]
    ok = (
        record["schedule"] == sorted(REFERENCE_LAMBDAS)
        and not increases
        and abs(record["a0"] - (-C_RING)) <= 1e-5
        and peak_kib < 1024 * 1024
    )
    report(
        "reference schedule to N = 10000 in one process",
        ok,
        f"a0 = {record['a0']:.8f}, lambda increases {increases}, peak RSS {peak_kib / 1024:.0f} MB",
    )


def test_criterion_4_two_mode_bound():
    _, _, p_star = global_two_mode_min(0, 1)
    ratio = p_star / (-C_LINE)
    ok = abs(p_star - (-0.101727)) <= 1e-5 and abs(ratio - 2.6) < 0.05
    report("criterion 4: two-mode global bound", ok, f"p* = {p_star:.6f}, ratio = {ratio:.2f}")


def test_criterion_5_line_limit_nystrom():
    # midpoint Nystrom of the half-line eigenproblem at the stated settings
    lam = line_limit_min(u_max=10.0, n_points=2000).lambda_min
    ok = abs(lam - (-C_LINE)) <= 1e-3
    report("criterion 5a: c_line via Nystrom (u_max=10, n=2000)", ok, f"lambda = {lam:.7f}")


def test_criterion_5_line_limit_ring_route():
    # beta = 0 is the left-endpoint rule on u = m*sqrt(alpha): its
    # O(sqrt(alpha)) grid error puts it 2.04e-3 below the beta = -1/2 midpoint
    # value -0.0373757, which lies 1.08e-3 above -c_line from truncation at
    # u ~ 31.6.  The 9.6e-4 margin is those two errors partly cancelling.
    lam = ring_small_alpha_limit(1e-3, 0.0, 1000)
    ok = abs(lam - (-C_LINE)) <= 1e-3
    report("criterion 5b: c_line via ring kernel (alpha=1e-3, N=1000)", ok, f"lambda = {lam:.7f}")


def test_criterion_6_zeros_at_multiples_of_pi():
    worst = verify.kpi_zero_deviation((1, 2, 3), 400)
    report("criterion 6: P(k*pi, 0) = 0", worst <= 1e-12, f"worst |lambda| = {worst:.2e}")


def test_criterion_7_maximizing_state(maximizing_state_2000):
    # |c_m| < |c_0|/m^2 at every m >= 1
    exponent = verify.decay_exponent(maximizing_state_2000.coeffs)
    energy = mean_energy(maximizing_state_2000)
    ok = exponent > 2 and abs(energy - 0.3855) <= 2e-3
    report(
        "criterion 7: coefficient decay and mean energy",
        ok,
        f"decay exponent {exponent:.3f}, <E>T/hbar = {energy:.5f}",
    )


def test_criterion_8_current_window(maximizing_state_2000):
    # current_series is exact at every sample (criterion 9), and the exact
    # window integral is lambda_min(2000), within 1e-4 of -c_ring.  What the
    # trapezoid rule must resolve is the signal: mode pairs oscillate at up to
    # 2*alpha*(m^2 - n^2) ~ 9e6 rad over the window, far above the Nyquist
    # rate of a 4001-point grid (pi/h ~ 1.3e4 rad), and the aliasing error
    # builds up from modes above m ~ 40.  Trapezoid error against lambda_min:
    #   samples  4001    8001    16001   32001   64001
    #   error    2.0e-4  6.9e-5  4.6e-5  9.4e-6  5.2e-6
    # 32001 samples sit about 10x inside the tolerance.
    series = current_series(maximizing_state_2000, 0.0, (-0.5, 0.5), 32001)
    integral = float(np.trapezoid(series.tj_values, series.tau_samples))
    has_positive = bool(np.any(series.tj_values > 0))
    ok = abs(integral - (-C_RING)) <= 1e-4 and has_positive
    report(
        "criterion 8: windowed current integral and sign change",
        ok,
        f"integral = {integral:.6f}, positive sample: {has_positive}",
    )


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst_quad = verify.quadrature_deviation(
        rng, 100, alphas=(0.1, 6.0), betas=(-0.999, 0.0), n_modes=(2, 17), samples=65537
    )
    # literal double sum, each phase r_m*tau exact, against the z*w reduction
    # at a random sample
    worst_reduction = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 17))
        alpha = float(rng.uniform(0.1, 6.0))
        beta = float(rng.uniform(-0.999, 0.0))
        state = make_state(verify.random_state(rng, n), alpha, beta)
        theta = float(rng.uniform(0, 2 * math.pi))
        tau = float(rng.uniform(-1, 1))
        mm = np.arange(n)
        phases = np.exp(1j * mm * theta) * np.exp(-1j * exact_phases(state, tau))
        ww = phases * state.coeffs
        terms = (mm[:, None] + mm[None, :] - 2 * beta) * np.conj(ww)[:, None] * ww[None, :]
        literal = alpha / math.pi * np.real(np.sum(terms))
        reduced = current_series(state, theta, (tau, tau + 1.0), 2).tj_values[0]
        worst_reduction = max(worst_reduction, abs(literal - reduced))
    ok = worst_quad <= 1e-8 and worst_reduction <= 1e-13
    report(
        "criterion 9: quadrature and double-sum oracles",
        ok,
        f"worst quadrature delta {worst_quad:.2e}, worst reduction delta {worst_reduction:.2e}",
    )


def test_criterion_10_invariance_suite():
    rng = np.random.default_rng(99)
    worst_shift = verify.beta_shift_deviation(
        rng, 10, alphas=(0.2, 5.0), betas=(-0.99, 0.0), sizes=(4, 16)
    )
    worst_scale = verify.two_mode_scaling_deviation(
        rng, 100, alphas=(0.05, 8.0), betas=(-0.999, 0.0), m1s=(0, 5), gaps=(1, 5)
    )
    symmetric = verify.kernel_asymmetry(rng, 5, alphas=(0.1, 8), n_trunc=60) == 0.0
    ok = worst_shift <= 1e-12 and worst_scale <= 1e-12 and symmetric
    report(
        "criterion 10: invariance suite",
        ok,
        f"shift {worst_shift:.2e}, scaling {worst_scale:.2e}, symmetry {symmetric}",
    )

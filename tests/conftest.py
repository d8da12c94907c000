import math
import os
import threading
from fractions import Fraction

import numpy as np
import pytest

from ringflow import ModeAmplitudes, RingConfig, build_kernel, min_eigen

ALPHA_STAR = 0.3703965 * math.pi


def other_threads_cpu_s() -> float:
    """CPU time of every thread of this process but the calling one."""
    me = threading.get_native_id()
    ticks = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == me:
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread ended
            continue
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def exact_phases(state, tau):
    """Each phase r_m*tau, r_m = 2*alpha*(m - beta)^2, formed as a rational
    from the doubles alpha, beta and tau and reduced mod 2*pi in 40-digit
    arithmetic, then rounded to a double."""
    import mpmath

    alpha, beta, tau = Fraction(state.alpha), Fraction(state.beta), Fraction(float(tau))
    with mpmath.workdps(40):
        two_pi = 2 * mpmath.pi
        phases = []
        for m in range(len(state.coeffs)):
            p = 2 * alpha * (m - beta) ** 2 * tau
            phases.append(float(mpmath.fmod(mpmath.mpf(p.numerator) / p.denominator, two_pi)))
    return np.array(phases)


def literal_double_sum_current(state, theta, tau):
    """T*J(theta, tau) as the literal O(N^2) mode double sum, with exact
    phases, so the evolution factors carry no phase error."""
    m = np.arange(len(state.coeffs))
    ww = np.exp(1j * m * theta) * np.exp(-1j * exact_phases(state, tau)) * state.coeffs
    terms = (m[:, None] + m[None, :] - 2 * state.beta) * np.conj(ww)[:, None] * ww[None, :]
    return state.alpha / math.pi * float(np.real(np.sum(terms)))


_BLAS_NAME = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {}).get("name", "")

# for tests that read other threads' CPU time to catch busy-waiting OpenBLAS workers
needs_openblas_threads = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or "openblas" not in _BLAS_NAME.lower(),
    reason="needs /proc/self/task and numpy's OpenBLAS build",
)

# Reference smallest eigenvalues at alpha/pi = 0.3703965, beta = 0.
REFERENCE_LAMBDAS = {
    800: -0.11681560946083251,
    1000: -0.11681562375295221,
    1200: -0.11681563170026898,
    1400: -0.11681563657782222,
    1600: -0.11681563974451246,
    1800: -0.11681564184588990,
    2000: -0.11681564340085021,
    2200: -0.11681564437173106,
    2400: -0.11681564524093137,
    3000: -0.11681564684342790,
    4000: -0.11681564811514884,
    5000: -0.11681564868561355,
    6000: -0.11681564900305073,
    8000: -0.11681564932805089,
    10000: -0.11681564947322964,
}

REFERENCE_FIT = {
    "a0": -0.11681564972831678,
    "a1": -5.3630711822449864e-8,
    "a2": 0.02587490326775755,
    "residual": 7.3e-20,
}


@pytest.fixture(scope="session")
def optimum_eigen_cache():
    """N -> EigenResult at the optimum (alpha, beta), shared across tests.

    The heavy solves (up to N = 3000) run once per session.
    """
    cache = {}

    def solve(n):
        if n not in cache:
            cache[n] = min_eigen(build_kernel(RingConfig(ALPHA_STAR, 0.0, n)))
        return cache[n]

    return solve


@pytest.fixture(scope="session")
def maximizing_state_2000(optimum_eigen_cache):
    result = optimum_eigen_cache(2000)
    return ModeAmplitudes(
        coeffs=result.eigenvector.astype(complex),
        alpha=ALPHA_STAR,
        beta=0.0,
        lambda_min=result.lambda_min,
    )

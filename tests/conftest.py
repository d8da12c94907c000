import ctypes
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ringflow
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


def fresh_python(*args, env=None, timeout=120) -> str:
    """The stdout of this interpreter run on args in a fresh process that
    imports this checkout's ringflow.  env maps a variable to its value, or to
    None to unset it; the child's stderr goes to the test's own, and a nonzero
    exit raises CalledProcessError."""
    src = str(Path(ringflow.__file__).resolve().parents[1])
    full = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for name, value in (env or {}).items():
        if value is None:
            full.pop(name, None)
        else:
            full[name] = value
    return subprocess.run([sys.executable, *args], stdout=subprocess.PIPE, text=True, env=full,
                          timeout=timeout, check=True).stdout


_BLAS_NAME = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {}).get("name", "")

_OPENBLAS = os.path.isdir("/proc/self/task") and "openblas" in _BLAS_NAME.lower()
needs_openblas = pytest.mark.skipif(not _OPENBLAS,
                                    reason="needs /proc/self/task and numpy's OpenBLAS build")


def openblas_threads() -> int:
    """OpenBLAS's thread count in this process: the getter of the OpenBLAS
    that numpy's wheel bundles, or, where it has none, the number of threads
    the process runs, which OpenBLAS's idle workers make up at load."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        get = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return len(os.listdir("/proc/self/task"))
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


# for tests that read other threads' CPU time to catch busy-waiting OpenBLAS
# workers: with one thread (OPENBLAS_NUM_THREADS=1, or one core) there is no
# worker to wake, and they would pass whatever the code does
needs_openblas_threads = pytest.mark.skipif(
    not _OPENBLAS or openblas_threads() < 2,
    reason="needs /proc/self/task and numpy's OpenBLAS running more than one thread",
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

import math

import pytest

from ringflow import ModeAmplitudes, RingConfig, build_kernel, min_eigen

ALPHA_STAR = 0.3703965 * math.pi

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

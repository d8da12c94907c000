"""Reference values the correctness gates compare against.

The benchmark carries its own copy so that a change to the program or its
tests cannot move the target it is checked against.

Sources:
  * REFERENCE_LAMBDAS: ``REFERENCE_LAMBDAS`` in ``tests/conftest.py``
    (smallest kernel eigenvalues at alpha/pi = 0.3703965, beta = 0).
  * C_RING, C_LINE, TWO_MODE_P_STAR, MEAN_ENERGY: the headline constants of
    the README, which the acceptance tests check at the same tolerances.
"""

ALPHA_OVER_PI_STAR = 0.3703965

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
}

C_RING = 0.116816
C_LINE = 0.0384517
TWO_MODE_P_STAR = -0.101727
MEAN_ENERGY = 0.3855

LAMBDA_TOL = 1e-9
C_RING_TOL = 1e-5
C_LINE_TOL = 1e-3
TWO_MODE_TOL = 1e-5
MEAN_ENERGY_TOL = 2e-3
ZERO_TOL = 1e-12
CURRENT_TOL = 1e-8

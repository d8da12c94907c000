"""Fast self-verification: oracles and invariants runnable from the CLI.

Each check is small enough to finish in seconds; the heavyweight golden
reproductions live in the test suite.  The oracle functions are the one
implementation of each cross-check: the checks here, the acceptance gate and
the unit tests call them, each with its own seed, draws, ranges and tolerance.
An oracle draws from its rng argument: the tests pass numpy Generators, and
the checks here a _Draws, the standard library's Mersenne Twister, so that
ringflow verify never imports numpy.random.
"""

from __future__ import annotations

import random

import numpy as np

from .eigen import min_eigen
from .extrapolate import fit_quadratic
from .kernel import RingConfig, build_kernel, canonicalize, integrated_current, kernel_entries
from .state import make_state, time_quadrature_p
from .twomode import minimize_two_mode, two_mode_p, two_mode_p_min


class CheckFailed(Exception):
    """A verification check found a wrong value."""


def _expect(ok, what: str) -> None:
    # explicit raise rather than assert, so the checks also run under python -O
    if not ok:
        raise CheckFailed(what)


def _expect_close(got, want, tol: float, what: str) -> None:
    if not abs(got - want) < tol:
        raise CheckFailed(f"{what}: got {got!r}, want {want!r} within {tol:.0e}")


class _Draws(random.Random):
    """A seeded stdlib Mersenne Twister with the numpy Generator methods the
    oracles call; uniform(low, high) is random.Random's own."""

    def integers(self, low: int, high: int) -> int:
        return self.randrange(low, high)

    def standard_normal(self, size: int) -> np.ndarray:
        return np.array([self.gauss(0.0, 1.0) for _ in range(size)])

    def choice(self, n: int, size: int, replace: bool = False) -> list:
        # without replacement, the one way the oracles call it
        return self.sample(range(n), size)


def random_state(rng, n_modes):
    """Normalized coefficients with standard-normal real and imaginary parts."""
    c = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    return c / np.linalg.norm(c)


# Each oracle samples (low, high) ranges: (x, x) fixes a float, and (k, k + 1)
# an integer.  It returns the worst deviation through np.max, which unlike max
# passes a nan on.


def kernel_asymmetry(rng, draws: int, *, alphas, n_trunc: int) -> float:
    """Largest |K - K^T| at random alpha, beta in [-0.99, 0); 0.0 if bitwise symmetric."""
    devs = []
    for _ in range(draws):
        cfg = RingConfig(float(rng.uniform(*alphas)), float(rng.uniform(-0.99, 0)), n_trunc)
        k = build_kernel(cfg).dense()
        devs.append(np.max(np.abs(k - k.T)))
    return float(np.max(devs))


def single_mode_deviation(alpha: float, beta: float, modes) -> float:
    """Worst relative deviation of a single mode's current from 2*alpha*(m - beta)/pi."""
    devs = []
    for m in modes:
        kern = build_kernel(RingConfig(alpha, beta, m + 1))
        c = np.zeros(kern.size, dtype=complex)
        c[m] = 1.0
        want = 2 * alpha * (m - beta) / np.pi
        devs.append(abs(integrated_current(c, kern) - want) / want)
    return float(np.max(devs))


def beta_shift_deviation(rng, draws: int, *, alphas, betas, sizes) -> float:
    """Worst relative change of a random state's current under beta -> beta + 1
    with every index moved up by one, which leaves m - beta and every kernel
    entry as they are.  The shifted current uses the raw kernel at beta + 1."""
    devs = []
    for _ in range(draws):
        alpha, beta = float(rng.uniform(*alphas)), float(rng.uniform(*betas))
        n = int(rng.integers(*sizes))
        coeffs = random_state(rng, n + 1)
        p0 = integrated_current(coeffs, build_kernel(RingConfig(alpha, beta, n)))
        c_shift = np.concatenate([[0.0], coeffs])
        p1 = float((np.conj(c_shift) @ kernel_entries(alpha, beta + 1.0, n + 2) @ c_shift).real)
        devs.append(abs(p1 - p0) / max(abs(p0), 1e-30))
    return float(np.max(devs))


def quadrature_deviation(rng, draws: int, *, alphas, betas, n_modes, samples: int) -> float:
    """Worst |Simpson time quadrature - quadratic form| for random states."""
    devs = []
    for _ in range(draws):
        alpha, beta = float(rng.uniform(*alphas)), float(rng.uniform(*betas))
        n = int(rng.integers(*n_modes))
        state = make_state(random_state(rng, n), alpha, beta)
        p_form = integrated_current(state.coeffs, build_kernel(RingConfig(alpha, beta, n - 1)))
        devs.append(abs(time_quadrature_p(state, samples) - p_form))
    return float(np.max(devs))


def two_mode_scaling_deviation(rng, draws: int, *, alphas, betas, m1s, gaps) -> float:
    """Worst relative deviation from the scaling map, with b = m2 - m1,
    P(m1, m2; alpha, beta) = P(0, 1; alpha*b^2, (beta - m1)/b)/b."""
    devs = []
    for _ in range(draws):
        alpha, beta = float(rng.uniform(*alphas)), float(rng.uniform(*betas))
        m1, b = int(rng.integers(*m1s)), int(rng.integers(*gaps))
        lhs = two_mode_p_min(m1, m1 + b, alpha, beta)
        rhs = two_mode_p_min(0, 1, alpha * b * b, (beta - m1) / b) / b
        devs.append(abs(lhs - rhs) / max(abs(lhs), 1e-30))
    return float(np.max(devs))


def beta_ordering_increase(rng, draws: int, *, alphas, sizes) -> float:
    """Largest rise from one point to the next of an increasing 6-point beta
    grid on (-1, 0], of lambda_min at random (alpha, N) and of the two-mode
    bound of a random pair 0 <= m1 < m2 <= N at the same alpha.

    dK/dbeta = -(2 alpha/pi)(c c^T + s s^T), with c = cos a and s = sin a, is
    negative semidefinite, so both are non-increasing in beta and the rise is
    at most rounding; the beta searches evaluate only beta_max.
    """
    betas = np.linspace(-1.0, 0.0, 7)[1:]
    rises = []
    for _ in range(draws):
        alpha, n = float(rng.uniform(*alphas)), int(rng.integers(*sizes))
        m1, m2 = sorted(int(m) for m in rng.choice(n + 1, 2, replace=False))
        lams = [min_eigen(build_kernel(RingConfig(alpha, b, n))).lambda_min for b in betas]
        rises.append(np.max(np.diff(lams)))
        rises.append(np.max(np.diff(two_mode_p_min(m1, m2, alpha, betas))))
    return float(np.max(rises))


def kpi_zero_deviation(ks, n_trunc: int) -> float:
    """Worst |lambda_min| at alpha = k*pi, beta = 0, where it is exactly 0."""
    lams = [min_eigen(build_kernel(RingConfig(k * np.pi, 0.0, n_trunc))).lambda_min for k in ks]
    return float(np.max(np.abs(lams)))


def decay_exponent(coeffs) -> float:
    """The largest p with |c_m| <= |c_0| / m^p at every m >= 1, -inf if |c_1| >= |c_0|.

    The power-law envelope of the coefficients from above: |c_m| < |c_0|/m^2
    holds at every m exactly when it exceeds 2.
    """
    c = np.abs(np.asarray(coeffs))
    if not c[1] < c[0]:
        return -np.inf
    with np.errstate(divide="ignore"):
        per_mode = np.log(c[0] / c[2:]) / np.log(np.arange(2, len(c)))
    return float(np.min(per_mode, initial=np.inf))


def check_canonicalize():
    _expect(canonicalize(0.0) == (0.0, 0), "canonicalize(0.0) == (0.0, 0)")
    _expect(canonicalize(-0.5) == (-0.5, 0), "canonicalize(-0.5) == (-0.5, 0)")
    beta, shift = canonicalize(1.75)
    _expect(shift == 2, "canonicalize(1.75) shifts by 2")
    _expect_close(beta, -0.25, 1e-15, "canonicalize(1.75) beta")
    return "beta canonicalization"


def check_kernel_entries():
    k = build_kernel(RingConfig(np.pi, 0.0, 4)).dense()
    _expect(k[0, 0] == 0.0, "K[0,0] == 0 at alpha = pi")
    _expect_close(k[0, 1], 0.0, 1e-12, "K[0,1] at alpha = pi")
    _expect_close(k[1, 1], 2.0, 1e-14, "K[1,1] at alpha = pi")
    k2 = build_kernel(RingConfig(np.pi / 2, -0.5, 2)).dense()
    _expect_close(k2[0, 0], 0.5, 1e-15, "K[0,0] at alpha = pi/2, beta = -1/2")
    return "kernel entries at reference points"


def check_kernel_symmetry():
    worst = kernel_asymmetry(_Draws(7), 5, alphas=(0.1, 6), n_trunc=40)
    _expect(worst == 0.0, f"kernel asymmetric by {worst!r}")
    return "kernel symmetry (bitwise)"


def check_single_mode_unboundedness():
    worst = single_mode_deviation(1.3, -0.25, (0, 10, 100))
    _expect_close(worst, 0.0, 1e-14, "relative deviation of single-mode currents")
    return "single-mode current 2*alpha*(m-beta)/pi"


def check_beta_shift_invariance():
    rng = _Draws(11)
    worst = beta_shift_deviation(rng, 1, alphas=(1.7, 1.7), betas=(-0.4, -0.4), sizes=(12, 13))
    _expect_close(worst, 0.0, 1e-12, "relative current change under beta -> beta + 1")
    _expect(RingConfig(1.7, 0.6, 13).beta_shift == 1, "beta + 1 canonicalizes with shift 1")
    return "beta -> beta + 1 index-shift invariance"


def check_quadrature_oracle():
    rng = _Draws(3)
    worst = quadrature_deviation(
        rng, 3, alphas=(0.3, 4.0), betas=(-0.9, 0.0), n_modes=(8, 9), samples=16385
    )
    _expect_close(worst, 0.0, 1e-8, "Simpson quadrature against the quadratic form")
    return "quadratic form vs Simpson time quadrature"


def check_two_mode():
    _expect_close(two_mode_p(0, 1, np.pi, 0.0, np.pi / 2, 0.0), 1.0, 1e-12, "two-mode P")
    res = minimize_two_mode(0, 1, np.pi, 0.0)
    _expect_close(res.p_min, 0.0, 1e-12, "two-mode minimum at alpha = pi")
    rng = _Draws(5)
    worst = two_mode_scaling_deviation(
        rng, 20, alphas=(0.1, 5.0), betas=(-0.99, 0.0), m1s=(0, 4), gaps=(1, 4)
    )
    _expect_close(worst, 0.0, 1e-12, "relative deviation from the two-mode scaling map")
    return "two-mode closed form and scaling relation"


def check_beta_ordering():
    rng = _Draws(13)
    worst = beta_ordering_increase(rng, 3, alphas=(0.1, 6.0), sizes=(40, 121))
    _expect(worst <= 1e-12, f"rise of {worst!r} along an increasing beta grid")
    return "lambda_min and two-mode bound non-increasing in beta"


def check_zero_at_pi():
    _expect_close(kpi_zero_deviation((1,), 200), 0.0, 1e-12, "|lambda_min| at alpha = pi")
    return "lambda_min = 0 at alpha = pi, beta = 0"


def check_fit_roundtrip():
    ns = [100, 200, 400, 800]
    fit = fit_quadratic([(n, 2.0 + 3.0 / n - 1.0 / n**2) for n in ns])
    _expect_close(fit.a0, 2.0, 1e-10, "fit a0")
    _expect_close(fit.a1, 3.0, 1e-10, "fit a1")
    _expect_close(fit.a2, -1.0, 1e-10, "fit a2")
    _expect(fit.residual < 1e-24, f"fit residual {fit.residual!r} < 1e-24")
    return "quadratic fit recovers exact data"


ALL_CHECKS = [
    check_canonicalize,
    check_kernel_entries,
    check_kernel_symmetry,
    check_single_mode_unboundedness,
    check_beta_shift_invariance,
    check_quadrature_oracle,
    check_two_mode,
    check_beta_ordering,
    check_zero_at_pi,
    check_fit_roundtrip,
]


def run_all(out=print) -> int:
    """Run every check; returns the number of failures."""
    failures = 0
    for check in ALL_CHECKS:
        try:
            label = check()
            out(f"PASS {label}")
        except Exception as exc:
            failures += 1
            out(f"FAIL {check.__name__}: {exc}")
    return failures

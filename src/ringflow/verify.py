"""Fast self-verification: oracles and invariants runnable from the CLI.

Each check is small enough to finish in seconds; the heavyweight golden
reproductions live in the test suite.
"""

from __future__ import annotations

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


def _random_state(rng, n_modes):
    c = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    return c / np.linalg.norm(c)


def check_canonicalize():
    _expect(canonicalize(0.0) == (0.0, 0), "canonicalize(0.0) == (0.0, 0)")
    _expect(canonicalize(-0.5) == (-0.5, 0), "canonicalize(-0.5) == (-0.5, 0)")
    beta, shift = canonicalize(1.75)
    _expect(shift == 2, "canonicalize(1.75) shifts by 2")
    _expect_close(beta, -0.25, 1e-15, "canonicalize(1.75) beta")
    return "beta canonicalization"


def check_kernel_entries():
    k = build_kernel(RingConfig(np.pi, 0.0, 4)).entries
    _expect(k[0, 0] == 0.0, "K[0,0] == 0 at alpha = pi")
    _expect_close(k[0, 1], 0.0, 1e-12, "K[0,1] at alpha = pi")
    _expect_close(k[1, 1], 2.0, 1e-14, "K[1,1] at alpha = pi")
    k2 = build_kernel(RingConfig(np.pi / 2, -0.5, 2)).entries
    _expect_close(k2[0, 0], 0.5, 1e-15, "K[0,0] at alpha = pi/2, beta = -1/2")
    return "kernel entries at reference points"


def check_kernel_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(5):
        cfg = RingConfig(float(rng.uniform(0.1, 6)), float(rng.uniform(-0.99, 0)), 40)
        k = build_kernel(cfg).entries
        _expect(np.array_equal(k, k.T), f"kernel bitwise symmetric at {cfg}")
    return "kernel symmetry (bitwise)"


def check_single_mode_unboundedness():
    alpha, beta = 1.3, -0.25
    for m1 in (0, 10, 100):
        cfg = RingConfig(alpha, beta, max(m1, 1) + 1)
        kern = build_kernel(cfg)
        c = np.zeros(kern.size, dtype=complex)
        c[m1] = 1.0
        p = integrated_current(c, kern)
        _expect_close(p, 2 * alpha * (m1 - beta) / np.pi, 1e-12, f"current of mode {m1}")
    return "single-mode current 2*alpha*(m-beta)/pi"


def beta_shift_currents(alpha: float, beta: float, coeffs) -> tuple[float, float]:
    """Integrated current of coeffs at (alpha, beta), and of the same
    coefficients moved up one index at the raw, uncanonicalized beta + 1.

    m - beta, and with it every kernel entry, is unchanged by beta -> beta + 1
    together with m -> m + 1, so the two currents agree up to rounding.
    """
    n = len(coeffs) - 1
    p0 = integrated_current(coeffs, build_kernel(RingConfig(alpha, beta, n)))
    raw = kernel_entries(alpha, beta + 1.0, n + 2)
    c_shift = np.concatenate([[0.0], coeffs])
    p1 = float((np.conj(c_shift) @ raw @ c_shift).real)
    return p0, p1


def check_beta_shift_invariance():
    rng = np.random.default_rng(11)
    alpha, beta, n = 1.7, -0.4, 12
    p0, p1 = beta_shift_currents(alpha, beta, _random_state(rng, n + 1))
    _expect_close(p1, p0, 1e-12 * max(1.0, abs(p0)), "current after beta -> beta + 1")
    shift = RingConfig(alpha, beta + 1.0, n + 1).beta_shift
    _expect(shift == 1, "beta + 1 canonicalizes with shift 1")
    return "beta -> beta + 1 index-shift invariance"


def check_quadrature_oracle():
    rng = np.random.default_rng(3)
    for _ in range(3):
        alpha = float(rng.uniform(0.3, 4.0))
        beta = float(rng.uniform(-0.9, 0.0))
        state = make_state(_random_state(rng, 8), alpha, beta)
        kern = build_kernel(RingConfig(alpha, beta, 7))
        p_form = integrated_current(state.coeffs, kern)
        p_quad = time_quadrature_p(state, 16385)
        _expect_close(p_quad, p_form, 1e-8, f"Simpson quadrature at alpha = {alpha!r}")
    return "quadratic form vs Simpson time quadrature"


def check_two_mode():
    _expect_close(two_mode_p(0, 1, np.pi, 0.0, np.pi / 2, 0.0), 1.0, 1e-12, "two-mode P")
    res = minimize_two_mode(0, 1, np.pi, 0.0)
    _expect_close(res.p_min, 0.0, 1e-12, "two-mode minimum at alpha = pi")
    rng = np.random.default_rng(5)
    for _ in range(20):
        alpha = float(rng.uniform(0.1, 5.0))
        beta = float(rng.uniform(-0.99, 0.0))
        m1 = int(rng.integers(0, 4))
        m2 = m1 + int(rng.integers(1, 4))
        lhs = two_mode_p_min(m1, m2, alpha, beta)
        b = m2 - m1
        rhs = two_mode_p_min(0, 1, alpha * b * b, (beta - m1) / b) / b
        _expect_close(rhs, lhs, 1e-12 * max(1.0, abs(lhs)), f"scaling of pair ({m1}, {m2})")
    return "two-mode closed form and scaling relation"


def check_zero_at_pi():
    res = min_eigen(build_kernel(RingConfig(np.pi, 0.0, 200)))
    _expect_close(res.lambda_min, 0.0, 1e-12, "lambda_min at alpha = pi")
    return "lambda_min = 0 at alpha = pi, beta = 0"


def check_fit_roundtrip():
    ns = [100, 200, 400, 800]
    fit = fit_quadratic([(n, 2.0 + 3.0 / n - 1.0 / n**2) for n in ns])
    _expect_close(fit.a0, 2.0, 1e-10, "fit a0")
    _expect_close(fit.a1, 3.0, 1e-8, "fit a1")
    _expect_close(fit.a2, -1.0, 1e-6, "fit a2")
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

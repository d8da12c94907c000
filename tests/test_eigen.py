import math
import time

import numpy as np
import pytest
import scipy.linalg

from ringflow import EigenSolveError, RingConfig, build_kernel, eigen, min_eigen
from ringflow.verify import beta_ordering_increase, kpi_zero_deviation

from conftest import ALPHA_STAR, REFERENCE_LAMBDAS, needs_openblas_threads, other_threads_cpu_s


def test_reference_lambda_800(optimum_eigen_cache):
    result = optimum_eigen_cache(800)
    assert result.lambda_min == pytest.approx(REFERENCE_LAMBDAS[800], abs=1e-9)


def test_zero_at_alpha_pi():
    assert max(kpi_zero_deviation((1,), n) for n in (50, 200)) < 1e-12


def test_beta_ordering_on_matrix_free_path():
    # the beta searches evaluate only beta_max; check the ordering
    # they rest on at sizes that take the LOBPCG path
    rng = np.random.default_rng(29)
    assert beta_ordering_increase(rng, 2, alphas=(0.3, 4.0), sizes=(700, 1201)) <= 1e-12


def test_eigenvector_contract(optimum_eigen_cache):
    result = optimum_eigen_cache(800)
    v = result.eigenvector
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    first_nonzero = v[np.abs(v) > 1e-12][0]
    assert first_nonzero > 0
    # size 801 lies far beyond the 25-mode start block, so LOBPCG iterates
    assert result.iterations > 0


def test_residual_certified():
    rng = np.random.default_rng(0)
    for _ in range(5):
        cfg = RingConfig(float(rng.uniform(0.2, 6)), float(rng.uniform(-0.99, 0)), 150)
        kern = build_kernel(cfg)
        result = min_eigen(kern)
        assert result.residual_norm <= 1e-10 * np.max(np.abs(kern.diagonal()))
        assert result.lambda_min <= np.min(kern.diagonal()) + 1e-14


def test_dense_vs_iterative_agree():
    # LOBPCG at small sizes, most beyond the start block, against scipy's
    # subset LAPACK solver
    rng = np.random.default_rng(123)
    for _ in range(20):
        alpha = float(rng.uniform(0.2, 6.0))
        beta = float(rng.uniform(-0.99, 0.0))
        n = int(rng.integers(50, 300))
        kern = build_kernel(RingConfig(alpha, beta, n))
        want = scipy.linalg.eigh(kern.dense(), subset_by_index=(0, 0), eigvals_only=True)[0]
        assert min_eigen(kern).lambda_min == pytest.approx(want, abs=1e-10)


def test_iterative_matches_at_moderate_size():
    kern = build_kernel(RingConfig(ALPHA_STAR, 0.0, 800))
    full = np.linalg.eigvalsh(kern.dense())[0]
    assert min_eigen(kern).lambda_min == pytest.approx(full, abs=1e-10)


def test_variational_bound_via_unit_vectors():
    kern = build_kernel(RingConfig(2.3, -0.4, 80))
    result = min_eigen(kern)
    # lambda_min is a lower bound for every diagonal Rayleigh quotient
    assert result.lambda_min <= np.min(kern.diagonal())


@pytest.mark.parametrize(
    "alpha,beta,n,zero",
    [(math.pi, 0.0, 1000, True), (2 * math.pi, 0.0, 1000, True), (3 * math.pi, 0.0, 1000, True),
     (1.7, -0.4, 1000, False), (1e-4, -0.5, 3999, False), (1e-8, 0.0, 1000, False),
     (1.7, -0.4, 24, False), (1.7, -0.4, 25, False), (1e-2, 0.0, 300, False)],
    ids=["pi", "2pi", "3pi", "beta-nonzero", "nystrom", "tiny-alpha",
         "start-block", "first-iterating", "slowest-small"],
)
def test_lobpcg_matches_dense(alpha, beta, n, zero):
    # zero: alpha = k*pi, beta = 0, where the exact kernel is diagonal with a
    # zero at m = 0.  tiny-alpha: max|D| = 6e-6 puts the certificate at 6e-16,
    # so the LOBPCG tolerance must follow the matvec's own scale.
    # start-block: 25 modes are their own start block, whose dense eigenvector
    # LOBPCG accepts at iteration 0; first-iterating: one mode more.
    # slowest-small: alpha = 1e-2 takes 64 iterations, near the most seen at
    # 300 modes or fewer (69, at alpha = 1.75e-4 and beta = -1/2).
    kern = build_kernel(RingConfig(alpha, beta, n))
    result = min_eigen(kern)
    assert (result.iterations == 0) == (kern.size <= eigen._START_BLOCK) or zero
    want = scipy.linalg.eigh(kern.dense(), subset_by_index=(0, 0), eigvals_only=True)[0]
    assert abs(result.lambda_min - want) <= 1e-12
    assert not zero or abs(result.lambda_min) <= 1e-12


@pytest.mark.parametrize(
    "alpha_over_pi,beta,n",
    [(0.05, 0.0, 1000), (0.05, -0.4, 400), (0.2, 0.0, 400), (0.2, 0.0, 1000),
     (0.3703965, 0.0, 1000), (1.3, -0.4, 1000)],
)
def test_eigenvector_matches_dense(alpha_over_pi, beta, n):
    # the stopping test bounds the residual, not the eigenvector, whose error
    # depends on where the last step lands: at most 2.6e-12 per entry on these
    # and the other points of eigen's note at _LOBPCG_TOL_FACTOR
    kern = build_kernel(RingConfig(alpha_over_pi * math.pi, beta, n))
    v = min_eigen(kern).eigenvector
    want = scipy.linalg.eigh(kern.dense(), subset_by_index=(0, 0))[1][:, 0]
    assert np.max(np.abs(v - math.copysign(1.0, want @ v) * want)) <= 5e-12


def test_small_alpha_solves_stay_under_100_iterations():
    # the band where LOBPCG works hardest (the relative spectral gap is about
    # 0.04 at alpha = 1e-3, against 0.9 at alpha*); the most is 89, at
    # alpha = 1e-3 and N = 3000
    worst = max(
        (min_eigen(build_kernel(RingConfig(alpha, beta, n))).iterations, alpha, beta, n)
        for alpha in (1e-5, 1e-4, 1e-3, 1e-2, 0.1)
        for beta in (0.0, -0.5)
        for n in (1000, 3000)
    )
    assert worst[0] <= 100, worst


@needs_openblas_threads
def test_solves_leave_blas_threads_idle():
    # eigh beyond 25 modes (LAPACK dsyevd's divide-and-conquer cutoff) makes
    # dgemm calls that wake OpenBLAS's worker threads, which then busy-wait
    # between calls and burn about as much CPU as the solves take.  Sizes stay
    # at most 3000: OpenBLAS also threads a ddot above 10000 elements.
    min_eigen(build_kernel(RingConfig(1.0, 0.0, 400)))
    time.sleep(0.5)  # longer than OpenBLAS's spin, so a woken worker sleeps again
    cpu0, t0 = other_threads_cpu_s(), time.perf_counter()
    for alpha in (0.5, ALPHA_STAR, 2.0, 4.0):
        for n in (400, 800, 1600, 3000):
            min_eigen(build_kernel(RingConfig(alpha, -0.2, n)))
    wall = time.perf_counter() - t0
    assert other_threads_cpu_s() - cpu0 <= 0.1 * wall


def test_bad_lobpcg_pair_raises(monkeypatch):
    def stale(apply, x, precond, tol):
        # the start vector with a wrong eigenvalue, as a non-converged run may return
        return -1.0, x, 1

    monkeypatch.setattr(eigen, "_lobpcg", stale)
    with pytest.raises(EigenSolveError, match="lobpcg"):
        min_eigen(build_kernel(RingConfig(ALPHA_STAR, 0.0, 1000)))


def test_rank_deficient_gram_drops_p(monkeypatch):
    # A start vector in an invariant plane of the operator keeps x, w and p in
    # that plane, so from the second step on [x, w, p] is rank-deficient.
    # tol = 0 runs on past convergence, where w is rounding noise, until a
    # residual is exactly zero or _LOBPCG_MAXITER steps are done.
    steps = []
    rayleigh_ritz = eigen._rayleigh_ritz

    def spy(gram, proj):
        ritz = rayleigh_ritz(gram, proj)
        steps.append((len(gram), ritz is None))
        return ritz

    monkeypatch.setattr(eigen, "_rayleigh_ritz", spy)
    drops = 0
    for seed in range(40):
        steps.clear()
        rng = np.random.default_rng(seed)
        a = np.zeros((6, 6))
        a[:2, :2] = rng.standard_normal((2, 2))
        a[2:, 2:] = rng.standard_normal((4, 4))
        a += a.T
        start = np.zeros(6)
        start[:2] = rng.standard_normal(2)
        lam, x, _ = eigen._lobpcg(a.__matmul__, start, rng.uniform(0.2, 2.0, 6), 0.0)
        x = x / np.linalg.norm(x)
        assert np.linalg.norm(a @ x - lam * x) <= 1e-10 * np.max(np.abs(np.diag(a)))
        assert lam == pytest.approx(np.linalg.eigvalsh(a[:2, :2])[0], abs=1e-13)
        # a step that dropped p and went on with Rayleigh-Ritz on [x, w]
        drops += ((3, True), (2, False)) in zip(steps, steps[1:])
    assert drops > 0


def _numpy_rayleigh_ritz(gram, proj):
    inv = np.linalg.inv(np.linalg.cholesky(gram))
    vals, vecs = np.linalg.eigh(inv @ ((proj + proj.T) / 2) @ inv.T)
    return vals[0], inv.T @ vecs[:, 0]


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("delta", [1.0, 1e-2, 1e-4, 1e-5])
def test_rayleigh_ritz_matches_numpy(width, delta):
    # unit basis vectors in R^8, the last within delta of the first, so the
    # last Cholesky pivot is about delta (1e-5 is ten times _GRAM_PIVOT_MIN);
    # rounding in the congruence grows as 1/pivot^2, in both computations
    rng = np.random.default_rng(round(width / delta))
    for _ in range(100):
        a = rng.standard_normal((8, 8))
        a += a.T
        b = rng.standard_normal((width, 8))
        if delta < 1.0:
            b[-1] = b[0] + delta * b[-1]
        b /= np.linalg.norm(b, axis=1)[:, None]
        gram, proj = b @ b.T, (b @ a) @ b.T
        lam, y = eigen._rayleigh_ritz(gram.tolist(), proj.tolist())
        want_lam, want_y = _numpy_rayleigh_ritz(gram, proj)
        assert isinstance(lam, float) and all(isinstance(c, float) for c in y)
        scale = 1e-14 / np.linalg.cholesky(gram).diagonal().min() ** 2
        assert abs(lam - want_lam) <= scale * np.max(np.abs(a))
        ritz, want = b.T @ np.array(y), b.T @ want_y
        assert min(np.max(np.abs(ritz - want)), np.max(np.abs(ritz + want))) <= 10 * scale


@pytest.mark.parametrize(
    "gram",
    [
        [[eigen._GRAM_PIVOT_MIN ** 2, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.0, eigen._GRAM_PIVOT_MIN ** 2]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, (0.5 * eigen._GRAM_PIVOT_MIN) ** 2]],
        [[1.0, 2.0], [2.0, 1.0]],
        [[1.0, 0.5, 0.5], [0.5, 1.0, -0.9], [0.5, -0.9, 1.0]],
        [[1.0, 0.0], [math.nan, 1.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, math.nan]],
    ],
    ids=["first-pivot-at-min", "second-pivot-at-min", "third-pivot-below-min",
         "indefinite", "indefinite-3", "nan-off-diagonal", "nan-pivot"],
)
def test_rayleigh_ritz_rejects_gram(gram):
    # sqrt(fl(x^2)) is x, so a squared pivot of _GRAM_PIVOT_MIN^2 sits at the bound
    assert eigen._rayleigh_ritz(gram, np.eye(len(gram)).tolist()) is None


@pytest.mark.parametrize("width", [2, 3])
def test_rayleigh_ritz_accepts_pivots_above_min(width):
    # a diagonal Gram matrix g and projection -1: the Ritz values are -1/g_i,
    # lowest on the short basis vector, whose coefficient is 1/sqrt(g_i)
    for i in range(width):
        gram = np.eye(width)
        gram[i, i] = (1.01 * eigen._GRAM_PIVOT_MIN) ** 2
        lam, y = eigen._rayleigh_ritz(gram.tolist(), (-np.eye(width)).tolist())
        assert lam == pytest.approx(-1.0 / gram[i, i], rel=1e-12)
        assert np.abs(y) == pytest.approx(np.eye(width)[i] / math.sqrt(gram[i, i]), rel=1e-12)


@pytest.mark.parametrize(
    "start",
    [np.ones(802), np.zeros(400), np.r_[1.0, np.nan], np.r_[1.0, np.inf], np.ones((2, 2)), []],
    ids=["too-long", "all-zero", "nan", "inf", "matrix", "empty"],
)
def test_bad_start_rejected(start):
    with pytest.raises(ValueError, match="start"):
        min_eigen(build_kernel(RingConfig(ALPHA_STAR, 0.0, 800)), start)


def test_warm_start_from_leading_block(optimum_eigen_cache):
    # the N = 800 eigenvector, padded with zeros, starts the N = 1000 solve
    cold = optimum_eigen_cache(1000)
    warm = min_eigen(build_kernel(RingConfig(ALPHA_STAR, 0.0, 1000)),
                     optimum_eigen_cache(800).eigenvector)
    assert (warm.warm_started, cold.warm_started) == (True, False)
    assert warm.iterations < cold.iterations
    assert abs(warm.lambda_min - cold.lambda_min) <= 1e-13
    assert np.max(np.abs(warm.eigenvector - cold.eigenvector)) <= 1e-10


@pytest.mark.parametrize("length", [801, 1001], ids=["padded", "full-length"])
def test_start_left_unchanged(length):
    # LOBPCG updates its vectors in place, on its own copy of the start
    start = np.random.default_rng(length).standard_normal(length)
    kept = start.copy()
    result = min_eigen(build_kernel(RingConfig(ALPHA_STAR, 0.0, 1000)), start)
    assert result.warm_started
    assert np.array_equal(start, kept)


def test_start_ignored_within_start_block():
    # a kernel of at most 25 modes keeps its exact dense start
    kern = build_kernel(RingConfig(1.7, -0.4, 24))
    result = min_eigen(kern, np.ones(10))
    assert (result.warm_started, result.iterations) == (False, 0)
    assert result.lambda_min == min_eigen(kern).lambda_min

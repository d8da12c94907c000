import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringflow import (
    RingConfig,
    build_kernel,
    canonicalize,
    eigen,
    integrated_current,
    sinc,
)
from ringflow import kernel
from ringflow.verify import beta_shift_deviation, random_state, single_mode_deviation


class TestSinc:
    def test_zero_is_one(self):
        assert sinc(0.0) == 1.0

    def test_matches_direct_ratio(self):
        z = np.array([1e-3, 0.1, 1.0, math.pi, 10.0])
        assert np.allclose(sinc(z), np.sin(z) / z, rtol=1e-15)

    def test_even(self):
        z = np.linspace(-5, 5, 101)
        assert np.array_equal(sinc(z), sinc(-z))

    def test_taylor_branch_accuracy(self):
        import mpmath

        for z in (1e-9, 1e-6, 5e-5, 9.9e-5):
            exact = float(mpmath.sin(mpmath.mpf(z)) / mpmath.mpf(z))
            assert sinc(z) == pytest.approx(exact, abs=3e-16)


def test_two_pi_constants_are_double_doubles():
    # the phase reductions carry 2*pi and 1/(2*pi) as hi + lo to about 1e-32
    import mpmath

    with mpmath.workdps(50):
        two_pi = 2 * mpmath.pi
        for (hi, lo), exact in (((kernel._TWO_PI_HI, kernel._TWO_PI_LO), two_pi),
                                ((kernel._INV_TWO_PI_HI, kernel._INV_TWO_PI_LO), 1 / two_pi)):
            assert hi == float(exact)
            assert abs(mpmath.mpf(hi) + mpmath.mpf(lo) - exact) <= 1e-32 * exact



class TestPhaseReduction:
    """kernel._turned, the one reduction mod 2*pi, holds to 2^52 turns and
    refuses every phase past them."""

    @pytest.mark.parametrize("beta", [0.0, -0.3])
    def test_phase_matches_mpmath_just_below_the_limit(self, beta):
        # alpha = 3e9 at N = 3000 reaches 2.7e16 rad, 0.95 of the limit; there
        # the first pass of the reduction leaves the phase up to 1.5 turns wide
        # (9.7 rad, sines 1.1e-15 off), and the second brings it into [-pi, pi]
        import mpmath

        phase = kernel._phase(3e9, beta, 3001)
        with mpmath.workdps(60):
            exact = [mpmath.mpf(3e9) * (m - mpmath.mpf(beta)) ** 2 for m in range(3001)]
            sines = np.array([float(mpmath.sin(x)) for x in exact])
            cosines = np.array([float(mpmath.cos(x)) for x in exact])
        assert 0.95 * kernel._MOST_TURNED < float(exact[-1]) <= kernel._MOST_TURNED
        assert np.max(np.abs(phase)) <= math.pi
        assert np.max(np.abs(np.sin(phase) - sines)) <= 8e-16
        assert np.max(np.abs(np.cos(phase) - cosines)) <= 8e-16

    def test_phase_past_the_limit_is_refused(self):
        # alpha = 1e13 at N = 3000 forms 9e19 rad, whose sines were 3.8e-13 off
        with pytest.raises(ValueError, match=r"^the phases at alpha = 10000000000000\.0 "
                           r"overflow \(a phase of 9e\+19 rad is past the 2\^52 turns"):
            kernel._phase(1e13, 0.0, 3001)

    def test_limit_is_2_52_turns(self):
        rate = np.array([kernel._MOST_TURNED, 1.0])
        kernel._turned(rate, 1.0)
        with pytest.raises(FloatingPointError, match=r"past the 2\^52 turns"):
            kernel._turned(np.nextafter(rate, np.inf), 1.0)
        assert kernel._MOST_TURNED == 2.0**52 * kernel._TWO_PI_HI

    def test_reduced_pair_is_normalized(self):
        # near the limit the low part gathers about 1 rad of roundings before
        # the last TwoSum; after it, |lo| is at most half an ulp of hi, and
        # hi + lo is the exact product less whole turns
        import mpmath

        rate = np.array([8e18, 1.9e19, 7.0, 0.0])
        t, t_err = 3.0 / 2048, 1e-20
        hi, lo = kernel._turned(rate, t, t_err)
        assert np.all(np.abs(lo) <= np.spacing(np.abs(hi)) / 2)
        with mpmath.workdps(60):
            two_pi = 2 * mpmath.pi
            for r, h, l in zip(rate, hi, lo):
                x = mpmath.mpf(r) * (mpmath.mpf(t) + mpmath.mpf(t_err))
                turns = (x - mpmath.mpf(h) - mpmath.mpf(l)) / two_pi
                assert abs(turns - mpmath.nint(turns)) * two_pi <= 1e-15
                assert abs(h) <= math.pi + np.spacing(math.pi)

class TestCanonicalize:
    @pytest.mark.parametrize(
        "raw,expected_beta,expected_shift",
        [(0.0, 0.0, 0), (-0.5, -0.5, 0), (1.75, -0.25, 2)],
    )
    def test_examples(self, raw, expected_beta, expected_shift):
        beta, shift = canonicalize(raw)
        assert shift == expected_shift
        assert beta == pytest.approx(expected_beta, abs=1e-15)

    @given(st.floats(min_value=-50, max_value=50, allow_nan=False))
    def test_result_in_interval(self, raw):
        beta, shift = canonicalize(raw)
        assert -1 < beta <= 0
        # exact except when raw sits within one rounding step above an integer,
        # where the subtraction would land on the excluded endpoint -1
        assert beta == raw - shift or (beta == 0.0 and abs(raw - shift) < 1e-9)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            canonicalize(bad)


class TestRingConfig:
    def test_canonicalizes_and_records_shift(self):
        cfg = RingConfig(1.0, 1.75, 10)
        assert cfg.beta == pytest.approx(-0.25)
        assert cfg.beta_shift == 2

    def test_shift_is_not_an_argument(self):
        # beta_shift is derived from beta in __post_init__, never passed in
        with pytest.raises(TypeError):
            RingConfig(1.0, 1.75, 10, beta_shift=0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            RingConfig(alpha, 0.0, 10)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            RingConfig(1.0, 0.0, 0)


class TestBuildKernel:
    def test_reference_entries_alpha_pi(self):
        k = build_kernel(RingConfig(math.pi, 0.0, 3)).dense()
        assert k[0, 0] == 0.0
        assert k[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert k[1, 1] == pytest.approx(2.0, abs=1e-14)

    def test_reference_entry_half_pi(self):
        k = build_kernel(RingConfig(math.pi / 2, -0.5, 2)).dense()
        assert k[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_diagonal_formula(self):
        cfg = RingConfig(1.3, -0.7, 30)
        k = build_kernel(cfg)
        m = np.arange(31)
        expected = 2 * cfg.alpha / math.pi * (m - cfg.beta)
        assert np.allclose(k.diagonal(), expected, rtol=1e-14)
        assert np.all(k.diagonal() >= 0)

    def test_diagonal_at_multiples_of_pi(self):
        for kk in (1, 2, 3):
            mat = build_kernel(RingConfig(kk * math.pi, 0.0, 20)).dense()
            off = mat - np.diag(np.diagonal(mat))
            assert np.max(np.abs(off)) < 1e-11
            assert np.allclose(np.diagonal(mat), 2 * kk * np.arange(21), atol=1e-10)

    @given(
        st.floats(min_value=0.05, max_value=10.0),
        st.floats(min_value=-0.999, max_value=0.0),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=30, deadline=None)
    def test_symmetry_bitwise(self, alpha, beta, n):
        k = build_kernel(RingConfig(alpha, beta, n)).dense()
        assert np.array_equal(k, k.T)

    def test_entries_immutable(self):
        k = build_kernel(RingConfig(1.0, 0.0, 5))
        with pytest.raises(ValueError):
            k.dense()[0, 0] = 1.0


class TestIntegratedCurrent:
    def test_single_mode_closed_form(self):
        # 2*alpha*(m - beta)/pi = 6 at alpha = pi, m = 3, to 1e-12
        assert single_mode_deviation(math.pi, 0.0, (3,)) <= 1e-12 / 6

    def test_equal_two_mode_at_pi(self):
        kern = build_kernel(RingConfig(math.pi, 0.0, 5))
        c = np.zeros(6, dtype=complex)
        c[0] = c[1] = 1 / math.sqrt(2)
        assert integrated_current(c, kern) == pytest.approx(1.0, abs=1e-12)

    def test_ground_mode_zero(self):
        kern = build_kernel(RingConfig(math.pi, 0.0, 5))
        c = np.zeros(6, dtype=complex)
        c[0] = 1.0
        assert integrated_current(c, kern) == 0.0

    def test_unboundedness_probe(self):
        # 2*alpha*(m - beta)/pi increases with m, so within 1e-14 the currents do too
        assert single_mode_deviation(0.9, -0.3, (0, 10, 100)) <= 1e-14

    def test_dimension_mismatch_rejected(self):
        kern = build_kernel(RingConfig(1.0, 0.0, 5))
        with pytest.raises(ValueError, match="match"):
            integrated_current(np.ones(3) / math.sqrt(3), kern)

    def test_unnormalized_rejected(self):
        kern = build_kernel(RingConfig(1.0, 0.0, 5))
        with pytest.raises(ValueError, match="normalized"):
            integrated_current(np.ones(6, dtype=complex), kern)

    def test_deterministic_and_matches_row_ordered_sum(self):
        rng = np.random.default_rng(17)
        kern = build_kernel(RingConfig(0.3703965 * math.pi, -0.3, 3000))
        c = random_state(rng, kern.size)
        first = integrated_current(c, kern)
        for _ in range(3):
            assert integrated_current(c, kern) == first
        entries = kern.dense()
        rows = 0.0 + 0.0j
        for m in range(kern.size):
            rows += np.conj(c[m]) * np.dot(entries[m], c)
        assert first == pytest.approx(rows.real, rel=1e-14)

    def test_beta_shift_invariance(self):
        rng = np.random.default_rng(42)
        worst = beta_shift_deviation(rng, 10, alphas=(0.2, 5.0), betas=(-0.99, 0.0), sizes=(4, 20))
        assert worst <= 1e-12


def random_vector(rng, size, layout):
    """A random vector of size entries: contiguous ("vector"), or a strided
    column of a (size, 3) block ("block")."""
    column = rng.standard_normal((size, 3))[:, 1]
    return column if layout == "block" else column.copy()


class TestOperator:
    @pytest.mark.parametrize(
        "alpha,beta,n",
        [(0.3703965 * math.pi, 0.0, 800), (1.7, -0.4, 3000), (1e-4, -0.5, 3999)],
        ids=["beta-zero", "beta-nonzero", "nystrom"],
    )
    def test_matvec_matches_dense(self, alpha, beta, n):
        kern = build_kernel(RingConfig(alpha, beta, n))
        x = np.random.default_rng(8).standard_normal((kern.size, 3))
        want = kern.dense() @ x
        got = np.column_stack([kern.matvec(column) for column in x.T])
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        # a strided column gives the same numbers as its contiguous copy
        assert np.array_equal(kern.matvec(x[:, 1].copy()), got[:, 1])

    @pytest.mark.parametrize("size", [2, 3, eigen._START_BLOCK + 1])
    @pytest.mark.parametrize("layout", ["vector", "block"])
    def test_matvec_small_and_crossover_sizes(self, size, layout):
        # the circulant embedding's edge cases, and the smallest size at which
        # LOBPCG iterates beyond its start block
        kern = build_kernel(RingConfig(1.7, -0.4, size - 1))
        x = random_vector(np.random.default_rng(size), size, layout)
        want = kern.dense() @ x
        got = kern.matvec(x)
        assert got.shape == want.shape == (size,)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("size", [2, eigen._START_BLOCK + 1, 3000])
    @pytest.mark.parametrize("layout", ["vector", "block"])
    def test_matvec_leaves_input_and_returns_new_arrays(self, size, layout):
        # matvec works in place on its own buffers: a read-only input must do,
        # and changing one result must change no later one
        kern = build_kernel(RingConfig(1.7, -0.4, size - 1))
        x = random_vector(np.random.default_rng(size), size, layout)
        kept = x.copy()
        x.setflags(write=False)
        first = kern.matvec(x)
        want = first.copy()
        first[...] = np.nan
        second = kern.matvec(x)
        assert np.array_equal(x, kept)
        assert not np.shares_memory(second, first) and not np.shares_memory(second, x)
        assert np.array_equal(second, want)

    @pytest.mark.parametrize("layout", ["vector", "block"])
    def test_matvec_keeps_its_buffers(self, layout):
        # after the first product, a matvec allocates its result and next to
        # nothing else: the FFT work buffers are kept
        kern = build_kernel(RingConfig(1.7, -0.4, 4999))
        x = random_vector(np.random.default_rng(5), kern.size, layout)
        kern.matvec(x)
        tracemalloc.start()
        try:
            for _ in range(3):
                tracemalloc.reset_peak()
                result = kern.matvec(x)
                peak = tracemalloc.get_traced_memory()[1]
                assert peak <= result.nbytes + 16384  # each buffer: 160 kB
                del result
        finally:
            tracemalloc.stop()

    def test_smaller_kernel_is_bitwise_leading_block(self):
        # a ladder's rungs are built, each from its own config: the kernel on
        # k modes is the leading block of the kernel on more, bit for bit
        full = build_kernel(RingConfig(1.7, -0.4, 900))
        entries = full.dense()
        for k in (2, 64, 450, 901):
            block = build_kernel(RingConfig(1.7, -0.4, k - 1))
            assert block.size == k == block.config.n_trunc + 1
            assert np.array_equal(block.dense(), entries[:k, :k])
            assert np.array_equal(block.diagonal(), np.diagonal(entries)[:k])
            assert np.array_equal(block.sin_phase, full.sin_phase[:k])
            assert np.array_equal(block.cos_phase, full.cos_phase[:k])

    def test_matvec_shape_checked(self):
        # one vector of size entries; a block of vectors is rejected too
        kern = build_kernel(RingConfig(1.0, 0.0, 5))
        for x in (np.ones(5), np.ones(7), 1.0, np.ones((6, 1)), np.ones((6, 3)), np.ones((1, 6))):
            with pytest.raises(ValueError, match=r"need shape \(6,\)"):
                kern.matvec(x)

"""Pochhammer k-symbol: product, symmetric-function expansion, k-derivative,
rescaling. Exact-mode tests use Fractions so agreement means identical
rationals, not close floats."""

import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kspecial import pochhammer
from kspecial.errors import DomainError, ResultOverflow
from kspecial.gammak import GammaKEvaluator
from kspecial.loggamma import log_gamma_classic
from kspecial.pochhammer import (PochhammerSpec, pochhammer_dk, pochhammer_k,
                                 pochhammer_k_log, pochhammer_rescale,
                                 pochhammer_via_symmetric)

from oracles import central_diff, pochhammer_k_log_array, rising_product

# strategies shared by the exact-mode property tests
_exact_x = st.fractions(min_value=-6, max_value=6, max_denominator=12)
_exact_k = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8)
_small_n = st.integers(min_value=0, max_value=9)


class TestDirectProduct:
    @pytest.mark.parametrize("x,n,k,want", [
        (2, 3, 3, 80),            # 2*5*8
        (3, 9, 2, 654729075),     # 3*5*7*...*19
        (1, 5, 1, 120),           # (1)_{n,1} = n!
        (7, 0, 2, 1),             # empty product
        (Fraction(1, 2), 3, Fraction(1, 2), Fraction(3, 4)),  # 1/2 * 1 * 3/2
    ])
    def test_frozen_values(self, x, n, k, want):
        assert pochhammer_k(PochhammerSpec(x, n, k)) == want

    def test_float_matches_oracle_product(self):
        for x in (-2.5, 0.3, 1.0, 7.0):
            for k in (0.5, 1.0, 2.0, 3.0):
                for n in range(9):
                    got = pochhammer_k(PochhammerSpec(x, n, k))
                    want = rising_product(x, n, k)
                    assert got == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_zero_factor_gives_zero(self):
        assert pochhammer_k(PochhammerSpec(-4, 4, 2)) == 0

    def test_overflow_signaled(self):
        with pytest.raises(OverflowError):
            pochhammer_k(PochhammerSpec(10.0, 400, 10.0))

    def test_overflow_is_typed(self):
        with pytest.raises(ResultOverflow):
            pochhammer_k(PochhammerSpec(1.5, 400, 2.0))

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            PochhammerSpec(1.0, -1, 1.0)
        with pytest.raises(DomainError):
            PochhammerSpec(1.0, 2, 0.0)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(x=_exact_x, n=_small_n, k=_exact_k)
    def test_recurrence_exact(self, x, n, k):
        # (x)_{n+1,k} = (x)_{n,k} * (x + nk)
        lhs = pochhammer_k(PochhammerSpec(x, n + 1, k))
        rhs = pochhammer_k(PochhammerSpec(x, n, k)) * (x + n * k)
        assert lhs == rhs


class TestLogForm:
    def test_matches_direct_for_moderate_n(self):
        spec = PochhammerSpec(1.7, 40, 0.5)
        log_abs, sign = pochhammer_k_log(spec)
        assert sign == 1
        assert math.exp(log_abs) == pytest.approx(pochhammer_k(spec), rel=1e-12)

    def test_large_n_against_lgamma(self):
        # (x)_{n,k} = k^n Gamma(x/k + n)/Gamma(x/k); stdlib lgamma as oracle
        x, n, k = 0.7, 100_000, 2.0
        log_abs, sign = pochhammer_k_log(PochhammerSpec(x, n, k))
        want = n * math.log(k) + math.lgamma(x / k + n) - math.lgamma(x / k)
        assert sign == 1
        assert log_abs == pytest.approx(want, abs=1e-7)

    def test_sign_tracking(self):
        # x = -2.5, k = 1: factors -2.5, -1.5, -0.5, 0.5, ... -> sign flips
        _, sign = pochhammer_k_log(PochhammerSpec(-2.5, 3, 1.0))
        assert sign == -1
        _, sign = pochhammer_k_log(PochhammerSpec(-2.5, 4, 1.0))
        assert sign == -1
        _, sign = pochhammer_k_log(PochhammerSpec(-2.5, 2, 1.0))
        assert sign == 1

    def test_zero_factor(self):
        log_abs, sign = pochhammer_k_log(PochhammerSpec(-4.0, 4, 2.0))
        assert sign == 0 and log_abs == -math.inf


def _lattice_x(rng: random.Random, n: int, k: float) -> float:
    """x at, or one ulp either side of, a point -jk of the pole lattice with
    j drawn from the factor range (and a little past it)."""
    x = -rng.randint(0, n + 10) * k
    step = rng.choice((0, 1, -1))
    return math.nextafter(x, step * math.inf) if step else x


class TestChunkedKernel:
    """The numpy path of pochhammer_k_log against the full-array formula."""

    def test_one_chunk_is_bit_identical(self):
        # n in [_NUMPY_CUTOFF, _CHUNK]: one chunk, so the same factors and
        # the same pairwise sum as the full array
        assert pochhammer._CHUNK == 32768
        rng = random.Random(20240817)
        for _ in range(300):
            n = rng.randint(pochhammer._NUMPY_CUTOFF, pochhammer._CHUNK)
            k = math.exp(rng.uniform(math.log(1e-3), math.log(10.0)))
            x = (_lattice_x(rng, n, k) if rng.random() < 0.5
                 else rng.uniform(-1.2 * n * k, 50.0))
            got = pochhammer_k_log(PochhammerSpec(x, n, k))
            assert got == pochhammer_k_log_array(x, n, k), (x, n, k)

    @pytest.mark.parametrize("n", [32769, 100_000, 1_000_000])
    @pytest.mark.parametrize("x,k", [(0.7, 2.0), (1.0, 1.0), (3.3, 0.5),
                                     (1e-3, 7.0)])
    def test_many_chunks_against_lgamma(self, n, x, k):
        # (x)_{n,k} = k^n Gamma(x/k + n) / Gamma(x/k); each side carries
        # about one rounding of its largest term, the kernel's n logs a
        # pairwise sum per chunk
        log_abs, sign = pochhammer_k_log(PochhammerSpec(x, n, k))
        parts = (n * math.log(k), math.lgamma(x / k + n), -math.lgamma(x / k))
        tol = 8 * sys.float_info.epsilon * (sum(map(abs, parts)) + n)
        assert sign == 1
        assert abs(log_abs - math.fsum(parts)) <= tol

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(k=st.floats(1e-9, 10.0), j=st.integers(0, 70_000),
           step=st.sampled_from((-1, 0, 1)),
           n=st.integers(pochhammer._NUMPY_CUTOFF, 70_000))
    def test_negative_and_zero_count(self, k, j, step, n):
        # x on the lattice point -jk or one ulp off it: the sign change and
        # the zero factor can fall in any chunk, or past the last factor
        x = -j * k
        if step:
            x = math.nextafter(x, step * math.inf)
        log_abs, sign = pochhammer_k_log(PochhammerSpec(x, n, k))
        want_log, want_sign = pochhammer_k_log_array(x, n, k)
        assert sign == want_sign
        if sign == 0:
            assert log_abs == -math.inf
        else:
            # past one chunk the sum is chunked, so only rounding differs
            assert abs(log_abs - want_log) <= 1e-12 * (abs(log_abs) + n)

    def test_first_nonnegative_matches_a_scan(self):
        # ceil(-x/k) is one off either way on about 2% of lattice points,
        # more often than the hypothesis test above draws them
        rng = random.Random(7)
        for _ in range(3000):
            n = rng.randint(1, 1000)
            k = math.exp(rng.uniform(math.log(1e-12), math.log(1e3)))
            x = _lattice_x(rng, n, k)
            want = next((j for j in range(n) if x + k * float(j) >= 0.0), n)
            assert pochhammer._first_nonnegative(x, k, n) == want, (x, k, n)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nonfinite_arguments_follow_the_array(self):
        for x, k in ((-math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf)):
            got = pochhammer_k_log(PochhammerSpec(x, 600, k))
            want = pochhammer_k_log_array(x, 600, k)
            assert got[1] == want[1]
            assert got[0] == want[0] or (math.isnan(got[0])
                                         and math.isnan(want[0]))


class TestLimitSplit:
    """gamma_k_limit reads (x)_{n,k} as (x)_{h,k} (x+hk)_{n-h,k}."""

    @staticmethod
    def _unsplit(k, x, n):
        """iterate(n) from one log-Pochhammer over all n factors, and the
        rounding it may differ by: eps * sqrt(n) * sum |log term|, the
        running-sum model of pochhammer.log_sum_rounding on every term."""
        log_poch, sign = pochhammer_k_log_array(x, n, k)
        terms = (log_gamma_classic(n + 1.0), n * math.log(k),
                 (x / k - 1.0) * math.log(n * k), -log_poch)
        tol = (sys.float_info.epsilon * math.sqrt(n)
               * math.fsum(abs(t) for t in terms))
        return sign * math.exp(math.fsum(terms)), tol

    @pytest.mark.parametrize("n", [513, 1025, 3001, 65_537])
    @pytest.mark.parametrize("k,x", [(1.0, 2.5), (0.5, -0.3), (2.0, 7.0)])
    def test_odd_n_matches_one_pass(self, k, x, n):
        got = GammaKEvaluator(k).limit(x, n).value
        want, tol = self._unsplit(k, x, n)
        assert got == pytest.approx(want, rel=tol)

    def test_n_one(self):
        # h = 1 and an empty second range: iterate(1) = k^(x/k) / x
        for k, x in ((1.0, 2.5), (2.0, -0.7)):
            r = GammaKEvaluator(k).limit(x, 1)
            assert r.value == pytest.approx(k ** (x / k) / x, rel=1e-14)
            assert r.err_estimate <= 1e-14 * abs(r.value)

    @pytest.mark.parametrize("n", [301, 1025, 100_001])
    def test_sign_across_the_split(self, n):
        # negatives fill the first range and spill into the second, so the
        # sign is the product of both parts; past n ~ 340 the value
        # underflows to a signed zero, which still carries the sign
        h = n // 2
        for extra in (0, 1, 2):
            x = -(h + extra + 0.5)
            got = GammaKEvaluator(1.0).limit(x, n).value
            want, tol = self._unsplit(1.0, x, n)
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
            assert got == pytest.approx(want, rel=tol)

    def test_peak_allocation_below_1mb(self):
        ev = GammaKEvaluator(2.0)
        ev.limit(0.7, 1_000_000)        # build the chunk table first
        tracemalloc.start()
        try:
            ev.limit(0.7, 1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSymmetricExpansion:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(x=_exact_x, n=_small_n, k=_exact_k)
    def test_agrees_exactly_with_product(self, x, n, k):
        spec = PochhammerSpec(x, n, k)
        assert pochhammer_via_symmetric(spec) == pochhammer_k(spec)

    def test_float_grid(self):
        for x in (-2.5, 0.3, 1.0, 7.0):
            for k in (0.5, 1.0, 2.0, 3.0):
                for n in range(9):
                    spec = PochhammerSpec(x, n, k)
                    direct = pochhammer_k(spec)
                    assert pochhammer_via_symmetric(spec) == pytest.approx(
                        direct, rel=1e-12, abs=1e-12)


class TestKDerivative:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(x=_exact_x, n=st.integers(0, 7), k=_exact_k)
    def test_exact_against_symmetric_derivative(self, x, n, k):
        # d/dk of sum_s e_s k^s x^(n-s) is sum_s e_s s k^(s-1) x^(n-s);
        # independent of the convolution formula under test
        got = pochhammer_dk(PochhammerSpec(x, n, k))
        if n == 0:
            assert got == 0
            return
        from kspecial.pochhammer import _elementary_symmetric_table
        e = _elementary_symmetric_table(n - 1)
        want = sum(e[s] * s * k ** (s - 1) * x ** (n - s) for s in range(1, n))
        assert got == want

    def test_float_against_central_difference(self):
        for x in (-2.5, 0.3, 1.0, 7.0):
            for k in (0.5, 1.0, 2.0, 3.0):
                for n in (2, 4, 7):
                    got = pochhammer_dk(PochhammerSpec(x, n, k))
                    fd = central_diff(
                        lambda kk: rising_product(x, n, kk), k, 1e-6)
                    assert got == pytest.approx(fd, rel=1e-6, abs=1e-5)


class TestRescale:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(x=_exact_x, n=_small_n, s=_exact_k, k=_exact_k)
    def test_exact(self, x, n, s, k):
        got = pochhammer_rescale(x, n, s, k)
        want = pochhammer_k(PochhammerSpec(x, n, s))
        assert got == want

    def test_float(self):
        got = pochhammer_rescale(1.3, 5, 2.0, 0.5)
        want = rising_product(1.3, 5, 2.0)
        assert got == pytest.approx(want, rel=1e-13)

    def test_bad_target_step(self):
        with pytest.raises(DomainError):
            pochhammer_rescale(1.0, 3, 0.0, 1.0)

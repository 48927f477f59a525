"""Pochhammer k-symbol: product, symmetric-function expansion, k-derivative,
rescaling. Exact-mode tests use Fractions so agreement means identical
rationals, not close floats."""

import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kspecial import pochhammer
from kspecial.errors import DomainError, ResultOverflow
from kspecial.gammak import gamma_k_limit
from kspecial.loggamma import log_gamma_classic
from kspecial.pochhammer import (PochhammerSpec, pochhammer_dk, pochhammer_k,
                                 pochhammer_k_log, pochhammer_rescale,
                                 pochhammer_via_symmetric)

from oracles import (central_diff, pochhammer_k_fraction_loop, pochhammer_k_log_array,
                     pochhammer_k_log_chunked, pochhammer_k_log_loop, pochhammer_k_tested,
                     pochhammer_symmetric_fraction_sum, rising_product)

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

    def test_overflow_names_the_first_inf_factor(self):
        # the product is inf from factor 131 on and nan after the zero factor 301
        with pytest.raises(ResultOverflow, match=re.escape("at factor 131 of 301")):
            pochhammer_k(PochhammerSpec(-300.0, 301, 1.0))

    def test_matches_per_factor_overflow_test(self):
        # one test after the loop against a test after every factor: the
        # same value bit for bit, or the same error and message
        rng = random.Random(20241019)
        for i in range(3000):
            n = rng.randint(0, 400)
            k = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            if i % 3 == 0:
                x = _lattice_x(rng, n, k)
            elif i % 3 == 1:
                x = -rng.uniform(0.0, n * k)   # the factors cross zero
            else:
                x = (math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
                     * rng.choice((1.0, -1.0)))
            assert _outcome(pochhammer_k, PochhammerSpec(x, n, k)) \
                == _outcome(pochhammer_k_tested, x, n, k, ResultOverflow), (x, n, k)

    @pytest.mark.parametrize("x,n,k", [
        (-300.0, 301, 1.0),
        (1e300, 3, 10 ** 308),   # inf at factor 2, then a factor beyond the float range
        (1e300, 2, 10 ** 400),   # a factor beyond the float range, no inf before it
        (math.nan, 5, 1.0), (math.inf, 3, 1.0), (-math.inf, 3, 1.0),
        (0.0, 3, math.inf),      # 0 * inf: nan with no inf partial product
        (1.0, 3, math.inf), (math.inf, 0, 1.0),
    ], ids=["zero-after-overflow", "int-k-after-inf", "int-k-past-float", "nan-x",
            "inf-x", "minus-inf-x", "nan-without-inf", "inf-k", "no-factors"])
    def test_overflow_and_nonfinite_match_per_factor_test(self, x, n, k):
        # _make skips the spec's refusal of non-finite floats
        spec = PochhammerSpec._make((x, n, k))
        got = _outcome(pochhammer_k, spec)
        assert got == _outcome(pochhammer_k_tested, x, n, k, ResultOverflow)
        assert got != "nan"

    @pytest.mark.parametrize("x", [0.0, -1.7e308])
    def test_a_factor_beyond_the_float_range_is_refused(self, x):
        # a zero factor met the inf last factor: nan,nan with exit 0
        with pytest.raises(DomainError, match=re.escape(
                f"needs a finite last factor x + (n-1)k, got x={x}, n=3, k=1.7e+308")):
            pochhammer_k(PochhammerSpec(x, 3, 1.7e308))

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            PochhammerSpec(1.0, -1, 1.0)
        with pytest.raises(DomainError):
            PochhammerSpec(1.0, 2, 0.0)

    def test_nonfinite_float_is_domain_error(self):
        # the product at k = inf was nan
        with pytest.raises(DomainError, match="k must be finite, got inf"):
            pochhammer_k(PochhammerSpec(1.0, 3, math.inf))

    def test_exact_parameters_of_any_size_pass(self):
        # math.isfinite raises OverflowError on an int this large
        big = 10 ** 400
        assert pochhammer_k(PochhammerSpec(big, 2, big)) == 2 * big * big
        assert pochhammer_k(PochhammerSpec(Fraction(big, 3), 1, Fraction(1, big))) \
            == Fraction(big, 3)

    def test_step_1_is_the_rising_factorial_bit_for_bit(self):
        # zetak takes (s)_m from pochhammer_k(PochhammerSpec(s, m, 1))
        rng = random.Random(20261019)
        for _ in range(3000):
            s, m = rng.uniform(-50.0, 50.0), rng.randint(0, 12)
            got = pochhammer_k(PochhammerSpec(s, m, 1))
            assert got.hex() == rising_product(s, m, 1).hex(), (s, m)

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

    def test_nonfinite_float_is_domain_error(self):
        # the numpy path returned (nan, 1)
        with pytest.raises(DomainError, match="x must be finite, got nan"):
            pochhammer_k_log(PochhammerSpec(math.nan, 600, 1.0))

    @pytest.mark.parametrize("n", [2 ** 53 + 1, 10 ** 400])
    def test_n_past_exact_float_indices_is_domain_error(self, n):
        # 10**400 raised an untyped OverflowError from the last-factor check,
        # and 2**53 + 1 walked its factors without end
        with pytest.raises(DomainError, match=re.escape("n <= 2**53")):
            pochhammer_k_log(PochhammerSpec(1.0, n, 1.0))

    def test_overflowing_last_factor_is_domain_error(self):
        # log|(x)_{300,k}| ~ 2.1e5 is finite, but the factors from x + 179k
        # on are not: the loop returned (inf, 1)
        with pytest.raises(DomainError, match=re.escape("x + (n-1)k")):
            pochhammer_k_log(PochhammerSpec(1e306, 300, 1e306))


def _outcome(f, *args):
    """repr of f's value, or the type and message of what it raised."""
    try:
        return repr(f(*args))
    except Exception as e:  # noqa: BLE001 - compared, not handled
        return type(e), str(e)


def _lattice_x(rng: random.Random, n: int, k: float) -> float:
    """x at, or one ulp either side of, a point -jk of the pole lattice with
    j drawn from the factor range (and a little past it)."""
    x = -rng.randint(0, n + 10) * k
    step = rng.choice((0, 1, -1))
    return math.nextafter(x, step * math.inf) if step else x


class TestScalarLoop:
    """The scalar path of pochhammer_k_log (n < _NUMPY_CUTOFF) against the
    loop that tests every factor for zero and sign: bit for bit."""

    def test_matches_per_factor_loop(self):
        rng = random.Random(20240818)
        for i in range(2000):
            n = rng.randint(0, pochhammer._NUMPY_CUTOFF - 1)
            k = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            if i % 3 == 0:
                x = _lattice_x(rng, n, k)
            else:
                x = (math.exp(rng.uniform(math.log(1e-3), math.log(3e3)))
                     * rng.choice((1.0, -1.0)))
            got = pochhammer_k_log(PochhammerSpec(x, n, k))
            assert got == pochhammer_k_log_loop(x, n, k), (x, n, k)

    def test_nonfinite_arguments(self):
        # an inf or nan x or k runs the scalar loop at every n, so no numpy
        # warning leaks from the array path
        cut = pochhammer._NUMPY_CUTOFF
        for x, k in ((-math.inf, 1.0), (math.inf, 1.0), (math.nan, 1.0),
                     (-1.0, math.inf), (1.0, math.inf), (-math.inf, math.inf),
                     (-0.0, 1.0)):
            for n in (1, 2, 5, cut - 1, cut, 511):
                # _make skips the spec's refusal of non-finite floats
                got = pochhammer_k_log(PochhammerSpec._make((x, n, k)))
                assert repr(got) == repr(pochhammer_k_log_loop(x, n, k)), (x, n, k)


class TestChunkedKernel:
    """The numpy path of pochhammer_k_log against the full-array formula
    (bit for bit in one chunk), the chunked formula (bit for bit) and lgamma
    (to within rounding)."""

    def test_one_chunk_is_bit_identical(self):
        # n in [_NUMPY_CUTOFF, _CHUNK]: one chunk, so the same factors and
        # the same pairwise sum as the full array
        assert pochhammer._CHUNK == 32768
        rng = random.Random(20240817)
        for i in range(300):
            n = rng.randint(pochhammer._NUMPY_CUTOFF, pochhammer._CHUNK)
            k = math.exp(rng.uniform(math.log(1e-3), math.log(10.0)))
            if i % 3 == 0:
                x = _lattice_x(rng, n, k)
            elif i % 3 == 1:
                x = rng.uniform(-1.2 * n * k, 50.0)
            else:
                x = math.exp(rng.uniform(math.log(1e-3), math.log(1e4)))
            got = pochhammer_k_log(PochhammerSpec(x, n, k))
            assert got == pochhammer_k_log_array(x, n, k), (x, n, k)

    @pytest.mark.parametrize("n", [pochhammer._NUMPY_CUTOFF, pochhammer._NUMPY_CUTOFF + 1,
                                   pochhammer._NUMPY_CUTOFF + 7, 64, 65, 71, 511, 512, 513, 519,
                                   1001, 4095, 4096, 4097, 4103,
                                   32767, 32768, 32769, 32775, 65_543, 100_003])
    @pytest.mark.parametrize("x,k", [
        (0.7, 2.0), (-7.3, 1.0), (1.0, 1e-3),
        (-1000.25, 0.5),          # the sign change in the first chunk
        (-40_000.5, 1.0),         # a negative chunk, then the sign change
        (1e300, 1.0),             # every factor rounds to 1e300
        (3e-20, 1e-3),            # the first factors near 0
        (math.nextafter(-300e-9, 0.0), 1e-9),   # one ulp off the lattice
    ])
    def test_chunked_formula_at_chunk_edges(self, n, x, k):
        # odd and even chunk lengths, a last chunk of 1, 7 or 3 factors,
        # chunks that hold the sign change, factors near 0 and near 1e300
        want = pochhammer_k_log_chunked(x, n, k, pochhammer._CHUNK)
        assert pochhammer_k_log(PochhammerSpec(x, n, k)) == want

    @pytest.mark.parametrize("x,k,want", [
        # every factor rounds to 1e300
        (1e300, 1.0, lambda n: n * math.log(1e300)),
        # (k)_{n,k} = k^n n!
        (1e-300, 1e-300, lambda n: n * math.log(1e-300) + math.lgamma(n + 1.0)),
    ])
    def test_extreme_factor_magnitudes(self, x, k, want):
        n = 4096
        log_abs, sign = pochhammer_k_log(PochhammerSpec(x, n, k))
        assert sign == 1
        assert log_abs == pytest.approx(want(n), rel=4 * n * sys.float_info.epsilon)

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

    @pytest.mark.parametrize("x,n,k", [
        (1.0, 200_000, 1e-12),    # factors within 2e-7 of 1: |log| ~ 0.02
        (1.0, 200_000, 1e-9),
        (-1.001, 100_000, 1e-9),  # all negative, magnitudes near 1
        (1.0, 1000, 1e-3),
        (1.0, 100, 1e-9),         # one chunk below the old 512 cutoff
        (0.7, 300, 2.0),
        # factors on both sides of 1: the logs cancel, and the bound's eps
        # per log must cover them (the loop, then numpy)
        (0.0009504696519571651, 5, 2.5852645988740077),
        (0.00039679336788600675, 3910, 0.0006952432173574797),
        (106.81759998834059, 58, 0.0005291493161755739),
        (0.7, 200_000, 2.0),
        (1e-6, 200_000, 1e-6),    # every factor in (0, 0.2]
    ])
    def test_log_sum_rounding_bounds_the_error(self, x, n, k):
        # the reference sums the logs of the same rounded factors by fsum
        got, _ = pochhammer_k_log(PochhammerSpec(x, n, k))
        want = math.fsum(math.log(abs(x + j * k)) for j in range(n))
        bound = sys.float_info.epsilon * pochhammer.log_sum_rounding(n, want)
        assert abs(got - want) <= bound, (got, want, bound)

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
        # (-inf, inf): every factor is nan, and ceil(-x/k) = ceil(nan) raised
        for x, k in ((-math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf),
                     (-math.inf, math.inf)):
            # _make skips the spec's refusal of non-finite floats
            got = pochhammer_k_log(PochhammerSpec._make((x, 600, k)))
            want = pochhammer_k_log_array(x, 600, k)
            assert got[1] == want[1]
            assert got[0] == want[0] or (math.isnan(got[0])
                                         and math.isnan(want[0]))


class TestLimitSplit:
    """gamma_k_limit reads (x)_{n,k} as (x)_{m,k} (x+mk)_{m,k}
    (x+2mk)_{n-2m,k}, m = n//4, and extrapolates the three iterates."""

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

    @classmethod
    def _richardson(cls, k, x, n):
        """The two-step value from unsplit iterates at m, 2m and n, with
        the Lagrange weights at h = 0 of the nodes h = 1/N made as
        Fractions, prod over the other nodes M of N/(N - M); and the
        absolute rounding it may differ by."""
        m = n // 4
        nodes = (m, 2 * m, n)
        value, tol = 0.0, 4 * sys.float_info.epsilon
        for node in nodes:
            weight = float(math.prod(Fraction(node, node - other)
                                     for other in nodes if other != node))
            it, rel = cls._unsplit(k, x, node)
            value += weight * it
            tol += abs(weight * it) * rel
        return value, tol

    @pytest.mark.parametrize("n", [513, 1025, 3001, 65_537])
    @pytest.mark.parametrize("k,x", [(1.0, 2.5), (0.5, -0.3), (2.0, 7.0)])
    def test_odd_n_matches_one_pass(self, k, x, n):
        got = gamma_k_limit(k, x, n).value
        want, tol = self._richardson(k, x, n)
        assert abs(got - want) <= tol

    def test_n_four(self):
        # m = 1, the smallest split: iterate(N) = N! k^N (Nk)^(q-1) / (x)_{N,k}
        # at N = 1, 2, 4, each from the direct product
        for n in (1, 2, 3):
            with pytest.raises(DomainError, match=re.escape(f"n >= 4, got {n}")):
                gamma_k_limit(1.5, 1.0, n)
        for k, x in ((1.0, 1.5), (2.0, -0.7)):
            q = x / k
            it = [math.factorial(j) * k ** j * (j * k) ** (q - 1.0)
                  / pochhammer_k(PochhammerSpec(x, j, k)) for j in (1, 2, 4)]
            want = (8.0 * it[2] - 6.0 * it[1] + it[0]) / 3.0
            assert gamma_k_limit(k, x, 4).value == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("n", [301, 1025, 100_001])
    def test_sign_at_negative_x(self, n):
        # the negative factors lie in the first part, whose sign is the
        # value's: Gamma(x) has sign (-1)^ceil(-x) between its poles
        for x in (-0.5, -1.5, -2.5, -3.3):
            got = gamma_k_limit(1.0, x, n).value
            want, tol = self._richardson(1.0, x, n)
            assert math.copysign(1.0, got) == (-1.0) ** math.ceil(-x)
            assert abs(got - want) <= tol
        # negatives reaching past the first part are past the expansion's
        # start, and refused
        with pytest.raises(DomainError, match="expansion has started"):
            gamma_k_limit(1.0, -(n // 4 + 0.5), n)

    def test_peak_allocation_below_1mb(self):
        gamma_k_limit(2.0, 0.7, 1_000_000)      # build the chunk table first
        tracemalloc.start()
        try:
            gamma_k_limit(2.0, 0.7, 1_000_000)
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


class TestResultTypes:
    """Ints give an int, whole Fractions an int, other Fractions a Fraction,
    and any float a float, including the empty product and the zero
    derivative, where no factor or term carries the type."""

    PRODUCT = [  # (x, n, k, (x)_{n,k})
        (2, 3, 3, 80), (7, 0, 2, 1), (Fraction(1, 2), 3, Fraction(1, 2), Fraction(3, 4)),
        (Fraction(1, 2), 2, Fraction(3, 2), 1), (2.0, 3, 3, 80.0), (2, 3, 3.0, 80.0),
        (7.0, 0, 2.0, 1.0), (7, 0, 2.0, 1.0)]
    DERIVATIVE = [  # (x, n, k, d/dk (x)_{n,k})
        (2, 3, 3, 36), (2, 1, 3, 0), (2, 0, 3, 0), (Fraction(1, 2), 3, Fraction(1, 2),
                                                     Fraction(7, 4)),
        (Fraction(2), 2, Fraction(1, 3), 2), (2.0, 3, 3.0, 36.0), (1.5, 1, 1.0, 0.0),
        (1.5, 0, 1.0, 0.0), (2, 1, 3.0, 0.0)]
    RESCALE = [  # (x, n, s, k, (x)_{n,s})
        (2, 3, 3, 1, 80), (2, 0, 3, 1, 1), (Fraction(1, 2), 2, Fraction(1, 2), 1,
                                            Fraction(1, 2)),
        (Fraction(1, 2), 2, Fraction(3, 2), Fraction(1, 3), 1), (2.0, 3, 3.0, 1.0, 80.0),
        (2, 3, 3, 1.0, 80.0), (2.0, 0, 3.0, 1.0, 1.0)]

    @staticmethod
    def _same(got, want):
        assert type(got) is type(want)
        assert got == (pytest.approx(want, rel=1e-14) if type(want) is float else want)

    @pytest.mark.parametrize("x,n,k,want", PRODUCT)
    def test_product(self, x, n, k, want):
        self._same(pochhammer_k(PochhammerSpec(x, n, k)), want)

    @pytest.mark.parametrize("x,n,k,want", PRODUCT)
    def test_symmetric_expansion(self, x, n, k, want):
        self._same(pochhammer_via_symmetric(PochhammerSpec(x, n, k)), want)

    @pytest.mark.parametrize("x,n,k,want", DERIVATIVE)
    def test_k_derivative(self, x, n, k, want):
        self._same(pochhammer_dk(PochhammerSpec(x, n, k)), want)

    @pytest.mark.parametrize("x,n,s,k,want", RESCALE)
    def test_rescale(self, x, n, s, k, want):
        self._same(pochhammer_rescale(x, n, s, k), want)


class TestExactIntegerPath:
    """The exact product runs in the integers ps + j rq over (qs)^n, and the
    symmetric expansion sums e_s (rq)^s (ps)^(n-s) over the same power; each
    gives the value and the type (int when whole, else Fraction) that its
    sum or product of Fraction factors gives."""

    _exact = st.one_of(st.fractions(min_value=-8, max_value=8, max_denominator=12),
                       st.integers(min_value=-8, max_value=8), st.booleans())
    _step = st.one_of(st.fractions(min_value=Fraction(1, 6), max_value=5,
                                   max_denominator=9),
                      st.integers(min_value=1, max_value=5), st.just(True))

    @staticmethod
    def _same(got, want):
        assert type(got) is type(want) and got == want

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_exact, st.integers(min_value=0, max_value=12), _step)
    def test_matches_fraction_factors(self, x, n, k):
        spec = PochhammerSpec(x, n, k)
        self._same(pochhammer_k(spec), pochhammer_k_fraction_loop(x, n, k))
        self._same(pochhammer_via_symmetric(spec), pochhammer_symmetric_fraction_sum(x, n, k))

    @pytest.mark.parametrize("x,n,k", [
        (Fraction(-3, 2), 4, Fraction(1, 2)),   # factor j = 3 is zero
        (-4, 3, 2), (Fraction(-2, 3), 5, Fraction(1, 3)), (0, 3, Fraction(5, 7)),
        (Fraction(-1, 2), 0, Fraction(1, 3)), (Fraction(3, 4), 1, 1),
        (Fraction(1, 2), 5, Fraction(3, 4)), (Fraction(1, 3), 3, Fraction(1, 3)),
        (True, 4, True), (Fraction(5, 2), 3, True), (False, 2, Fraction(1, 2))])
    def test_zero_factors_empty_products_and_mixes(self, x, n, k):
        spec = PochhammerSpec(x, n, k)
        self._same(pochhammer_k(spec), pochhammer_k_fraction_loop(x, n, k))
        self._same(pochhammer_via_symmetric(spec), pochhammer_symmetric_fraction_sum(x, n, k))

    def test_numpy_ints_are_exact(self):
        # Python ints throughout: no int64 wrap in the product, no C-long
        # overflow in the symmetric sum
        import numpy as np
        want = math.prod(range(3, 63, 2))
        for route in (pochhammer_k, pochhammer_via_symmetric):
            got = route(PochhammerSpec(np.int64(3), 30, np.int64(2)))
            assert type(got) is int and got == want

    def test_frozen_value(self):
        # (1/2)(5/4)(2)(11/4)(7/2) = 385/32
        assert pochhammer_k(PochhammerSpec(Fraction(1, 2), 5, Fraction(3, 4))) \
            == Fraction(385, 32)


class TestFloatRange:
    """A float meeting an int or Fraction beyond the float range: DomainError
    naming the field and its size in bits, where float() raised an untyped
    OverflowError."""

    BIG = 10 ** 400   # 1329 bits

    @pytest.mark.parametrize("f", [pochhammer_k, pochhammer_via_symmetric,
                                   pochhammer_dk, pochhammer_k_log])
    @pytest.mark.parametrize("x,k,message", [
        (1.5, BIG, "k is an exact value of 1329 bits"),
        (Fraction(BIG, 3), 1.0, "x is an exact value of 1328 bits"),
        (BIG, 0.5, "x is an exact value of 1329 bits"),
    ], ids=["int-k", "fraction-x", "int-x"])
    def test_spec_refuses(self, f, x, k, message):
        with pytest.raises(DomainError, match=f"^{message}, beyond the float range$"):
            f(PochhammerSpec(x, 2, k))

    @pytest.mark.parametrize("x", [Fraction(1, BIG), Fraction(-1, BIG)])
    def test_nonzero_exact_value_whose_float_is_zero(self, x):
        # x was read as 0.0: the product printed 0.0 with err 0.0, not ~1.7e-92
        with pytest.raises(DomainError,
                           match="^x is a nonzero exact value below the float range$"):
            PochhammerSpec(x, 2, 1.7e308)

    def test_exact_spec_passes_and_log_form_refuses(self):
        spec = PochhammerSpec(1, 2, self.BIG)
        assert pochhammer_k(spec) == self.BIG + 1
        with pytest.raises(DomainError, match="^k is an exact value of 1329 bits"):
            pochhammer_k_log(spec)

    @pytest.mark.parametrize("x,s,k,name", [(1.5, BIG, 1.0, "s"), (1.5, 2.0, BIG, "k"),
                                            (Fraction(BIG), 2.0, 1, "x")],
                             ids=["int-s", "int-k", "fraction-x"])
    def test_rescale_refuses(self, x, s, k, name):
        with pytest.raises(DomainError, match=f"^{name} is an exact value of 13"):
            pochhammer_rescale(x, 3, s, k)


class TestOverflowIsTyped:
    """Float values past the float range: ResultOverflow, as pochhammer_k
    raises, where the symmetric sums raised an untyped OverflowError (an int
    e_s or a power too large for a float), rescale raised one at ratio ** n,
    and a sum or product past the range (symmetric, dk, rescale) came back
    inf or nan."""

    @pytest.mark.parametrize("call", [
        lambda: pochhammer_via_symmetric(PochhammerSpec(300.0, 150, 1.0)),  # k ** s
        lambda: pochhammer_via_symmetric(PochhammerSpec(0.5, 200, 1.0)),    # int e_s
        lambda: pochhammer_rescale(1.0, 300, 10.0, 0.01),                   # ratio ** n
        lambda: pochhammer_rescale(1.0, 150, 100.0, 1.0),                   # inf product
        lambda: pochhammer_dk(PochhammerSpec(1.0, 170, 1.0)),              # inf sum
    ], ids=["symmetric-power", "symmetric-int", "rescale-power", "rescale-product",
            "dk-sum"])
    def test_named_cases(self, call):
        with pytest.raises(ResultOverflow, match="overflows a float"):
            call()

    @pytest.mark.parametrize("x,s,k", [(1e300, 1e-10, 1e10), (-1e300, 1e-10, 1e10),
                                       (1e300, 1e-10, 1)], ids=["x", "-x", "int-k"])
    def test_rescale_argument_names_the_call(self, x, s, k):
        # k x / s overflows: the spec built from it refused x = inf, a value
        # the caller never passed
        at = f"(x)_{{n,s}} at x={x}, n=3, s={s}, k={k}: "
        with pytest.raises(ResultOverflow, match=re.escape(at)):
            pochhammer_rescale(x, 3, s, k)

    @pytest.mark.parametrize("x,s,k,name", [(math.inf, 1.0, 1.0, "x"),
                                            (1.0, math.inf, 1.0, "s"),
                                            (1.0, 1.0, math.inf, "k")])
    def test_rescale_nonfinite_argument_is_domain_error(self, x, s, k, name):
        # s = inf came back as ResultOverflow, and k = inf as "x must be finite"
        with pytest.raises(DomainError, match=f"^{name} must be finite, got inf$"):
            pochhammer_rescale(x, 3, s, k)

    @pytest.mark.parametrize("f", [
        lambda x, n, k: pochhammer_k(PochhammerSpec(x, n, k)),
        lambda x, n, k: pochhammer_via_symmetric(PochhammerSpec(x, n, k)),
        lambda x, n, k: pochhammer_dk(PochhammerSpec(x, n, k)),
        lambda x, n, k: pochhammer_rescale(x, n, k, 1.0),
        lambda x, n, k: pochhammer_rescale(x, n, 1.0, k),
    ], ids=["product", "symmetric", "dk", "rescale-to-k", "rescale-from-k"])
    def test_fuzz_is_finite_or_typed(self, f):
        rng = random.Random(2)
        for _ in range(100):
            x = rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(-5.0, 7.0))
            n = rng.randint(0, 400)
            k = math.exp(rng.uniform(-3.0, 3.0))
            try:
                v = f(x, n, k)
            except ResultOverflow:
                continue
            assert isinstance(v, float) and math.isfinite(v), (x, n, k)

"""Pochhammer k-symbol: product, symmetric-function expansion, k-derivative,
rescaling. Exact-mode tests use Fractions so agreement means identical
rationals, not close floats."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kspecial.errors import DomainError, ResultOverflow
from kspecial.pochhammer import (PochhammerSpec, pochhammer_dk, pochhammer_k,
                                 pochhammer_k_log, pochhammer_rescale,
                                 pochhammer_via_symmetric)

from oracles import central_diff, rising_product

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

"""B_k: four-route agreement, classical collapse, symmetry, shift identity."""

import math
import random
import re
import sys
from fractions import Fraction

import pytest

from kspecial import betak
from kspecial.betak import (BetaKSpec, beta_k_integral_halfline, beta_k_integral_unit,
                            beta_k_product, beta_k_ratio)
from kspecial.errors import DomainError, ResultOverflow
from kspecial.profiles import DEFAULT

from oracles import beta_k_product_fsum, beta_k_product_loop, log_beta_k

ROUTES = (beta_k_ratio, beta_k_integral_halfline, beta_k_integral_unit,
          beta_k_product)

GRID_XY = (0.5, 1.0, 2.5)
GRID_K = (0.5, 1.0, 2.0)

B_QUARTER_HALF = 5.24411510858423962092967917978  # mp30: B(1/4, 1/2)


class TestReferenceValues:
    def test_classical_points_every_route(self):
        # B_1(1/2, 1/2) = pi, B_1(1, 1) = 1
        for route in ROUTES:
            assert route(BetaKSpec(1.0, 0.5, 0.5)).value == pytest.approx(
                math.pi, rel=1e-10)
            assert route(BetaKSpec(1.0, 1.0, 1.0)).value == pytest.approx(
                1.0, rel=1e-10)

    def test_frozen_quarter_half(self):
        assert beta_k_ratio(BetaKSpec(1.0, 0.25, 0.5)).value == pytest.approx(
            B_QUARTER_HALF, rel=1e-12)
        assert beta_k_integral_unit(BetaKSpec(1.0, 0.25, 0.5)).value == pytest.approx(
            B_QUARTER_HALF, rel=1e-10)

    def test_half_pi_at_k_2(self):
        # B_2(1, 1) = (1/2) B(1/2, 1/2) = pi/2
        for route in ROUTES:
            assert route(BetaKSpec(2.0, 1.0, 1.0)).value == pytest.approx(
                math.pi / 2.0, rel=1e-10)

    def test_second_argument_k_collapses_to_reciprocal(self):
        # B_k(x, k) = Gamma_k(x)/Gamma_k(x+k) = 1/x
        for k in GRID_K:
            for x in GRID_XY:
                assert beta_k_ratio(BetaKSpec(k, x, k)).value == pytest.approx(
                    1.0 / x, rel=1e-12)
                assert beta_k_integral_halfline(BetaKSpec(k, x, k)).value == pytest.approx(
                    1.0 / x, rel=1e-9)


class TestRouteAgreement:
    @pytest.mark.parametrize("k", GRID_K)
    def test_pairwise_grid(self, k):
        for x in GRID_XY:
            for y in GRID_XY:
                spec = BetaKSpec(k, x, y)
                vals = [r(spec) for r in ROUTES]
                for i in range(len(vals)):
                    for j in range(i + 1, len(vals)):
                        a, b = vals[i], vals[j]
                        tol = max(a.err_estimate + b.err_estimate,
                                  1e-9 * abs(a.value))
                        assert abs(a.value - b.value) <= tol

    def test_err_estimates_honest_vs_ratio(self):
        for k in (0.5, 2.0):
            spec = BetaKSpec(k, 2.5, 0.5)
            ref = beta_k_ratio(spec).value
            for route in (beta_k_integral_halfline, beta_k_integral_unit,
                          beta_k_product):
                r = route(spec)
                assert abs(r.value - ref) <= max(3.0 * r.err_estimate,
                                                 1e-12 * ref)


class TestStructure:
    def test_symmetry_on_asymmetric_routes(self):
        # the halfline integrand treats x and y differently; symmetry of the
        # value is a real check there
        for k in GRID_K:
            a = beta_k_integral_halfline(BetaKSpec(k, 0.5, 2.5)).value
            b = beta_k_integral_halfline(BetaKSpec(k, 2.5, 0.5)).value
            assert a == pytest.approx(b, rel=1e-9)

    def test_scaling_collapse(self):
        # B_k(x, y) = (1/k) B_1(x/k, y/k)
        for k in GRID_K:
            for x in GRID_XY:
                for y in GRID_XY:
                    lhs = beta_k_ratio(BetaKSpec(k, x, y)).value
                    rhs = beta_k_ratio(BetaKSpec(1.0, x / k, y / k)).value / k
                    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)

    def test_first_argument_shift(self):
        # B_k(x + k, y) = B_k(x, y) * x / (x + y), per route
        for route, tol in ((beta_k_ratio, 1e-11),
                           (beta_k_integral_halfline, 1e-9),
                           (beta_k_integral_unit, 1e-9),
                           (beta_k_product, 1e-9)):
            for k in (0.5, 2.0):
                x, y = 1.5, 0.8
                lhs = route(BetaKSpec(k, x + k, y)).value
                rhs = route(BetaKSpec(k, x, y)).value * x / (x + y)
                assert abs(lhs - rhs) <= tol * abs(rhs)


class TestDispatchAndDomain:
    def test_dispatch_names(self):
        spec = BetaKSpec(2.0, 1.0, 1.0)
        for name in ("ratio", "halfline", "unit", "product"):
            assert betak.ROUTES[name](spec, DEFAULT).value == pytest.approx(
                math.pi / 2.0, rel=1e-9)

    @pytest.mark.parametrize("k,x,y", [(0.0, 1.0, 1.0), (-1.0, 1.0, 1.0),
                                       (1.0, 0.0, 1.0), (1.0, 1.0, -2.0)])
    def test_spec_validation(self, k, x, y):
        with pytest.raises(DomainError):
            BetaKSpec(k, x, y)

    @pytest.mark.parametrize("k,x,y,message", [
        (1.0, math.inf, 1.0, "B_k needs finite x, y > 0, got x=inf, y=1.0"),
        (1.0, 1.0, math.inf, "B_k needs finite x, y > 0, got x=1.0, y=inf"),
        (math.inf, 1.0, 1.0, "k must be finite, got inf")])
    def test_nonfinite_spec_is_domain_error(self, k, x, y, message):
        # at (1, inf, 1) the halfline and unit routes returned 0.0 with
        # err_estimate 0.0; at k = inf the halfline route did not converge
        with pytest.raises(DomainError, match=re.escape(message)):
            BetaKSpec(k, x, y)

    def test_product_needs_enough_terms(self):
        with pytest.raises(DomainError):
            beta_k_product(BetaKSpec(1.0, 1.0, 1.0), n_terms=5)

    def test_unit_integrand_overflow_is_domain_error(self):
        # t^(x/k - 1) overflows at the inner tanh-sinh nodes, as the
        # route's docstring says
        with pytest.raises(DomainError):
            beta_k_integral_unit(BetaKSpec(1.0, 1e-3, 1.0))

    def test_product_overflow_is_typed(self):
        # B_1(x, y) ~ 1/x for tiny x: (x+y)/(xy) is already inf
        with pytest.raises(ResultOverflow):
            beta_k_product(BetaKSpec(1.0, 1e-310, 1e10))

    def test_product_with_underflowing_xy(self):
        # x*y underflows to 0, but B_1(x, y) ~ (x+y)/(xy) = 2e300 is finite
        spec = BetaKSpec(1.0, 1e-300, 1e-300)
        got, want = beta_k_product(spec), beta_k_ratio(spec)
        assert abs(got.value - want.value) <= got.err_estimate + want.err_estimate

    def test_product_with_underflowing_powers_of_k(self):
        # k ** 4 underflows to 0 at k = 1e-100 and the tail divided by it;
        # the tail is formed from (x, y, x+y)/k, all of order 1 here
        spec = BetaKSpec(1e-100, 1e-100, 2e-100)
        got, want = beta_k_product(spec), beta_k_ratio(spec)
        assert abs(got.value - want.value) <= got.err_estimate + want.err_estimate

    def test_ratio_overflow_is_typed(self):
        with pytest.raises(ResultOverflow):
            beta_k_ratio(BetaKSpec(1.0, 1e-320, 1.0))

    @pytest.mark.parametrize("x,y", [(1e300, 1e-300), (1e100, 1.0), (1e306, 1.0)])
    def test_ratio_refuses_where_its_estimate_does_not_bound_it(self, x, y):
        # the three logs cancel past every digit: it printed 1.0 with err
        # 6.9e288 where B_1(1e300, 1e-300) ~ 1e300, and 1.0 +- 2.3e88 where
        # B_1(1e100, 1) = 1e-100. log Gamma(1e306) is inf, and the finite
        # B_1(1e306, 1) = 1e-306 was refused as an overflow
        with pytest.raises(DomainError, match="cancel past every digit"):
            beta_k_ratio(BetaKSpec(1.0, x, y))

    def test_ratio_refuses_overflow_where_its_estimate_does_not_bound_it(self):
        # B_1(1e300, 1e-320) ~ 1e320; the ratio printed 1.0
        with pytest.raises(ResultOverflow, match=r"^B_k\(1e\+300, 1e-320\) with k=1.0 "):
            beta_k_ratio(BetaKSpec(1.0, 1e300, 1e-320))

    @pytest.mark.parametrize("x", [1000.0, 1e13, 1e300, 1e305])
    def test_ratio_still_returns_an_underflowing_value(self, x):
        # log B_1(x, x) ~ -2x log 2 lies far below the float range even where
        # the estimate's log error (~5.9 at 1e13, ~1.4e289 at 1e300) is not
        # below 1: 0.0, within an estimate of 0.0. At 1e305 the sum of the
        # logs' magnitudes is inf, which was refused as an overflow
        assert beta_k_ratio(BetaKSpec(1.0, x, x)) == (0.0, 0.0, "scaling", 0)

    def test_ratio_underflows_at_subnormal_k(self):
        # log B_k(1.7e308, 1e-300) ~ -2.8e26 with k = 5e-324, where the logs
        # pass the float range: it was refused as an overflow
        assert beta_k_ratio(BetaKSpec(5e-324, 1.7e308, 1e-300)) == (0.0, 0.0, "scaling", 0)

    def test_ratio_refuses_a_finite_value_its_logs_cannot_give(self):
        # B_k(x, k) = Gamma_k(x)/Gamma_k(x+k) = 1/x ~ 5.9e-309: finite, and
        # not an overflow, which the ratio used to report
        with pytest.raises(DomainError, match="cancel past every digit"):
            beta_k_ratio(BetaKSpec(5e-324, 1.7e308, 5e-324))

    @pytest.mark.parametrize("k,x,y,message", [
        (1.0, 10 ** 400, 1.0, "x is an exact value of 1329 bits, beyond the float range"),
        (Fraction(1, 10 ** 400), 1.0, 1.0,
         "k is a nonzero exact value below the float range")])
    def test_spec_refuses_an_exact_value_no_float_holds(self, k, x, y, message):
        # (1, 10**400, 1) built, and the routes raised an untyped OverflowError
        with pytest.raises(DomainError, match=f"^{message}$"):
            BetaKSpec(k, x, y)

    @pytest.mark.parametrize("route,k,x,y", [
        (beta_k_integral_halfline, 1 / 3, 1.7e308, 1e300),
        (beta_k_integral_unit, 5e-324, 1.7e308, 1e-300)])
    def test_integral_routes_refuse_a_nan_integrand(self, route, k, x, y):
        # inf - inf or inf * 0 in the exponent: a RuntimeWarning, then the
        # nan was read as 0
        with pytest.raises(DomainError, match="integrand returned non-finite value nan"):
            route(BetaKSpec(k, x, y))

    @pytest.mark.parametrize("route", [beta_k_integral_halfline, beta_k_integral_unit])
    def test_integral_routes_refuse_overflow_where_ratio_does(self, route):
        # B_k(5e-324, 1.7e308) with k = 1/3 is ~2e323: halfline printed 0.0
        # with err 0.0, and unit read a nan as 0 after a RuntimeWarning
        spec = BetaKSpec(1 / 3, 5e-324, 1.7e308)
        with pytest.raises(ResultOverflow):
            beta_k_ratio(spec)
        with pytest.raises(ResultOverflow, match=r"^B_k\(5e-324, 1.7e\+308\) with k=0.3"):
            route(spec)

    def test_product_answers_where_k_n_overflows(self):
        # the route forms (x+y)/(nk) as ((x+y)/k)/n, so k n = inf drops no
        # factor; B_k is 3.6182469125914773e-308 (mpmath)
        r = beta_k_product(BetaKSpec(1.7e308, 5e307, 5e307))
        assert abs(r.value - 3.6182469125914773e-308) <= r.err_estimate

    def test_product_matches_loop_reference(self):
        # summation order changed, so allow the loop's own rounding:
        # one unit of float eps per factor on the log of the result
        for k in (0.5, 1.0, 2.0):
            for x in (0.5, 1.0, 2.5):
                for y in (0.5, 2.5, 9.0):
                    want = beta_k_product_loop(k, x, y, 10_000)
                    tol = 10_000 * sys.float_info.epsilon * max(1.0, abs(math.log(want)))
                    got = beta_k_product(BetaKSpec(k, x, y)).value
                    assert got == pytest.approx(want, rel=tol)

    @pytest.mark.parametrize("k,x,y", [(1.0, 0.5, 0.5), (0.5, 2.5, 9.0),
                                       (2.0, 1.0, 2.5), (1e-3, 0.15, 1.5),
                                       (0.1, 30.0, 50.0)])
    def test_product_err_covers_the_pairwise_sum(self, k, x, y):
        # the route sums its terms pairwise in numpy; the oracle makes the
        # same terms with math and sums them by fsum. Their gap in log space
        # stays inside the estimate's share eps log2(N) sum|term|, plus the
        # rounding of the terms, the head logs and exp
        got = beta_k_product(BetaKSpec(k, x, y))
        want, abs_sum = beta_k_product_fsum(k, x, y, 10_000)
        assert abs(got.value - want) <= got.err_estimate
        eps = sys.float_info.epsilon
        gap = abs(math.log(got.value / want))
        assert gap <= eps * (math.log2(10_000) * abs_sum
                             + 4 * abs(math.log(want)) + 4)


def _overflows(route, spec) -> bool:
    """Whether route(spec) refuses with ResultOverflow; a DomainError is
    False, an untyped error propagates."""
    try:
        route(spec)
    except ResultOverflow:
        return True
    except DomainError:
        return False
    return False


def test_product_refuses_overflow_where_ratio_does():
    """Past (x+y)/k = n_terms, beta_k_product raises ResultOverflow exactly
    where beta_k_ratio does: min(x, y) log-uniform on [1e-311, 1e-306],
    max(x, y)/k on [1e4, 1e8]. A lower bound on the value refused 48 of
    these 500 as DomainError."""
    rng = random.Random(26)
    refused = 0
    for _ in range(500):
        k = 10.0 ** rng.uniform(-1.0, 1.0)
        lo = 10.0 ** rng.uniform(-311.0, -306.0)
        hi = k * 10.0 ** rng.uniform(4.0, 8.0)
        spec = BetaKSpec(k, lo, hi) if rng.random() < 0.5 else BetaKSpec(k, hi, lo)
        want = _overflows(beta_k_ratio, spec)
        refused += want
        assert _overflows(beta_k_product, spec) == want, spec
    assert 0 < refused < 500


def test_product_estimate_covers_mpmath_over_wide_k():
    """The product route's err_estimate bounds its distance from log B_k at
    k = 10**U(-300, 300) and x/k, y/k = 10**U(-3, 2.5), skipping typed
    refusals and values at or below 1e-300. Without exp's rounding of a log
    of size |log B_k| in the estimate, 32 of these 596 points missed, by up
    to 2.27 units."""
    pytest.importorskip("mpmath")
    rng = random.Random(5)
    checked = 0
    for _ in range(600):
        k = 10.0 ** rng.uniform(-300.0, 300.0)
        x, y = (k * 10.0 ** rng.uniform(-3.0, 2.5) for _ in range(2))
        try:
            r = beta_k_product(BetaKSpec(k, x, y))
        except (DomainError, ResultOverflow):
            continue
        if r.value <= 1e-300:
            continue
        checked += 1
        miss = abs(math.log(r.value) - log_beta_k(k, x, y))
        assert miss <= r.err_estimate / r.value, (k, x, y, r)
    assert checked == 596


class TestRatioRefusalBound:
    """beta_k_ratio's refusals and its 0.0 read one bound, L + log 2 >= log B_k
    (Wendel), against an independent log B_k."""

    def test_bound_and_outcome_against_mpmath(self):
        pytest.importorskip("mpmath")
        rng = random.Random(28)
        log_max = math.log(sys.float_info.max)
        for _ in range(300):
            k, x, y = (10.0 ** rng.uniform(-320.0, 307.0) for _ in range(3))
            spec = BetaKSpec(k, x, y)
            want = log_beta_k(k, x, y)
            try:
                bound = betak._require_below_overflow(spec)
            except ResultOverflow:
                assert want > log_max, (spec, want)
                with pytest.raises(ResultOverflow):
                    beta_k_ratio(spec)
                continue
            slack = 1e-11 * (1.0 + abs(bound)) if bound > -math.inf else 0.0
            assert want <= bound + math.log(2.0) + slack, (spec, want)
            try:
                r = beta_k_ratio(spec)
            except DomainError:
                continue
            if r.value == 0.0:   # below half the smallest subnormal
                assert want < math.log(5e-324) - math.log(2.0), (spec, want)


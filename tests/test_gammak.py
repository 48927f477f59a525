"""Gamma_k: four routes, functional equation, normalization, reflection,
scale transfer, Stirling decay, k-derivative, psi machinery and the PDE.

Frozen constants marked mp30 come from 30-digit arbitrary-precision
evaluation of the closed scaling form; closed = exact closed form.
"""

import math
import random
import re
import sys
import warnings

import numpy as np
import pytest

from kspecial import betak, gammak, quadrature
from kspecial.errors import DomainError, NonConvergent, ResultOverflow
from kspecial.gammak import (ROUTES, GammaKEvaluator, PsiPoint, gamma_k_dk,
                             gamma_k_integral, gamma_k_limit, gamma_k_product,
                             gamma_k_scaling, gamma_k_stirling, log_gamma_k,
                             nearest_pole, pde_residual, pde_residual_variant,
                             psi_point)
from kspecial.pochhammer import PochhammerSpec, pochhammer_k
from kspecial.profiles import DEFAULT, STRICT
from kspecial.quadrature import quad_halfline

from oracles import (central_diff, gamma_k_product_every_pass, gamma_k_product_fsum,
                     gamma_k_product_loop, psi_point_two_series, psi_series_loop,
                     tail_sums)

GRID_K = (0.5, 1.0, 2.0, 3.0)
GRID_X = (0.3, 1.0, 2.5, 7.0)

SQRT_HALF_PI = 1.2533141373155001          # closed: Gamma_2(1) = sqrt(pi/2)
GAMMA3_AT_1 = 1.28789931685406908720068316003   # mp30: 3^(-2/3) Gamma(1/3)
GAMMA2_AT_5 = 3.75994241194650075362364792722   # mp30: 2^(3/2) Gamma(5/2)
MINUS_TWO_SQRT_PI = -3.54490770181103205459633496668  # mp30: Gamma(-1/2)


class TestReferenceValues:
    def test_frozen_points(self):
        assert gamma_k_scaling(2.0, 1.0).value == pytest.approx(
            SQRT_HALF_PI, rel=1e-13)
        assert gamma_k_scaling(3.0, 1.0).value == pytest.approx(
            GAMMA3_AT_1, rel=1e-13)
        assert gamma_k_scaling(2.0, 5.0).value == pytest.approx(
            GAMMA2_AT_5, rel=1e-13)
        assert gamma_k_scaling(0.5, 2.0).value == pytest.approx(
            0.75, rel=1e-13)  # closed: (1/2)^3 Gamma(4)

    def test_k_equals_1_is_classical(self):
        for x in GRID_X:
            assert gamma_k_scaling(1.0, x).value == pytest.approx(
                math.gamma(x), rel=1e-13)

    def test_normalization_all_routes(self):
        for k in GRID_K:
            assert gamma_k_scaling(k, k).value == pytest.approx(1.0, abs=1e-12)
            assert gamma_k_integral(k, k).value == pytest.approx(1.0, abs=1e-11)
            assert gamma_k_product(k, k, 10_000).value == pytest.approx(1.0, abs=1e-10)
            assert gamma_k_limit(k, k, 200_000).value == pytest.approx(1.0, abs=1e-4)


class TestOneApi:
    @pytest.mark.parametrize("k", [0.0, -1.0, -math.inf, math.nan])
    @pytest.mark.parametrize("route", [gamma_k_scaling, gamma_k_integral, gamma_k_limit,
                                       gamma_k_product, log_gamma_k, gamma_k_dk])
    def test_k_must_be_positive(self, route, k):
        with pytest.raises(DomainError, match=re.escape(f"k must be > 0, got {k}")):
            route(k, 1.0)
        # kbench's hook takes any k and leaves the refusal to the route
        with pytest.raises(DomainError, match=re.escape(f"k must be > 0, got {k}")):
            GammaKEvaluator(k).evaluate(1.0)

    @pytest.mark.parametrize("method,call", [
        ("scaling", lambda: gamma_k_scaling(2.0, 1.3)),
        ("integral", lambda: gamma_k_integral(2.0, 1.3, STRICT)),
        ("limit", lambda: gamma_k_limit(2.0, 1.3, 16_384)),
        ("product", lambda: gamma_k_product(2.0, 1.3, 10_000))])
    def test_evaluate_runs_the_named_route(self, method, call):
        assert ROUTES[method](2.0, 1.3, STRICT) == call()

    @pytest.mark.parametrize("method", ROUTES)
    def test_evaluate_looks_the_route_up_when_called(self, method, monkeypatch):
        # a tracer rebinds gammak.gamma_k_*: the table must run the rebinding
        monkeypatch.setattr(gammak, f"gamma_k_{method}", lambda k, x, *rest: (k, x))
        assert ROUTES[method](2.0, 1.3, STRICT) == (2.0, 1.3)
        if method == "scaling":
            assert GammaKEvaluator(2.0).evaluate(1.3) == (2.0, 1.3)

    def test_kbench_hooks_are_one_route_call_outside_the_api(self):
        import kspecial
        for name in ("GammaKEvaluator", "beta_k"):
            assert name not in kspecial.__all__
            with pytest.raises(AttributeError):
                getattr(kspecial, name)
        for k, x in ((2.0, 1.3), (0.5, 7.0), (3.0, 0.4)):
            assert GammaKEvaluator(k).evaluate(x) == ROUTES["scaling"](k, x, DEFAULT)
            spec = betak.BetaKSpec(k, x, 2.5)
            assert betak.beta_k(spec) == betak.ROUTES["ratio"](spec, DEFAULT)


class TestRouteAgreement:
    def test_integral_vs_scaling_grid(self):
        for k in GRID_K:
            for x in GRID_X:
                s, i = gamma_k_scaling(k, x), gamma_k_integral(k, x)
                assert abs(i.value - s.value) <= 1e-9 * s.value

    def test_product_vs_scaling_grid(self):
        for k in GRID_K:
            for x in GRID_X:
                s, p = gamma_k_scaling(k, x), gamma_k_product(k, x, 10_000)
                assert abs(p.value - s.value) <= 1e-5 * s.value
                # the tail-corrected product is much better than the pinned bound
                assert abs(p.value - s.value) <= max(p.err_estimate, 5e-12 * s.value)

    def test_limit_route_convergence_rate(self):
        # two Richardson steps: the error falls at least like n^-2 (16x per
        # 4x in n) until it meets the rounding floor, ~1e-11 here
        s = gamma_k_scaling(2.0, 2.5).value
        errs = [abs(gamma_k_limit(2.0, 2.5, n).value - s) / s
                for n in (64, 256, 1024)]
        assert errs[1] <= errs[0] / 16 and errs[2] <= errs[1] / 16
        assert errs[2] <= 1e-9

    def test_err_estimates_honest(self):
        s = gamma_k_scaling(0.5, 2.5).value
        lim = gamma_k_limit(0.5, 2.5, 100_000)
        assert abs(lim.value - s) <= 3.0 * lim.err_estimate
        prod = gamma_k_product(0.5, 2.5, 10_000)
        assert abs(prod.value - s) <= max(prod.err_estimate, 1e-12 * s)

    @pytest.mark.parametrize("n", [1_000, 10_000, 100_000, 1_000_000])
    def test_limit_err_covers_rounding_at_x_equal_k(self, n):
        # every iterate is exactly 1 at x = k, so what the route reports
        # there is rounding, and only the log-space term of err_estimate
        # can cover it
        for k in GRID_K:
            r = gamma_k_limit(k, k, n)
            assert abs(r.value - 1.0) <= r.err_estimate

    @pytest.mark.parametrize("k,x,n", [
        (1e-3, 1e-3, 1025),       # x = k: rounding only
        (1e-6, 1e-6, 1_000_000),  # x = k, every factor in (0, 1]
        (2.0, 0.7, 1_000_000),
        (1.7, 1.7 * 0.66, 64),    # near q = 2/3 the one-step distance misses
        (1.7, 1.7 * 0.51, 4),     # the n^-3 term; only the c3 term covers it
    ])
    def test_limit_err_bounds_the_lgamma_error(self, k, x, n):
        # Gamma_k(x) = k^(q-1) Gamma(q), q = x/k, with the reference's own
        # rounding of its two logs
        q = x / k
        a, b = (q - 1.0) * math.log(k), math.lgamma(q)
        want = math.exp(a + b)
        r = gamma_k_limit(k, x, n)
        allowance = 8 * sys.float_info.epsilon * (abs(a) + abs(b)) * want
        assert abs(r.value - want) <= r.err_estimate + allowance

    def test_limit_err_is_honest_on_a_seeded_grid(self):
        # k log-uniform on [0.2, 5], x uniform on [0.05, 30], at the route's
        # default n: every draw is a typed refusal or within err_estimate of
        # k^(q-1) Gamma(q) (through math.lgamma) plus that reference's
        # rounding. The plain iterate at n = 10^5 missed on 130 of 150.
        rng = random.Random(1)
        refused = 0
        for _ in range(150):
            k = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
            x = rng.uniform(0.05, 30.0)
            q = x / k
            a, b = (q - 1.0) * math.log(k), math.lgamma(q)
            try:
                r = ROUTES["limit"](k, x, DEFAULT)
            except (DomainError, ResultOverflow):
                refused += 1
                continue
            want = math.exp(a + b)
            allowance = 8 * sys.float_info.epsilon * (abs(a) + abs(b)) * want
            assert abs(r.value - want) <= r.err_estimate + allowance, (k, x)
        assert refused < 15

    @pytest.mark.parametrize("k,x,n", [
        (1e-3, 1.0, 1000),        # q = 1000: the value underflows to 0 either way
        (2e-3, 1.0, 2048),        # q = 500: gave 1.17e-240 with err 1.17e-240,
                                  # where Gamma_k is 3.99e-216
        (0.01, 5.0, 16_384),      # q = 500 at the default n
        (1.0, 92.0, 16_384),      # q(q-1)/(2 * 4096) = 1.02
    ])
    def test_limit_refuses_where_the_expansion_has_not_started(self, k, x, n):
        with pytest.raises(DomainError, match=re.escape(f"with n = {n}")):
            gamma_k_limit(k, x, n)


class TestFunctionalEquation:
    def test_scaling_and_integral(self):
        for k in GRID_K:
            for x in GRID_X:
                for r in (gamma_k_scaling, gamma_k_integral):
                    lhs = r(k, x + k).value
                    rhs = x * r(k, x).value
                    assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_product_route(self):
        for k in GRID_K:
            for x in GRID_X:
                lhs = gamma_k_product(k, x + k, 10_000).value
                rhs = x * gamma_k_product(k, x, 10_000).value
                assert abs(lhs - rhs) <= 1e-5 * abs(rhs)

    def test_limit_route_spot(self):
        lhs = gamma_k_limit(1.0, 3.5, 1_000_000).value
        rhs = 2.5 * gamma_k_limit(1.0, 2.5, 1_000_000).value
        assert abs(lhs - rhs) <= 1e-4 * abs(rhs)


class TestNegativeArguments:
    def test_limit_at_minus_half(self):
        r = gamma_k_limit(1.0, -0.5, 1_000_000)
        assert r.value == pytest.approx(MINUS_TWO_SQRT_PI, rel=1e-5)

    def test_product_at_minus_half(self):
        r = gamma_k_product(1.0, -0.5, 10_000)
        assert r.value == pytest.approx(MINUS_TWO_SQRT_PI, rel=1e-11)

    def test_product_sign_pattern(self):
        # Gamma(x) alternates sign between consecutive negative poles
        assert gamma_k_product(1.0, -0.5, 2_000).value < 0.0
        assert gamma_k_product(1.0, -1.5, 2_000).value > 0.0
        assert gamma_k_product(1.0, -2.5, 2_000).value < 0.0

    def test_product_matches_loop_reference(self):
        # summation order changed, so allow the loop's own rounding:
        # one unit of float eps per factor on the log of the result
        for k in GRID_K:
            for x in (*GRID_X, -0.45 * k, -1.3 * k, -7.7 * k, -25.3 * k):
                want = gamma_k_product_loop(k, x, 10_000)
                tol = 10_000 * sys.float_info.epsilon * max(1.0, abs(math.log(abs(want))))
                got = gamma_k_product(k, x, 10_000).value
                assert got == pytest.approx(want, rel=tol)

    @pytest.mark.parametrize("q", [0.15, 1.5, 15.0, 150.0, 1000.0, -0.5, -7.3])
    def test_product_err_covers_the_pairwise_sum(self, q):
        # the route sums its terms pairwise in numpy; the oracle makes the
        # same terms with math and sums them by fsum. Their gap in log space
        # stays inside the estimate's share eps log2(N) sum|term|, plus the
        # rounding of the terms, the head logs and exp
        k = 3e-3 if q > 200 else 2.0     # keeps Gamma_k(qk) a finite double
        got = gamma_k_product(k, q * k, 10_000)
        want, abs_sum = gamma_k_product_fsum(k, q * k, 10_000)
        assert abs(got.value - want) <= got.err_estimate
        eps = sys.float_info.epsilon
        gap = abs(math.log(abs(got.value / want)))
        assert gap <= eps * (math.log2(10_000) * abs_sum
                             + 4 * abs(math.log(abs(want))) + 4)

    def test_tail_sums_are_the_closed_form(self):
        # zeta_H(m, N+1), m = 2..5, from the Hurwitz kernel, once per N
        got = gammak._tail_sums(10_000)
        assert got == pytest.approx(tail_sums(10_000), rel=1e-15, abs=0.0)
        assert gammak._tail_sums(10_000) is got

    def test_product_matches_every_pass_reference(self):
        # bit for bit against the route with its zero, low-factor and sign
        # passes run at every q: q > 0, q < 0 and next to the poles, with
        # 1..N past the chunk table too; a RuntimeWarning fails the test
        rng = random.Random(29)
        points = [(k, k * rng.uniform(-40.0, 40.0), 10_000)
                  for k in (rng.uniform(0.1, 5.0) for _ in range(150))]
        for m in (1, 2, 7, 30):
            for rel in (1e-11, -1e-11, 1e-6, -1e-6, 0.37, -0.37):
                k = rng.uniform(0.1, 5.0)
                points.append((k, -m * k * (1.0 + rel), 10_000))
        points += [(1.0, 2.5, 10), (1.0, -2.5, 10), (0.7, 3.3, 40_000),
                   (0.7, -3.3, 40_000), (2.0, -0.5, (1 << 15) - 1), (2.0, -0.5, 1 << 15)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k, x, n in points:
                r = gamma_k_product(k, x, n)
                assert (r.value, r.err_estimate) == gamma_k_product_every_pass(k, x, n)
        assert sum(x < 0.0 for _, x, _ in points) > 90


class TestPoles:
    @pytest.mark.parametrize("k,x", [(1.0, 0.0), (1.0, -1.0), (2.0, -4.0), (0.5, -1.5)])
    def test_pole_raises_with_location(self, k, x):
        with pytest.raises(DomainError) as exc:
            gamma_k_limit(k, x, 1000)
        assert exc.value.nearest_pole == x
        with pytest.raises(DomainError):
            gamma_k_product(k, x, 1000)
        # through the scaling route's check of x > 0
        with pytest.raises(DomainError) as exc:
            gamma_k_integral(k, x)
        assert exc.value.nearest_pole == x

    def test_near_pole_is_fine(self):
        assert math.isfinite(gamma_k_product(1.0, -0.9999, 1000).value)

    def test_nearest_pole_helper(self):
        assert nearest_pole(2.0, -4.0) == -4.0
        assert nearest_pole(2.0, -3.0) is None
        assert nearest_pole(2.0, 5.0) is None
        assert nearest_pole(0.5, 0.0) == 0.0

    def test_scaling_overflow_is_typed(self):
        with pytest.raises(ResultOverflow):
            gamma_k_scaling(1.0, 200.0)
        assert issubclass(ResultOverflow, OverflowError)

    @pytest.mark.parametrize("k,x", [(1.0, 172.0), (1.0, 200.0),
                                     (0.5, 100.0), (4.0, 700.0)])
    def test_integral_overflow_is_typed(self, k, x):
        # Gamma_k(x) itself exceeds the largest double here
        assert log_gamma_k(k, x) > math.log(sys.float_info.max)
        with pytest.raises(ResultOverflow):
            gamma_k_integral(k, x)

    def test_integral_weight_overflow_is_domain_error(self):
        # Gamma(171.5) ~ 9.5e307 is finite, but integrand times weight is
        # not at the outer nodes: the route cannot reach the value
        assert log_gamma_k(1.0, 171.5) < math.log(sys.float_info.max)
        with pytest.raises(DomainError):
            gamma_k_integral(1.0, 171.5)

    def test_dk_overflow_is_typed(self):
        assert math.isfinite(gamma_k_dk(1.0, 168.0).value)
        with pytest.raises(ResultOverflow):
            gamma_k_dk(1.0, 170.0)

    def test_scaling_domain(self):
        with pytest.raises(DomainError):
            log_gamma_k(1.0, -0.5)  # scaling route is x > 0 only
        with pytest.raises(DomainError):
            gamma_k_integral(2.0, 0.0)

    @pytest.mark.parametrize("route,n,message", [
        (gamma_k_limit, 3, "limit route needs n >= 4, got 3"),
        (gamma_k_product, 9, "product route needs n_terms >= 10, got 9")])
    def test_iteration_count_domain(self, route, n, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            route(2.0, 1.5, n)

    @pytest.mark.parametrize("k,x,message", [
        (1.0, math.inf, "x must be finite, got inf"),
        (1.0, -math.inf, "x must be finite, got -inf"),
        (1.0, math.nan, "x must be finite, got nan"),
        (math.inf, 1.0, "k must be finite, got inf")])
    @pytest.mark.parametrize("route", [gamma_k_scaling, gamma_k_integral,
                                       gamma_k_limit, gamma_k_product,
                                       gamma_k_dk, log_gamma_k])
    def test_nonfinite_input_is_domain_error(self, route, k, x, message,
                                             monkeypatch):
        # gamma_k_integral(1, inf) and gamma_k_product(1, inf) raised an
        # untyped ValueError, gamma_k_integral(1, nan) another, and
        # gamma_k_integral(inf, 1) ran 12 refinements into NonConvergent
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(quadrature, "quad_halfline", no_quadrature)
        with pytest.raises(DomainError, match=re.escape(message)):
            route(k, x)

    def test_limit_overflowing_factor_is_domain_error(self):
        # x + h k overflowed inside the route: numpy warned, and the
        # refusal named an x of inf that the caller never passed; x + n k
        # overflows at the default n = 16,384
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite x [+] n k"):
                gamma_k_limit(1e305, 1e305)

    def test_nonfinite_k_refused_by_evaluator(self):
        with pytest.raises(DomainError, match="k must be finite, got inf"):
            GammaKEvaluator(math.inf).evaluate(1.0)

    @pytest.mark.parametrize("k,x", [(1e-10, -1e-5 - 0.5e-10),
                                     (1e-5, -0.100005)])
    def test_product_overflow_at_negative_x_is_typed(self, k, x):
        # past |x/k| = n_terms, log|Gamma_k(x)| = (q-1) log k + lgamma(q)
        # exceeds the float range: ResultOverflow, not DomainError
        q = x / k
        assert (q - 1.0) * math.log(k) + math.lgamma(q) > math.log(sys.float_info.max)
        with pytest.raises(ResultOverflow):
            gamma_k_product(k, x)

    @pytest.mark.parametrize("k,x", [(1.0, -10000.5), (1.0, -20000.5)])
    def test_product_at_negative_x_past_the_radius_is_domain_error(self, k, x):
        # |Gamma(-10000.5)| ~ e^-82110: finite, but past the tail's radius
        with pytest.raises(DomainError, match="n_terms"):
            gamma_k_product(k, x)


class TestArgumentsBeyondTheFloatRange:
    """x/k past the float range: at -inf it is a pole, as every float past
    2^53 lattice units is; where it underflows, log Gamma_k(x) = -log x;
    where the scaling relation's two terms are not finite, log_gamma_k
    takes the Stirling form, and nowhere else."""

    def test_nearest_pole_at_minus_inf(self):
        assert nearest_pole(1e-300, -1e10) == -1e10
        assert nearest_pole(1.0, -2.0 ** 60) == -2.0 ** 60

    @pytest.mark.parametrize("route", ["scaling", "limit", "product"])
    def test_routes_refuse_the_pole(self, route):
        # round(-inf) raised an untyped OverflowError
        with pytest.raises(DomainError) as exc:
            ROUTES[route](1e-300, -1e10, DEFAULT)
        assert exc.value.nearest_pole == -1e10

    def test_underflowed_quotient(self):
        # it refused x with a message about log_gamma_classic and 0.0
        assert log_gamma_k(1e300, 1e-300) == -math.log(1e-300)
        assert (gamma_k_scaling(1e300, 1e-300).value == gamma_k_product(1e300, 1e-300).value
                == 9.999999999999763e+299)

    @pytest.mark.parametrize("k,x", [(1e-300, 1e7), (1e-300, 1e6), (1e-10, 1e297),
                                     (1e-300, 1e10)])
    def test_stirling_form_where_the_relation_is_nan(self, k, x):
        mpmath = pytest.importorskip("mpmath")
        q = x / k
        assert math.isnan((q - 1.0) * math.log(k) + math.inf)   # lgamma(q) overflows
        with mpmath.workdps(40):
            qm = mpmath.mpf(x) / k
            want = float((qm - 1) * mpmath.log(k) + mpmath.loggamma(qm))
        got = log_gamma_k(k, x)
        assert got == want if math.isinf(want) else got == pytest.approx(want, rel=1e-15)

    def test_overflow_names_the_argument(self):
        # log Gamma_k(1e7) ~ 1.51e308: it returned EvalResult(nan, nan)
        with pytest.raises(ResultOverflow, match=re.escape("Gamma_k(10000000.0) with k=1e-300")):
            gamma_k_scaling(1e-300, 1e7)

    def test_every_finite_relation_is_kept_bit_for_bit(self):
        rng = random.Random(41)
        kept = 0
        for _ in range(3000):
            k, x = (10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2))
            q = x / k
            if q < sys.float_info.min:   # subnormal or 0: -log x
                continue
            try:
                want = (q - 1.0) * math.log(k) + math.lgamma(q)
            except OverflowError:
                continue
            if math.isfinite(want):
                assert log_gamma_k(k, x) == want, (k, x)
                kept += 1
        assert kept > 2000

    def test_subnormal_quotient_is_minus_log_x(self):
        # the relation lost digits there: log_gamma_k(1e300, 4e-24) was
        # 53.66454402316754, 19% low as a value
        rng = random.Random(43)
        for _ in range(500):
            k = 10.0 ** rng.uniform(0.0, 300.0)
            x = k * sys.float_info.min * 10.0 ** rng.uniform(-15.0, 0.0)
            if x / k < sys.float_info.min:
                assert log_gamma_k(k, x) == -math.log(x), (k, x)
        q = math.nextafter(sys.float_info.min, 0.0)
        assert log_gamma_k(1.0, q) == -math.log(q)

    @pytest.mark.parametrize("k,x", [(1e300, 4e-24), (1e-308, math.e),
                                     (1e-308, math.nextafter(math.e, 3.0))])
    def test_quotient_past_the_float_range_against_mpmath(self, k, x):
        # q subnormal, and q = inf where log x - 1 rounds to 0.0 (it was nan)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            qm = mpmath.mpf(x) / k
            want = float((qm - 1) * mpmath.log(k) + mpmath.loggamma(qm))
        assert log_gamma_k(k, x) == pytest.approx(want, rel=1e-15)

    def test_underflowing_value_past_the_float_range(self):
        # log Gamma_k(e) ~ -1.4e292 with k = 1e-308: it was refused as nan
        assert gamma_k_scaling(1e-308, math.e).value == 0.0
        assert gamma_k_scaling(1e300, 4e-24).value == pytest.approx(2.5e23, rel=1e-14)


def _overflows(route, k, x) -> bool:
    """Whether route(k, x) refuses with ResultOverflow; another typed
    refusal is False, an untyped error propagates."""
    try:
        route(k, x)
    except ResultOverflow:
        return True
    except (DomainError, NonConvergent):
        return False
    return False


def test_routes_refuse_overflow_where_scaling_does():
    """integral, limit and product raise ResultOverflow exactly where
    gamma_k_scaling does: near the threshold, log Gamma_k(x) - log(DBL_MAX)
    uniform on [-1, 3], and at x log-uniform on [1e-320, 1e-305]. A lower
    bound on the value refused 57 of these 300 calls as DomainError or
    NonConvergent."""
    rng = random.Random(26)
    log_max = math.log(sys.float_info.max)
    points = []
    for _ in range(50):
        k = 10.0 ** rng.uniform(-1.0, 1.0)
        target = log_max + rng.uniform(-1.0, 3.0)
        lo, hi = 2.0 * k, 1e4 * k   # log Gamma_k increases on [2k, inf)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if log_gamma_k(k, mid) < target else (lo, mid)
        points += [(k, lo), (k, 10.0 ** rng.uniform(-320.0, -305.0))]
    refused = 0
    for k, x in points:
        want = _overflows(gamma_k_scaling, k, x)
        refused += want
        for route in (gamma_k_integral, gamma_k_limit, gamma_k_product):
            assert _overflows(route, k, x) == want, (route.__name__, k, x)
    assert 0 < refused < len(points)


class TestReflection:
    def test_normalized_identity(self):
        # k * Gamma_k(x) Gamma_k(k-x) * sin(pi x/k) / pi = 1
        for k in (1.0, 2.0):
            for ratio in (0.25, 0.5, 0.75):
                x = ratio * k
                prod = (gamma_k_product(k, x, 10_000).value
                        * gamma_k_product(k, k - x, 10_000).value)
                lhs = k * prod * math.sin(math.pi * ratio) / math.pi
                assert abs(lhs - 1.0) <= 1e-8

    def test_unnormalized_variant_misses_factor_k(self):
        # without the k factor the same quantity equals 1/k, demonstrating
        # that the variant normalization cannot hold for k != 1
        x = 1.0
        prod = (gamma_k_product(2.0, x, 10_000).value
                * gamma_k_product(2.0, 2.0 - x, 10_000).value)
        unnormalized = prod * math.sin(math.pi * 0.5) / math.pi
        assert abs(unnormalized - 0.5) <= 1e-8
        assert abs(unnormalized - 1.0) > 0.4

    def test_via_limit_route(self):
        x = 0.5 * 2.0
        prod = (gamma_k_limit(2.0, x, 100_000).value
                * gamma_k_limit(2.0, 2.0 - x, 100_000).value)
        lhs = 2.0 * prod * math.sin(math.pi * 0.5) / math.pi
        assert abs(lhs - 1.0) <= 1e-4


class TestScaleTransfer:
    def test_identity(self):
        # Gamma_s(x) = (s/k)^(x/s-1) Gamma_k(k x / s)
        for s in GRID_K:
            for k in GRID_K:
                for x in (0.7, 1.0, 2.5):
                    lhs = gamma_k_scaling(s, x).value
                    rhs = ((s / k) ** (x / s - 1.0)
                           * gamma_k_scaling(k, k * x / s).value)
                    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_with_integral_route(self):
        lhs = gamma_k_integral(3.0, 2.0).value
        rhs = (3.0 / 1.0) ** (2.0 / 3.0 - 1.0) * gamma_k_integral(1.0, 2.0 / 3.0).value
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


class TestParameterizedIntegral:
    def test_a_scaling(self):
        # a^(x/k) int t^(x-1) e^(-a t^k / k) dt = Gamma_k(x), a > 0
        for a in (0.5, 2.0):
            for k in (1.0, 2.0):
                for x in (0.7, 2.5):
                    def f(t, a=a, k=k, x=x):
                        lt = np.log(t)
                        e = k * lt
                        w = (x - 1.0) * lt - a * np.exp(np.minimum(e, 700.0)) / k
                        return np.where((e <= 700.0) & (w > -745.0), np.exp(w), 0.0)
                    got = a ** (x / k) * quad_halfline(f).value
                    want = gamma_k_scaling(k, x).value
                    assert abs(got - want) <= 1e-9 * want


class TestStirling:
    def test_leading_term_error_decays(self):
        for k in (1.0, 2.0, 3.0):
            prev_rel = None
            for x in (10.0, 20.0, 40.0, 80.0):
                exact = gamma_k_scaling(k, x + 1.0).value
                rel = abs(exact - gamma_k_stirling(k, x)) / exact
                assert rel * x <= 0.12
                if prev_rel is not None:
                    assert rel < prev_rel
                prev_rel = rel

    def test_known_magnitude(self):
        # k=1, x=10: leading term misses 10! by ~0.83%
        rel = abs(math.gamma(11.0) - gamma_k_stirling(1.0, 10.0)) / math.gamma(11.0)
        assert 0.005 < rel < 0.012

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_k_stirling(1.0, -1.0)

    @pytest.mark.parametrize("k,x", [(math.inf, 1.0), (1.0, math.inf)])
    def test_nonfinite_input_is_domain_error(self, k, x):
        # k = inf gave 0.0, x = inf nan
        with pytest.raises(DomainError, match="must be finite, got inf"):
            gamma_k_stirling(k, x)

    def test_overflow_is_typed(self):
        # math.exp(inf) returned inf
        with pytest.raises(ResultOverflow, match=r"Gamma_k\(1e\+308\) with k=1.0"):
            gamma_k_stirling(1.0, 1e308)

    @pytest.mark.parametrize("k,x,want", [
        # k x overflows: log(k x) was inf and the term 0.0 (closed: k = x
        # gives sqrt(2 pi) k^(1/k) / e, x = 2k gives 4 sqrt(pi) k (2k)^(1/k) e^-2)
        (1e200, 1e200, math.sqrt(2.0 * math.pi) / math.e),
        (1e160, 2e160, 4.0 * math.sqrt(math.pi) * 1e160 * math.exp(-2.0)),
        # k x underflows to 0: math.log(k x) raised "math domain error"
        (1.79e-124, 1.49e-291, 0.0),
        # (x+1)/k overflows at x = 1: inf * log(1) was nan
        (1e-308, 1.0, 0.0)])
    def test_products_past_the_float_range(self, k, x, want):
        assert gamma_k_stirling(k, x) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("k,x", [
        # x/k past the float range, where a second form took the exponent as
        # one quotient ((x+1) log x - x)/k; at x = 1.9 and 2.0 that quotient
        # changes sign while x (log x - 1)/k and log(x)/k are -inf and +inf
        (1e-300, 1e10), (1e-10, 1e300), (1e-310, 0.5), (5e-324, 1.9), (5e-324, 2.0),
        # k x below the float range: log(k x) raised "math domain error"
        (1.79e-124, 1.49e-291), (0.4, 5e-324)])
    def test_one_form_past_the_float_range(self, k, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workprec(200):
            km, xm = mpmath.mpf(k), mpmath.mpf(x)
            log_v = ((mpmath.log(2 * mpmath.pi) - mpmath.log(km * xm)) / 2
                     + ((xm + 1) * mpmath.log(xm) - xm) / km)
            if log_v > mpmath.log(sys.float_info.max):
                with pytest.raises(ResultOverflow, match="Stirling term of Gamma_k"):
                    gamma_k_stirling(k, x)
                return
            want = float(mpmath.exp(log_v))
        got = gamma_k_stirling(k, x)
        assert abs(got - want) <= 1e-13 * want

    def test_fuzz_is_finite_or_typed(self):
        # k and x log-uniform over the positive floats; the log was nan at
        # x/k = inf (inf - inf) and 2,351 draws raised an untyped ValueError
        rng = random.Random(1)
        lo, hi = math.log(1e-310), math.log(1.7e308)
        overflows = 0
        for _ in range(20_000):
            k, x = math.exp(rng.uniform(lo, hi)), math.exp(rng.uniform(lo, hi))
            try:
                v = gamma_k_stirling(k, x)
            except ResultOverflow:
                overflows += 1
                continue
            assert math.isfinite(v), (k, x)
        assert 0 < overflows < 20_000


class TestGammaKdK:
    def test_against_finite_difference(self):
        for k, x in [(1.0, 1.5), (2.0, 0.7), (0.5, 2.0), (3.0, 1.0)]:
            got = gamma_k_dk(k, x).value
            fd = central_diff(lambda kk: math.exp(log_gamma_k(kk, x + 1.0)), k, 1e-5 * k)
            assert got == pytest.approx(fd, rel=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_k_dk(1.0, -1.5)

    @pytest.mark.parametrize("k,x", [(1e-300, 1.0), (1e-160, math.e - 1.0)],
                             ids=["k-squared-underflows", "lead-overflows"])
    def test_lead_past_float_range_is_typed(self, k, x):
        # k*k = 0 raised ZeroDivisionError; Gamma_k(x+k+1)/k^2 = inf returned inf
        with pytest.raises(ResultOverflow, match=f"at x={x} with k={k}"):
            gamma_k_dk(k, x)


class TestPsiAndPDE:
    def test_psi_x_matches_fd_of_scaling_form(self):
        for k, x in [(1.0, 1.0), (2.0, 3.0), (0.5, 0.7), (3.0, 2.5)]:
            p = psi_point(k, x)
            fd = central_diff(lambda xx: log_gamma_k(k, xx), x, 1e-6 * x)
            assert p.psi_x == pytest.approx(fd, rel=1e-7, abs=1e-8)

    def test_psi_k_matches_fd_of_scaling_form(self):
        for k, x in [(1.0, 1.0), (2.0, 3.0), (0.5, 0.7), (3.0, 2.5)]:
            p = psi_point(k, x)
            fd = central_diff(lambda kk: log_gamma_k(kk, x), k, 1e-6 * k)
            assert p.psi_k == pytest.approx(fd, rel=1e-7, abs=1e-8)

    def test_psi_xx_positive_logconvexity(self):
        for k in GRID_K:
            for x in GRID_X:
                assert psi_point(k, x).psi_xx > 0.0

    def test_midpoint_logconvexity(self):
        for k in (0.5, 2.0):
            for (x, y) in [(0.5, 3.0), (1.0, 7.0)]:
                mid = gamma_k_scaling(k, 0.5 * (x + y)).value
                ends = gamma_k_scaling(k, x).value * gamma_k_scaling(k, y).value
                assert mid <= math.sqrt(ends) * (1 + 1e-12)

    def test_one_series_per_point_is_bit_identical(self):
        # the reference sums S(k, x) separately for psi_x and for psi_k
        rng = random.Random(17)
        for _ in range(200):
            k, x = rng.uniform(0.2, 5.0), rng.uniform(0.05, 60.0)
            p = psi_point(k, x)
            assert (p.psi_x, p.psi_k, p.psi_kk) == psi_point_two_series(k, x)

    def test_head_sum_matches_the_loop(self):
        # the numpy head against the loop over n, bit for bit, and alike
        # where a head term leaves the float range; no numpy warning
        rng = random.Random(31)
        points = [(math.exp(rng.uniform(-4.0, 4.0)), math.exp(rng.uniform(-8.0, 8.0)))
                  for _ in range(200)]
        points += [(1e-310, 1.0), (1e-310, 1e-310), (1e307, 1.0), (1e300, 1e-300),
                   (1.0, 1e300), (2.0, 1e-300)]

        def outcome(f, k, x):
            try:
                return repr(f(k, x))
            except (OverflowError, ZeroDivisionError) as e:
                return type(e).__name__

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k, x in points:
                assert outcome(gammak._psi_series, k, x) == outcome(psi_series_loop, k, x)

    def test_digamma_reference(self):
        # k=1: psi_x(1, x) is the classical digamma; mp30 digamma(0.8)
        p = psi_point(1.0, 0.8)
        assert p.psi_x == pytest.approx(-0.965008566706138459391297633157, abs=1e-12)

    def test_pde_residual_small_on_grid(self):
        for k in (0.5, 1.0, 2.0):
            for x in (0.7, 1.0, 3.0):
                assert abs(pde_residual(psi_point(k, x))) <= 1e-4

    def test_variant_rhs_discrepancy_is_k_times_xm1(self):
        # the variant right side -x(k+1) misses by exactly k(x-1)
        for k in (0.5, 1.0, 2.0):
            for x in (0.7, 1.0, 3.0):
                got = pde_residual_variant(psi_point(k, x))
                assert got == pytest.approx(k * (x - 1.0), abs=1e-6)

    @pytest.mark.parametrize("k,x", [(1e-300, 1.0), (1e200, 1.0), (1.0, 1e300),
                                     (1e-150, 1e10), (1.0, 1e-200)],
                             ids=["k-squared-underflows", "k-cubed", "x-plus-ak-fourth",
                                  "psi-k-inf", "psi-xx-overflows"])
    def test_psi_point_overflow_is_typed(self, k, x):
        # ZeroDivisionError, OverflowError (34, ...), and a PsiPoint holding
        # -inf and nan; the last raised hurwitz_zeta's ResultOverflow
        with pytest.raises(ResultOverflow, match=re.escape(f"psi_point(k={k}, x={x})")):
            psi_point(k, x)

    @pytest.mark.parametrize("k,x", [(1.0, 0.0), (0.0, 1.0), (-1.0, 1.0), (1.0, math.nan),
                                     (math.nan, 1.0), (math.inf, 1.0)])
    def test_psi_point_domain(self, k, x):
        with pytest.raises(DomainError):
            psi_point(k, x)

    def test_psi_point_invariant(self):
        with pytest.raises(ValueError):
            PsiPoint(k=1.0, x=1.0, psi=0.0, psi_x=0.0, psi_xx=-1.0,
                     psi_k=0.0, psi_kk=0.0)


class TestPochhammerBridge:
    def test_ratio_identity(self):
        # (x)_{n,k} = Gamma_k(x + nk) / Gamma_k(x)
        for k in (0.5, 2.0):
            for x in (0.3, 1.0, 2.5):
                for n in (1, 3, 8):
                    want = math.exp(log_gamma_k(k, x + n * k) - log_gamma_k(k, x))
                    got = pochhammer_k(PochhammerSpec(x, n, k))
                    assert got == pytest.approx(want, rel=1e-11)

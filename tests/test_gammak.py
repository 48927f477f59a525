"""Gamma_k: four routes, functional equation, normalization, reflection,
scale transfer, Stirling decay, k-derivative, psi machinery and the PDE.

Frozen constants marked mp30 come from 30-digit arbitrary-precision
evaluation of the closed scaling form; closed = exact closed form.
"""

import math
import sys

import pytest

from kspecial import gammak
from kspecial.errors import DomainError, ResultOverflow
from kspecial.gammak import (GammaKEvaluator, PsiPoint, gamma_k_dk,
                             gamma_k_stirling, log_gamma_k, nearest_pole,
                             pde_residual, pde_residual_variant, psi_point)
from kspecial.pochhammer import PochhammerSpec, pochhammer_k
from kspecial.quadrature import quad_halfline

from oracles import central_diff, gamma_k_product_loop

GRID_K = (0.5, 1.0, 2.0, 3.0)
GRID_X = (0.3, 1.0, 2.5, 7.0)

SQRT_HALF_PI = 1.2533141373155001          # closed: Gamma_2(1) = sqrt(pi/2)
GAMMA3_AT_1 = 1.28789931685406908720068316003   # mp30: 3^(-2/3) Gamma(1/3)
GAMMA2_AT_5 = 3.75994241194650075362364792722   # mp30: 2^(3/2) Gamma(5/2)
MINUS_TWO_SQRT_PI = -3.54490770181103205459633496668  # mp30: Gamma(-1/2)


class TestReferenceValues:
    def test_frozen_points(self):
        assert GammaKEvaluator(2.0).scaling(1.0).value == pytest.approx(
            SQRT_HALF_PI, rel=1e-13)
        assert GammaKEvaluator(3.0).scaling(1.0).value == pytest.approx(
            GAMMA3_AT_1, rel=1e-13)
        assert GammaKEvaluator(2.0).scaling(5.0).value == pytest.approx(
            GAMMA2_AT_5, rel=1e-13)
        assert GammaKEvaluator(0.5).scaling(2.0).value == pytest.approx(
            0.75, rel=1e-13)  # closed: (1/2)^3 Gamma(4)

    def test_k_equals_1_is_classical(self):
        for x in GRID_X:
            assert GammaKEvaluator(1.0).scaling(x).value == pytest.approx(
                math.gamma(x), rel=1e-13)

    def test_normalization_all_routes(self):
        for k in GRID_K:
            ev = GammaKEvaluator(k)
            assert ev.scaling(k).value == pytest.approx(1.0, abs=1e-12)
            assert ev.integral(k).value == pytest.approx(1.0, abs=1e-11)
            assert ev.product(k, 10_000).value == pytest.approx(1.0, abs=1e-10)
            assert ev.limit(k, 200_000).value == pytest.approx(1.0, abs=1e-4)


class TestRouteAgreement:
    def test_integral_vs_scaling_grid(self):
        for k in GRID_K:
            ev = GammaKEvaluator(k)
            for x in GRID_X:
                s, i = ev.scaling(x), ev.integral(x)
                assert abs(i.value - s.value) <= 1e-9 * s.value

    def test_product_vs_scaling_grid(self):
        for k in GRID_K:
            ev = GammaKEvaluator(k)
            for x in GRID_X:
                s, p = ev.scaling(x), ev.product(x, 10_000)
                assert abs(p.value - s.value) <= 1e-5 * s.value
                # the tail-corrected product is much better than the pinned bound
                assert abs(p.value - s.value) <= max(p.err_estimate, 5e-12 * s.value)

    def test_limit_route_convergence_rate(self):
        ev = GammaKEvaluator(2.0)
        s = ev.scaling(2.5).value
        errs = [abs(ev.limit(2.5, n).value - s) / s for n in (10_000, 100_000, 1_000_000)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-4

    def test_err_estimates_honest(self):
        ev = GammaKEvaluator(0.5)
        s = ev.scaling(2.5).value
        lim = ev.limit(2.5, 100_000)
        assert abs(lim.value - s) <= 3.0 * lim.err_estimate
        prod = ev.product(2.5, 10_000)
        assert abs(prod.value - s) <= max(prod.err_estimate, 1e-12 * s)

    @pytest.mark.parametrize("n", [1_000, 10_000, 100_000, 1_000_000])
    def test_limit_err_covers_rounding_at_x_equal_k(self, n):
        # every iterate is exactly 1 at x = k, so what the route reports
        # there is rounding, and only the log-space term of err_estimate
        # can cover it
        for k in GRID_K:
            r = GammaKEvaluator(k).limit(k, n)
            assert abs(r.value - 1.0) <= r.err_estimate


class TestFunctionalEquation:
    def test_scaling_and_integral(self):
        for k in GRID_K:
            ev = GammaKEvaluator(k)
            for x in GRID_X:
                for r in (ev.scaling, ev.integral):
                    lhs = r(x + k).value
                    rhs = x * r(x).value
                    assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_product_route(self):
        for k in GRID_K:
            ev = GammaKEvaluator(k)
            for x in GRID_X:
                lhs = ev.product(x + k, 10_000).value
                rhs = x * ev.product(x, 10_000).value
                assert abs(lhs - rhs) <= 1e-5 * abs(rhs)

    def test_limit_route_spot(self):
        ev = GammaKEvaluator(1.0)
        lhs = ev.limit(3.5, 1_000_000).value
        rhs = 2.5 * ev.limit(2.5, 1_000_000).value
        assert abs(lhs - rhs) <= 1e-4 * abs(rhs)


class TestNegativeArguments:
    def test_limit_at_minus_half(self):
        r = GammaKEvaluator(1.0).limit(-0.5, 1_000_000)
        assert r.value == pytest.approx(MINUS_TWO_SQRT_PI, rel=1e-5)

    def test_product_at_minus_half(self):
        r = GammaKEvaluator(1.0).product(-0.5, 10_000)
        assert r.value == pytest.approx(MINUS_TWO_SQRT_PI, rel=1e-11)

    def test_product_sign_pattern(self):
        # Gamma(x) alternates sign between consecutive negative poles
        ev = GammaKEvaluator(1.0)
        assert ev.product(-0.5, 2_000).value < 0.0
        assert ev.product(-1.5, 2_000).value > 0.0
        assert ev.product(-2.5, 2_000).value < 0.0

    def test_product_matches_loop_reference(self):
        # summation order changed, so allow the loop's own rounding:
        # one unit of float eps per factor on the log of the result
        for k in GRID_K:
            ev = GammaKEvaluator(k)
            for x in (*GRID_X, -0.45 * k, -1.3 * k, -7.7 * k, -25.3 * k):
                want = gamma_k_product_loop(k, x, 10_000)
                tol = 10_000 * sys.float_info.epsilon * max(1.0, abs(math.log(abs(want))))
                assert ev.product(x, 10_000).value == pytest.approx(want, rel=tol)


class TestPoles:
    @pytest.mark.parametrize("k,x", [(1.0, 0.0), (1.0, -1.0), (2.0, -4.0), (0.5, -1.5)])
    def test_pole_raises_with_location(self, k, x):
        ev = GammaKEvaluator(k)
        with pytest.raises(DomainError) as exc:
            ev.limit(x, 1000)
        assert exc.value.nearest_pole == x
        with pytest.raises(DomainError):
            ev.product(x, 1000)

    def test_vanishing_product_factor_names_pole(self, monkeypatch):
        # the lattice test catches this first; the factor check backs it up
        monkeypatch.setattr(gammak, "_require_off_pole", lambda k, x: None)
        with pytest.raises(DomainError) as exc:
            GammaKEvaluator(2.0).product(-6.0, 1000)
        assert exc.value.nearest_pole == -6.0

    def test_near_pole_is_fine(self):
        assert math.isfinite(GammaKEvaluator(1.0).product(-0.9999, 1000).value)

    def test_nearest_pole_helper(self):
        assert nearest_pole(2.0, -4.0) == -4.0
        assert nearest_pole(2.0, -3.0) is None
        assert nearest_pole(2.0, 5.0) is None
        assert nearest_pole(0.5, 0.0) == 0.0

    def test_scaling_overflow_is_typed(self):
        with pytest.raises(ResultOverflow):
            GammaKEvaluator(1.0).scaling(200.0)
        assert issubclass(ResultOverflow, OverflowError)

    @pytest.mark.parametrize("k,x", [(1.0, 172.0), (1.0, 200.0),
                                     (0.5, 100.0), (4.0, 700.0)])
    def test_integral_overflow_is_typed(self, k, x):
        # Gamma_k(x) itself exceeds the largest double here
        assert log_gamma_k(k, x) > math.log(sys.float_info.max)
        with pytest.raises(ResultOverflow):
            GammaKEvaluator(k).integral(x)

    def test_integral_weight_overflow_is_domain_error(self):
        # Gamma(171.5) ~ 9.5e307 is finite, but integrand times weight is
        # not at the outer nodes: the route cannot reach the value
        assert log_gamma_k(1.0, 171.5) < math.log(sys.float_info.max)
        with pytest.raises(DomainError):
            GammaKEvaluator(1.0).integral(171.5)

    def test_dk_overflow_is_typed(self):
        assert math.isfinite(gamma_k_dk(1.0, 168.0).value)
        with pytest.raises(ResultOverflow):
            gamma_k_dk(1.0, 170.0)

    def test_scaling_domain(self):
        with pytest.raises(DomainError):
            log_gamma_k(1.0, -0.5)  # scaling route is x > 0 only
        with pytest.raises(DomainError):
            GammaKEvaluator(2.0).integral(0.0)


class TestReflection:
    def test_normalized_identity(self):
        # k * Gamma_k(x) Gamma_k(k-x) * sin(pi x/k) / pi = 1
        for k in (1.0, 2.0):
            ev = GammaKEvaluator(k)
            for ratio in (0.25, 0.5, 0.75):
                x = ratio * k
                prod = ev.product(x, 10_000).value * ev.product(k - x, 10_000).value
                lhs = k * prod * math.sin(math.pi * ratio) / math.pi
                assert abs(lhs - 1.0) <= 1e-8

    def test_unnormalized_variant_misses_factor_k(self):
        # without the k factor the same quantity equals 1/k, demonstrating
        # that the variant normalization cannot hold for k != 1
        ev = GammaKEvaluator(2.0)
        x = 1.0
        prod = ev.product(x, 10_000).value * ev.product(2.0 - x, 10_000).value
        unnormalized = prod * math.sin(math.pi * 0.5) / math.pi
        assert abs(unnormalized - 0.5) <= 1e-8
        assert abs(unnormalized - 1.0) > 0.4

    def test_via_limit_route(self):
        ev = GammaKEvaluator(2.0)
        x = 0.5 * 2.0
        prod = ev.limit(x, 100_000).value * ev.limit(2.0 - x, 100_000).value
        lhs = 2.0 * prod * math.sin(math.pi * 0.5) / math.pi
        assert abs(lhs - 1.0) <= 1e-4


class TestScaleTransfer:
    def test_identity(self):
        # Gamma_s(x) = (s/k)^(x/s-1) Gamma_k(k x / s)
        for s in GRID_K:
            for k in GRID_K:
                for x in (0.7, 1.0, 2.5):
                    lhs = GammaKEvaluator(s).scaling(x).value
                    rhs = ((s / k) ** (x / s - 1.0)
                           * GammaKEvaluator(k).scaling(k * x / s).value)
                    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_with_integral_route(self):
        lhs = GammaKEvaluator(3.0).integral(2.0).value
        rhs = (3.0 / 1.0) ** (2.0 / 3.0 - 1.0) * GammaKEvaluator(1.0).integral(2.0 / 3.0).value
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


class TestParameterizedIntegral:
    def test_a_scaling(self):
        # a^(x/k) int t^(x-1) e^(-a t^k / k) dt = Gamma_k(x), a > 0
        for a in (0.5, 2.0):
            for k in (1.0, 2.0):
                for x in (0.7, 2.5):
                    def f(t, a=a, k=k, x=x):
                        lt = math.log(t)
                        e = k * lt
                        if e > 700.0:
                            return 0.0
                        w = (x - 1.0) * lt - a * math.exp(e) / k
                        return math.exp(w) if w > -745.0 else 0.0
                    got = a ** (x / k) * quad_halfline(f).value
                    want = GammaKEvaluator(k).scaling(x).value
                    assert abs(got - want) <= 1e-9 * want


class TestStirling:
    def test_leading_term_error_decays(self):
        for k in (1.0, 2.0, 3.0):
            ev = GammaKEvaluator(k)
            prev_rel = None
            for x in (10.0, 20.0, 40.0, 80.0):
                exact = ev.scaling(x + 1.0).value
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


class TestGammaKdK:
    def test_against_finite_difference(self):
        for k, x in [(1.0, 1.5), (2.0, 0.7), (0.5, 2.0), (3.0, 1.0)]:
            got = gamma_k_dk(k, x).value
            fd = central_diff(lambda kk: math.exp(log_gamma_k(kk, x + 1.0)), k, 1e-5 * k)
            assert got == pytest.approx(fd, rel=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_k_dk(1.0, -1.5)


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
            ev = GammaKEvaluator(k)
            for (x, y) in [(0.5, 3.0), (1.0, 7.0)]:
                mid = ev.scaling(0.5 * (x + y)).value
                assert mid <= math.sqrt(ev.scaling(x).value * ev.scaling(y).value) * (1 + 1e-12)

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

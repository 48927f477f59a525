"""B_k: four-route agreement, classical collapse, symmetry, shift identity."""

import math
import sys

import pytest

from kspecial.betak import (BetaKSpec, beta_k, beta_k_integral_halfline,
                            beta_k_integral_unit, beta_k_product, beta_k_ratio)
from kspecial.errors import DomainError, ResultOverflow

from oracles import beta_k_product_loop

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
            assert beta_k(spec, name).value == pytest.approx(math.pi / 2.0,
                                                             rel=1e-9)
        with pytest.raises(ValueError):
            beta_k(spec, "simpson")

    @pytest.mark.parametrize("k,x,y", [(0.0, 1.0, 1.0), (-1.0, 1.0, 1.0),
                                       (1.0, 0.0, 1.0), (1.0, 1.0, -2.0)])
    def test_spec_validation(self, k, x, y):
        with pytest.raises(DomainError):
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

    def test_ratio_overflow_is_typed(self):
        with pytest.raises(ResultOverflow):
            beta_k_ratio(BetaKSpec(1.0, 1e-320, 1.0))

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

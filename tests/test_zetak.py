"""zeta_k: reduction to Hurwitz, shift/scaling structure, the trigamma
identity, the s = 0 derivative composite, and term-wise k-derivatives."""

import itertools
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kspecial.errors import DomainError, PoleError, ResultOverflow
from kspecial.gammak import log_gamma_k, psi_point
from kspecial.zetak import (ZetaKSpec, zeta_k, zeta_k_dk,
                            zeta_k_dk_printed_variant, zeta_k_ds_at_zero,
                            zeta_k_identity_trigamma)

from oracles import central_diff, second_diff

ZETA2 = math.pi ** 2 / 6.0
ZETA4 = math.pi ** 4 / 90.0

GRID_K = (0.5, 1.0, 2.0)
GRID_X = (0.5, 1.0, 2.5)


class TestValues:
    def test_classical_points(self):
        assert zeta_k(ZetaKSpec(1.0, 1.0, 2.0)).value == pytest.approx(ZETA2, rel=1e-12)
        assert zeta_k(ZetaKSpec(2.0, 2.0, 2.0)).value == pytest.approx(ZETA2 / 4.0, rel=1e-12)
        assert zeta_k(ZetaKSpec(1.0, 1.0, 4.0)).value == pytest.approx(ZETA4, rel=1e-12)

    def test_continuation_below_one(self):
        # k=1, x=1: zeta(-1) = -1/12, zeta(0) = -1/2
        assert zeta_k(ZetaKSpec(1.0, 1.0, -1.0)).value == pytest.approx(-1.0 / 12.0, abs=1e-12)
        assert zeta_k(ZetaKSpec(1.0, 1.0, 1e-30)).value == pytest.approx(-0.5, abs=1e-12)

    def test_pole_and_domain(self):
        with pytest.raises(PoleError):
            zeta_k(ZetaKSpec(1.0, 1.0, 1.0))
        with pytest.raises(DomainError):
            ZetaKSpec(0.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            ZetaKSpec(1.0, -1.0, 2.0)

    @pytest.mark.parametrize("x,s,message", [(math.inf, 2.0, "x must be finite, got inf"),
                                             (1.0, math.nan, "s must be finite, got nan")])
    def test_nonfinite_x_or_s_is_domain_error(self, x, s, message):
        # zeta_k(ZetaKSpec(1, inf, 2)) was EvalResult(0.0, 0.0)
        with pytest.raises(DomainError, match=message):
            zeta_k(ZetaKSpec(1.0, x, s))

    def test_nonfinite_k_is_domain_error(self):
        # the spec was built, and hurwitz_zeta refused a = x/k = 0.0
        with pytest.raises(DomainError, match="k must be finite, got inf"):
            ZetaKSpec(math.inf, 1.0, 2.0)

    @staticmethod
    def sequential_refusal(k, x, s):
        """The message of two sign checks (k, then x) and then three
        finiteness checks (k, x, s), or None where all pass."""
        if not k > 0.0:
            return f"k must be > 0, got {k}"
        if not x > 0.0:
            return f"zeta_k needs x > 0, got {x}"
        for name, v in (("k", k), ("x", x), ("s", s)):
            if not math.isfinite(v):
                return f"{name} must be finite, got {v}"
        return None

    def test_one_pass_keeps_the_sequential_order(self):
        # e.g. k = inf with x = -1 reads "zeta_k needs x > 0"
        values = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1.5)
        for k, x, s in itertools.product(values, repeat=3):
            want = self.sequential_refusal(k, x, s)
            if want is None:
                assert ZetaKSpec(k, x, s) == (k, x, s)
                continue
            with pytest.raises(DomainError) as exc:
                ZetaKSpec(k, x, s)
            assert str(exc.value) == want, (k, x, s)


class TestScaleBeyondFloatRange:
    """k^(-s) overflows a double while zeta_k itself is finite."""

    @pytest.mark.parametrize("k,x,s", [(1e-300, 1.0, 2.0), (1e-300, 2.0, 1.5),
                                       (1e-200, 1.0, 2.5), (1e-250, 3.0, 2.2)])
    def test_tiny_k_against_integral_limit(self, k, x, s):
        # k -> 0: zeta_k(x, s) = x^(1-s)/((s-1)k) + x^(-s)/2 + O(k)
        want = x ** (1.0 - s) / (s - 1.0) / k
        r = zeta_k(ZetaKSpec(k, x, s))
        assert math.isfinite(r.value) and math.isfinite(r.err_estimate)
        assert r.value == pytest.approx(want, rel=1e-12)
        assert abs(r.value - want) <= r.err_estimate

    @pytest.mark.parametrize("k,x,s", [
        (1e-300, 1e-10, 2.0),   # the value itself is ~1e310
    ])
    def test_unrepresentable_is_typed(self, k, x, s):
        with pytest.raises(ResultOverflow, match="zeta_k"):
            zeta_k(ZetaKSpec(k, x, s))

    @pytest.mark.parametrize("k,x,s", [
        (1e300, 1.0, 2.0),          # 1.0 to rounding; zeta_H(2, 1e-300) ~ 1e600
        (1e300, 1.0 / 3.0, 3.0),    # ~27
        (1e-300, 1.0 / 3.0, -1e300),   # ~ (1/3)^1e300, below the float range
    ])
    def test_overflowed_hurwitz_is_a_domain_error(self, k, x, s):
        # zeta_H(s, x/k) passes the float range, but k^(-s) scales it back:
        # zeta_k itself is not an overflow, which it used to be refused as
        with pytest.raises(DomainError, match="k\\^\\(-s\\) may scale it back"):
            zeta_k(ZetaKSpec(k, x, s))

    @pytest.mark.parametrize("k,x,s", [(1.0, 5e-324, 2.0), (1e10, 1e-160, 2.0)])
    def test_overflowed_hurwitz_past_its_first_term_is_an_overflow(self, k, x, s):
        # zeta_k(x, s) > x^(-s) for s > 1: ~4e646 and 1e320; where x/k is
        # subnormal, the route forms x^(-s) itself
        subnormal = x / k < sys.float_info.min
        with pytest.raises(ResultOverflow, match="x\\^\\(-s\\) overflows a float"
                           if subnormal else "hurwitz_zeta"):
            zeta_k(ZetaKSpec(k, x, s))

    @pytest.mark.parametrize("k,x,s", [(1e-300, 1.0, 3.0), (1e-300, 1.0 / 3.0, 3.0)])
    def test_underflowed_hurwitz_is_a_domain_error(self, k, x, s):
        # zeta_H(3, x/k) underflows (to 0 at 1e300), so k^(-3) cannot scale
        # it back to the finite value, ~5e299 and ~4.5e300: the route cannot
        # reach it, and it used to be refused as an overflow
        with pytest.raises(DomainError, match="underflows"):
            zeta_k(ZetaKSpec(k, x, s))


class TestStructure:
    def test_shift_telescopes(self):
        # zeta_k(x, s) - zeta_k(x+k, s) = x^-s
        for s in (2.0, 3.0):
            for k in GRID_K:
                for x in GRID_X:
                    lhs = (zeta_k(ZetaKSpec(k, x, s)).value
                           - zeta_k(ZetaKSpec(k, x + k, s)).value)
                    assert lhs == pytest.approx(x ** (-s), rel=1e-10)

    def test_scaling_to_k_1(self):
        for s in (-0.5, 0.3, 2.0, 2.5):
            for k in GRID_K:
                for x in GRID_X:
                    lhs = zeta_k(ZetaKSpec(k, x, s)).value
                    rhs = k ** (-s) * zeta_k(ZetaKSpec(1.0, x / k, s)).value
                    assert lhs == pytest.approx(rhs, rel=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.floats(0.3, 3.0), x=st.floats(0.3, 3.0),
           s=st.floats(-0.5, 3.0).filter(lambda v: abs(v - 1.0) > 0.05))
    def test_shift_property(self, k, x, s):
        lhs = zeta_k(ZetaKSpec(k, x, s)).value - zeta_k(ZetaKSpec(k, x + k, s)).value
        assert lhs == pytest.approx(x ** (-s), rel=1e-9, abs=1e-12)


class TestTrigammaIdentity:
    def test_pair_agrees_on_grid(self):
        for k in GRID_K:
            for x in GRID_X:
                lhs, rhs = zeta_k_identity_trigamma(k, x)
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_classical_values(self):
        lhs, rhs = zeta_k_identity_trigamma(1.0, 1.0)
        assert lhs == pytest.approx(ZETA2, rel=1e-12)
        lhs2, _ = zeta_k_identity_trigamma(1.0, 2.0)
        assert lhs2 == pytest.approx(ZETA2 - 1.0, rel=1e-12)

    def test_against_independent_second_difference(self):
        # both sides of the pair reduce to the same Hurwitz engine, so the
        # real evidence comes from differencing the lgamma-backed log
        # Gamma_k, an unrelated code path
        for k, x in [(1.0, 1.0), (2.0, 2.0), (3.0, 0.5), (0.5, 2.5)]:
            lhs, _ = zeta_k_identity_trigamma(k, x)
            fd = second_diff(lambda t: log_gamma_k(k, t), x, 1e-3 * x)
            assert lhs == pytest.approx(fd, rel=2e-6)


class TestDsAtZero:
    def test_inner_s_derivative_against_closed_form(self):
        # d/ds zeta_k|_0 = -log k (1/2 - x/k) + lgamma(x/k) - log(2 pi)/2
        from kspecial.zetak import _s_slope
        from kspecial.profiles import DEFAULT
        for k, x in [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (0.5, 2.5)]:
            closed = (-math.log(k) * (0.5 - x / k) + math.lgamma(x / k)
                      - 0.5 * math.log(2.0 * math.pi))
            assert _s_slope(k, x, DEFAULT) == pytest.approx(closed, abs=1e-9)

    def test_composite_equals_plus_psi_xx(self):
        for k in GRID_K:
            for x in GRID_X:
                comp = zeta_k_ds_at_zero(k, x)
                psi_xx = psi_point(k, x).psi_xx
                assert comp.value == pytest.approx(psi_xx, rel=1e-3)
                assert abs(comp.value - psi_xx) <= max(3.0 * comp.err_estimate, 1e-6)

    def test_negated_composite_does_not_match(self):
        # the sign-flipped comparison misses by ~2 psi_xx; checking it stays
        # demonstrably large guards against silently absorbing the sign
        for k, x in [(1.0, 1.0), (2.0, 1.0), (0.5, 2.5)]:
            comp = zeta_k_ds_at_zero(k, x).value
            psi_xx = psi_point(k, x).psi_xx
            assert comp > 0.0
            assert abs(comp - (-psi_xx)) > psi_xx

    def test_classical_value(self):
        assert zeta_k_ds_at_zero(1.0, 1.0).value == pytest.approx(ZETA2, rel=1e-3)


class TestTermwiseKDerivative:
    def test_m1_against_finite_difference(self):
        for k, x, s in [(1.0, 1.0, 3.0), (2.0, 1.0, 2.5), (0.5, 2.5, 2.2),
                        (1.0, 2.0, 3.0)]:
            got = zeta_k_dk(ZetaKSpec(k, x, s), 1).value
            fd = central_diff(lambda kk: zeta_k(ZetaKSpec(kk, x, s)).value,
                              k, 1e-5 * k)
            assert got == pytest.approx(fd, rel=1e-5)

    def test_m2_against_second_difference(self):
        for k, x, s in [(1.0, 2.0, 3.0), (2.0, 1.0, 2.5)]:
            got = zeta_k_dk(ZetaKSpec(k, x, s), 2).value
            fd = second_diff(lambda kk: zeta_k(ZetaKSpec(kk, x, s)).value,
                             k, 1e-4 * k)
            assert got == pytest.approx(fd, rel=1e-3)

    def test_sign_alternates_with_order(self):
        spec = ZetaKSpec(1.0, 1.0, 3.0)
        assert zeta_k_dk(spec, 1).value < 0.0   # terms shrink as k grows
        assert zeta_k_dk(spec, 2).value > 0.0

    def test_printed_variant_off_by_minus_signed_x(self):
        # variant / termwise = -(-1)^m x: equality requires x = 1 (m odd)
        for m, k, x, s in [(1, 1.0, 2.0, 3.0), (1, 2.0, 0.5, 2.5),
                           (2, 1.0, 2.0, 3.0)]:
            spec = ZetaKSpec(k, x, s)
            true_v = zeta_k_dk(spec, m).value
            printed = zeta_k_dk_printed_variant(spec, m).value
            assert printed == pytest.approx(-((-1.0) ** m) * x * true_v, rel=1e-12)

    def test_printed_variant_fails_fd_oracle_at_x_2(self):
        spec = ZetaKSpec(1.0, 2.0, 3.0)
        fd = central_diff(lambda kk: zeta_k(ZetaKSpec(kk, 2.0, 3.0)).value,
                          1.0, 1e-5)
        printed = zeta_k_dk_printed_variant(spec, 1).value
        assert abs(printed - fd) > 0.9 * abs(fd)  # factor-2 mismatch

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta_k_dk(ZetaKSpec(1.0, 1.0, 3.0), 0)
        with pytest.raises(DomainError):
            zeta_k_dk(ZetaKSpec(1.0, 1.0, 0.5), 1)

    @pytest.mark.parametrize("f", [zeta_k_dk, zeta_k_dk_printed_variant])
    @pytest.mark.parametrize("s,m,message", [
        (3.0, 0, "derivative order must be >= 1, got 0"),
        (1.0, 1, "k-derivative needs s > 1, got 1.0"),
    ])
    def test_both_forms_share_one_guard(self, f, s, m, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            f(ZetaKSpec(1.0, 1.0, s), m)


class TestOverflowIsTyped:
    """Inputs whose route forms a quantity beyond the float range raise a
    typed error naming them, where they raised ZeroDivisionError or returned
    nan."""

    @pytest.mark.parametrize("f", [zeta_k_dk, zeta_k_dk_printed_variant])
    @pytest.mark.parametrize("k,x,s", [(5e-324, 1e300, 1.5),   # (-x)^2
                                       (1e-160, 1e-40, 1.05)])  # k^(-2)
    def test_k_derivative_power_past_the_float_range(self, f, k, x, s):
        # the power raised a bare OverflowError
        with pytest.raises(DomainError, match="a power in its binomial reduction "
                                              "passes the float range"):
            f(ZetaKSpec(k, x, s), 2)

    def test_trigamma_identity_at_tiny_k(self):
        # k*k underflows to 0 in psi_point's psi_xx
        with pytest.raises(ResultOverflow, match=r"^psi_point\(k=1e-300, x=1.0\)"):
            zeta_k_identity_trigamma(1e-300, 1.0)

    def test_ds_at_zero_past_the_float_range(self):
        # (x/100)^2 overflows: the composite was nan
        with pytest.raises(ResultOverflow,
                           match=r"^zeta_k_ds_at_zero\(k=1.0, x=1.7e\+308\)"):
            zeta_k_ds_at_zero(1.0, 1.7e308)

    def test_ds_at_zero_stencil_underflow(self):
        # (x/100)^2 underflows to 0
        with pytest.raises(DomainError, match=r"got k=1.0, x=1e-200$"):
            zeta_k_ds_at_zero(1.0, 1e-200)


class TestUnderflowingRatio:
    """Where x/k is subnormal or 0.0, zeta_k(x, s) = x^(-s) + zeta_k(k, s), as
    x + k is k: the route named hurwitz_zeta's a = 0.0 before, and summed
    zeta_H at a subnormal x/k that kept a few bits of x."""

    POINTS = [(3.0, 5e-324, 0.5), (3.0, 5e-324, 0.0), (3.0, 5e-324, -2.5),
              (1e10, 1e-320, -1.0), (3.0, 1e-320, 0.5), (3.0, 1e-310, 0.5),
              (3.0, 1e-320, -1.5), (3.0, 1e-310, 0.9), (1e10, 1e-310, 0.25)]

    @pytest.mark.parametrize("k,x,s", POINTS)
    def test_value_against_mpmath(self, k, x, s):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workprec(256):
            want = float(mpmath.mpf(k) ** -s * mpmath.zeta(s, mpmath.mpf(x) / k))
        r = zeta_k(ZetaKSpec(k, x, s))
        assert abs(r.value - want) <= r.err_estimate

    @pytest.mark.parametrize("k,x,s", POINTS)
    def test_head_plus_zeta_k_at_k(self, k, x, s):
        # the formula of the route that called itself at x = k, bit for bit
        r, at_k = zeta_k(ZetaKSpec(k, x, s)), zeta_k(ZetaKSpec(k, k, s))
        assert r.value == x ** -s + at_k.value
        assert r.err_estimate == at_k.err_estimate + sys.float_info.epsilon * abs(r.value)

    @pytest.mark.parametrize("x", [1e-10, 1e-320])
    def test_trivial_zero_refusal_names_the_callers_x(self, x):
        # zeta_H(-2, 1) = 0.0 exactly, so k^(-s) = 1e600 has nothing to scale;
        # the finite value rides on the x/k that 1 + x/k lost
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workprec(256):
            want = mpmath.mpf(1e300) ** 2 * mpmath.zeta(-2, mpmath.mpf(x) / 1e300)
        assert abs(want) < sys.float_info.max and want != 0
        with pytest.raises(DomainError) as exc:
            zeta_k(ZetaKSpec(1e300, x, -2.0))
        assert str(exc.value).startswith(f"zeta_k({x!r}, -2.0) with k=1e+300: ")
        assert "underflows" not in str(exc.value)

    def test_pole_and_overflow(self):
        with pytest.raises(PoleError):
            zeta_k(ZetaKSpec(3.0, 5e-324, 1.0))
        with pytest.raises(ResultOverflow, match="x\\^\\(-s\\) overflows a float"):
            zeta_k(ZetaKSpec(3.0, 5e-324, 2.0))

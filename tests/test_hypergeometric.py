"""Hypergeometric series: classification, binomial collapse, transfer to
unit steps, operator-equation residual, integral representation, exact
coefficients."""

import math
import random
import warnings
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kspecial import hypergeometric, quadrature
from kspecial.errors import (DivergentSeries, DomainError, NonConvergent,
                             OutsideRadius, ResultOverflow)
from kspecial.hypergeometric import (ConvergenceClass, HypergeometricSpec,
                                     classify, coefficient, evaluate,
                                     integral_representation_check,
                                     ode_residual, transfer_classical)
from kspecial.pochhammer import PochhammerSpec, pochhammer_k
from kspecial.profiles import DEFAULT, FAST, STRICT, PrecisionProfile

from oracles import (hyper_ode_residual_callback, hyper_term_callback, hyper_terms,
                     sum_series, sum_series_callback)

TRANSFER_SEED = 20240817  # frozen; regenerating specs must not change results


def _random_specs(count, rng, allow_divergent=False):
    """Valid random specs with parameters in (0.3, 4), p,q <= 3."""
    out = []
    while len(out) < count:
        p = rng.randint(0, 3)
        q = rng.randint(0, 3)
        if not allow_divergent and p > q + 1:
            continue
        spec = HypergeometricSpec(
            tuple(rng.uniform(0.3, 4.0) for _ in range(p)),
            tuple(rng.uniform(0.3, 4.0) for _ in range(p)),
            tuple(rng.uniform(0.3, 4.0) for _ in range(q)),
            tuple(rng.uniform(0.3, 4.0) for _ in range(q)))
        out.append(spec)
    return out


class TestClassify:
    def test_kinds(self):
        assert classify(HypergeometricSpec((), (), (), ())).kind == "entire"
        c = classify(HypergeometricSpec((1.0,), (2.0,), (), ()))
        assert c.kind == "radius" and c.radius == 0.5
        c = classify(HypergeometricSpec((1.0, 1.0), (1.0, 2.0), (3.0,), (3.0,)))
        assert c.kind == "radius" and c.radius == 1.5
        assert classify(HypergeometricSpec(
            (1.0, 1.0), (1.0, 1.0), (), ())).kind == "divergent"

    def test_entire_radius_is_infinite(self):
        assert classify(HypergeometricSpec(
            (1.0,), (1.0,), (2.0,), (1.0,))).radius == math.inf

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            ConvergenceClass("bounded", 1.0)

    @pytest.mark.parametrize("a,k,b,s,radius", [
        # prod k underflows to 0.0: ZeroDivisionError, the radius is 1e400
        ((1.0, 1.0), (1e-200, 1e-200), (1.0,), (1.0,), math.inf),
        # both products overflow: inf / inf was a nan radius
        ((1.0,) * 3, (1e200,) * 3, (1.0,) * 2, (1e200,) * 2, 1e-200),
        # both underflow: 0.0 / 0.0
        ((1.0,) * 3, (1e-200,) * 3, (1.0,) * 2, (1e-200,) * 2, 1e200),
        # prod s overflows, prod k does not: inf was read as the radius
        ((1.0,) * 3, (1e100,) * 3, (1.0,) * 2, (1e200,) * 2, 1e100),
        # prod s underflows, prod k does not: 0.0 was read as the radius
        ((1.0,) * 3, (1e-100,) * 3, (1.0,) * 2, (1e-200,) * 2, 1e-100)])
    def test_radius_where_a_step_product_leaves_the_float_range(self, a, k, b, s, radius):
        # exp of a log of ~460 carries ~460 eps of relative rounding
        got = classify(HypergeometricSpec(a, k, b, s))
        assert got.kind == "radius" and got.radius == pytest.approx(radius, rel=1e-12, abs=0)

    def test_nonzero_exact_step_whose_float_is_zero(self):
        spec = HypergeometricSpec((Fraction(-1, 3),), (Fraction(1, 10 ** 400),), (), ())
        with pytest.raises(DomainError,
                           match="^k is a nonzero exact value below the float range$"):
            classify(spec)


class TestEvaluate:
    def test_empty_is_exponential(self):
        spec = HypergeometricSpec((), (), (), ())
        assert evaluate(spec, 1.0).value == pytest.approx(math.e, rel=1e-12)

    def test_matched_upper_lower_cancel(self):
        spec = HypergeometricSpec((1.0,), (1.0,), (1.0,), (1.0,))
        assert evaluate(spec, 0.7).value == pytest.approx(math.exp(0.7), rel=1e-12)

    def test_binomial_grid(self):
        # F((a),(k); -)(x) = (1 - kx)^(-a/k) inside |x| < 1/k
        for a in (1.0, 2.0, 3.5):
            for k in (1.0, 2.0):
                spec = HypergeometricSpec((a,), (k,), (), ())
                for x in (0.1, -0.1, 0.4 / k, -0.4 / k):
                    want = (1.0 - k * x) ** (-a / k)
                    assert evaluate(spec, x).value == pytest.approx(want, rel=1e-10)

    def test_binomial_named_point(self):
        spec = HypergeometricSpec((2.0,), (2.0,), (), ())
        assert evaluate(spec, 0.25).value == pytest.approx(2.0, rel=1e-10)

    def test_radius_boundary_behavior(self):
        spec = HypergeometricSpec((1.0, 1.0), (1.0, 2.0), (3.0,), (3.0,))
        r = classify(spec).radius
        assert math.isfinite(evaluate(spec, 0.9 * r).value)
        for bad in (r, 1.1 * r, -r):
            with pytest.raises(OutsideRadius) as exc:
                evaluate(spec, bad)
            assert exc.value.radius == r

    def test_divergent_refuses_nonzero(self):
        spec = HypergeometricSpec((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), (), ())
        with pytest.raises(DivergentSeries):
            evaluate(spec, 0.01)
        assert evaluate(spec, 0.0).value == 1.0

    @pytest.mark.parametrize("route", [evaluate, transfer_classical])
    def test_sum_beyond_float_range_is_typed(self, route):
        # the sum is e^800; it used to come back as EvalResult(inf, inf)
        spec = HypergeometricSpec((1.0,), (1.0,), (1.0,), (1.0,))
        with pytest.raises(ResultOverflow, match="overflows a float"):
            route(spec, 800.0)
        assert route(spec, 700.0).value == pytest.approx(math.exp(700.0), rel=1e-9)

    @pytest.mark.parametrize("x,says", [(2.0, "after 162 terms or nodes: value inf"),
                                        (-2.0, "partial sum is nan after 161 terms")])
    def test_terms_beyond_float_range_overflow_on_both_signs(self, x, says):
        # at x = -2 the terms alternate past the float range and the partial
        # sum turns nan; it used to sum all 100,000 terms and raise
        # NonConvergent
        spec = HypergeometricSpec((4.0,) * 3, (4.0,) * 3, (0.3,) * 3, (0.3,) * 3)
        with pytest.raises(ResultOverflow, match=says):
            evaluate(spec, x)

    def test_nan_term_is_a_domain_error(self):
        # x is a tenth of the radius and F ~ 1.0, but term 3 is inf/inf: its
        # factor products pass the float range. It was refused as an overflow
        spec = HypergeometricSpec((1.0,) * 3, (1e200,) * 3, (1.0,) * 2, (1e200,) * 2)
        assert classify(spec).radius == pytest.approx(1e-200)
        with pytest.raises(DomainError, match="term 3 is nan"):
            evaluate(spec, 1e-201)

    @pytest.mark.parametrize("route", [evaluate, transfer_classical])
    def test_nan_argument_is_a_domain_error(self, route):
        spec = HypergeometricSpec((1.0,), (1.0,), (2.0,), (1.0,))
        with pytest.raises(DomainError, match="got nan"):
            route(spec, math.nan)

    def test_deterministic(self):
        spec = HypergeometricSpec((1.5,), (2.0,), (2.5,), (1.0,))
        a = evaluate(spec, 0.4)
        b = evaluate(spec, 0.4)
        assert a.value == b.value and a.terms_or_nodes_used == b.terms_or_nodes_used


def _callback_sum(spec, x, profile=DEFAULT):
    """(value, err_estimate, terms) of the series at x by the per-term
    callback and stop loop of oracles.py."""
    term = hyper_term_callback(spec.a, spec.k, spec.b, spec.s, x)
    return sum_series_callback(term, profile.abs_tol, profile.rel_tol,
                               profile.max_terms)


def _fields(r):
    return r.value, r.err_estimate, r.terms_or_nodes_used


class TestTermGeneratorMatchesCallback:
    """evaluate's one-loop sum gives, bit for bit, the value, error
    estimate and term count of the callback recurrence, and refuses where
    it overflows or runs out of terms."""

    def test_transfer_check_ranges(self):
        # verify's transfer check: |x| < 1.5 when entire, 0.9 of the radius
        rng = random.Random(TRANSFER_SEED + 2)
        for spec in _random_specs(150, rng):
            cls = classify(spec)
            x = (rng.uniform(-1.5, 1.5) if cls.kind == "entire"
                 else rng.uniform(-0.9, 0.9) * cls.radius)
            for profile in (DEFAULT, STRICT, FAST):
                assert _fields(evaluate(spec, x, profile)) == \
                    _callback_sum(spec, x, profile), (spec, x)

    def test_near_the_radius_and_entire_at_negative_x(self):
        rng = random.Random(TRANSFER_SEED + 3)
        specs = _random_specs(300, rng)
        points = [(s, sign * 0.97 * classify(s).radius) for s in specs
                  if classify(s).kind == "radius" for sign in (1.0, -1.0)]
        points += [(s, -rng.uniform(1.0, 40.0)) for s in specs
                   if classify(s).kind == "entire"]
        assert len(points) > 200
        # the converging points stop within ~2,100 terms; a lower cap keeps
        # the few that never do cheap
        profile = PrecisionProfile(max_terms=5_000)
        overflowed = 0
        for spec, x in points:
            try:
                want = _callback_sum(spec, x, profile)
            except ArithmeticError as exc:
                # the terms passed the float range and the partial sum is
                # nan: the callback loop runs on to the cap, evaluate stops
                # at the first nan sum
                assert math.isnan(exc.args[0]), (spec, x)
                overflowed += 1
                with pytest.raises(ResultOverflow, match="partial sum is nan"):
                    evaluate(spec, x, profile)
                continue
            assert _fields(evaluate(spec, x, profile)) == want, (spec, x)
        assert 0 < overflowed < len(points) // 10

    def test_transfer_classical_is_evaluate_on_the_flat_spec(self):
        rng = random.Random(TRANSFER_SEED + 4)
        for spec in _random_specs(60, rng):
            cls = classify(spec)
            x = (rng.uniform(-1.5, 1.5) if cls.kind == "entire"
                 else rng.uniform(-0.9, 0.9) * cls.radius)
            flat = HypergeometricSpec(
                tuple(a_j / k_j for a_j, k_j in zip(spec.a, spec.k)),
                (1.0,) * spec.p,
                tuple(b_i / s_i for b_i, s_i in zip(spec.b, spec.s)),
                (1.0,) * spec.q)
            kbar, sbar = math.prod(spec.k), math.prod(spec.s)
            assert _fields(transfer_classical(spec, x)) == \
                _callback_sum(flat, x * kbar / sbar)

    def test_ode_residual(self):
        rng = random.Random(TRANSFER_SEED + 5)
        for spec in _random_specs(80, rng, allow_divergent=True):
            degree = rng.randint(2, 30)
            assert ode_residual(spec, degree) == hyper_ode_residual_callback(
                spec.a, spec.k, spec.b, spec.s, degree)
        exact = HypergeometricSpec((Fraction(3), Fraction(2)), (Fraction(2), 1),
                                   (Fraction(4),), (1,))
        assert ode_residual(exact, 15) == hyper_ode_residual_callback(
            exact.a, exact.k, exact.b, exact.s, 15)

    def test_nonconvergent_under_a_small_cap(self):
        rng = random.Random(TRANSFER_SEED + 6)
        small = PrecisionProfile(max_terms=6)
        for spec in _random_specs(40, rng):
            x = 0.9 * classify(spec).radius if spec.p == spec.q + 1 else 1.4
            with pytest.raises(ArithmeticError) as want:
                _callback_sum(spec, x, small)
            with pytest.raises(NonConvergent) as got:
                evaluate(spec, x, small)
            assert got.value.last_value == want.value.args[0]

    def test_overflow_of_the_exp_family(self):
        for spec in (HypergeometricSpec((), (), (), ()),
                     HypergeometricSpec((1.0,), (1.0,), (1.0,), (1.0,)),
                     HypergeometricSpec((3.0,), (3.0,), (2.0,), (2.0,))):
            value, err, terms = _callback_sum(spec, 800.0)
            assert not (math.isfinite(value) and math.isfinite(err))
            with pytest.raises(ResultOverflow,
                               match=f"after {terms} terms or nodes: value {value}, "
                                     f"err_estimate {err}"):
                evaluate(spec, 800.0)


def _outcome(route, spec, x, profile):
    """The fields of route's result, or the type, message and carried
    values of what it raised."""
    try:
        return _fields(route(spec, x, profile))
    except ArithmeticError as e:     # NonConvergent, ResultOverflow
        return type(e), str(e), getattr(e, "last_value", None)
    except ValueError as e:          # DomainError and its subclasses
        return (type(e), str(e), getattr(e, "radius", None),
                getattr(e, "nearest_pole", None))


class TestOneLoopMatchesTheGenerator:
    """evaluate sums through series.sum_series, whose loop forms each term
    by the recurrence of oracles.hyper_terms. With oracles.sum_series
    reading hyper_terms as an iterator in its place, every result and refusal is the same, bit for
    bit, for float, int and Fraction parameters."""

    @staticmethod
    def _generator_sum(x, upper, lower, profile):
        spec = HypergeometricSpec([a for a, _ in upper], [k for _, k in upper],
                                  [b for b, _ in lower], [s for _, s in lower])
        return sum_series(hyper_terms(spec, x), profile)

    def test_seeded_draws(self, monkeypatch):
        rng = random.Random(TRANSFER_SEED + 7)
        profiles = (DEFAULT, STRICT, FAST, PrecisionProfile(max_terms=30))
        draws = {0: lambda: rng.uniform(-4.0, 6.0), 1: lambda: rng.randint(-4, 6),
                 2: lambda: Fraction(rng.randint(-40, 60), rng.randint(1, 12))}
        steps = {0: lambda: rng.uniform(0.2, 4.0), 1: lambda: rng.randint(1, 4),
                 2: lambda: Fraction(rng.randint(1, 40), rng.randint(1, 12))}
        cases = []
        for _ in range(3000):
            kind = rng.randint(0, 2)
            p, q = rng.randint(0, 3), rng.randint(0, 3)
            a = [draws[kind]() for _ in range(p)]
            b = [draws[kind]() for _ in range(q)]
            k = [steps[kind]() for _ in range(p)]
            s = [steps[kind]() for _ in range(q)]
            u = rng.random()
            x = (0.0 if u < 0.03 else math.nan if u < 0.05 else
                 rng.choice((700.0, -700.0, 800.0)) if u < 0.1 else
                 rng.uniform(-3.0, 3.0) * rng.choice((0.1, 1.0, 10.0)))
            try:
                spec = HypergeometricSpec(a, k, b, s)
            except DomainError:
                continue
            cases.append((spec, x, rng.choice(profiles)))
        got = [_outcome(evaluate, *case) for case in cases]
        monkeypatch.setattr(hypergeometric, "sum_series", self._generator_sum)
        want = [_outcome(evaluate, *case) for case in cases]
        assert got == want
        seen = {o[0] for o in got if isinstance(o[0], type)}
        assert seen == {ResultOverflow, NonConvergent, OutsideRadius,
                        DivergentSeries, DomainError}
        assert sum(isinstance(o[0], float) for o in got) > 500


class TestOdeResidualMatchesTheGenerator:
    """ode_residual forms c_n by the recurrence of oracles.hyper_terms,
    multiplying the ratio's two products in the same order, so its result
    and refusals are those of reading the generator at x = 1, bit for
    bit."""

    @staticmethod
    def _from_generator(spec, degree):
        hypergeometric._refuse_beyond_float(spec)
        worst = scale = 0.0
        try:
            c = list(islice(hyper_terms(spec, 1.0), degree))
            for n in range(1, degree):
                lhs = hypergeometric._times_shifted(n * c[n], spec.b, spec.s, n - 1)
                rhs = hypergeometric._times_shifted(c[n - 1], spec.a, spec.k, n - 1)
                worst = max(worst, abs(lhs - rhs))
                scale = max(scale, abs(lhs), abs(rhs))
        except (OverflowError, ZeroDivisionError):
            scale = math.inf
        if not (worst < math.inf and scale < math.inf):
            return ResultOverflow
        return worst / scale if scale > 0.0 else 0.0

    @staticmethod
    def _residual(spec, degree):
        try:
            return ode_residual(spec, degree)
        except ResultOverflow:
            return ResultOverflow

    def test_seeded_specs(self):
        rng = random.Random(TRANSFER_SEED + 8)
        draws = (lambda: rng.uniform(-4.0, 6.0), lambda: rng.randint(-4, 6),
                 lambda: Fraction(rng.randint(-40, 60), rng.randint(1, 12)),
                 lambda: rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-150.0, 150.0))
        steps = (lambda: rng.uniform(0.2, 4.0), lambda: rng.randint(1, 4),
                 lambda: Fraction(rng.randint(1, 40), rng.randint(1, 12)),
                 lambda: 10.0 ** rng.uniform(-150.0, 150.0))
        outcomes = []
        for _ in range(800):
            kind = rng.randrange(4)
            p, q = rng.randint(0, 3), rng.randint(0, 3)
            try:
                spec = HypergeometricSpec([draws[kind]() for _ in range(p)],
                                          [steps[kind]() for _ in range(p)],
                                          [draws[kind]() for _ in range(q)],
                                          [steps[kind]() for _ in range(q)])
            except DomainError:
                continue
            for degree in (2, 5, 15, 40):
                got = self._residual(spec, degree)
                assert got == self._from_generator(spec, degree), (spec, degree)
                outcomes.append(got)
        assert sum(o is ResultOverflow for o in outcomes) > 100
        assert sum(isinstance(o, float) and o > 0.0 for o in outcomes) > 1000


class TestExactParametersBeyondTheFloatRange:
    """An int or Fraction no float holds is refused, naming its field and
    bit size, where a float route converts it; exact coefficients stay
    exact."""

    HUGE = 10 ** 400

    @pytest.mark.parametrize("a,k,b,s,name", [
        ((1,), (1,), (HUGE,), (1,), "b"),
        ((1,), (HUGE,), (1,), (1,), "k"),
        ((HUGE,), (1,), (1,), (1,), "a"),
        ((1,), (HUGE,), (), (), "k"),                   # classify's radius
        ((1,), (1,), (Fraction(1, 2),), (HUGE,), "s")])
    def test_routes_name_the_field(self, a, k, b, s, name):
        spec = HypergeometricSpec(a, k, b, s)
        message = f"{name} is an exact value of 1329 bits, beyond the float range"
        for route in (evaluate, transfer_classical):
            with pytest.raises(DomainError, match=message):
                route(spec, 0.5)
        with pytest.raises(DomainError, match=message):
            ode_residual(spec, 4)

    def test_integral_route_names_the_field(self):
        spec = HypergeometricSpec((1,), (1,), (2,), (self.HUGE,))
        with pytest.raises(DomainError, match="s is an exact value"):
            integral_representation_check(spec, 0.5, FAST)

    def test_lower_parameter_on_the_pole_check(self):
        with pytest.raises(DomainError, match="b is an exact value"):
            HypergeometricSpec((), (), (-self.HUGE,), (1,))

    def test_a_term_past_the_float_range_is_result_overflow(self):
        # each parameter fits a float, a + n k does not at n = 1
        big = int(1.5e308)
        spec = HypergeometricSpec((big,), (big,), (1,), (1,))
        with pytest.raises(ResultOverflow, match="a term passes the float range"):
            evaluate(spec, 1e-300)

    def test_denominator_underflow_is_result_overflow(self):
        # (n + 1) b_1 b_2 underflows to 0.0: the term leaves the float range
        spec = HypergeometricSpec((1.0,), (1.0,), (1e-200, 1e-200), (1e-200, 1e-200))
        with pytest.raises(ResultOverflow, match="a term passes the float range"):
            evaluate(spec, 0.5)

    def test_exact_coefficient_stays_exact(self):
        spec = HypergeometricSpec((self.HUGE,), (1,), (Fraction(1, 2),), (self.HUGE,))
        assert coefficient(spec, 2) == Fraction(
            self.HUGE * (self.HUGE + 1), Fraction(1, 2) * (Fraction(1, 2) + self.HUGE))


class TestSpecValidation:
    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            HypergeometricSpec((1.0, 2.0), (1.0,), (), ())
        with pytest.raises(DomainError):
            HypergeometricSpec((), (), (1.0,), (1.0, 2.0))

    def test_nonpositive_steps(self):
        with pytest.raises(DomainError):
            HypergeometricSpec((1.0,), (0.0,), (), ())
        with pytest.raises(DomainError):
            HypergeometricSpec((), (), (1.0,), (-2.0,))

    @pytest.mark.parametrize("a,k,b,s,message", [
        ((1.0,), (1.0,), (math.nan,), (1.0,), "b must be finite, got nan"),
        ((math.inf,), (1.0,), (1.0,), (1.0,), "a must be finite, got inf"),
        ((1.0,), (math.inf,), (), (), "k must be finite, got inf")])
    def test_nonfinite_parameter_is_domain_error(self, a, k, b, s, message):
        # a nan b raised an untyped ValueError from nearest_pole
        with pytest.raises(DomainError, match=message):
            HypergeometricSpec(a, k, b, s)

    @pytest.mark.parametrize("a,k,b,s,message", [
        # steps first, then the first non-finite float, then poles
        ((math.inf,), (0.0,), (), (), "all step parameters must be > 0"),
        ((math.nan,), (1.0,), (1.0,), (-1.0,), "all step parameters must be > 0"),
        ((1.0,), (math.inf,), (math.nan,), (1.0,), "k must be finite, got inf"),
        ((), (), (-1.0, 2.0), (1.0, math.inf), "s must be finite, got inf")])
    def test_refusal_order(self, a, k, b, s, message):
        with pytest.raises(DomainError, match=message):
            HypergeometricSpec(a, k, b, s)

    def test_pole_check_only_at_nonpositive_b(self):
        # a positive exact b whose float is 0.0 is off the lattice
        tiny = Fraction(1, 10 ** 400)
        spec = HypergeometricSpec((), (), (tiny,), (1,))
        assert coefficient(spec, 1) == 1 / tiny

    def test_lower_parameter_pole_lattice(self):
        for b, s in [(0.0, 1.0), (-2.0, 1.0), (-3.0, 1.5)]:
            with pytest.raises(DomainError):
                HypergeometricSpec((), (), (b,), (s,))
        # off-lattice negatives are legal
        HypergeometricSpec((), (), (-2.5,), (1.0,))

    def test_pq_properties(self):
        spec = HypergeometricSpec((1.0, 2.0), (1.0, 1.0), (3.0,), (1.0,))
        assert spec.p == 2 and spec.q == 1


class TestTransfer:
    def test_unit_steps_fixed_point(self):
        spec = HypergeometricSpec((1.5,), (1.0,), (2.0,), (1.0,))
        assert transfer_classical(spec, 0.5).value == evaluate(spec, 0.5).value

    def test_binomial_named_case(self):
        spec = HypergeometricSpec((2.0,), (2.0,), (), ())
        assert transfer_classical(spec, 0.25).value == pytest.approx(2.0, rel=1e-10)

    def test_twenty_seeded_specs(self):
        rng = random.Random(TRANSFER_SEED)
        for spec in _random_specs(20, rng):
            cls = classify(spec)
            if cls.kind == "entire":
                x = rng.uniform(-1.5, 1.5)
            else:
                x = rng.uniform(-0.9, 0.9) * cls.radius
            e1 = evaluate(spec, x)
            e2 = transfer_classical(spec, x)
            tol = max(e1.err_estimate + e2.err_estimate, 1e-12 * abs(e1.value))
            assert abs(e1.value - e2.value) <= tol


class TestOdeResidual:
    def test_exponential_exact(self):
        assert ode_residual(HypergeometricSpec((), (), (), ()), 10) == 0.0

    def test_binomial(self):
        assert ode_residual(HypergeometricSpec((2.0,), (2.0,), (), ()), 12) < 1e-12

    def test_mixed_spec(self):
        spec = HypergeometricSpec((1.0, 1.0), (1.0, 3.0), (2.0,), (2.0,))
        assert ode_residual(spec, 12) < 1e-12

    def test_seeded_specs_through_degree_15(self):
        rng = random.Random(TRANSFER_SEED + 1)
        for spec in _random_specs(10, rng, allow_divergent=True):
            assert ode_residual(spec, 15) < 1e-12

    def test_degree_validation(self):
        with pytest.raises(DomainError):
            ode_residual(HypergeometricSpec((), (), (), ()), 1)

    @pytest.mark.parametrize("spec", [
        # (n + 1) b_1 b_2 underflows to 0.0: raised ZeroDivisionError
        HypergeometricSpec((1.0,), (1.0,), (1e-200, 1e-200), (1e-200, 1e-200)),
        # a + k at n = 1 is an int no float holds: raised OverflowError
        HypergeometricSpec((int(1.5e308),), (int(1.5e308),), (1,), (1,)),
        # c_2 is inf: returned 0.0, as if both sides agreed
        HypergeometricSpec((1e200,), (1e200,), (1.0,), (1.0,)),
        # c_1 is inf: returned nan
        HypergeometricSpec((1e300,), (1.0,), (1e-300,), (1.0,)),
    ])
    def test_out_of_range_is_result_overflow(self, spec):
        with pytest.raises(ResultOverflow, match="passes the float range"):
            ode_residual(spec, 4)


class TestCoefficient:
    def test_examples(self):
        assert coefficient(HypergeometricSpec((), (), (), ()), 0) == 1
        assert coefficient(HypergeometricSpec((3,), (2,), (), ()), 2) == 15
        got = coefficient(HypergeometricSpec((2,), (1,), (3,), (1,)), 3)
        assert got == Fraction(24, 60)

    def test_float_mode(self):
        got = coefficient(HypergeometricSpec((3.0,), (2.0,), (), ()), 2)
        assert isinstance(got, float) and got == pytest.approx(15.0, rel=1e-14)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(a=st.integers(1, 5), ka=st.integers(1, 3),
           b=st.integers(1, 5), sb=st.integers(1, 3),
           n=st.integers(0, 6))
    def test_rational_mode_ties_to_pochhammer(self, a, ka, b, sb, n):
        spec = HypergeometricSpec((Fraction(a),), (Fraction(ka),),
                                  (Fraction(b),), (Fraction(sb),))
        coef = coefficient(spec, n)
        up = pochhammer_k(PochhammerSpec(Fraction(a), n, Fraction(ka)))
        dn = pochhammer_k(PochhammerSpec(Fraction(b), n, Fraction(sb)))
        assert coef * dn == up  # exact rational identity

    def test_negative_order(self):
        with pytest.raises(DomainError):
            coefficient(HypergeometricSpec((), (), (), ()), -1)

    @pytest.mark.parametrize("spec,n", [
        # returned inf
        (HypergeometricSpec((1e300,), (5e-324,), (), ()), 6),
        # a denominator product underflows to 0.0: ZeroDivisionError
        (HypergeometricSpec((), (), (1e-320, 1e-320), (1e-320, 1.0)), 3),
    ])
    def test_float_mode_past_the_float_range_is_typed(self, spec, n):
        with pytest.raises(ResultOverflow, match=f"^coefficient n={n}: a factor "
                                                 "product or the coefficient passes"):
            coefficient(spec, n)


def test_a_quotient_of_two_out_of_range_products_is_a_domain_error():
    # both products of step 0 are 0.0 (or inf), though the coefficients are
    # 1: ZeroDivisionError (or inf/inf = nan) was read as ResultOverflow
    for v in (1e-320, 1e200):
        spec = HypergeometricSpec((v, v), (1.0, 1.0), (v, v), (1.0, 1.0))
        with pytest.raises(DomainError, match="^coefficient n=1: the upper and lower "
                                              "factor products of step 0 both"):
            coefficient(spec, 1)
        with pytest.raises(DomainError, match="^ode_residual through degree 3: the "
                                              "upper and lower factor products of step 0"):
            ode_residual(spec, 3)


class TestIntegralRepresentation:
    def test_p1_examples(self):
        for a, k, b, s, x in [(1.0, 1.0, 2.0, 1.0, 0.5),
                              (2.0, 2.0, 3.0, 2.0, 1.0)]:
            spec = HypergeometricSpec((a,), (k,), (b,), (s,))
            got = integral_representation_check(spec, x)
            want = evaluate(spec, x)
            assert got.value == pytest.approx(want.value, rel=1e-8)

    def test_p2_even_steps(self):
        spec = HypergeometricSpec((1.0, 2.0), (2.0, 2.0), (2.0, 3.0), (1.0, 2.0))
        got = integral_representation_check(spec, 0.8)
        want = evaluate(spec, 0.8)
        assert got.value == pytest.approx(want.value, rel=1e-7)

    # the verify suite's specs: (a, k, b, s, x, nodes and terms used)
    VERIFY_SPECS = [((1.0,), (1.0,), (2.0,), (1.0,), 0.5, 2830),
                    ((2.0,), (2.0,), (3.0,), (2.0,), 1.0, 2540),
                    ((1.0, 2.0), (2.0, 2.0), (2.0, 3.0), (1.0, 2.0), 0.8, 559_153)]
    # their (value, err_estimate) by x, pinned exactly
    VERIFY_VALUES = {0.5: (1.2974425414002564, 0.0),
                     1.0: (2.0300784692787053, 9.2192919964873e-13),
                     0.8: (1.384081614885011, 3.4274805216227833e-12)}

    @pytest.mark.parametrize("a,k,b,s,x,work", VERIFY_SPECS)
    def test_work_and_plain_float_fields(self, a, k, b, s, x, work):
        r = integral_representation_check(HypergeometricSpec(a, k, b, s), x)
        assert (r.value, r.err_estimate) == self.VERIFY_VALUES[x]
        assert r.terms_or_nodes_used == work
        assert type(r.value) is float and type(r.err_estimate) is float
        assert type(r.terms_or_nodes_used) is int

    def test_p2_value_pinned(self):
        # the value of integrating one outer node at a time
        r = integral_representation_check(
            HypergeometricSpec((1.0, 2.0), (2.0, 2.0), (2.0, 3.0), (1.0, 2.0)), 0.8)
        assert r.value == pytest.approx(1.3840816148850137, rel=1e-15)

    def test_small_blocks_match_unblocked(self, monkeypatch):
        spec = HypergeometricSpec((1.0, 2.0), (2.0, 2.0), (2.0, 3.0), (1.0, 2.0))
        whole = integral_representation_check(spec, 0.8)
        monkeypatch.setattr(quadrature, "_BLOCK", 300)
        assert integral_representation_check(spec, 0.8) == whole

    @pytest.mark.parametrize("b,s,n", [
        ((1e-200, 1e-200), (1e-200, 1e-200), 0),   # underflows to 0.0
        ((1e200, 1e200), (1.0, 1.0), 0),           # overflows to inf
        ((1.0, 1.0), (1e200, 1e200), 1),           # finite at n = 0 only
    ])
    def test_denominator_out_of_range_is_domain_error(self, b, s, n):
        # a zero denominator divided with a numpy RuntimeWarning first
        spec = HypergeometricSpec((1.0,), (1.0,), b, s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"denominator at n={n} is"):
                integral_representation_check(spec, 0.5)

    def test_preconditions(self):
        with pytest.raises(DomainError):  # p > q
            integral_representation_check(
                HypergeometricSpec((1.0,), (1.0,), (), ()), 0.1)
        with pytest.raises(DomainError):  # nonpositive upper parameter
            integral_representation_check(
                HypergeometricSpec((-1.0,), (1.0,), (2.0,), (1.0,)), 0.1)
        with pytest.raises(DomainError):  # depth cap
            integral_representation_check(
                HypergeometricSpec((1.0,) * 4, (1.0,) * 4,
                                   (2.0,) * 4, (1.0,) * 4), 0.1)

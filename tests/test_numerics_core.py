"""Engine-level tests: quadrature, log-gamma, Hurwitz zeta, series.

Frozen constants: "trapezoid" = brute-force trapezoid oracle in oracles.py,
"mp30" = 30-digit arbitrary-precision evaluation, "closed" = closed form.
"""

import math
import random
import sys
from fractions import Fraction
from itertools import count, groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kspecial.errors import DomainError, NonConvergent, PoleError, ResultOverflow
from kspecial.hurwitz import hurwitz_zeta
from kspecial.loggamma import log_gamma_classic
from kspecial.profiles import DEFAULT, FAST, STRICT, EULER_GAMMA, EvalResult, PrecisionProfile
from kspecial import hurwitz, quadrature, series
from kspecial.quadrature import quad_halfline, quad_unit
from kspecial.series import sum_series_batch

import oracles
from oracles import (direct_zeta2, halfline_nodes, hurwitz_zeta_rising,
                     sum_series, trapezoid, unit_nodes)

SQRT_HALF_PI = 1.2533141373155001   # trapezoid oracle 1.2533141373147676 (h=1e-5, [0,40]); closed sqrt(pi/2)
ZETA2 = 1.6449340668482264          # direct sum + EM tail oracle 1.6449340668482415; closed pi^2/6
ZETA_MINUS_HALF = -0.207886224977354566  # mp30
HURWITZ_2P5_0P7 = 2.90286757775734621962835765761  # mp30
LGAMMA_100 = 359.13420536957539877604401046  # mp30
LGAMMA_0P1 = 2.25271265173420595986970164637  # mp30


def _gaussian(t):
    return np.exp(-0.5 * t * t)


class TestQuadHalfline:
    def test_exponential(self):
        r = quad_halfline(lambda t: np.exp(-t))
        assert abs(r.value - 1.0) < 1e-12
        assert r.method == "integral"

    def test_gaussian_matches_trapezoid_oracle(self):
        oracle = trapezoid(lambda t: math.exp(-0.5 * t * t), 0.0, 40.0, 200_000)
        r = quad_halfline(_gaussian)
        assert abs(oracle - SQRT_HALF_PI) < 1e-9
        assert abs(r.value - SQRT_HALF_PI) < 1e-12

    def test_rayleigh(self):
        r = quad_halfline(lambda t: t * np.exp(-0.5 * t * t))
        assert abs(r.value - 1.0) < 1e-12

    def test_endpoint_singularity(self):
        # t^(-1/2) e^(-t) integrates to Gamma(1/2) = sqrt(pi)
        r = quad_halfline(_power_exp(0.5))
        assert abs(r.value - math.sqrt(math.pi)) < 1e-12

    def test_err_estimate_covers_true_error(self):
        r = quad_halfline(_gaussian)
        assert abs(r.value - SQRT_HALF_PI) <= max(r.err_estimate, 5e-15)

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(DomainError):
            quad_halfline(lambda t: np.full_like(t, np.nan))

    def test_overflowing_integrand_rejected(self):
        with pytest.raises(DomainError, match="non-finite value inf"):
            quad_halfline(lambda t: np.exp(t))

    def test_nonconvergent_when_cap_tiny(self):
        prof = PrecisionProfile(rel_tol=1e-15, abs_tol=1e-300, max_quad_refinements=2)
        with pytest.raises(NonConvergent):
            quad_halfline(lambda t: np.exp(-t) * np.sin(50.0 * t) ** 2, prof)

    def test_deterministic(self):
        f = lambda t: np.exp(-t) / (1.0 + t)
        a = quad_halfline(f)
        b = quad_halfline(f)
        assert a.value == b.value and a.terms_or_nodes_used == b.terms_or_nodes_used


class TestQuadUnit:
    def test_polynomial(self):
        r = quad_unit(lambda t, omt: t * t)
        assert abs(r.value - 1.0 / 3.0) < 1e-13

    def test_both_endpoints_singular(self):
        # Beta(1/4, 1/2) = Gamma(1/4)Gamma(1/2)/Gamma(3/4); mp30 5.24411510858423962092967917978
        r = quad_unit(lambda t, omt: t ** (-0.75) * omt ** (-0.5))
        assert abs(r.value - 5.24411510858423962092967917978) < 1e-11

    def test_one_minus_t_argument_is_exact_complement(self):
        # near u>0 nodes t -> 1; the omt argument must keep full precision
        seen = []
        def probe(t, omt):
            seen.append(omt)
            return np.ones_like(t)
        r = quad_unit(probe)
        assert abs(r.value - 1.0) < 1e-12
        # genuinely tiny, not 1-t rounding to 0
        assert min(omt.min() for omt in seen) < 1e-30


class TestOneCallPerLevel:
    """A single integral asks its integrand for levels 0-2 in one call,
    joined in level order, then for each later level's nodes in one call,
    in the order and number of the node tables."""

    CAP_1 = PrecisionProfile(max_quad_refinements=1)

    @pytest.mark.parametrize("quad,f,nodes", [
        (quad_halfline, lambda t: np.exp(-t) / (1.0 + t), halfline_nodes),
        (quad_unit, lambda t, omt: 1.0 / (1e-2 + (t - 0.3) ** 2), unit_nodes)])
    def test_calls_match_levels(self, quad, f, nodes):
        calls = []

        def counted(*cols):
            calls.append(np.concatenate(cols).tobytes())
            return f(*cols)

        r = quad(counted)
        levels = [np.array(list(zip(*nodes(level)))[:-1])
                  for level in range(DEFAULT.max_quad_refinements + 1)]
        want = [np.concatenate(levels[:3], axis=1)] + levels[3:]
        assert len(calls) >= 2
        assert calls == [np.concatenate(cols).tobytes() for cols in want[:len(calls)]]
        assert sum(cols.shape[1] for cols in want[:len(calls)]) == r.terms_or_nodes_used

    @pytest.mark.parametrize("quad,f,nodes,last", [
        (quad_halfline, lambda t: np.exp(-t) / (1.0 + t), halfline_nodes,
         (0.5963463000805496, 0.00012314599867069287)),
        (quad_unit, lambda t, omt: t ** (-0.75) * omt ** (-0.5), unit_nodes,
         (5.24411510858424, 1.4548046056717112e-07))])
    def test_cap_below_the_first_stop_is_one_call(self, quad, f, nodes, last):
        calls = []

        def counted(t, *rest):
            calls.append(t.size)
            return f(t, *rest)

        with pytest.raises(NonConvergent, match="after 1 refinements") as e:
            quad(counted, self.CAP_1)
        assert calls == [len(nodes(0)) + len(nodes(1))]
        # the values of summing levels 0 and 1 one call each
        assert (e.value.last_value, e.value.last_delta) == last

    def test_batch_at_cap_below_the_first_stop(self):
        seen = []

        def f(rows, t):
            seen.append((rows.size, t.size))
            return np.exp(-np.multiply.outer(rows + 1.0, t))

        with pytest.raises(NonConvergent) as e:
            quad_halfline(f, self.CAP_1, batch=3)
        assert seen == [(3, len(halfline_nodes(0)) + len(halfline_nodes(1)))]
        assert (e.value.last_value, e.value.last_delta) \
            == (0.9999927491474494, 0.0015669345354220043)

    def test_nested_route_makes_one_base_call_per_inner_call(self, monkeypatch):
        from kspecial import hypergeometric
        from kspecial.hypergeometric import (HypergeometricSpec,
                                             integral_representation_check)
        sizes = []
        real = hypergeometric.sum_series_batch

        def spy(args, *rest):
            sizes.append(args.size)
            return real(args, *rest)

        monkeypatch.setattr(hypergeometric, "sum_series_batch", spy)
        spec = HypergeometricSpec((1.0, 2.0), (2.0, 2.0), (2.0, 3.0), (1.0, 2.0))
        r = integral_representation_check(spec, 0.8)
        # the p=2 verify row; its value, estimate and work are pinned in
        # test_hypergeometric.py::TestIntegralRepresentation
        assert (len(sizes), sum(sizes)) == (21, 79_030)
        assert r.terms_or_nodes_used == 559_153


class TestRefusalOrder:
    """_refuse names the first non-finite value of the first level whose sum
    is not finite, though levels 0-2 share one call."""

    @staticmethod
    def _at(level, j):
        return quadrature._nodes("halfline", level)[0][j]

    def test_single_integral_names_the_first_level(self):
        t1, t2 = self._at(1, 0), self._at(2, 0)

        def f(t):
            v = np.exp(-t)
            v[t == t2] = np.nan
            v[t == t1] = 1e308   # finite, but its weight is over 2
            return v

        with pytest.raises(DomainError, match="^integrand times quadrature weight "
                                              "overflows a float$"):
            quad_halfline(f)

    def test_single_integral_names_the_value_and_its_t(self):
        t1, t2 = self._at(1, 5), self._at(2, 0)

        def f(t):
            v = np.exp(-t)
            v[(t == t1) | (t == t2)] = -np.inf
            return v

        with pytest.raises(DomainError, match=rf"^integrand returned non-finite "
                                              rf"value -inf at t={t1}$"):
            quad_halfline(f)

    def test_batch_names_the_first_level_across_blocks(self, monkeypatch):
        t0, t1 = self._at(0, 2), self._at(1, 0)

        def row(bad_t, bad_value):
            return lambda t: np.where(t == bad_t, bad_value, np.exp(-t))

        # one row per block: the second block's level-0 inf is named before
        # the first block's level-1 nan, and at one level the first block
        monkeypatch.setattr(quadrature, "_BLOCK", 109)
        with pytest.raises(DomainError, match=rf"^integrand returned non-finite "
                                              rf"value inf at t={t0}$"):
            quad_halfline(_batch_of([row(t1, np.nan), row(t0, np.inf)]), batch=2)
        with pytest.raises(DomainError, match=rf"value nan at t={t1}$"):
            quad_halfline(_batch_of([row(t1, np.nan), row(t1, np.inf)]), batch=2)

    def test_integrand_error_at_level_one_comes_first(self):
        # levels 0-2 share a call: the integrand's own error at a level-1
        # node comes before the refusal of a non-finite level-0 value
        t1 = self._at(1, 0)

        def f(t):
            if (t == t1).any():
                raise DomainError("the integrand's own refusal")
            return np.full_like(t, np.nan)

        with pytest.raises(DomainError, match="own refusal"):
            quad_halfline(f)


@pytest.mark.parametrize("kind,node_list", [("halfline", halfline_nodes),
                                            ("unit", unit_nodes)])
def test_node_tables_match_the_per_map_lists(kind, node_list):
    """The cached tables hold, bit for bit, what the per-map node lists of
    oracles.py give, at every level of 0-12."""
    for level in range(DEFAULT.max_quad_refinements + 1):
        want = [np.array(col) for col in zip(*node_list(level))]
        got = quadrature._nodes(kind, level)
        assert [c.tobytes() for c in got] == [c.tobytes() for c in want]


def _power_exp(a):
    """t^(a-1) e^(-t), integrating to Gamma(a); a numpy function of a node
    or of an array of nodes."""
    def f(t):
        w = (a - 1.0) * np.log(t) - t
        return np.where(w > -745.0, np.exp(w), 0.0)
    return f


def _batch_of(fs, seen=None):
    """Batched integrand for the integrands fs, one per row, each called
    once per node; appends the (rows, nodes) each call asks for to seen."""
    def f(rows, *cols):
        if seen is not None:
            seen.append((rows.size, cols[0].size))
        nodes = list(zip(*(c.tolist() for c in cols)))
        return [[fs[r](*node) for node in nodes] for r in rows.tolist()]
    return f


def _level_loop(kind, f):
    """The scalar level loop the batched one replaced, node by node in
    node order, at the default profile: (value, err_estimate, nodes used)."""
    nodes = {"halfline": halfline_nodes, "unit": unit_nodes}[kind]
    evals = 0
    for level in range(DEFAULT.max_quad_refinements + 1):
        add = 0.0
        for *node, w in nodes(level):
            add += f(*node) * w
        evals += len(nodes(level))
        if level == 0:
            prev = add * 0.5
            continue
        cur = prev / 2.0 + add * (0.5 / (1 << level))
        delta = abs(cur - prev)
        if level >= 2 and delta <= DEFAULT.rel_tol * abs(cur) + DEFAULT.abs_tol:
            return cur, delta, evals
        prev = cur
    raise AssertionError("reference loop did not converge")


class TestQuadBatch:
    """Each integrand here is a numpy function that takes one node or an
    array of nodes, so the batch and level-loop oracles can call it once
    per node, and quad_halfline and quad_unit once per level."""
    HALFLINE = [_power_exp(a) for a in (0.3, 1.0, 2.5, 7.0, 30.0)] + [
        _gaussian,
        lambda t: np.exp(-t) / (1.0 + t),
    ]
    UNIT = [lambda t, omt: t * t,
            lambda t, omt: t ** (-0.75) * omt ** (-0.5),
            lambda t, omt: np.exp(-3.0 * t) * omt ** 0.5,
            lambda t, omt: np.ones_like(t)]

    @pytest.mark.parametrize("kind,fs,quad", [("halfline", HALFLINE, quad_halfline),
                                              ("unit", UNIT, quad_unit)])
    def test_rows_match_separate_scalar_calls(self, kind, fs, quad):
        r = quadrature._refine(kind, _batch_of(fs), len(fs), DEFAULT)
        alone = [quad(f) for f in fs]
        assert r.value.tolist() == [a.value for a in alone]
        assert r.err_estimate.tolist() == [a.err_estimate for a in alone]
        assert r.nodes_used.tolist() == [a.terms_or_nodes_used for a in alone]
        assert r.terms_or_nodes_used == sum(a.terms_or_nodes_used for a in alone)
        # the rows stop at different levels, so each kept its own rule
        assert len(set(r.nodes_used.tolist())) > 1
        assert [(a.value, a.err_estimate, a.terms_or_nodes_used) for a in alone] \
            == [_level_loop(kind, f) for f in fs]

    @pytest.mark.parametrize("block", [7, 50, 60])
    def test_small_blocks_change_nothing(self, block, monkeypatch):
        whole = quad_halfline(_batch_of(self.HALFLINE), batch=len(self.HALFLINE))
        alone = [quad_halfline(f) for f in self.HALFLINE]
        assert whole.value.tolist() == [a.value for a in alone]
        monkeypatch.setattr(quadrature, "_BLOCK", block)
        seen = []
        blocked = quad_halfline(_batch_of(self.HALFLINE, seen),
                                batch=len(self.HALFLINE))
        for a, b in zip(whole, blocked):
            assert a.tolist() == b.tolist()
        # calls wider than the block arrive whole, one row at a time; the
        # rows of a narrower call come as many as fit in the block. The
        # first call is levels 0-2 joined, then one call per level
        levels = [quadrature._nodes("halfline", level)[-1].size
                  for level in range(DEFAULT.max_quad_refinements + 1)]
        calls = [sum(levels[:3])] + levels[3:]
        in_order = [nodes for nodes, _ in groupby(nodes for _, nodes in seen)]
        assert in_order == calls[:len(in_order)]
        assert all(rows <= max(1, block // nodes) for rows, nodes in seen)
        assert max(nodes for _, nodes in seen) > block
        assert sum(rows * nodes for rows, nodes in seen) == blocked.terms_or_nodes_used
        assert [quad_halfline(f) for f in self.HALFLINE] == alone

    def test_scalar_non_finite_value_is_named(self):
        # a scalar inf raised AttributeError in the refusal's reshape
        with pytest.raises(DomainError, match=r"^integrand returned non-finite "
                                              r"value inf at t=1.0$"):
            quad_halfline(lambda t: np.inf)

    def test_nonfinite_row_rejected(self):
        fs = [lambda t: np.exp(-t), lambda t: np.exp(-2.0 * t),
              lambda t: np.inf]
        with pytest.raises(DomainError):
            quad_halfline(_batch_of(fs), batch=3)

    def test_row_at_cap_is_nonconvergent(self):
        prof = PrecisionProfile(rel_tol=1e-15, abs_tol=1e-300, max_quad_refinements=2)
        fs = [lambda t: 0.0,
              lambda t: np.exp(-t) * np.sin(50.0 * t) ** 2]
        with pytest.raises(NonConvergent):
            quad_halfline(_batch_of(fs), prof, batch=2)


def _quad_outcome(call):
    """repr of (value, err_estimate, nodes) of one integral, or the type,
    message, last_value and last_delta of its error."""
    try:
        r = call()
    except (DomainError, NonConvergent) as e:
        return (type(e).__name__, str(e), repr(getattr(e, "last_value", None)),
                repr(getattr(e, "last_delta", None)))
    if isinstance(r, quadrature.QuadBatch):
        r = (r.value[0].item(), r.err_estimate[0].item(), r.nodes_used[0].item())
    else:
        r = (r.value, r.err_estimate, r.terms_or_nodes_used)
    return tuple(map(repr, r))


class TestOneRowLoop:
    """The one-row loop, which every single integral runs, against _refine
    on a batch of one row: both run on each integrand the routes hand to
    quad_halfline and quad_unit, and agree bit for bit in value,
    err_estimate and node count, or in the error, its message, last_value
    and last_delta."""

    CAP_3 = PrecisionProfile(rel_tol=1e-15, abs_tol=1e-300, max_quad_refinements=3)
    TINY_TOL = PrecisionProfile(rel_tol=1e-300, abs_tol=1e-300, max_quad_refinements=11)

    def _pairs(self, monkeypatch, calls):
        pairs = []
        real = quadrature._refine_one

        def both(kind, f, profile):
            with np.errstate(over="ignore"):    # as quad_halfline's batch path
                batch = _quad_outcome(lambda: quadrature._refine(
                    kind, lambda rows, *c: f(*c).reshape(1, -1), 1, profile))
            pairs.append((_quad_outcome(lambda: real(kind, f, profile)), batch))
            return real(kind, f, profile)

        monkeypatch.setattr(quadrature, "_refine_one", both)
        for call in calls:
            try:
                call()
            except (DomainError, NonConvergent, ResultOverflow):
                pass
        return pairs

    def _routes(self, seed):
        from kspecial.betak import (BetaKSpec, beta_k_integral_halfline,
                                    beta_k_integral_unit)
        from kspecial.gammak import gamma_k_dk, gamma_k_integral, gamma_k_integrand

        rng = random.Random(seed)
        profiles = (DEFAULT, FAST, STRICT, self.CAP_3)
        calls = {name: [] for name in ("integral", "parameter-a", "dk", "halfline", "unit")}
        for _ in range(60):
            k = math.exp(rng.uniform(math.log(0.25), math.log(6.0)))
            x = math.exp(rng.uniform(math.log(1e-3), math.log(40.0)))
            y = math.exp(rng.uniform(math.log(1e-3), math.log(40.0)))
            a = rng.uniform(0.2, 5.0)
            p = rng.choice(profiles)
            calls["integral"].append(lambda k=k, x=x, p=p: gamma_k_integral(k, x, p))
            calls["parameter-a"].append(lambda k=k, x=x, a=a, p=p: quad_halfline(
                gamma_k_integrand(k, x - 1.0, a), p))
            calls["dk"].append(lambda k=k, x=x, p=p: gamma_k_dk(k, x - 1.0, p))
            calls["halfline"].append(
                lambda k=k, x=x, y=y, p=p: beta_k_integral_halfline(BetaKSpec(k, x, y), p))
            calls["unit"].append(
                lambda k=k, x=x, y=y, p=p: beta_k_integral_unit(BetaKSpec(k, x, y), p))
        # levels past _BLOCK nodes (halfline 10 and up), and both DomainErrors
        calls["integral"] += [lambda: gamma_k_integral(1.0, 1e-3),
                              lambda: gamma_k_integral(1.0, 2.5, self.TINY_TOL)]
        calls["dk"] += [lambda: gamma_k_dk(1.0, 169.0)]
        calls["unit"] += [lambda: beta_k_integral_unit(BetaKSpec(1.0, 1e-3, 1.0)),
                          lambda: beta_k_integral_unit(BetaKSpec(1.0, 2.0, 3.0),
                                                       self.TINY_TOL)]
        return calls

    @pytest.mark.parametrize("route", ["integral", "parameter-a", "dk", "halfline", "unit"])
    def test_routes_match_the_batch_of_one(self, route, monkeypatch):
        pairs = self._pairs(monkeypatch, self._routes(23)[route])
        assert len(pairs) >= 55
        for one, batch in pairs:
            assert one == batch

    def test_every_outcome_is_covered(self, monkeypatch):
        calls = self._routes(23)
        pairs = self._pairs(monkeypatch, [c for name in calls for c in calls[name]])
        kinds = {one[0] if one[0] in ("DomainError", "NonConvergent") else "value"
                 for one, _ in pairs}
        messages = {one[1].split(" value")[0] for one, _ in pairs if one[0] == "DomainError"}
        assert kinds == {"value", "DomainError", "NonConvergent"}
        assert messages == {"integrand returned non-finite",
                            "integrand times quadrature weight overflows a float"}


def _all_nodes(kind):
    """Every node column of levels 0-12, the default profile's reach."""
    tables = [quadrature._nodes(kind, level)[:-1]
              for level in range(DEFAULT.max_quad_refinements + 1)]
    return [np.concatenate(cols) for cols in zip(*tables)]


def _integrand_of(monkeypatch, module, quad_name, call):
    """The integrand that call() hands to module.<quad_name>."""
    seen = []
    real = getattr(module, quad_name)

    def spy(f, *args, **kwargs):
        seen.append(f)
        return real(f, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(module, quad_name, spy)
        call()
    return seen[0]


class TestArrayIntegrandsMatchScalarOracles:
    """Each array integrand against the per-node math.log/exp integrand it
    replaced (tests/oracles.py), at every node of levels 0-12.

    Both give 0 at the same nodes. Elsewhere they agree to 4 eps in units
    of the integrand's condition: each integrand is exp of a sum of log
    terms, numpy's log, exp and log1p may round an ulp away from libm's,
    and an ulp in a term of size S moves exp(sum) by S eps relative. scale
    is 1 plus the size of those terms (times 1 + |e| for a term through
    exp(e), whose argument e is itself rounded). A value below the smallest
    normal double may also differ by its own spacing.
    """

    POINTS = [(1.0, 2.5), (0.5, 0.7), (2.0, 7.3), (3.0, 0.2)]

    @staticmethod
    def assert_close(got, want, scale):
        assert np.array_equal(got == 0.0, want == 0.0)
        tol = 4.0 * sys.float_info.epsilon * scale * np.abs(want) + math.ulp(0.0)
        assert np.all(np.abs(got - want) <= tol)

    @staticmethod
    def decay_terms(k, t):
        """log t, e = k log t and the decay t^k/k with its exp(e) scale."""
        lt = np.log(t)
        e = k * lt
        return lt, e, np.exp(np.minimum(e, 700.0)) / k * (1.0 + np.abs(e))

    @pytest.mark.parametrize("k,x,c", [(k, x, 1.0) for k, x in POINTS]
                             + [(1.0, 2.5, 0.5), (2.0, 0.7, 2.0)])
    def test_gamma_k_integrand(self, k, x, c):
        from kspecial.gammak import gamma_k_integrand
        t, = _all_nodes("halfline")
        scalar = oracles.gamma_k_integrand_scalar(k, x - 1.0, c)
        lt, e, decay = self.decay_terms(k, t)
        self.assert_close(gamma_k_integrand(k, x - 1.0, c)(t),
                          np.array([scalar(v) for v in t.tolist()]),
                          1.0 + np.abs((x - 1.0) * lt) + c * decay)

    @pytest.mark.parametrize("k,x", POINTS)
    def test_gamma_k_dk_integrand(self, k, x, monkeypatch):
        from kspecial import gammak
        t, = _all_nodes("halfline")
        f = _integrand_of(monkeypatch, quadrature, "quad_halfline",
                          lambda: gammak.gamma_k_dk(k, x))
        scalar = oracles.gamma_k_dk_integrand_scalar(k, x)
        lt, e, decay = self.decay_terms(k, t)
        self.assert_close(f(t), np.array([scalar(v) for v in t.tolist()]),
                          1.0 + np.abs((x + k) * lt) + decay)

    @pytest.mark.parametrize("k,x,y", [(k, x, y) for (k, x), y
                                       in zip(POINTS, [0.3, 3.0, 0.3, 3.0])])
    def test_beta_k_integrands(self, k, x, y, monkeypatch):
        from kspecial import betak
        spec = betak.BetaKSpec(k, x, y)
        t, = _all_nodes("halfline")
        f = _integrand_of(monkeypatch, betak, "quad_halfline",
                          lambda: betak.beta_k_integral_halfline(spec))
        scalar = oracles.beta_k_halfline_integrand_scalar(k, x, y)
        lt = np.log(t)
        e = k * lt
        lp = np.where(e > 700.0, e, np.log1p(np.exp(np.minimum(e, 700.0))))
        self.assert_close(f(t), np.array([scalar(v) for v in t.tolist()]),
                          1.0 + np.abs((x - 1.0) * lt)
                          + (x + y) / k * (np.abs(lp) + np.abs(e)))

        t, omt = _all_nodes("unit")
        f = _integrand_of(monkeypatch, betak, "quad_unit",
                          lambda: betak.beta_k_integral_unit(spec))
        scalar = oracles.beta_k_unit_integrand_scalar(k, x, y)
        self.assert_close(f(t, omt),
                          np.array([scalar(*n) for n in zip(t.tolist(), omt.tolist())]),
                          1.0 + np.abs((x / k - 1.0) * np.log(t))
                          + np.abs((y / k - 1.0) * np.log(omt)))

    @pytest.mark.parametrize("a,k,b,s,x", [(1.0, 1.0, 2.0, 1.0, 0.5),
                                           (2.0, 2.0, 3.0, 2.0, 1.0)])
    def test_hypergeometric_integrand(self, a, k, b, s, x, monkeypatch):
        """The p = 1 integrands of verify's integral-representation check,
        with the inner series (through the captured integrand's own level
        function) on both sides; its argument x t^k carries exp(e)'s
        rounding too."""
        import inspect

        from kspecial import hypergeometric
        spec = hypergeometric.HypergeometricSpec((a,), (k,), (b,), (s,))
        f = _integrand_of(monkeypatch, quadrature, "quad_halfline",
                          lambda: hypergeometric.integral_representation_check(spec, x))
        inner = inspect.getclosurevars(f).nonlocals
        scalar = oracles.hyper_integrand_loop(inner["level"], inner["args"],
                                              a, k, inner["depth"])
        t, = _all_nodes("halfline")
        rows = np.arange(1)
        lt, e, decay = self.decay_terms(k, t)
        with np.errstate(over="ignore"):
            got, want = f(rows, t), scalar(rows, t)
        self.assert_close(got, want,
                          1.0 + np.abs((a - 1.0) * lt) + (1.0 + k * x) * decay)


class TestLogGamma:
    @pytest.mark.parametrize("x,want", [
        (1.0, 0.0),
        (2.0, 0.0),
        (5.0, math.log(24.0)),                 # closed: Gamma(5)=24
        (0.5, 0.5 * math.log(math.pi)),        # closed: Gamma(1/2)=sqrt(pi)
        (100.0, LGAMMA_100),
        (0.1, LGAMMA_0P1),
    ])
    def test_reference_points(self, x, want):
        assert abs(log_gamma_classic(x) - want) <= 1e-13 * max(1.0, abs(want))

    def test_relative_error_scan(self):
        # functional-equation bootstrap: lgamma(x+1) - lgamma(x) = log(x)
        x = 0.5
        while x < 100.0:
            lhs = log_gamma_classic(x + 1.0) - log_gamma_classic(x)
            assert abs(lhs - math.log(x)) < 5e-13 * max(1.0, abs(math.log(x)))
            x *= 1.38

    def test_agrees_with_quadrature(self):
        # Gamma(x) = int t^(x-1) e^-t for a few x; the two routes are independent
        for x in (0.5, 1.0, 2.5, 7.0):
            r = quad_halfline(_power_exp(x))
            assert abs(r.value - math.gamma(x)) <= 1e-11 * r.value

    def test_domain(self):
        # math.lgamma alone returns a finite value at -0.5 and nan at nan
        for x in (0.0, -3.0, -0.5, math.nan):
            with pytest.raises(DomainError):
                log_gamma_classic(x)


def _estimate(head, tail, b12_term):
    """hurwitz_zeta's err_estimate: the B_12 term plus 4 eps (|head| + |tail|)."""
    return b12_term + 4.0 * sys.float_info.epsilon * (abs(head) + abs(tail))


class TestHurwitz:
    def test_basel(self):
        oracle = direct_zeta2(1.0)
        r = hurwitz_zeta(2.0, 1.0)
        assert abs(oracle - ZETA2) < 1e-12
        assert abs(r.value - ZETA2) < 1e-13

    def test_mp30_point(self):
        r = hurwitz_zeta(2.5, 0.7)
        assert abs(r.value - HURWITZ_2P5_0P7) < 1e-13

    def test_linear_at_zero(self):
        # closed: zeta_H(0, a) = 1/2 - a
        for a in (0.3, 1.0, 2.5, 7.0):
            r = hurwitz_zeta(0.0, a)
            assert abs(r.value - (0.5 - a)) < 1e-13

    def test_negative_s(self):
        assert abs(hurwitz_zeta(-0.5, 1.0).value - ZETA_MINUS_HALF) < 1e-13
        # closed: zeta_H(-2, a) = -B_3(a)/3 with B_3(3/4) = -3/64
        assert abs(hurwitz_zeta(-2.0, 0.75).value - 0.015625) < 1e-13

    def test_shift_identity(self):
        # zeta_H(s, a) - zeta_H(s, a+1) = a^-s
        for s in (-0.5, 0.5, 2.0, 3.0):
            for a in (0.3, 1.0, 2.2):
                lhs = hurwitz_zeta(s, a).value - hurwitz_zeta(s, a + 1.0).value
                assert abs(lhs - a ** (-s)) < 1e-12 * max(1.0, a ** (-s))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(s=st.floats(-0.5, 3.0).filter(lambda v: abs(v - 1.0) > 0.05),
           a=st.floats(0.3, 3.0))
    def test_shift_identity_property(self, s, a):
        lhs = hurwitz_zeta(s, a).value - hurwitz_zeta(s, a + 1.0).value
        assert abs(lhs - a ** (-s)) < 1e-10 * max(1.0, abs(a ** (-s)))

    def test_pole_and_domain(self):
        with pytest.raises(PoleError):
            hurwitz_zeta(1.0, 2.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, -1.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(math.nan, 1.0)

    def test_matches_per_correction_rising_factorials(self):
        # (s)_1 .. (s)_11 built once per call, against one rising factorial
        # per Bernoulli correction: bit for bit, integer s <= 0 included
        rng = random.Random(20240819)
        for i in range(5000):
            s = float(rng.randint(-12, 0)) if i % 5 == 0 else rng.uniform(-12.0, 45.0)
            if s == 1.0:
                continue
            a = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            head, tail, err = hurwitz_zeta_rising(s, a)
            r = hurwitz_zeta(s, a)
            assert (r.value, r.err_estimate) == (head + tail, _estimate(head, tail, err)), (s, a)

    def test_matches_call_time_coefficients_through_overflow(self):
        # coefficients folded at import against dividing them on each call:
        # the same doubles, the same sums bit for bit, and ResultOverflow
        # wherever the oracle overflows
        assert [c for c, _, _ in hurwitz._CORRECTIONS] \
            == [b2j / fact for b2j, fact in oracles.HURWITZ_BERNOULLI]
        assert hurwitz._ERR_COEFF == oracles.HURWITZ_B12[0] / oracles.HURWITZ_B12[1]
        rng = random.Random(20241020)
        for _ in range(5000):
            s = rng.uniform(-12.0, 45.0)
            a = math.exp(rng.uniform(math.log(1e-30), math.log(1e3)))
            try:
                head, tail, err = hurwitz_zeta_rising(s, a)
                value = head + tail
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                with pytest.raises(ResultOverflow):
                    hurwitz_zeta(s, a)
                continue
            r = hurwitz_zeta(s, a)
            assert (r.value, r.err_estimate) == (value, _estimate(head, tail, err)), (s, a)

    def test_nonpositive_integer_s_within_estimate(self):
        # the head and the Euler-Maclaurin tail cancel for s <= 0; against
        # the exact zeta_H(-m, a) = -B_{m+1}(a)/(m+1), the B_12 term floored
        # at 2e-16 |value| missed on 2,524 of these draws, 18 of them with an
        # estimate of 0.0
        rng = random.Random(20260419)
        for _ in range(3000):
            m = rng.randint(0, 10)
            a = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            r = hurwitz_zeta(-float(m), a)
            miss = abs(Fraction(r.value) - oracles.hurwitz_zeta_nonpositive(m, a))
            assert miss <= Fraction(r.err_estimate), (m, a)
        r = hurwitz_zeta(-2.0, 1e-100)     # zeta_H = -1.7e-101; the sum is 0.0
        assert r.value == 0.0 and r.err_estimate >= 1.7e-101

    @pytest.mark.parametrize("s,a", [(2.0, 5e-324), (2.0, 1e-300)])
    def test_overflow_is_typed(self, s, a):
        # the first term a^-s alone exceeds the largest double
        with pytest.raises(ResultOverflow, match=f"s={s}, a={a}"):
            hurwitz_zeta(s, a)


class TestSumSeries:
    def test_geometric(self):
        r = sum_series((0.5 ** n for n in count()), DEFAULT)
        assert abs(r.value - 2.0) < 1e-10
        assert r.err_estimate <= 1e-10

    def test_exponential(self):
        r = sum_series((1.0 / math.factorial(n) if n < 170 else 0.0
                        for n in count()), DEFAULT)
        assert abs(r.value - math.e) < 1e-12

    def test_basel_converges_at_default_profile_with_visible_tail(self):
        # stop rule triggers near n ~ 7.9e4; the unseen tail is ~1.3e-5,
        # which is exactly why err_estimate documents "first omitted term"
        r = sum_series((1.0 / (1.0 + n) ** 2 for n in count()), DEFAULT)
        assert abs(r.value - ZETA2) < 5e-5
        assert 70_000 < r.terms_or_nodes_used <= 100_000

    def test_basel_nonconvergent_with_reduced_cap(self):
        prof = PrecisionProfile(max_terms=50_000)
        with pytest.raises(NonConvergent):
            sum_series((1.0 / (1.0 + n) ** 2 for n in count()), prof)

    def test_three_in_a_row_guards_accidental_zeros(self):
        # term 0 at n=3 only; the rule must not stop there
        r = sum_series((0.0 if n == 3 else 0.5 ** n for n in count()), DEFAULT)
        assert abs(r.value - (2.0 - 0.125)) < 1e-9


class TestSumSeriesBatch:
    B, S = (2.0, 3.0), (1.0, 2.0)
    X = [0.0, 0.3, -0.3, 1e-12, 4.0, -40.0, 900.0, -2.5e4, 3e5]
    # term counts (under DEFAULT, through the scalar oracle) on each side of
    # the default schedule's first three block edges, 6, 18 and 42 terms,
    # and at and one past the caps of test_nonconvergent_at_each_cap
    EDGES = {1e-6: 5, 0.001: 6, 0.012: 7, -0.129: 8, -87.1: 17, -114.8: 18,
             -128.8: 19, -213.8: 20, -263.0: 21, -5128.6: 41, -6166.0: 42,
             -6456.5: 43, -7943.3: 45, -8317.6: 46}

    def den(self, n):
        d = n + 1.0
        for b_i, s_i in zip(self.B, self.S):
            d *= b_i + n * s_i
        return d

    def scalar(self, x, profile=DEFAULT):
        """The same series through sum_series, one argument at a time."""
        if x == 0.0:
            return 1.0, 1

        def terms():
            v = 1.0
            for n in count():
                yield v
                v = v * x / self.den(n)
        r = sum_series(terms(), profile)
        return r.value, r.terms_or_nodes_used

    def test_edge_arguments_land_where_named(self):
        assert {x: self.scalar(x)[1] for x in self.EDGES} == self.EDGES

    # (first block, largest block): fixed blocks, and the default schedule
    @pytest.mark.parametrize("schedule", [
        pytest.param((1, 1), id="1"), pytest.param((2, 2), id="2"),
        pytest.param((3, 3), id="3"), pytest.param((16, 16), id="16"),
        pytest.param((series._FIRST_BLOCK, series._MAX_BLOCK), id="default")])
    def test_each_element_matches_sum_series(self, schedule, monkeypatch):
        monkeypatch.setattr(series, "_FIRST_BLOCK", schedule[0])
        monkeypatch.setattr(series, "_MAX_BLOCK", schedule[1])
        xs = self.X + list(self.EDGES)
        value, terms = sum_series_batch(np.array(xs), self.den)
        assert list(zip(value.tolist(), terms.tolist())) == [
            self.scalar(x) for x in xs]

    @pytest.mark.parametrize("cap", [7, 20, 45])
    def test_nonconvergent_at_each_cap(self, cap):
        # caps off the block edges: the last block is cut short at the cap,
        # and each argument converges or is refused as the scalar sum is
        prof = PrecisionProfile(max_terms=cap)
        for x in self.EDGES:
            try:
                expected = self.scalar(x, prof)
            except NonConvergent:
                with pytest.raises(NonConvergent, match=f"after {cap} terms"):
                    sum_series_batch(np.array([x]), self.den, prof)
                assert self.EDGES[x] > cap
            else:
                value, terms = sum_series_batch(np.array([x]), self.den, prof)
                assert (value[0], terms[0]) == expected
                assert self.EDGES[x] <= cap

    def test_package_scalar_loop_matches_the_oracle(self):
        lower = tuple(zip(self.B, self.S))
        for x in self.X[1:]:
            r = series.sum_series(x, (), lower)
            assert (r.value, r.terms_or_nodes_used) == self.scalar(x), x

    def test_nonconvergent_at_cap(self):
        prof = PrecisionProfile(max_terms=20)
        with pytest.raises(NonConvergent):
            sum_series_batch(np.array([0.1, 3e5]), self.den, prof)


class TestProfilesAndResults:
    def test_euler_gamma_bracket(self):
        assert 0.577 < EULER_GAMMA < 0.578

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            PrecisionProfile(rel_tol=-1.0)
        with pytest.raises(ValueError):
            PrecisionProfile(max_terms=0)

    def test_profile_ordering(self):
        assert STRICT.rel_tol < DEFAULT.rel_tol < FAST.rel_tol

    def test_eval_result_validation(self):
        with pytest.raises(ValueError):
            EvalResult(1.0, -1.0, "series")
        with pytest.raises(ValueError):
            EvalResult(1.0, 0.0, "magic")
        assert float(EvalResult(2.5, 0.0, "scaling")) == 2.5


class TestNumpyFloatsRefused:
    """A numpy float of any width that is inf or nan is refused like a
    Python float, with the same message (unrefused, zeta_k at x = float32
    inf gives 0.0 and the product at x = float32 nan gives nan)."""

    BAD = [t(v) for t in (np.float16, np.float32, np.float64)
           for v in ("inf", "-inf", "nan")]

    @pytest.mark.parametrize("v", BAD, ids=repr)
    def test_pochhammer_spec(self, v):
        from kspecial.pochhammer import PochhammerSpec
        with pytest.raises(DomainError, match=f"x must be finite, got {v}"):
            PochhammerSpec(v, 3, 1.0)
        if v > 0:   # -inf and nan fail k > 0 first
            with pytest.raises(DomainError, match=f"k must be finite, got {v}"):
                PochhammerSpec(1.0, 3, v)

    @pytest.mark.parametrize("v", BAD, ids=repr)
    def test_zeta_k_spec(self, v):
        from kspecial.zetak import ZetaKSpec
        with pytest.raises(DomainError, match=f"s must be finite, got {v}"):
            ZetaKSpec(1.0, 2.0, v)
        for spec in ((v, 1.0, 2.0), (1.0, v, 2.0)):   # -inf and nan fail > 0 first
            with pytest.raises(DomainError):
                ZetaKSpec(*spec)

    @pytest.mark.parametrize("v", BAD, ids=repr)
    def test_hypergeometric_spec(self, v):
        # a float16/32 inf was built, and the series overflowed later
        from kspecial.hypergeometric import HypergeometricSpec
        with pytest.raises(DomainError, match=f"a must be finite, got {v}"):
            HypergeometricSpec((v,), (1.0,), (2.0,), (1.0,))
        with pytest.raises(DomainError, match=f"b must be finite, got {v}"):
            HypergeometricSpec((1.0,), (1.0,), (v,), (1.0,))

    @pytest.mark.parametrize("v", BAD, ids=repr)
    def test_pochhammer_rescale(self, v):
        from kspecial.pochhammer import pochhammer_rescale
        for args in ((v, 3, 1.0, 2.0), (1.0, 3, 1.0, v)):
            with pytest.raises(DomainError, match="must be finite"):
                pochhammer_rescale(*args)
        with pytest.raises(DomainError):   # s: -inf and nan fail s > 0 first
            pochhammer_rescale(1.0, 3, v, 2.0)

    @pytest.mark.parametrize("v", BAD, ids=repr)
    def test_precision_profile(self, v):
        # -inf and nan fail the positivity test first, a ValueError too
        with pytest.raises(ValueError, match="finite" if v > 0 else "positive"):
            PrecisionProfile(rel_tol=v)
        with pytest.raises(ValueError, match="finite" if v > 0 else "positive"):
            PrecisionProfile(abs_tol=v)

    def test_finite_numpy_floats_and_exact_values_pass(self):
        from kspecial.errors import require_finite
        require_finite("x", np.float16(1.5), np.float32(2.0), np.float64(3.0),
                       10 ** 400, Fraction(10 ** 400, 3), True, np.int64(5))


class TestNumpyFloatsComputeInDouble:
    """A finite numpy float argument is stored as a Python float, so the
    routes compute in double precision: each returns what the call with
    float(v) returns, a Python float (zeta_k at x = float32 2.0 returned
    np.float32(0.64493406), its err_estimate sized for float64)."""

    @staticmethod
    def _routes(c):
        from kspecial import betak, hypergeometric
        from kspecial.betak import BetaKSpec
        from kspecial.hypergeometric import HypergeometricSpec
        from kspecial.pochhammer import PochhammerSpec, pochhammer_k
        from kspecial.zetak import ZetaKSpec, zeta_k

        beta = BetaKSpec(c(1.5), c(2.5), c(3.1))
        hyper = HypergeometricSpec((c(1.1),), (c(0.9),), (c(2.3),), (c(1.5),))
        return {"zeta_k": zeta_k(ZetaKSpec(c(1.5), c(2.3), c(2.0))),
                "pochhammer_k": pochhammer_k(PochhammerSpec(c(1.1), 5, c(0.7))),
                **{f"beta {name}": route(beta, DEFAULT)
                   for name, route in betak.ROUTES.items()},
                **{f"hyper {name}": route(hyper, c(0.3), DEFAULT)
                   for name, route in hypergeometric.ROUTES.items()}}

    @pytest.mark.parametrize("width", [np.float16, np.float32, np.float64], ids=repr)
    def test_routes_return_the_float_call(self, width):
        got = self._routes(width)
        want = self._routes(lambda v: float(width(v)))
        for name, r in got.items():
            value = r if name == "pochhammer_k" else r.value
            assert type(value) is float, name
            assert r == want[name], name

    def test_exact_values_stay_exact(self):
        from kspecial.hypergeometric import HypergeometricSpec
        from kspecial.pochhammer import PochhammerSpec

        spec = PochhammerSpec(Fraction(1, 2), 3, np.int64(2))
        assert type(spec.x) is Fraction and type(spec.k) is np.int64
        h = HypergeometricSpec((1,), (np.float32(1.0),), (Fraction(3, 2),), (True,))
        assert [type(v) for v in (*h.a, *h.k, *h.b, *h.s)] == [int, float, Fraction, bool]

"""Named verification suites over every identity the package implements.

Each check runs a family of evaluations, records the worst observed
deviation against a pinned tolerance, and reports pass/fail. Checks are
named by their mathematical content. Deviations are relative unless the
name says otherwise; structural checks (exactness, raise behavior) use
dev 0/1 with tol 0.

Suites: gamma (incl. the Pochhammer-symbol identities), beta, zeta, hyper,
forests, pde, stirling; "all" runs them in that order with fixed seeds, so
consecutive runs produce identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import CapExceeded, DivergentSeries, OutsideRadius
from .profiles import DEFAULT, EvalResult, PrecisionProfile
from .quadrature import quad_halfline

GRID_K = (0.5, 1.0, 2.0, 3.0)
GRID_X = (0.3, 1.0, 2.5, 7.0)
SEED = 20240817


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    max_dev: float
    tol: float
    passed: bool


def _check(name: str, max_dev: float, tol: float) -> CheckResult:
    return CheckResult(name, max_dev, tol, max_dev <= tol)


def _combined_error_units(rs: list[EvalResult]) -> float:
    """Largest |v_i - v_j| / (e_i + e_j + 1e-12 |v_i|) over the pairs i < j:
    how far two routes disagree, in units of their combined error estimates
    (the 1e-12 relative floor keeps two exact routes from dividing by 0)."""
    return max(abs(a.value - b.value)
               / (a.err_estimate + b.err_estimate + 1e-12 * abs(a.value))
               for a, b in combinations(rs, 2))


def _fd(f, t: float, h: float) -> float:
    return (f(t + h) - f(t - h)) / (2.0 * h)


def suite_gamma(profile: PrecisionProfile = DEFAULT) -> list[CheckResult]:
    from .gammak import GammaKEvaluator, gamma_k_integrand, log_gamma_k, psi_point
    from .pochhammer import (PochhammerSpec, pochhammer_dk, pochhammer_k,
                             pochhammer_rescale, pochhammer_via_symmetric)
    out = []

    dev_fast, dev_lim, dev_prod = 0.0, 0.0, 0.0
    for k in GRID_K:
        ev = GammaKEvaluator(k, profile)
        for x in GRID_X:
            for route in (ev.scaling, ev.integral):
                rhs = x * route(x).value
                dev_fast = max(dev_fast, abs(route(x + k).value - rhs) / abs(rhs))
            rhs = x * ev.limit(x, 1_000_000).value
            dev_lim = max(dev_lim, abs(ev.limit(x + k, 1_000_000).value - rhs) / abs(rhs))
            rhs = x * ev.product(x, 10_000).value
            dev_prod = max(dev_prod, abs(ev.product(x + k, 10_000).value - rhs) / abs(rhs))
    out.append(_check("functional-equation/scaling+integral", dev_fast, 1e-9))
    out.append(_check("functional-equation/limit-n1e6", dev_lim, 1e-4))
    out.append(_check("functional-equation/product-n1e4", dev_prod, 1e-5))

    dev_fast, dev_lim, dev_prod = 0.0, 0.0, 0.0
    for k in GRID_K:
        ev = GammaKEvaluator(k, profile)
        dev_fast = max(dev_fast, abs(ev.scaling(k).value - 1.0),
                       abs(ev.integral(k).value - 1.0))
        dev_lim = max(dev_lim, abs(ev.limit(k, 1_000_000).value - 1.0))
        dev_prod = max(dev_prod, abs(ev.product(k, 10_000).value - 1.0))
    out.append(_check("normalization/scaling+integral", dev_fast, 1e-9))
    out.append(_check("normalization/limit-n1e6", dev_lim, 1e-4))
    out.append(_check("normalization/product-n1e4", dev_prod, 1e-5))

    dev = 0.0
    gap = 0.0
    for k in (1.0, 2.0):
        ev = GammaKEvaluator(k, profile)
        for ratio in (0.25, 0.5, 0.75):
            x = ratio * k
            prod = ev.product(x, 10_000).value * ev.product(k - x, 10_000).value
            expr = prod * math.sin(math.pi * ratio) / math.pi
            dev = max(dev, abs(k * expr - 1.0))
            gap = max(gap, abs(expr - 1.0 / k))
    out.append(_check("reflection-normalized", dev, 1e-8))
    out.append(_check("reflection-unnormalized-gap-equals-1/k", gap, 1e-8))

    dev = 0.0
    for s in GRID_K:
        for k in GRID_K:
            for x in (0.7, 1.0, 2.5):
                lhs = GammaKEvaluator(s, profile).scaling(x).value
                rhs = ((s / k) ** (x / s - 1.0)
                       * GammaKEvaluator(k, profile).scaling(k * x / s).value)
                dev = max(dev, abs(lhs - rhs) / abs(lhs))
    out.append(_check("scale-transfer", dev, 1e-12))

    dev = 0.0
    for a in (0.5, 2.0):
        for k in (1.0, 2.0):
            for x in (0.7, 2.5):
                f = gamma_k_integrand(k, x - 1.0, a)
                got = a ** (x / k) * quad_halfline(f, profile).value
                want = GammaKEvaluator(k, profile).scaling(x).value
                dev = max(dev, abs(got - want) / want)
    out.append(_check("parameter-a-integral", dev, 1e-9))

    worst_psi_xx = math.inf
    midpoint_dev = 0.0
    for k in GRID_K:
        for x in GRID_X:
            worst_psi_xx = min(worst_psi_xx, psi_point(k, x, profile).psi_xx)
        for x1, x2 in ((0.3, 2.5), (1.0, 7.0)):
            mid = log_gamma_k(k, 0.5 * (x1 + x2))
            avg = 0.5 * (log_gamma_k(k, x1) + log_gamma_k(k, x2))
            midpoint_dev = max(midpoint_dev, mid - avg)
    out.append(_check("log-convexity/psi-xx-positive",
                      0.0 if worst_psi_xx > 0.0 else 1.0, 0.0))
    out.append(_check("log-convexity/midpoint", midpoint_dev, 1e-12))

    ratio_dev = 0.0
    for k in GRID_K:
        ev = GammaKEvaluator(k, profile)
        for x in GRID_X:
            rs = [ev.scaling(x), ev.integral(x), ev.limit(x, 100_000),
                  ev.product(x, 10_000)]
            ratio_dev = max(ratio_dev, _combined_error_units(rs))
    out.append(_check("route-agreement/combined-error-units", ratio_dev, 3.0))

    exact_ok = True
    for a_num in (1, 2, 5):
        for k_num in (1, 2, 3):
            for n in range(6):
                x = Fraction(a_num, 2)
                kk = Fraction(k_num, 2)
                spec = PochhammerSpec(x, n, kk)
                direct = pochhammer_k(spec)
                if pochhammer_via_symmetric(spec) != direct:
                    exact_ok = False
                if pochhammer_rescale(x, n, Fraction(3, 2), kk) != \
                        pochhammer_k(PochhammerSpec(x, n, Fraction(3, 2))):
                    exact_ok = False
    out.append(_check("pochhammer/symmetric-and-rescale-exact",
                      0.0 if exact_ok else 1.0, 0.0))

    dev = 0.0
    for k in (0.5, 1.0, 2.0):
        for x in (0.7, 1.5, 3.0):
            for n in (2, 5, 9):
                got = pochhammer_dk(PochhammerSpec(x, n, k))
                fd = _fd(lambda t: pochhammer_k(PochhammerSpec(x, n, t)), k, 1e-6 * k)
                dev = max(dev, abs(got - fd) / max(abs(fd), 1e-30))
    out.append(_check("pochhammer/dk-vs-finite-difference", dev, 1e-6))

    dev = 0.0
    for k in (0.5, 2.0):
        for x in (0.3, 1.0, 2.5):
            for n in (1, 3, 8):
                want = math.exp(log_gamma_k(k, x + n * k) - log_gamma_k(k, x))
                got = pochhammer_k(PochhammerSpec(x, n, k))
                dev = max(dev, abs(got - want) / want)
    out.append(_check("pochhammer/gamma-ratio", dev, 1e-11))

    return out


def suite_beta(profile: PrecisionProfile = DEFAULT) -> list[CheckResult]:
    from .betak import (BetaKSpec, beta_k_integral_halfline,
                        beta_k_integral_unit, beta_k_product, beta_k_ratio)
    out = []
    routes = (beta_k_ratio,
              lambda s: beta_k_integral_halfline(s, profile),
              lambda s: beta_k_integral_unit(s, profile),
              lambda s: beta_k_product(s))
    pair_dev = 0.0
    for k in (0.5, 1.0, 2.0):
        for x in (0.5, 1.0, 2.5):
            for y in (0.5, 1.0, 2.5):
                rs = [r(BetaKSpec(k, x, y)) for r in routes]
                pair_dev = max(pair_dev, _combined_error_units(rs))
    out.append(_check("four-routes-pairwise/combined-error-units", pair_dev, 3.0))

    dev = 0.0
    for k in (0.5, 1.0, 2.0):
        for x in (0.5, 1.0, 2.5):
            for y in (0.5, 1.0, 2.5):
                lhs = beta_k_ratio(BetaKSpec(k, x, y)).value
                rhs = beta_k_ratio(BetaKSpec(1.0, x / k, y / k)).value / k
                dev = max(dev, abs(lhs - rhs) / abs(lhs))
    out.append(_check("scaling-collapse", dev, 1e-9))

    dev = 0.0
    for k in (0.5, 1.0, 2.0):
        a = beta_k_integral_halfline(BetaKSpec(k, 0.5, 2.5), profile).value
        b = beta_k_integral_halfline(BetaKSpec(k, 2.5, 0.5), profile).value
        dev = max(dev, abs(a - b) / abs(a))
    out.append(_check("symmetry/halfline-route", dev, 1e-9))

    dev = 0.0
    for k in (0.5, 2.0):
        x, y = 1.5, 0.8
        lhs = beta_k_ratio(BetaKSpec(k, x + k, y)).value
        rhs = beta_k_ratio(BetaKSpec(k, x, y)).value * x / (x + y)
        dev = max(dev, abs(lhs - rhs) / abs(rhs))
    out.append(_check("first-argument-shift", dev, 1e-11))
    return out


def suite_zeta(profile: PrecisionProfile = DEFAULT) -> list[CheckResult]:
    from .gammak import psi_point
    from .zetak import (ZetaKSpec, zeta_k, zeta_k_dk, zeta_k_dk_printed_variant,
                        zeta_k_ds_at_zero, zeta_k_identity_trigamma)
    out = []
    grid = [(k, x) for k in (0.5, 1.0, 2.0) for x in (0.5, 1.0, 2.5)]

    dev = 0.0
    for s in (2.0, 3.0):
        for k, x in grid:
            lhs = (zeta_k(ZetaKSpec(k, x, s), profile).value
                   - zeta_k(ZetaKSpec(k, x + k, s), profile).value)
            dev = max(dev, abs(lhs - x ** (-s)) / x ** (-s))
    out.append(_check("shift-telescoping", dev, 1e-10))

    dev = 0.0
    for s in (-0.5, 0.3, 2.5):
        for k, x in grid:
            lhs = zeta_k(ZetaKSpec(k, x, s), profile).value
            rhs = k ** (-s) * zeta_k(ZetaKSpec(1.0, x / k, s), profile).value
            dev = max(dev, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    out.append(_check("scaling-to-classical", dev, 1e-12))

    dev = 0.0
    for k, x in grid:
        lhs, rhs = zeta_k_identity_trigamma(k, x, profile)
        dev = max(dev, abs(lhs - rhs) / abs(rhs))
    out.append(_check("trigamma-identity", dev, 1e-9))

    dev, sign_gap = 0.0, 0.0
    for k, x in grid:
        comp = zeta_k_ds_at_zero(k, x, profile).value
        psi_xx = psi_point(k, x, profile).psi_xx
        dev = max(dev, abs(comp - psi_xx) / psi_xx)
        sign_gap = max(sign_gap, abs((comp + psi_xx) / (2.0 * psi_xx) - 1.0))
    out.append(_check("s0-derivative-composite/positive-sign", dev, 1e-3))
    out.append(_check("s0-derivative-composite/flipped-sign-gap-is-2x", sign_gap, 1e-3))

    dev = 0.0
    for k, x, s in [(1.0, 1.0, 3.0), (2.0, 1.0, 2.5), (0.5, 2.5, 2.2)]:
        got = zeta_k_dk(ZetaKSpec(k, x, s), 1, profile).value
        fd = _fd(lambda t: zeta_k(ZetaKSpec(t, x, s), profile).value, k, 1e-5 * k)
        dev = max(dev, abs(got - fd) / abs(fd))
    out.append(_check("termwise-dk-m1-vs-fd", dev, 1e-5))

    dev = 0.0
    for k, x, s in [(1.0, 2.0, 3.0), (2.0, 1.0, 2.5)]:
        got = zeta_k_dk(ZetaKSpec(k, x, s), 2, profile).value
        h = 1e-4 * k
        f = lambda t: zeta_k(ZetaKSpec(t, x, s), profile).value
        fd = (f(k + h) - 2.0 * f(k) + f(k - h)) / (h * h)
        dev = max(dev, abs(got - fd) / abs(fd))
    out.append(_check("termwise-dk-m2-vs-fd", dev, 1e-3))

    dev = 0.0
    for m, k, x, s in [(1, 1.0, 2.0, 3.0), (1, 2.0, 0.5, 2.5), (2, 1.0, 2.0, 3.0)]:
        spec = ZetaKSpec(k, x, s)
        true_v = zeta_k_dk(spec, m, profile).value
        printed = zeta_k_dk_printed_variant(spec, m, profile).value
        predicted = -((-1.0) ** m) * x * true_v
        dev = max(dev, abs(printed - predicted) / abs(predicted))
    out.append(_check("printed-dk-form-gap-is-factor-minus-signed-x", dev, 1e-12))
    return out


def suite_hyper(profile: PrecisionProfile = DEFAULT) -> list[CheckResult]:
    import random
    from .hypergeometric import (HypergeometricSpec, classify, coefficient, evaluate,
                                 integral_representation_check, ode_residual,
                                 transfer_classical)
    from .pochhammer import PochhammerSpec, pochhammer_k
    out = []

    dev = 0.0
    for a in (1.0, 2.0, 3.5):
        for k in (1.0, 2.0):
            spec = HypergeometricSpec((a,), (k,), (), ())
            for x in (0.1, -0.1, 0.4 / k, -0.4 / k):
                want = (1.0 - k * x) ** (-a / k)
                dev = max(dev, abs(evaluate(spec, x, profile).value - want) / want)
    out.append(_check("binomial-collapse", dev, 1e-10))

    rng = random.Random(SEED)
    dev = 0.0
    made = 0
    while made < 20:
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        if p > q + 1:
            continue
        spec = HypergeometricSpec(
            tuple(rng.uniform(0.3, 4.0) for _ in range(p)),
            tuple(rng.uniform(0.3, 4.0) for _ in range(p)),
            tuple(rng.uniform(0.3, 4.0) for _ in range(q)),
            tuple(rng.uniform(0.3, 4.0) for _ in range(q)))
        made += 1
        cls = classify(spec)
        x = (rng.uniform(-1.5, 1.5) if cls.kind == "entire"
             else rng.uniform(-0.9, 0.9) * cls.radius)
        dev = max(dev, _combined_error_units(
            [evaluate(spec, x, profile), transfer_classical(spec, x, profile)]))
    out.append(_check("transfer-20-seeded/combined-error-units", dev, 1.0))

    rng = random.Random(SEED + 1)
    dev = 0.0
    made = 0
    while made < 10:
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        spec = HypergeometricSpec(
            tuple(rng.uniform(0.3, 4.0) for _ in range(p)),
            tuple(rng.uniform(0.3, 4.0) for _ in range(p)),
            tuple(rng.uniform(0.3, 4.0) for _ in range(q)),
            tuple(rng.uniform(0.3, 4.0) for _ in range(q)))
        made += 1
        dev = max(dev, ode_residual(spec, 15))
    out.append(_check("ode-coefficient-residual-deg15", dev, 1e-12))

    dev = 0.0
    for a, k, b, s, x in [(1.0, 1.0, 2.0, 1.0, 0.5), (2.0, 2.0, 3.0, 2.0, 1.0)]:
        spec = HypergeometricSpec((a,), (k,), (b,), (s,))
        got = integral_representation_check(spec, x, profile).value
        want = evaluate(spec, x, profile).value
        dev = max(dev, abs(got - want) / abs(want))
    out.append(_check("integral-representation-p1", dev, 1e-8))

    spec = HypergeometricSpec((1.0, 2.0), (2.0, 2.0), (2.0, 3.0), (1.0, 2.0))
    got = integral_representation_check(spec, 0.8, profile).value
    want = evaluate(spec, 0.8, profile).value
    out.append(_check("integral-representation-p2-even-steps",
                      abs(got - want) / abs(want), 1e-7))

    spec = HypergeometricSpec((1.0, 1.0), (1.0, 2.0), (3.0,), (3.0,))
    r = classify(spec).radius
    ok = math.isfinite(evaluate(spec, 0.9 * r, profile).value)
    for bad in (r, 1.1 * r):
        try:
            evaluate(spec, bad, profile)
            ok = False
        except OutsideRadius:
            pass
    try:
        evaluate(HypergeometricSpec((1.0,) * 3, (1.0,) * 3, (), ()), 0.01, profile)
        ok = False
    except DivergentSeries:
        pass
    out.append(_check("radius-and-divergence-refusal", 0.0 if ok else 1.0, 0.0))

    exact_ok = True
    for a, ka, b, sb in [(2, 1, 3, 1), (3, 2, 4, 1), (1, 3, 2, 2)]:
        spec = HypergeometricSpec((Fraction(a),), (Fraction(ka),),
                                  (Fraction(b),), (Fraction(sb),))
        for n in range(6):
            up = pochhammer_k(PochhammerSpec(Fraction(a), n, Fraction(ka)))
            dn = pochhammer_k(PochhammerSpec(Fraction(b), n, Fraction(sb)))
            if coefficient(spec, n) * dn != up:
                exact_ok = False
    out.append(_check("coefficient-rational-exact", 0.0 if exact_ok else 1.0, 0.0))
    return out


def suite_forests(profile: PrecisionProfile = DEFAULT) -> list[CheckResult]:
    from .forests import (ForestFamily, count, derivative_ratio,
                          enumerate_forests, serialize_forest)
    from .hypergeometric import HypergeometricSpec, coefficient
    from .pochhammer import PochhammerSpec, pochhammer_k
    out = []
    ok = True
    for a in (1, 2, 3):
        for k in (1, 2, 3):
            for n in range(5):
                family = ForestFamily(a, n, k)
                # serialize_forest validates each forest, and its text ends
                # with the tail count: one call per forest checks all three
                texts = [serialize_forest(f) for f in enumerate_forests(family)]
                tails = f"tails={a + n * k}\n"
                if (len(texts) != count(family) or len(set(texts)) != len(texts)
                        or not all(t.endswith(tails) for t in texts)):
                    ok = False
                if count(family) != pochhammer_k(PochhammerSpec(a, n, k)):
                    ok = False
    out.append(_check("enumeration-count-distinct-invariants",
                      0.0 if ok else 1.0, 0.0))

    ok = True
    for a, k, b, s in [((2,), (1,), (3,), (1,)), ((3, 2), (2, 1), (4,), (1,)),
                       ((4,), (2,), (), ())]:
        hspec = HypergeometricSpec(
            tuple(Fraction(v) for v in a), tuple(Fraction(v) for v in k),
            tuple(Fraction(v) for v in b), tuple(Fraction(v) for v in s))
        for n in range(6):
            if derivative_ratio(a, k, b, s, n) != coefficient(hspec, n):
                ok = False
    out.append(_check("derivative-ratio-equals-coefficient", 0.0 if ok else 1.0, 0.0))

    ok = False
    try:
        list(enumerate_forests(ForestFamily(3, 9, 2), cap=1000))
    except CapExceeded as exc:
        ok = exc.count == 654729075
    out.append(_check("cap-exceeded-carries-exact-count", 0.0 if ok else 1.0, 0.0))
    return out


def suite_pde(profile: PrecisionProfile = DEFAULT) -> list[CheckResult]:
    from .gammak import pde_residual, pde_residual_variant, psi_point
    out = []
    dev, gap = 0.0, 0.0
    for k in (0.5, 1.0, 2.0):
        for x in (0.7, 1.0, 3.0):
            p = psi_point(k, x, profile)
            dev = max(dev, abs(pde_residual(p)))
            gap = max(gap, abs(pde_residual_variant(p) - k * (x - 1.0)))
    out.append(_check("balanced-rhs-residual", dev, 1e-4))
    out.append(_check("variant-rhs-gap-equals-k(x-1)", gap, 1e-4))
    return out


def suite_stirling(profile: PrecisionProfile = DEFAULT) -> list[CheckResult]:
    from .gammak import GammaKEvaluator, gamma_k_stirling
    out = []
    dec_dev, bound_dev = 0.0, 0.0
    for k in (1.0, 2.0, 3.0):
        ev = GammaKEvaluator(k, profile)
        prev = None
        for x in (10.0, 20.0, 40.0, 80.0):
            exact = ev.scaling(x + 1.0).value
            rel = abs(exact - gamma_k_stirling(k, x)) / exact
            bound_dev = max(bound_dev, rel * x)
            if prev is not None:
                dec_dev = max(dec_dev, rel - prev)
            prev = rel
    out.append(_check("leading-term-error-decreasing", dec_dev, 0.0))
    out.append(_check("rel-error-times-x-bounded", bound_dev, 0.12))
    return out


SUITES = {
    "gamma": suite_gamma,
    "beta": suite_beta,
    "zeta": suite_zeta,
    "hyper": suite_hyper,
    "forests": suite_forests,
    "pde": suite_pde,
    "stirling": suite_stirling,
}


def run_suite(name: str, profile: PrecisionProfile = DEFAULT
              ) -> list[tuple[str, CheckResult]]:
    """Run one suite (or "all") and return (suite, check) pairs in a fixed
    deterministic order."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{['all', *SUITES]}")
    return [(s, r) for s in names for r in SUITES[s](profile)]

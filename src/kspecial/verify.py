"""Named verification suites over every identity the package implements.

Each check runs a family of evaluations, records the worst observed
deviation against a pinned tolerance, and reports pass/fail. Checks are
named by their mathematical content. Deviations are relative unless the
name says otherwise; structural checks (exactness, raise behavior) use
dev 0/1 with tol 0. A nan deviation makes its check's max_dev nan and
fails the check: a running max() would drop it (max(0.0, nan) is 0.0).

Suites: gamma (incl. the Pochhammer-symbol identities), beta, zeta, hyper,
forests, pde, stirling; "all" runs them in that order with fixed seeds, so
consecutive runs produce identical reports.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from .errors import CapExceeded, DivergentSeries, InvariantViolation, OutsideRadius
from .profiles import DEFAULT, EvalResult, PrecisionProfile
from .quadrature import quad_halfline

GRID_K = (0.5, 1.0, 2.0, 3.0)
GRID_X = (0.3, 1.0, 2.5, 7.0)
SEED = 20240817


class CheckResult(NamedTuple):
    name: str
    max_dev: float
    tol: float
    passed: bool


def _max_dev(devs) -> float:
    """The largest of devs, folded from 0.0 in order; nan once one is nan."""
    worst = 0.0
    for d in devs:
        if math.isnan(d):
            return math.nan
        worst = max(worst, d)
    return worst


def _worst(name: str, tol: float, devs) -> CheckResult:
    worst = _max_dev(devs)
    return CheckResult(name, worst, tol, worst <= tol)


def _holds(name: str, ok: bool) -> CheckResult:
    """A structural check: dev 0 if ok holds, else 1, against tol 0."""
    return CheckResult(name, float(not ok), 0.0, ok)


def _raised(exc_type: type, fn):
    """The exc_type instance that fn() raises, or None if it returns."""
    try:
        fn()
    except exc_type as exc:
        return exc
    return None


def _unless_refused(dev, refused=math.nan):
    """dev(), or refused where dev reads a psi_xx that psi_point refuses
    (InvariantViolation): the rows that read it fail with a nan deviation,
    and the rest of the suite still runs."""
    try:
        return dev()
    except InvariantViolation:
        return refused


def _combined_error_units(rs: list[EvalResult]) -> float:
    """Largest |v_i - v_j| / (e_i + e_j + 1e-12 |v_i|) over the pairs i < j:
    how far two routes disagree, in units of their combined error estimates
    (the 1e-12 relative floor keeps two exact routes from dividing by 0)."""
    return _max_dev(abs(a.value - b.value)
                    / (a.err_estimate + b.err_estimate + 1e-12 * abs(a.value))
                    for a, b in combinations(rs, 2))


def _rel(got: float, want: float, floor: float = 0.0) -> float:
    return abs(got - want) / max(abs(want), floor)


def _fd(f, t: float, h: float) -> float:
    return (f(t + h) - f(t - h)) / (2.0 * h)


def _fd2(f, t: float, h: float) -> float:
    return (f(t + h) - 2.0 * f(t) + f(t - h)) / (h * h)


def suite_gamma(profile: PrecisionProfile = DEFAULT) -> list[CheckResult]:
    """at[k, x] holds the four ROUTES results at the 35 points three families read."""
    from fractions import Fraction

    from .gammak import (ROUTES, gamma_k_integrand, gamma_k_product, gamma_k_scaling,
                         log_gamma_k, psi_point)
    from .pochhammer import (PochhammerSpec, pochhammer_dk, pochhammer_k,
                             pochhammer_rescale, pochhammer_via_symmetric)

    at = {(k, x): {name: r(k, x, profile) for name, r in ROUTES.items()}
          for k in GRID_K for x in {*GRID_X, *(x + k for x in GRID_X), k}}
    # (tag, routes, tol) for Gamma_k(x + k) = x Gamma_k(x) and Gamma_k(k) = 1
    families = (("scaling+integral", ("scaling", "integral"), 1e-9),
                ("limit-richardson", ("limit",), 1e-4),
                ("product-n1e4", ("product",), 1e-5))
    out = [_worst(f"functional-equation/{tag}", tol,
                  (_rel(at[k, x + k][r].value, x * at[k, x][r].value)
                   for k in GRID_K for x in GRID_X for r in routes))
           for tag, routes, tol in families]
    out += [_worst(f"normalization/{tag}", tol,
                   (abs(at[k, k][r].value - 1.0) for k in GRID_K for r in routes))
            for tag, routes, tol in families]

    # Gamma_k(x) Gamma_k(k - x) sin(pi x/k) / pi at x = ratio * k equals 1/k
    refl = [(k, gamma_k_product(k, ratio * k, 10_000).value
             * gamma_k_product(k, k - ratio * k, 10_000).value
             * math.sin(math.pi * ratio) / math.pi)
            for k in (1.0, 2.0) for ratio in (0.25, 0.5, 0.75)]
    half = Fraction(3, 2)
    return out + [
        _worst("reflection-normalized", 1e-8, (abs(k * e - 1.0) for k, e in refl)),
        _worst("reflection-unnormalized-gap-equals-1/k", 1e-8,
               (abs(e - 1.0 / k) for k, e in refl)),
        _worst("scale-transfer", 1e-12,
               (_rel((s / k) ** (x / s - 1.0) * gamma_k_scaling(k, k * x / s).value,
                     gamma_k_scaling(s, x).value)
                for s in GRID_K for k in GRID_K for x in (0.7, 1.0, 2.5))),
        _worst("parameter-a-integral", 1e-9,
               (_rel(a ** (x / k) * quad_halfline(gamma_k_integrand(k, x - 1.0, a),
                                                  profile).value,
                     gamma_k_scaling(k, x).value)
                for a in (0.5, 2.0) for k in (1.0, 2.0) for x in (0.7, 2.5))),
        _holds("log-convexity/psi-xx-positive",  # psi_point refuses psi_xx <= 0
               _raised(InvariantViolation, lambda: [
                   psi_point(k, x, profile) for k in GRID_K for x in GRID_X]) is None),
        _worst("log-convexity/midpoint", 1e-12,
               (log_gamma_k(k, 0.5 * (x1 + x2))
                - 0.5 * (log_gamma_k(k, x1) + log_gamma_k(k, x2))
                for k in GRID_K for x1, x2 in ((0.3, 2.5), (1.0, 7.0)))),
        _worst("route-agreement/combined-error-units", 3.0,
               (_combined_error_units(list(at[k, x].values()))
                for k in GRID_K for x in GRID_X)),
        _holds("pochhammer/symmetric-and-rescale-exact",
               all(pochhammer_via_symmetric(PochhammerSpec(x, n, k))
                   == pochhammer_k(PochhammerSpec(x, n, k))
                   and pochhammer_rescale(x, n, half, k)
                   == pochhammer_k(PochhammerSpec(x, n, half))
                   for x in (Fraction(1, 2), Fraction(1), Fraction(5, 2))
                   for k in (Fraction(1, 2), Fraction(1), half)
                   for n in range(6))),
        _worst("pochhammer/dk-vs-finite-difference", 1e-6,
               (_rel(pochhammer_dk(PochhammerSpec(x, n, k)),
                     _fd(lambda t: pochhammer_k(PochhammerSpec(x, n, t)), k, 1e-6 * k),
                     1e-30)
                for k in (0.5, 1.0, 2.0) for x in (0.7, 1.5, 3.0) for n in (2, 5, 9))),
        _worst("pochhammer/gamma-ratio", 1e-11,
               (_rel(pochhammer_k(PochhammerSpec(x, n, k)),
                     math.exp(log_gamma_k(k, x + n * k) - log_gamma_k(k, x)))
                for k in (0.5, 2.0) for x in (0.3, 1.0, 2.5) for n in (1, 3, 8))),
    ]


def suite_beta(profile: PrecisionProfile = DEFAULT) -> list[CheckResult]:
    """at[spec] holds the four ROUTES results at the 27 specs three checks read."""
    from .betak import ROUTES, BetaKSpec, beta_k_ratio
    at = {s: {name: r(s, profile) for name, r in ROUTES.items()}
          for s in (BetaKSpec(k, x, y) for k in (0.5, 1.0, 2.0)
                    for x in (0.5, 1.0, 2.5) for y in (0.5, 1.0, 2.5))}
    return [
        _worst("four-routes-pairwise/combined-error-units", 3.0,
               (_combined_error_units(list(routes.values())) for routes in at.values())),
        _worst("scaling-collapse", 1e-9,
               (_rel(beta_k_ratio(BetaKSpec(1.0, s.x / s.k, s.y / s.k)).value / s.k,
                     at[s]["ratio"].value) for s in at)),
        _worst("symmetry/halfline-route", 1e-9,
               (_rel(at[BetaKSpec(k, 2.5, 0.5)]["halfline"].value,
                     at[BetaKSpec(k, 0.5, 2.5)]["halfline"].value)
                for k in (0.5, 1.0, 2.0))),
        _worst("first-argument-shift", 1e-11,
               (_rel(beta_k_ratio(BetaKSpec(k, x + k, y)).value,
                     beta_k_ratio(BetaKSpec(k, x, y)).value * x / (x + y))
                for k in (0.5, 2.0) for x, y in [(1.5, 0.8)])),
    ]


def suite_zeta(profile: PrecisionProfile = DEFAULT) -> list[CheckResult]:
    from .zetak import (ZetaKSpec, zeta_k, zeta_k_dk, zeta_k_dk_printed_variant,
                        zeta_k_ds_at_zero, zeta_k_identity_trigamma)
    grid = [(k, x) for k in (0.5, 1.0, 2.0) for x in (0.5, 1.0, 2.5)]

    def zeta(k, x, s):
        return zeta_k(ZetaKSpec(k, x, s), profile).value

    # (zeta_k(x, 2), psi_xx) per grid point, both nan where psi_point refuses
    trigamma = [_unless_refused(lambda: zeta_k_identity_trigamma(k, x, profile),
                                (math.nan, math.nan)) for k, x in grid]
    s0 = [(zeta_k_ds_at_zero(k, x, profile).value, psi_xx)
          for (k, x), (_, psi_xx) in zip(grid, trigamma)]
    return [
        _worst("shift-telescoping", 1e-10,
               (_rel(zeta(k, x, s) - zeta(k, x + k, s), x ** (-s))
                for s in (2.0, 3.0) for k, x in grid)),
        _worst("scaling-to-classical", 1e-12,
               (_rel(k ** (-s) * zeta(1.0, x / k, s), zeta(k, x, s), 1e-30)
                for s in (-0.5, 0.3, 2.5) for k, x in grid)),
        _worst("trigamma-identity", 1e-9,
               (_rel(zeta2, psi_xx) for zeta2, psi_xx in trigamma)),
        _worst("s0-derivative-composite/positive-sign", 1e-3,
               (_rel(comp, psi_xx) for comp, psi_xx in s0)),
        _worst("s0-derivative-composite/flipped-sign-gap-is-2x", 1e-3,
               (abs((comp + psi_xx) / (2.0 * psi_xx) - 1.0) for comp, psi_xx in s0)),
        _worst("termwise-dk-m1-vs-fd", 1e-5,
               (_rel(zeta_k_dk(ZetaKSpec(k, x, s), 1, profile).value,
                     _fd(lambda t: zeta(t, x, s), k, 1e-5 * k))
                for k, x, s in [(1.0, 1.0, 3.0), (2.0, 1.0, 2.5), (0.5, 2.5, 2.2)])),
        _worst("termwise-dk-m2-vs-fd", 1e-3,
               (_rel(zeta_k_dk(ZetaKSpec(k, x, s), 2, profile).value,
                     _fd2(lambda t: zeta(t, x, s), k, 1e-4 * k))
                for k, x, s in [(1.0, 2.0, 3.0), (2.0, 1.0, 2.5)])),
        _worst("printed-dk-form-gap-is-factor-minus-signed-x", 1e-12,
               (_rel(zeta_k_dk_printed_variant(ZetaKSpec(k, x, s), m, profile).value,
                     -((-1.0) ** m) * x * zeta_k_dk(ZetaKSpec(k, x, s), m, profile).value)
                for m, k, x, s in [(1, 1.0, 2.0, 3.0), (1, 2.0, 0.5, 2.5),
                                   (2, 1.0, 2.0, 3.0)])),
    ]


def suite_hyper(profile: PrecisionProfile = DEFAULT) -> list[CheckResult]:
    import random
    from fractions import Fraction

    from .hypergeometric import (HypergeometricSpec, classify, coefficient, evaluate,
                                 integral_representation_check, ode_residual,
                                 transfer_classical)
    from .pochhammer import PochhammerSpec, pochhammer_k

    def seeded_specs(seed: int, count: int, convergent: bool):
        """count random specs (p <= q + 1 when convergent), each yielded
        with the generator so the caller draws its x before the next spec."""
        rng = random.Random(seed)
        for _ in range(count):
            p, q = rng.randint(0, 3), rng.randint(0, 3)
            while convergent and p > q + 1:
                p, q = rng.randint(0, 3), rng.randint(0, 3)
            yield rng, HypergeometricSpec(*(tuple(rng.uniform(0.3, 4.0) for _ in range(m))
                                            for m in (p, p, q, q)))

    def transfer_units(rng, spec):
        cls = classify(spec)
        x = (rng.uniform(-1.5, 1.5) if cls.kind == "entire"
             else rng.uniform(-0.9, 0.9) * cls.radius)
        return _combined_error_units(
            [evaluate(spec, x, profile), transfer_classical(spec, x, profile)])

    def integral_rep(spec, x):
        return _rel(integral_representation_check(spec, x, profile).value,
                    evaluate(spec, x, profile).value)

    def refused(exc_type, spec, x):
        return _raised(exc_type, lambda: evaluate(spec, x, profile)) is not None

    def coefficient_exact(a, ka, b, sb):
        spec = HypergeometricSpec((a,), (ka,), (b,), (sb,))
        return all(coefficient(spec, n) * pochhammer_k(PochhammerSpec(b, n, sb))
                   == pochhammer_k(PochhammerSpec(a, n, ka)) for n in range(6))

    disk = HypergeometricSpec((1.0, 1.0), (1.0, 2.0), (3.0,), (3.0,))
    r = classify(disk).radius
    return [
        _worst("binomial-collapse", 1e-10,
               (_rel(evaluate(HypergeometricSpec((a,), (k,), (), ()), x, profile).value,
                     (1.0 - k * x) ** (-a / k))
                for a in (1.0, 2.0, 3.5) for k in (1.0, 2.0)
                for x in (0.1, -0.1, 0.4 / k, -0.4 / k))),
        _worst("transfer-20-seeded/combined-error-units", 1.0,
               (transfer_units(*drawn) for drawn in seeded_specs(SEED, 20, True))),
        _worst("ode-coefficient-residual-deg15", 1e-12,
               (ode_residual(s, 15) for _, s in seeded_specs(SEED + 1, 10, False))),
        _worst("integral-representation-p1", 1e-8,
               (integral_rep(HypergeometricSpec((a,), (k,), (b,), (s,)), x)
                for a, k, b, s, x in [(1.0, 1.0, 2.0, 1.0, 0.5),
                                      (2.0, 2.0, 3.0, 2.0, 1.0)])),
        _worst("integral-representation-p2-even-steps", 1e-7,
               [integral_rep(HypergeometricSpec((1.0, 2.0), (2.0, 2.0),
                                                (2.0, 3.0), (1.0, 2.0)), 0.8)]),
        _holds("radius-and-divergence-refusal",
               math.isfinite(evaluate(disk, 0.9 * r, profile).value)
               and refused(OutsideRadius, disk, r) and refused(OutsideRadius, disk, 1.1 * r)
               and refused(DivergentSeries,
                           HypergeometricSpec((1.0,) * 3, (1.0,) * 3, (), ()), 0.01)),
        _holds("coefficient-rational-exact",
               all(coefficient_exact(*map(Fraction, row))
                   for row in [(2, 1, 3, 1), (3, 2, 4, 1), (1, 3, 2, 2)])),
    ]


def suite_forests(profile: PrecisionProfile = DEFAULT) -> list[CheckResult]:
    """Through the forests API alone, per family: every forest validated; the
    forest count, count(family), (a)_{n,k} and the number of distinct nodes of
    forests carrying the family's a, n and k all equal; one text round trip."""
    from fractions import Fraction

    from .forests import (ForestFamily, count, derivative_ratio, enumerate_forests,
                          parse_forest, serialize_forest, validate_forest)
    from .hypergeometric import HypergeometricSpec, coefficient
    from .pochhammer import PochhammerSpec, pochhammer_k

    def family_ok(a, n, k):
        family = ForestFamily(a, n, k)
        forests = list(enumerate_forests(family))
        for f in forests:
            validate_forest(f)
        back = parse_forest(serialize_forest(forests[-1]))   # its k is 1 at n = 0
        return (len(forests) == count(family) == pochhammer_k(PochhammerSpec(a, n, k))
                == len({f.nodes for f in forests if (f.a, len(f.nodes), f.k) == family})
                and (back.a, back.nodes) == (a, forests[-1].nodes))

    capped = _raised(CapExceeded, lambda: list(
        enumerate_forests(ForestFamily(3, 9, 2), cap=1000)))
    return [
        _holds("enumeration-count-distinct-invariants",
               all(family_ok(a, n, k) for a in (1, 2, 3) for k in (1, 2, 3)
                   for n in range(5))),
        _holds("derivative-ratio-equals-coefficient",
               all(derivative_ratio(a, k, b, s, n) == coefficient(
                   HypergeometricSpec(*(tuple(map(Fraction, v)) for v in (a, k, b, s))), n)
                   for a, k, b, s in [((2,), (1,), (3,), (1,)),
                                      ((3, 2), (2, 1), (4,), (1,)),
                                      ((4,), (2,), (), ())]
                   for n in range(6))),
        _holds("cap-exceeded-carries-exact-count",
               capped is not None and capped.count == 654729075),
    ]


def suite_pde(profile: PrecisionProfile = DEFAULT) -> list[CheckResult]:
    from .gammak import pde_residual, pde_residual_variant, psi_point

    def residuals(k, x):
        p = psi_point(k, x, profile)
        return abs(pde_residual(p)), abs(pde_residual_variant(p) - p.k * (p.x - 1.0))

    devs = [_unless_refused(lambda: residuals(k, x), (math.nan, math.nan))
            for k in (0.5, 1.0, 2.0) for x in (0.7, 1.0, 3.0)]
    return [
        _worst("balanced-rhs-residual", 1e-4, (d for d, _ in devs)),
        _worst("variant-rhs-gap-equals-k(x-1)", 1e-4, (g for _, g in devs)),
    ]


def suite_stirling(profile: PrecisionProfile = DEFAULT) -> list[CheckResult]:
    from .gammak import gamma_k_scaling, gamma_k_stirling
    xs = (10.0, 20.0, 40.0, 80.0)
    # relative error of the leading Stirling term, one row per k
    rels = [[_rel(gamma_k_stirling(k, x), gamma_k_scaling(k, x + 1.0).value)
             for x in xs] for k in (1.0, 2.0, 3.0)]
    return [
        _worst("leading-term-error-decreasing", 0.0,
               (b - a for row in rels for a, b in zip(row, row[1:]))),
        _worst("rel-error-times-x-bounded", 0.12,
               (rel * x for row in rels for rel, x in zip(row, xs))),
    ]


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

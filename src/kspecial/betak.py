"""The k-beta function B_k(x, y) = Gamma_k(x) Gamma_k(y) / Gamma_k(x + y).

Four independent routes, kept separate so they can cross-check:

  ratio      exp(log Gamma_k(x) + log Gamma_k(y) - log Gamma_k(x+y))
  halfline   int_0^inf t^(x-1) (1 + t^k)^(-(x+y)/k) dt
  unit       (1/k) int_0^1 t^(x/k - 1) (1 - t)^(y/k - 1) dt
  product    ((x+y)/(x y)) prod_{n>=1} (1 + (x+y)/(nk)) / ((1+x/(nk))(1+y/(nk)))

All routes require k, x, y > 0. The product route reads Gamma_k's
Weierstrass sum at x, y and x+y, whose tail through fourth order brings
N = 10^4 terms to ~1e-12 relative accuracy for moderate arguments.

ROUTES maps each name to a call at (spec, profile), as gammak.ROUTES does.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, as_float, exp_or_overflow
from .gammak import _require_k, _weierstrass_sum, log_gamma_k
from .profiles import DEFAULT, EvalResult, PrecisionProfile
from .quadrature import quad_halfline, quad_unit


class BetaKSpec(NamedTuple("BetaKSpec", [("k", float), ("x", float), ("y", float)])):
    __slots__ = ()

    def __new__(cls, k, x, y):
        if not (type(k) is type(x) is type(y) is float):
            k, x, y = as_float("k", k), as_float("x", x), as_float("y", y)
        _require_k(k)
        if not (0.0 < x < math.inf and 0.0 < y < math.inf):
            raise DomainError(f"B_k needs finite x, y > 0, got x={x}, y={y}")
        return tuple.__new__(cls, (k, x, y))


def beta_k_ratio(spec: BetaKSpec) -> EvalResult:
    la = log_gamma_k(spec.k, spec.x)
    lb = log_gamma_k(spec.k, spec.y)
    lc = log_gamma_k(spec.k, spec.x + spec.y)
    rel = 5e-15 * (2.0 + abs(la) + abs(lb) + abs(lc))
    if not rel < 1.0:
        # the logs leave no digit of B_k (or pass the float range): 0.0 where
        # B_k certainly underflows, ResultOverflow where it overflows
        if _require_below_overflow(spec) + math.log(2.0) < -745.2:
            return EvalResult(0.0, 0.0, "scaling", 0)
        raise DomainError(f"B_k({spec.x}, {spec.y}) with k={spec.k}: log Gamma_k terms "
                          f"{la:.6g}, {lb:.6g}, {lc:.6g} cancel past every digit")
    v = exp_or_overflow(la + lb - lc, "B_k", spec.k, spec.x, spec.y)
    return EvalResult(v, v * rel, "scaling", 0)


def beta_k_integral_halfline(spec: BetaKSpec,
                             profile: PrecisionProfile = DEFAULT) -> EvalResult:
    import numpy as np

    _require_below_overflow(spec)
    k, x, y = spec.k, spec.x, spec.y
    power = (x + y) / k

    def integrand(t: np.ndarray) -> np.ndarray:
        lt = np.log(t)
        e = k * lt
        # above the exp range, log(1 + t^k) is k log t to below double eps
        lp = np.where(e > 700.0, e, np.log1p(np.exp(np.minimum(e, 700.0))))
        w = (x - 1.0) * lt - power * lp
        return np.where(w <= -745.0, 0.0, np.exp(w))   # a nan w stays nan

    return quad_halfline(integrand, profile)


def beta_k_integral_unit(spec: BetaKSpec,
                         profile: PrecisionProfile = DEFAULT) -> EvalResult:
    """(1/k) * classical Beta integral at (x/k, y/k).

    Exponents very close to -1 (x/k or y/k below ~0.05) can overflow the
    integrand at the extreme tanh-sinh nodes before the weight underflows;
    that surfaces as DomainError from the driver. Use the ratio or halfline
    route in that regime.
    """
    import numpy as np

    _require_below_overflow(spec)
    k = spec.k
    p = spec.x / k - 1.0
    q = spec.y / k - 1.0

    def integrand(t: np.ndarray, omt: np.ndarray) -> np.ndarray:
        w = p * np.log(t) + q * np.log(omt)
        return np.where(w <= -745.0, 0.0, np.exp(w))   # a nan w stays nan

    r = quad_unit(integrand, profile)
    return EvalResult(r.value / k, r.err_estimate / k, "integral",
                      r.terms_or_nodes_used)


def beta_k_product(spec: BetaKSpec, n_terms: int = 10_000) -> EvalResult:
    """log((x+y)/(x y)) + W_c - W_a - W_b + the tails, from _weierstrass_sum
    at (a, b, c) = (x, y, x+y)/k: Gamma_k's product at x, y and x+y without
    the heads -q log k + q gamma, which cancel in c - a - b but round in
    c |log k|. For c < N; beyond, ResultOverflow as beta_k_ratio raises it
    where B_k(x, y) overflows, else DomainError. The relative err_estimate
    adds the signed fifth orders, combined, the three W's rounding and exp's,
    4.5e-16 (1 + |log B_k|)."""
    k, x, y = spec.k, spec.x, spec.y
    if n_terms < 10:
        raise DomainError(f"product route needs n_terms >= 10, got {n_terms}")
    c = (x + y) / k
    if not c < n_terms:
        _require_below_overflow(spec)
        raise DomainError(
            f"product route needs (x+y)/k < n_terms = {n_terms}, where its "
            f"tail series converges; got (x+y)/k = {c:.6g}")
    w, _, t, f, r = zip(*(_weierstrass_sum(q, n_terms) for q in (c, x / k, y / k)))
    # log(x+y) - log x - log y as three terms: x*y underflows to 0 when both
    # are tiny, though B_k itself is finite there
    log_v = math.fsum([math.log(x + y), -math.log(x), -math.log(y), w[0], -w[1], -w[2]])
    log_v += t[0] - t[1] - t[2]
    v = exp_or_overflow(log_v, "B_k", k, x, y)
    rel = abs(f[0] - f[1] - f[2]) + 1e-13 + sum(r) + 4.5e-16 * (1.0 + abs(log_v))
    return EvalResult(v, v * rel, "product", n_terms)


def _require_below_overflow(spec: BetaKSpec) -> float:
    """L = log Gamma_k(lo) - (lo/k) log hi, lo, hi = min, max(x, y), after
    beta_k_ratio's ResultOverflow where B_k(x, y) exceeds the largest double.
    log B_k = L + O(lo/hi), and B_k overflows only where lo < ~1e-308, where
    lo/hi is below rounding unless hi < ~1e-295. Wendel's inequality (Amer.
    Math. Monthly 55, 1948), B(a, b) <= 2 Gamma(a) b^(-a) for a <= b, gives
    log B_k <= L + log 2: below the float range, B_k underflows."""
    lo, hi = sorted((spec.x, spec.y))
    bound = log_gamma_k(spec.k, lo) - (lo / spec.k) * math.log(hi)
    if bound != bound:   # inf - inf, where lo/k is so large that L < -lo/k
        return -math.inf
    exp_or_overflow(bound, "B_k", spec.k, spec.x, spec.y)
    return bound


# as gammak.ROUTES: each entry looks its route up by name when called
ROUTES = {
    "ratio": lambda spec, profile: beta_k_ratio(spec),
    "halfline": lambda spec, profile: beta_k_integral_halfline(spec, profile),
    "unit": lambda spec, profile: beta_k_integral_unit(spec, profile),
    "product": lambda spec, profile: beta_k_product(spec),
}


def beta_k(spec: BetaKSpec) -> EvalResult:
    """The ratio route, as kbench's point-eval calls it; ROUTES is the API."""
    return beta_k_ratio(spec)

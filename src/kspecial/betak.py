"""The k-beta function B_k(x, y) = Gamma_k(x) Gamma_k(y) / Gamma_k(x + y).

Four independent routes, kept separate so they can cross-check:

  ratio      exp(log Gamma_k(x) + log Gamma_k(y) - log Gamma_k(x+y))
  halfline   int_0^inf t^(x-1) (1 + t^k)^(-(x+y)/k) dt
  unit       (1/k) int_0^1 t^(x/k - 1) (1 - t)^(y/k - 1) dt
  product    ((x+y)/(x y)) prod_{n>=1} (1 + (x+y)/(nk)) / ((1+x/(nk))(1+y/(nk)))

All routes require k, x, y > 0. The product route restores the truncated
tail through fourth order in 1/(nk), which brings N = 10^4 terms to ~1e-12
relative accuracy for moderate arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, exp_or_overflow
from .gammak import log_gamma_k
from .hurwitz import power_tail_sums
from .profiles import DEFAULT, EvalResult, PrecisionProfile
from .quadrature import quad_halfline, quad_unit


@dataclass(frozen=True, slots=True)
class BetaKSpec:
    k: float
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (self.k > 0.0):
            raise DomainError(f"k must be > 0, got {self.k}")
        if not (self.x > 0.0 and self.y > 0.0):
            raise DomainError(
                f"B_k needs x, y > 0, got x={self.x}, y={self.y}")


def beta_k_ratio(spec: BetaKSpec) -> EvalResult:
    la = log_gamma_k(spec.k, spec.x)
    lb = log_gamma_k(spec.k, spec.y)
    lc = log_gamma_k(spec.k, spec.x + spec.y)
    v = exp_or_overflow(la + lb - lc, "B_k", spec.k, spec.x, spec.y)
    err = abs(v) * 5e-15 * (2.0 + abs(la) + abs(lb) + abs(lc))
    return EvalResult(v, err, "scaling", 0)


def beta_k_integral_halfline(spec: BetaKSpec,
                             profile: PrecisionProfile = DEFAULT) -> EvalResult:
    k, x, y = spec.k, spec.x, spec.y
    power = (x + y) / k

    def integrand(t: float) -> float:
        lt = math.log(t)
        e = k * lt
        # above the exp range, log(1 + t^k) is k log t to below double eps
        lp = e if e > 700.0 else math.log1p(math.exp(e))
        w = (x - 1.0) * lt - power * lp
        return math.exp(w) if w > -745.0 else 0.0

    return quad_halfline(integrand, profile)


def beta_k_integral_unit(spec: BetaKSpec,
                         profile: PrecisionProfile = DEFAULT) -> EvalResult:
    """(1/k) * classical Beta integral at (x/k, y/k).

    Exponents very close to -1 (x/k or y/k below ~0.05) can overflow the
    integrand at the extreme tanh-sinh nodes before the weight underflows;
    that surfaces as DomainError from the driver. Use the ratio or halfline
    route in that regime.
    """
    k = spec.k
    p = spec.x / k - 1.0
    q = spec.y / k - 1.0

    def integrand(t: float, omt: float) -> float:
        w = p * math.log(t) + q * math.log(omt)
        return math.exp(w) if w > -745.0 else 0.0

    r = quad_unit(integrand, profile)
    return EvalResult(r.value / k, r.err_estimate / k, "integral",
                      r.terms_or_nodes_used)


def beta_k_product(spec: BetaKSpec, n_terms: int = 10_000) -> EvalResult:
    """Truncated product with the tail of
        sum_n [log(1 + (x+y)w) - log(1 + xw) - log(1 + yw)],  w = 1/(nk),
    restored through w^4: the linear terms cancel and the expansion gives
        -xy w^2 + xy(x+y) w^3 + (x^4 + y^4 - (x+y)^4)/4 w^4 + ...
    err_estimate comes from the first dropped (w^5) order.
    """
    k, x, y = spec.k, spec.x, spec.y
    if n_terms < 10:
        raise DomainError(f"product route needs n_terms >= 10, got {n_terms}")
    s = x + y
    nk = k * np.arange(1, n_terms + 1, dtype=np.float64)
    terms = np.log1p(s / nk) - np.log1p(x / nk) - np.log1p(y / nk)
    log_v = math.fsum([math.log(s / (x * y)), *terms.tolist()])
    s2, s3, s4, s5 = power_tail_sums(n_terms)
    log_v += (-(x * y / k ** 2) * s2
              + (x * y * s / k ** 3) * s3
              + ((x ** 4 + y ** 4 - s ** 4) / (4.0 * k ** 4)) * s4)
    v = exp_or_overflow(log_v, "B_k", k, x, y)
    c5 = abs(s ** 5 - x ** 5 - y ** 5) / (5.0 * k ** 5)
    return EvalResult(v, abs(v) * (c5 * s5 + 1e-13), "product", n_terms)


_ROUTES = ("ratio", "halfline", "unit", "product")


def beta_k(spec: BetaKSpec, method: str = "ratio",
           profile: PrecisionProfile = DEFAULT,
           n_terms: int = 10_000) -> EvalResult:
    if method == "ratio":
        return beta_k_ratio(spec)
    if method == "halfline":
        return beta_k_integral_halfline(spec, profile)
    if method == "unit":
        return beta_k_integral_unit(spec, profile)
    if method == "product":
        return beta_k_product(spec, n_terms)
    raise ValueError(f"unknown B_k route {method!r}; choose from {_ROUTES}")

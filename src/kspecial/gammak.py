"""The k-gamma function Gamma_k and its surroundings.

Gamma_k(x) interpolates (x)_{n,k}: Gamma_k(x+k) = x Gamma_k(x), with
Gamma_k(k) = 1 and poles on {0, -k, -2k, ...}. Four computational routes
are exposed and deliberately kept independent so they can cross-check each
other:

  scaling   k^(x/k - 1) Gamma(x/k)                       (closed reference)
  integral  int_0^inf t^(x-1) exp(-t^k/k) dt              (DE quadrature)
  limit     lim_n  n! k^n (nk)^(x/k-1) / (x)_{n,k}        (O(1/n) slow)
  product   reciprocal Weierstrass-type product           (tail-corrected)

plus the Stirling-type leading term, the k-derivative of Gamma_k(x+1), and
psi = log Gamma_k machinery (series-summed derivatives) feeding a PDE
residual check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResultOverflow, exp_or_overflow
from .loggamma import log_gamma_classic
from .hurwitz import hurwitz_zeta, power_tail_sums
from .pochhammer import PochhammerSpec, log_sum_rounding, pochhammer_k_log
from .profiles import DEFAULT, EULER_GAMMA, EvalResult, PrecisionProfile
from .quadrature import quad_halfline

_LOG_2PI = math.log(2.0 * math.pi)
_EPS = sys.float_info.epsilon
_LOG_MAX = math.log(sys.float_info.max)

# partial-sum length before the Euler-Maclaurin tail takes over in the
# psi_x / psi_k series
_PSI_HEAD = 200


def nearest_pole(k: float, x: float) -> float | None:
    """Nearest point of {0, -k, -2k, ...} if x sits on it (within 1e-12
    lattice units), else None."""
    if x == 0.0:
        return 0.0
    if x > 0.0:
        return None
    m = round(x / k)
    if m <= 0 and abs(x / k - m) <= 1e-12 * max(1.0, abs(m)):
        return m * k
    return None


def _require_off_pole(k: float, x: float) -> None:
    pole = nearest_pole(k, x)
    if pole is not None:
        raise DomainError(
            f"Gamma_k has a pole at x={pole} (k={k})", nearest_pole=pole)


def log_gamma_k(k: float, x: float) -> float:
    """log Gamma_k(x) for x > 0, via the scaling relation."""
    if not (k > 0.0):
        raise DomainError(f"k must be > 0, got {k}")
    if not (x > 0.0):
        raise DomainError(f"log_gamma_k requires x > 0, got {x}",
                          nearest_pole=nearest_pole(k, x) if x <= 0 else None)
    return (x / k - 1.0) * math.log(k) + log_gamma_classic(x / k)


@dataclass(frozen=True, slots=True)
class GammaKEvaluator:
    """Bundles the deformation parameter, precision profile and preferred
    route for Gamma_k evaluations."""

    k: float
    profile: PrecisionProfile = field(default=DEFAULT)
    method: str = "scaling"

    def __post_init__(self) -> None:
        if not (self.k > 0.0):
            raise DomainError(f"k must be > 0, got {self.k}")
        if self.method not in {"scaling", "integral", "limit", "product"}:
            raise ValueError(f"unknown Gamma_k route {self.method!r}")

    def scaling(self, x: float) -> EvalResult:
        return gamma_k_scaling(self, x)

    def integral(self, x: float) -> EvalResult:
        return gamma_k_integral(self, x)

    def limit(self, x: float, n: int) -> EvalResult:
        return gamma_k_limit(self, x, n)

    def product(self, x: float, n_terms: int) -> EvalResult:
        return gamma_k_product(self, x, n_terms)

    def evaluate(self, x: float) -> EvalResult:
        """Dispatch on the configured route with default iteration counts."""
        if self.method == "scaling":
            return self.scaling(x)
        if self.method == "integral":
            return self.integral(x)
        if self.method == "limit":
            return self.limit(x, 100_000)
        return self.product(x, 10_000)


def gamma_k_scaling(ev: GammaKEvaluator, x: float) -> EvalResult:
    v = exp_or_overflow(log_gamma_k(ev.k, x), "Gamma_k", ev.k, x)
    return EvalResult(v, 5e-14 * abs(v) * max(1.0, abs(math.log(max(v, 1e-300)))),
                      "scaling", 0)


def gamma_k_integral(ev: GammaKEvaluator, x: float) -> EvalResult:
    """int_0^inf t^(x-1) exp(-t^k/k) dt, x > 0.

    ResultOverflow when the value exceeds the largest double. With t = e^u
    the integral is int exp(g(u)) du, g(u) = x u - e^(ku)/k, concave with
    maximum g* = (x/k)(log x - 1) at e^(ku) = x. On |u - u*| <= d,
    d = 1/sqrt(kx), g >= g* - e^(kd)/2, so for x >= k (kd <= 1)
        log Gamma_k(x) >= g* + log(2d) - e^(kd)/2,
    and the route raises when that bound exceeds log(DBL_MAX). Below it, an
    integrand or level sum that still overflows is the DomainError of
    quad_halfline: the value may be finite, but this route cannot reach it.
    """
    k = ev.k
    if not (x > 0.0):
        raise DomainError(f"integral route requires x > 0, got {x}",
                          nearest_pole=nearest_pole(k, x))
    if x >= k:
        d = 1.0 / (math.sqrt(k) * math.sqrt(x))
        lower = ((x / k) * (math.log(x) - 1.0) + math.log(2.0 * d)
                 - 0.5 * math.exp(k * d))
        if lower > _LOG_MAX:
            raise ResultOverflow(
                f"Gamma_k({x}) with k={k} overflows a float "
                f"(log value >= {lower:.6g})")

    def integrand(t: float) -> float:
        lt = math.log(t)
        e = k * lt
        if e > 700.0:       # decay factor alone is exp(-huge)
            return 0.0
        w = (x - 1.0) * lt - math.exp(e) / k
        return math.exp(w) if w > -745.0 else 0.0

    r = quad_halfline(integrand, ev.profile)
    return EvalResult(r.value, r.err_estimate, "integral", r.terms_or_nodes_used)


def gamma_k_limit(ev: GammaKEvaluator, x: float, n: int) -> EvalResult:
    """n! k^n (nk)^(x/k - 1) / (x)_{n,k} at finite n; converges O(1/n).

    err_estimate is |iterate(n) - iterate(h)| with h = max(1, n//2), an
    observed-rate proxy for the truncation error, plus the rounding of the
    log-space combination: eps * |iterate(n)| times the sum of |log term|,
    each log-Pochhammer part weighted by pochhammer.log_sum_rounding. The
    log terms are ~log(n!) in size and cancel to log|value|, so their
    rounding is what is left at x = k, where every iterate is exactly 1.

    Each factor is read once: (x)_{n,k} = (x)_{h,k} (x+hk)_{n-h,k}, and the
    first part alone gives iterate(h).
    """
    k = ev.k
    if n < 1:
        raise DomainError(f"limit route needs n >= 1, got {n}")
    _require_off_pole(k, x)
    h = max(1, n // 2)
    head, head_sign = pochhammer_k_log(PochhammerSpec(x, h, k))
    rest, rest_sign = pochhammer_k_log(PochhammerSpec(x + h * k, n - h, k))

    def log_terms(m: int) -> list[float]:
        """log of n! k^n (nk)^(x/k - 1) at n = m, term by term."""
        return [log_gamma_classic(m + 1.0), m * math.log(k),
                (x / k - 1.0) * math.log(m * k)]

    terms = log_terms(n)
    v = head_sign * rest_sign * exp_or_overflow(
        math.fsum([*terms, -head, -rest]), "Gamma_k", k, x)
    scale = math.fsum([*map(abs, terms), log_sum_rounding(h) * abs(head),
                       log_sum_rounding(n - h) * abs(rest)])
    prev = head_sign * exp_or_overflow(math.fsum([*log_terms(h), -head]),
                                       "Gamma_k", k, x)
    return EvalResult(v, abs(v - prev) + _EPS * scale * abs(v), "limit", n)


def gamma_k_product(ev: GammaKEvaluator, x: float, n_terms: int) -> EvalResult:
    """Reciprocal of the truncated product
        1/Gamma_k(x) = x k^(-x/k) e^(x gamma / k) prod_{n=1..N} (1+x/(nk)) e^(-x/(nk)),
    with the tail of sum_n [log(1+q/n) - q/n] (q = x/k) restored through
    fourth order in q/n. Valid off the pole set, including negative x.
    """
    k = ev.k
    if n_terms < 10:
        raise DomainError(f"product route needs n_terms >= 10, got {n_terms}")
    _require_off_pole(k, x)
    q = x / k
    r = q / np.arange(1, n_terms + 1, dtype=np.float64)
    f = 1.0 + r
    zero = np.flatnonzero(f == 0.0)
    if zero.size:
        n = int(zero[0]) + 1
        raise DomainError(f"product factor vanished at n={n}; x on pole lattice",
                          nearest_pole=-n * k)
    # log|1 + q/n| - q/n, through log1p(q/n) where 1 + q/n >= 0.5
    low = f < 0.5
    terms = np.empty(n_terms)
    np.log1p(r, out=terms, where=~low)
    np.log(np.abs(f), out=terms, where=low)
    terms -= r
    sign = 1 if x > 0.0 else -1
    if np.count_nonzero(f < 0.0) % 2:
        sign = -sign
    log_recip = math.fsum([math.log(abs(x)), -q * math.log(k), q * EULER_GAMMA,
                           *terms.tolist()])
    s2, s3, s4, s5 = power_tail_sums(n_terms)
    # tail of sum [log(1+q/n) - q/n] = -q^2/2 S2 + q^3/3 S3 - q^4/4 S4 + ...
    log_recip += -0.5 * q * q * s2 + (q ** 3 / 3.0) * s3 - (q ** 4 / 4.0) * s4
    v = sign * exp_or_overflow(-log_recip, "Gamma_k", k, x)
    err = abs(v) * (abs(q) ** 5 / 5.0 * s5 + 1e-12)
    return EvalResult(v, err, "product", n_terms)


def gamma_k_stirling(k: float, x: float) -> float:
    """Leading Stirling-type term for Gamma_k(x+1):
    sqrt(2 pi) (kx)^(-1/2) x^((x+1)/k) e^(-x/k)."""
    if not (k > 0.0 and x > 0.0):
        raise DomainError(f"stirling term needs k, x > 0, got k={k}, x={x}")
    log_v = (0.5 * _LOG_2PI - 0.5 * math.log(k * x)
             + ((x + 1.0) / k) * math.log(x) - x / k)
    return math.exp(log_v)


def gamma_k_dk(k: float, x: float, profile: PrecisionProfile = DEFAULT) -> EvalResult:
    """d/dk Gamma_k(x+1) =
        (1/k^2) Gamma_k(x+k+1) - (1/k) int_0^inf t^(x+k) log(t) e^(-t^k/k) dt,
    for x > -1 (so the integral converges at 0).

    ResultOverflow when the leading term overflows a float. For large
    (x+1)/k the value is about (log(x+1) - 1) times that term, so it
    overflows too once x + 1 > e^2. An integrand that overflows below that
    is the DomainError of quad_halfline.
    """
    if not (k > 0.0):
        raise DomainError(f"k must be > 0, got {k}")
    if not (x > -1.0):
        raise DomainError(f"gamma_k_dk requires x > -1, got {x}")

    def integrand(t: float) -> float:
        lt = math.log(t)
        e = k * lt
        if e > 700.0:
            return 0.0
        w = (x + k) * lt - math.exp(e) / k
        return lt * math.exp(w) if w > -745.0 else 0.0

    lead = exp_or_overflow(log_gamma_k(k, x + k + 1.0), "Gamma_k", k,
                           x + k + 1.0) / (k * k)
    quad = quad_halfline(integrand, profile)
    v = lead - quad.value / k
    err = quad.err_estimate / k + 5e-14 * abs(lead)
    return EvalResult(v, err, "integral", quad.terms_or_nodes_used)


@dataclass(frozen=True, slots=True)
class PsiPoint:
    """psi = log Gamma_k and its partials at one (k, x), x > 0.

    psi_x and psi_k come from the series representations (head summed
    directly, Euler-Maclaurin tail), psi_xx from the k-zeta connection
    psi_xx = sum_{n>=0} (x+nk)^-2, psi_kk by central difference of psi_k.
    Log-convexity makes psi_xx > 0 a structural invariant.
    """

    k: float
    x: float
    psi: float
    psi_x: float
    psi_xx: float
    psi_k: float
    psi_kk: float

    def __post_init__(self) -> None:
        if not (self.psi_xx > 0.0):
            raise ValueError(f"psi_xx must be positive, got {self.psi_xx}")


def _psi_x_series(k: float, x: float) -> float:
    """-1/x + (log k - gamma)/k - sum_{n>=1} (1/(x+nk) - 1/(nk))."""
    head = 0.0
    for n in range(1, _PSI_HEAD + 1):
        head += 1.0 / (x + n * k) - 1.0 / (n * k)
    a = float(_PSI_HEAD + 1)
    # tail by Euler-Maclaurin on g(t) = 1/(x+tk) - 1/(tk)
    integral = -math.log1p(x / (a * k)) / k
    g_a = 1.0 / (x + a * k) - 1.0 / (a * k)
    g1_a = -k / (x + a * k) ** 2 + 1.0 / (k * a * a)
    g3_a = -6.0 * k ** 3 / (x + a * k) ** 4 + 6.0 / (k * a ** 4)
    tail = integral + 0.5 * g_a - g1_a / 12.0 + g3_a / 720.0
    return -1.0 / x + (math.log(k) - EULER_GAMMA) / k - (head + tail)


def _psi_k_series(k: float, x: float) -> float:
    """(x/k^2) [ (1 - log k + gamma) + sum_{n>=1} (k/(x+nk) - 1/n) ]."""
    head = 0.0
    for n in range(1, _PSI_HEAD + 1):
        head += k / (x + n * k) - 1.0 / n
    a = float(_PSI_HEAD + 1)
    integral = math.log(k) - math.log((x + a * k) / a)
    h_a = k / (x + a * k) - 1.0 / a
    h1_a = -k * k / (x + a * k) ** 2 + 1.0 / (a * a)
    h3_a = -6.0 * k ** 4 / (x + a * k) ** 4 + 6.0 / a ** 4
    tail = integral + 0.5 * h_a - h1_a / 12.0 + h3_a / 720.0
    return (x / (k * k)) * ((1.0 - math.log(k) + EULER_GAMMA) + head + tail)


def psi_point(k: float, x: float, profile: PrecisionProfile = DEFAULT) -> PsiPoint:
    if not (k > 0.0 and x > 0.0):
        raise DomainError(f"psi_point needs k, x > 0, got k={k}, x={x}")
    psi = log_gamma_k(k, x)
    psi_x = _psi_x_series(k, x)
    psi_xx = hurwitz_zeta(2.0, x / k, profile).value / (k * k)
    psi_k = _psi_k_series(k, x)
    h = 1e-5 * k
    psi_kk = (_psi_k_series(k + h, x) - _psi_k_series(k - h, x)) / (2.0 * h)
    return PsiPoint(k=k, x=x, psi=psi, psi_x=psi_x, psi_xx=psi_xx,
                    psi_k=psi_k, psi_kk=psi_kk)


def pde_residual(p: PsiPoint) -> float:
    """Residual of  -k x^2 psi_xx + k^3 psi_kk + 2 k^2 psi_k = -(x + k).

    The left side telescopes through the series for psi to exactly -(x+k):
    the x-part contributes -k x^2 sum_{n>=0}(x+nk)^-2 and k * d/dk(k^2 psi_k)
    contributes -x + k x^2 sum_{n>=1}(x+nk)^-2, so everything cancels except
    the n=0 term, -k, and the -x.
    """
    lhs = (-p.k * p.x * p.x * p.psi_xx + p.k ** 3 * p.psi_kk
           + 2.0 * p.k * p.k * p.psi_k)
    return lhs + (p.x + p.k)


def pde_residual_variant(p: PsiPoint) -> float:
    """Residual against the variant right-hand side -x(k+1).

    That variant agrees with the balanced equation only at x = 1; elsewhere
    this residual equals k(x-1) plus numerical noise. Exposed so the
    discrepancy is demonstrable rather than silently absorbed.
    """
    lhs = (-p.k * p.x * p.x * p.psi_xx + p.k ** 3 * p.psi_kk
           + 2.0 * p.k * p.k * p.psi_k)
    return lhs + p.x * (p.k + 1.0)

"""The k-gamma function Gamma_k and its surroundings.

Gamma_k(x) interpolates (x)_{n,k}: Gamma_k(x+k) = x Gamma_k(x), with
Gamma_k(k) = 1 and poles on {0, -k, -2k, ...}. Four routes, each a function
of (k, x) that refuses k <= 0, are kept independent to cross-check:

  gamma_k_scaling   k^(x/k - 1) Gamma(x/k)                  (closed reference)
  gamma_k_integral  int_0^inf t^(x-1) exp(-t^k/k) dt         (DE quadrature)
  gamma_k_limit     lim_n  n! k^n (nk)^(x/k-1) / (x)_{n,k}   (two Richardson steps)
  gamma_k_product   reciprocal Weierstrass-type product      (tail-corrected)

ROUTES[name](k, x, profile) runs the route named at run time (the CLI's
--method) with its default iteration count. Also here: the Stirling-type
leading term, the k-derivative of Gamma_k(x+1), and psi = log Gamma_k
machinery (series-summed derivatives) feeding a PDE residual.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

from .errors import DomainError, InvariantViolation, ResultOverflow, exp_or_overflow
from .loggamma import log_gamma_classic
from .hurwitz import hurwitz_zeta
from .profiles import DEFAULT, EULER_GAMMA, EvalResult, PrecisionProfile

_LOG_2PI = math.log(2.0 * math.pi)
_EPS = sys.float_info.epsilon
# e - math.e, the rounding of math.e
_E_LOW = 1.4456468917292502e-16

# partial-sum length before the Euler-Maclaurin tail takes over in the
# psi_x / psi_k series
_PSI_HEAD = 200


def __getattr__(name: str):
    # quad_halfline is imported where it runs; as an attribute of this
    # module (read by kbench's tracer test) it resolves to quadrature's
    if name == "quad_halfline":
        from .quadrature import quad_halfline
        return quad_halfline
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def nearest_pole(k: float, x: float) -> float | None:
    """Nearest point of {0, -k, -2k, ...} if x sits on it (within 1e-12
    lattice units), else None."""
    if x == 0.0:
        return 0.0
    if x > 0.0:
        return None
    if x / k == -math.inf:   # past 2^53 lattice units every float is a pole
        return x
    m = round(x / k)
    if m <= 0 and abs(x / k - m) <= 1e-12 * max(1.0, abs(m)):
        return m * k
    return None


def _require_off_pole(k: float, x: float) -> None:
    pole = nearest_pole(k, x)
    if pole is not None:
        raise DomainError(
            f"Gamma_k has a pole at x={pole} (k={k})", nearest_pole=pole)


def _require_k(k: float, x: float = 0.0) -> None:
    """DomainError unless k > 0 and both k and x are finite."""
    if not (k > 0.0):
        raise DomainError(f"k must be > 0, got {k}")
    if k == math.inf:
        raise DomainError("k must be finite, got inf")
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")


def log_gamma_k(k: float, x: float) -> float:
    """log Gamma_k(x) for x > 0, via the scaling relation; -log x where x/k
    is subnormal or 0 (Gamma(q) ~ 1/q), and the Stirling form q (log x - 1) -
    log(k x)/2 + log(2 pi)/2 where the relation's sum is not finite. There
    q (log x - 1) is x (log x - 1)/k where q overflows, and log x - 1, which
    rounds to 0.0 at math.e and its successor, is (x - e)/e to first order."""
    _require_k(k, x)
    if not (x > 0.0):
        raise DomainError(f"log_gamma_k requires x > 0, got {x}",
                          nearest_pole=nearest_pole(k, x) if x <= 0 else None)
    q = x / k
    if q < sys.float_info.min:
        return -math.log(x)
    v = (q - 1.0) * math.log(k) + log_gamma_classic(q)
    if math.isfinite(v):
        return v
    log_x1 = math.log(x) - 1.0 or (x - math.e - _E_LOW) / math.e
    lead = q * log_x1 if q < math.inf else x * log_x1 / k
    return lead - 0.5 * (math.log(k) + math.log(x) - _LOG_2PI)


class GammaKEvaluator(NamedTuple):
    """The scaling route, as kbench's point-eval calls it; ROUTES is the API."""

    k: float

    def evaluate(self, x: float) -> EvalResult:
        return gamma_k_scaling(self.k, x)


def gamma_k_scaling(k: float, x: float) -> EvalResult:
    v = exp_or_overflow(log_gamma_k(k, x), "Gamma_k", k, x)
    return EvalResult(v, 5e-14 * abs(v) * max(1.0, abs(math.log(max(v, 1e-300)))),
                      "scaling", 0)


def _require_below_overflow(k: float, x: float) -> None:
    """gamma_k_scaling's ResultOverflow where |Gamma_k(x)| exceeds the largest
    double, x finite and off the poles; for x < 0 the log is (q - 1) log k +
    lgamma(q), q = x/k (math.lgamma gives log|Gamma| off the poles)."""
    if x > 0.0:
        log_v = log_gamma_k(k, x)
    else:
        q = x / k
        log_v = (q - 1.0) * math.log(k) + math.lgamma(q)
    exp_or_overflow(log_v, "Gamma_k", k, x)


def gamma_k_integrand(k: float, p: float, c: float = 1.0):
    """The array integrand t -> t^p exp(-c t^k / k) on (0, inf), for
    quad_halfline, in log space: 0 where t^k > e^700 (the decay factor alone
    is negligible) or where the log of the product is below -745.
    The integrand of the integral route (p = x - 1), of gamma_k_dk and of
    the parameter-a form int t^(x-1) exp(-a t^k/k) dt = a^(-x/k) Gamma_k(x).
    """
    import numpy as np

    def f(t: np.ndarray) -> np.ndarray:
        lt = np.log(t)
        e = k * lt
        # e is clipped so that the discarded branch does not overflow
        w = p * lt - c * np.exp(np.minimum(e, 700.0)) / k
        return np.where((e > 700.0) | (w <= -745.0), 0.0, np.exp(w))   # a nan w stays nan

    return f


def gamma_k_integral(k: float, x: float,
                     profile: PrecisionProfile = DEFAULT) -> EvalResult:
    """int_0^inf t^(x-1) exp(-t^k/k) dt, x > 0; refuses as gamma_k_scaling
    does. Where the value fits, an integrand or level sum that overflows is
    the DomainError of quad_halfline: this route cannot reach the value."""
    gamma_k_scaling(k, x)
    from .quadrature import quad_halfline
    return quad_halfline(gamma_k_integrand(k, x - 1.0), profile)


def gamma_k_limit(k: float, x: float, n: int = 16_384) -> EvalResult:
    """Gamma_k(x) from the iterates n! k^n (nk)^(q-1) / (x)_{n,k}, q = x/k,
    by two Richardson steps in 1/n.

    One pass over the n factors, split as (x)_{m,k} (x+mk)_{m,k}
    (x+2mk)_{n-2m,k} with m = n//4, gives the iterates at m, 2m and n. The
    value is their Lagrange extrapolation to 1/n = 0, (8 it(n) - 6 it(2m) +
    it(m))/3 when 4 divides n. err_estimate adds three terms:
    - the distance from the one-step value (2 it(n) - it(2m) when 4
      divides n);
    - twice the n^-3 term that two steps leave, from its closed-form
      coefficient (DLMF 5.11.13): near q = 2/3, at n up to ~1,000, the
      n^-2 and n^-3 terms cancel in that distance;
    - the rounding of the log-space sums: eps * |iterate| times the sum of
      |log term|, with pochhammer.log_sum_rounding's bound for each
      log-Pochhammer part, weighted as the iterates are. The log terms are
      ~log(n!) and cancel to log|value|, so at x = k, where every iterate
      is exactly 1, their rounding is all that is left.

    ResultOverflow as gamma_k_scaling raises it. DomainError for n < 4, and
    where q(q-1)/(2m) > 1: there the iterate's error, ~q(q-1)/(2n), is not
    yet an expansion in 1/n.
    """
    _require_k(k, x)
    if n < 4:
        raise DomainError(f"limit route needs n >= 4, got {n}")
    if not math.isfinite(x + n * k):
        raise DomainError(f"limit route needs a finite x + n k, got x={x}, n={n}, k={k}")
    _require_off_pole(k, x)
    _require_below_overflow(k, x)
    q, m = x / k, n // 4
    if q * (q - 1.0) > 2.0 * m:
        raise DomainError(f"limit route needs q(q-1)/(2 floor(n/4)) <= 1, where its "
                          f"1/n expansion has started; got q = x/k = {q:.6g} "
                          f"with n = {n}")
    from .pochhammer import PochhammerSpec, log_sum_rounding, pochhammer_k_log

    # after part i, log|iterate| and its rounding scale at the part's end
    logs, scales, signs = [], [], []
    minus_parts, rounding, sign = [], [], 1
    for lo, hi in ((0, m), (m, 2 * m), (2 * m, n)):
        part, part_sign = pochhammer_k_log(PochhammerSpec(x + lo * k, hi - lo, k))
        minus_parts.append(-part)
        rounding.append(log_sum_rounding(hi - lo, part))
        sign *= part_sign
        terms = [log_gamma_classic(hi + 1.0), hi * math.log(k),
                 (q - 1.0) * math.log(hi * k)]
        logs.append(math.fsum([*terms, *minus_parts]))
        scales.append(math.fsum([*map(abs, terms), *rounding]))
        signs.append(sign)
    v_n = signs[2] * exp_or_overflow(logs[2], "Gamma_k", k, x)
    rho_m, rho_2m = (signs[i] * signs[2] * math.exp(logs[i] - logs[2]) for i in (0, 1))
    # Lagrange weights at 1/n = 0 of the nodes 1/m, 1/(2m), 1/n over one
    # denominator (n^2, -4m(n-m), m(n-2m)) / ((n-m)(n-2m)), which sum to 1
    w_n, w_2m, w_m = n * n, -4 * m * (n - m), m * (n - 2 * m)
    den = (n - m) * (n - 2 * m)
    two_step = (w_n + w_2m * rho_2m + w_m * rho_m) / den
    one_step = (n - 2 * m * rho_2m) / (n - 2 * m)
    v = v_n * two_step
    scale = (w_n * scales[2] + abs(w_2m * rho_2m) * scales[1]
             + abs(w_m * rho_m) * scales[0]) / den
    # the n^-3 term two steps leave, c3 h_m h_2m h_n = c3/(2 m^2 n), taken
    # twice; ell_j is the n^-j term of log(iterate/Gamma_k), c3 the n^-3
    # term of its exp
    ell1, ell2 = -q * (q - 1.0) / 2.0, q * (q - 0.5) * (q - 1.0) / 6.0
    third = abs(ell1 ** 3 / 6.0 + ell1 * ell2 - ell1 * ell1 / 3.0) / (m * m * n)
    return EvalResult(v, abs(v_n) * (abs(two_step - one_step) + third + _EPS * scale),
                      "limit", n)


@functools.cache
def _tail_sums(n_terms: int) -> tuple[float, ...]:
    """sum_{n>N} n^-m = zeta_H(m, N+1) for m = 2..5, once per N."""
    return tuple(hurwitz_zeta(m, n_terms + 1.0).value for m in (2.0, 3.0, 4.0, 5.0))


def _weierstrass_sum(q: float, n_terms: int) -> tuple[float, int, float, float, float]:
    """(W, sign, tail, fifth, rounding) of sum_{n>=1} [log|1+q/n| - q/n],
    |q| < N, for both product routes: W sums N terms pairwise (ndarray.sum),
    sign is -1 where an odd number of factors 1 + q/n is negative, tail is
    -q^2/2 S2 + q^3/3 S3 - q^4/4 S4 (S_m = sum_{n>N} n^-m), fifth the signed
    first dropped order q^5/5 S5, and rounding eps log2(N) sum |term|. Only
    for q < 0 are the factors searched; for q >= 0, sum |term| is -W."""
    import numpy as np

    from .pochhammer import _one_to

    r = q / _one_to(n_terms)
    if q < 0.0:
        f = 1.0 + r
        # log|1 + q/n| through log1p(q/n) where 1 + q/n >= 0.5
        low = f < 0.5
        terms = np.empty(n_terms)
        np.log1p(r, out=terms, where=~low)
        np.log(np.abs(f), out=terms, where=low)
        sign = -1 if np.count_nonzero(f < 0.0) % 2 else 1
    else:   # every factor 1 + q/n is at least 1
        terms, sign = np.log1p(r), 1
    terms -= r   # log|1 + q/n| - q/n
    total = float(terms.sum())
    abs_sum = float(np.abs(terms).sum()) if q < 0.0 else -total
    s2, s3, s4, s5 = _tail_sums(n_terms)
    tail = -0.5 * q * q * s2 + (q ** 3 / 3.0) * s3 - (q ** 4 / 4.0) * s4
    return total, sign, tail, q ** 5 / 5.0 * s5, _EPS * math.log2(n_terms) * abs_sum


def gamma_k_product(k: float, x: float, n_terms: int = 10_000) -> EvalResult:
    """Reciprocal of the truncated product
        1/Gamma_k(x) = x k^(-x/k) e^(x gamma / k) prod_{n=1..N} (1+x/(nk)) e^(-x/(nk)),
    with the tail of _weierstrass_sum (q = x/k) added after math.fsum adds
    its W to the three head logs. Valid off the pole set, where no factor
    1 + q/n rounds to 0.0, for |q| < N; beyond, ResultOverflow as
    gamma_k_scaling raises it where |Gamma_k(x)| overflows, else DomainError.
    err_estimate takes the fifth order and the rounding of W.
    """
    _require_k(k, x)
    if n_terms < 10:
        raise DomainError(f"product route needs n_terms >= 10, got {n_terms}")
    _require_off_pole(k, x)
    q = x / k
    if not abs(q) < n_terms:
        _require_below_overflow(k, x)
        raise DomainError(
            f"product route needs |x/k| < n_terms = {n_terms}, where its tail "
            f"series converges; got x/k = {q:.6g}")
    total, sign, tail, fifth, rounding = _weierstrass_sum(q, n_terms)
    log_recip = math.fsum([math.log(abs(x)), -q * math.log(k), q * EULER_GAMMA,
                           total]) + tail
    v = (sign if x > 0.0 else -sign) * exp_or_overflow(-log_recip, "Gamma_k", k, x)
    return EvalResult(v, abs(v) * (abs(fifth) + 1e-12 + rounding), "product", n_terms)


# route name -> call of that route at (k, x, profile) with its default
# iteration count. Each entry looks its function up by name when called, so
# a rebinding of gamma_k_* (a tracer's, a test's monkeypatch) is what runs.
ROUTES = {
    "scaling": lambda k, x, profile: gamma_k_scaling(k, x),
    "integral": lambda k, x, profile: gamma_k_integral(k, x, profile),
    "limit": lambda k, x, profile: gamma_k_limit(k, x),
    "product": lambda k, x, profile: gamma_k_product(k, x),
}


def gamma_k_stirling(k: float, x: float) -> float:
    """Leading Stirling-type term for Gamma_k(x+1):
    sqrt(2 pi) (kx)^(-1/2) x^((x+1)/k) e^(-x/k), 0.0 below the smallest
    double. Where k x, (x+1)/k or x/k leaves the float range, the log is
    formed as log k + log x and as one quotient ((x+1) log x - x)/k."""
    if not (k > 0.0 and x > 0.0):
        raise DomainError(f"stirling term needs k, x > 0, got k={k}, x={x}")
    _require_k(k, x)
    log_kx = math.log(k * x) if 0.0 < k * x < math.inf else math.log(k) + math.log(x)
    log_x = math.log(x)
    log_v = 0.5 * _LOG_2PI - 0.5 * log_kx + ((x + 1.0) / k) * log_x - x / k
    if not math.isfinite(log_v):
        log_v = 0.5 * _LOG_2PI - 0.5 * log_kx + (x * (log_x - 1.0) + log_x) / k
    return exp_or_overflow(log_v, "Stirling term of Gamma_k", k, x + 1.0)


def gamma_k_dk(k: float, x: float, profile: PrecisionProfile = DEFAULT) -> EvalResult:
    """d/dk Gamma_k(x+1) =
        (1/k^2) Gamma_k(x+k+1) - (1/k) int_0^inf t^(x+k) log(t) e^(-t^k/k) dt,
    for x > -1 (so the integral converges at 0).

    ResultOverflow when the leading term overflows a float. For large
    (x+1)/k the value is about (log(x+1) - 1) times that term, so it
    overflows too once x + 1 > e^2. An integrand that overflows below that
    is the DomainError of quad_halfline.
    """
    _require_k(k, x)
    if not (x > -1.0):
        raise DomainError(f"gamma_k_dk requires x > -1, got {x}")

    import numpy as np

    from .quadrature import quad_halfline

    weight = gamma_k_integrand(k, x + k)

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.log(t) * weight(t)

    g = gamma_k_scaling(k, x + k + 1.0).value
    if k * k == 0.0 or g / (k * k) == math.inf:
        raise ResultOverflow(f"d/dk Gamma_k(x+1) at x={x} with k={k}: "
                             "Gamma_k(x+k+1)/k^2 overflows a float")
    lead = g / (k * k)
    quad = quad_halfline(integrand, profile)
    v = lead - quad.value / k
    err = quad.err_estimate / k + 5e-14 * abs(lead)
    return EvalResult(v, err, "integral", quad.terms_or_nodes_used)


class PsiPoint(NamedTuple("PsiPoint", [("k", float), ("x", float), ("psi", float),
                                       ("psi_x", float), ("psi_xx", float),
                                       ("psi_k", float), ("psi_kk", float)])):
    """psi = log Gamma_k and its partials at one (k, x), x > 0.

    psi_x and psi_k come from the series representations (head summed
    directly, Euler-Maclaurin tail), psi_xx from the k-zeta connection
    psi_xx = sum_{n>=0} (x+nk)^-2, psi_kk by central difference of psi_k.
    Log-convexity makes psi_xx > 0 an invariant (else InvariantViolation).
    """

    __slots__ = ()

    def __new__(cls, k, x, psi, psi_x, psi_xx, psi_k, psi_kk):
        if not (psi_xx > 0.0):
            raise InvariantViolation(f"psi_xx must be positive, got {psi_xx}")
        return tuple.__new__(cls, (k, x, psi, psi_x, psi_xx, psi_k, psi_kk))


def _psi_series(k: float, x: float) -> float:
    """S = sum_{n>=1} (1/(x+nk) - 1/(nk)): _PSI_HEAD terms summed in order
    (numpy's cumsum, not its pairwise sum), the rest by Euler-Maclaurin on
    g(t) = 1/(x+tk) - 1/(tk). An overflow leaves S non-finite, refused by
    psi_point; numpy's warning would add nothing."""
    import numpy as np

    from .pochhammer import _one_to

    with np.errstate(all="ignore"):
        nk = _one_to(_PSI_HEAD) * k
        head = 1.0 / (x + nk)
        head -= 1.0 / nk
        head = float(head.cumsum()[-1])
    a = float(_PSI_HEAD + 1)
    integral = -math.log1p(x / (a * k)) / k
    g_a = 1.0 / (x + a * k) - 1.0 / (a * k)
    g1_a = -k / (x + a * k) ** 2 + 1.0 / (k * a * a)
    g3_a = -6.0 * k ** 3 / (x + a * k) ** 4 + 6.0 / (k * a ** 4)
    tail = integral + 0.5 * g_a - g1_a / 12.0 + g3_a / 720.0
    return head + tail


def _psi_k_series(k: float, x: float, s: float) -> float:
    """(x/k^2) [ (1 - log k + gamma) + k S ] from s = S = _psi_series(k, x)."""
    return (x / (k * k)) * ((1.0 - math.log(k) + EULER_GAMMA) + k * s)


def psi_point(k: float, x: float, profile: PrecisionProfile = DEFAULT) -> PsiPoint:
    try:
        psi = log_gamma_k(k, x)
        s = _psi_series(k, x)   # psi_x and psi_k both read S(k, x)
        psi_x = -1.0 / x + (math.log(k) - EULER_GAMMA) / k - s
        psi_xx = hurwitz_zeta(2.0, x / k, profile).value / (k * k)
        psi_k = _psi_k_series(k, x, s)
        h = 1e-5 * k
        psi_kk = (_psi_k_series(k + h, x, _psi_series(k + h, x))
                  - _psi_k_series(k - h, x, _psi_series(k - h, x))) / (2.0 * h)
        if not all(map(math.isfinite, (psi, psi_x, psi_xx, psi_k, psi_kk))):
            raise OverflowError
    except (ZeroDivisionError, OverflowError):
        raise ResultOverflow(f"psi_point(k={k}, x={x}): a term overflows a float") from None
    return PsiPoint(k=k, x=x, psi=psi, psi_x=psi_x, psi_xx=psi_xx,
                    psi_k=psi_k, psi_kk=psi_kk)


def _pde_lhs(p: PsiPoint) -> float:
    """-k x^2 psi_xx + k^3 psi_kk + 2 k^2 psi_k, the operator's left side."""
    return (-p.k * p.x * p.x * p.psi_xx + p.k ** 3 * p.psi_kk
            + 2.0 * p.k * p.k * p.psi_k)


def pde_residual(p: PsiPoint) -> float:
    """Residual of  -k x^2 psi_xx + k^3 psi_kk + 2 k^2 psi_k = -(x + k).

    The left side telescopes through the series for psi to exactly -(x+k):
    the x-part contributes -k x^2 sum_{n>=0}(x+nk)^-2 and k * d/dk(k^2 psi_k)
    contributes -x + k x^2 sum_{n>=1}(x+nk)^-2, so everything cancels except
    the n=0 term, -k, and the -x.
    """
    return _pde_lhs(p) + (p.x + p.k)


def pde_residual_variant(p: PsiPoint) -> float:
    """Residual against the variant right-hand side -x(k+1).

    That variant agrees with the balanced equation only at x = 1; elsewhere
    this residual equals k(x-1) plus numerical noise. Exposed so the
    discrepancy is demonstrable rather than silently absorbed.
    """
    return _pde_lhs(p) + p.x * (p.k + 1.0)

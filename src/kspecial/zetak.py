"""The k-zeta function zeta_k(x, s) = sum_{n>=0} (x + nk)^(-s).

Factoring k out of every term reduces it to the Hurwitz zeta:
zeta_k(x, s) = k^(-s) zeta_H(s, x/k), which also supplies the analytic
continuation past s = 1 that the s = 0 derivative identity needs.

Exposed identities:

  * zeta_k(x, 2) equals psi_xx, the second x-derivative of log Gamma_k
  * the composite d^2/dx^2 [d/ds zeta_k(x,s) at s=0] equals +psi_xx
    (zeta_k_ds_at_zero, finite-difference composite)
  * the term-wise m-th k-derivative, reduced exactly to Hurwitz calls
    (zeta_k_dk), validated against finite differences in k

zeta_k_dk_printed_variant carries an alternative right-hand side
(-x (s)_m times the weighted sum) that differs from the term-wise
derivative by a factor -(-1)^m x; it exists so the disagreement with the
finite-difference oracle is demonstrable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .gammak import psi_point
from .hurwitz import hurwitz_zeta, rising
from .profiles import DEFAULT, EvalResult, PrecisionProfile

# finite-difference steps for the s = 0 composite; the x-step is the
# measured truncation/roundoff balance point (1e-4 x amplifies the ~1e-15
# jitter of each zeta evaluation through the 1/h^2 stencil to percent level)
_H_S = 1e-5
_H_X_FACTOR = 1e-2


@dataclass(frozen=True, slots=True)
class ZetaKSpec:
    k: float
    x: float
    s: float

    def __post_init__(self) -> None:
        if not (self.k > 0.0):
            raise DomainError(f"k must be > 0, got {self.k}")
        if not (self.x > 0.0):
            raise DomainError(f"zeta_k needs x > 0, got {self.x}")


def zeta_k(spec: ZetaKSpec, profile: PrecisionProfile = DEFAULT) -> EvalResult:
    r = hurwitz_zeta(spec.s, spec.x / spec.k, profile)
    scale = spec.k ** (-spec.s)
    return EvalResult(scale * r.value, scale * r.err_estimate,
                      "euler_maclaurin", r.terms_or_nodes_used)


def zeta_k_identity_trigamma(k: float, x: float,
                             profile: PrecisionProfile = DEFAULT
                             ) -> tuple[float, float]:
    """(zeta_k(x, 2), psi_xx at (k, x)); the caller asserts they agree."""
    lhs = zeta_k(ZetaKSpec(k, x, 2.0), profile).value
    rhs = psi_point(k, x, profile).psi_xx
    return lhs, rhs


def _s_slope(k: float, x: float, profile: PrecisionProfile) -> float:
    """d/ds zeta_k(x, s) at s = 0, central difference."""
    up = zeta_k(ZetaKSpec(k, x, _H_S), profile).value
    dn = zeta_k(ZetaKSpec(k, x, -_H_S), profile).value
    return (up - dn) / (2.0 * _H_S)


def zeta_k_ds_at_zero(k: float, x: float,
                      profile: PrecisionProfile = DEFAULT) -> EvalResult:
    """d^2/dx^2 of d/ds zeta_k(x, s)|_{s=0}, all by central differences.

    The x-stencil error is dominated by the smooth truncation term
    (h^2/12) d^4/dx^4, and d^4/dx^4 of the s-slope is 6 zeta_k(x, 4);
    err_estimate uses exactly that.
    """
    if not (k > 0.0 and x > 0.0):
        raise DomainError(f"needs k, x > 0, got k={k}, x={x}")
    hx = _H_X_FACTOR * x
    comp = (_s_slope(k, x + hx, profile) - 2.0 * _s_slope(k, x, profile)
            + _s_slope(k, x - hx, profile)) / (hx * hx)
    fourth = 6.0 * zeta_k(ZetaKSpec(k, x, 4.0), profile).value
    err = hx * hx / 12.0 * fourth + 1e-8
    return EvalResult(comp, err, "euler_maclaurin", 6)


def _weighted_sum(spec: ZetaKSpec, m: int,
                  profile: PrecisionProfile) -> tuple[float, float, int]:
    """W = sum_{n>=0} n^m (x + nk)^(-s-m), reduced exactly to Hurwitz calls
    through n^m = k^(-m) ((x+nk) - x)^m expanded binomially. Returns
    (value, err, terms)."""
    k, x, s = spec.k, spec.x, spec.s
    total = 0.0
    err = 0.0
    terms = 0
    for j in range(m + 1):
        coef = math.comb(m, j) * (-x) ** (m - j)
        part = zeta_k(ZetaKSpec(k, x, s + m - j), profile)
        total += coef * part.value
        err += abs(coef) * part.err_estimate
        terms += part.terms_or_nodes_used
    scale = k ** (-m)
    return scale * total, scale * err, terms


def zeta_k_dk(spec: ZetaKSpec, m: int,
              profile: PrecisionProfile = DEFAULT) -> EvalResult:
    """Term-wise m-th k-derivative:
        sum_{n>=0} d^m/dk^m (x+nk)^(-s) = (-1)^m (s)_m W,
    W as in _weighted_sum. Requires the direct-sum regime s > 1 so every
    reduced exponent stays off the s = 1 pole."""
    if m < 1:
        raise DomainError(f"derivative order must be >= 1, got {m}")
    if not (spec.s > 1.0):
        raise DomainError(f"term-wise k-derivative needs s > 1, got {spec.s}")
    w, werr, terms = _weighted_sum(spec, m, profile)
    pref = (-1.0) ** m * rising(spec.s, m)
    return EvalResult(pref * w, abs(pref) * werr, "euler_maclaurin", terms)


def zeta_k_dk_printed_variant(spec: ZetaKSpec, m: int,
                              profile: PrecisionProfile = DEFAULT) -> EvalResult:
    """The alternative right-hand side -x (s)_m W. Relative to the term-wise
    derivative this carries an extra factor -(-1)^m x, so it can only agree
    where that factor is 1; kept so the mismatch is checkable, not asserted
    away."""
    if m < 1:
        raise DomainError(f"derivative order must be >= 1, got {m}")
    if not (spec.s > 1.0):
        raise DomainError(f"variant form needs s > 1, got {spec.s}")
    w, werr, terms = _weighted_sum(spec, m, profile)
    pref = -spec.x * rising(spec.s, m)
    return EvalResult(pref * w, abs(pref) * werr, "euler_maclaurin", terms)

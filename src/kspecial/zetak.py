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
import sys
from typing import NamedTuple

from .errors import (DomainError, ResultOverflow, as_float, exp_or_overflow,
                     require_finite)
from .gammak import psi_point
from .hurwitz import hurwitz_zeta
from .profiles import DEFAULT, EvalResult, PrecisionProfile

# finite-difference steps for the s = 0 composite; the x-step is the
# measured truncation/roundoff balance point (1e-4 x amplifies the ~1e-15
# jitter of each zeta evaluation through the 1/h^2 stencil to percent level)
_H_S = 1e-5
_H_X_FACTOR = 1e-2
_LOG_MAX = math.log(sys.float_info.max)


class ZetaKSpec(NamedTuple("ZetaKSpec", [("k", float), ("x", float), ("s", float)])):
    __slots__ = ()

    def __new__(cls, k, x, s):
        if not (type(k) is type(x) is type(s) is float):
            k, x, s = as_float("k", k), as_float("x", x), as_float("s", s, zero_ok=True)
        # one comparison per argument; on failure the sign checks come first
        if not (0.0 < k < math.inf and 0.0 < x < math.inf and -math.inf < s < math.inf):
            if not (k > 0.0):
                raise DomainError(f"k must be > 0, got {k}")
            if not (x > 0.0):
                raise DomainError(f"zeta_k needs x > 0, got {x}")
            require_finite("k", k)
            require_finite("x", x)
            require_finite("s", s)
        return tuple.__new__(cls, (k, x, s))


def zeta_k(spec: ZetaKSpec, profile: PrecisionProfile = DEFAULT) -> EvalResult:
    """k^(-s) zeta_H(s, x/k); where x/k is below the normal range (subnormal
    or 0.0, with fewer bits than x), x + k is k and zeta_k(x, s) = x^(-s) +
    k^(-s) zeta_H(s, 1). ResultOverflow where zeta_k itself passes the float
    range; DomainError where zeta_H does, or keeps too few digits, and k^(-s)
    may scale it back: this route cannot reach the value."""
    x, s, k = spec.x, spec.s, spec.k
    shifted = x / k < sys.float_info.min
    q = 1.0 if shifted else x / k
    try:
        r = hurwitz_zeta(s, q, profile)   # s = 1: the pole
    except ResultOverflow:
        # for s > 1, zeta_k exceeds its first term x^(-s)
        if s > 1.0 and -s * math.log(x) > _LOG_MAX:
            raise
        raise DomainError(f"zeta_k({x}, {s}) with k={k}: zeta_H(s, x/k) "
                          "passes the float range, and k^(-s) may scale it back") from None
    try:
        scale = k ** (-s)
    except OverflowError:
        # k^(-s) beyond the float range: form exp(-s log k + log|v|), unless
        # v kept too few digits to scale: zeta_H(s, x/k) underflowed, or
        # zeta_H(s, 1) is a trivial zero and the x/k that 1 + x/k lost counts
        if not abs(r.value) >= sys.float_info.min:
            why = ("zeta_H(s, 1) = {!r} and k^(-s) may scale the x/k lost from 1 + x/k"
                   if shifted else "zeta_H(s, x/k) = {!r} underflows")
            raise DomainError(f"zeta_k({x}, {s}) with k={k}: "
                              + why.format(r.value)) from None
        log_scale = -s * math.log(k)
        log_v = math.log(abs(r.value))
        value, err = (exp_or_overflow(log_scale + t, "zeta_k", k, x, s)
                      for t in (log_v, math.log(r.err_estimate)))
        # exp of a sum of logs: its rounding grows with the size of the logs
        err += value * 4.5e-16 * (1.0 + abs(log_scale) + abs(log_v))
        value = math.copysign(value, r.value)
    else:
        value, err = scale * r.value, scale * r.err_estimate
        if err == math.inf or abs(value) == math.inf:
            raise ResultOverflow(f"zeta_k({x}, {s}) with k={k} overflows a float")
    if shifted:
        try:
            value += x ** -s
        except OverflowError:   # s > 0, and zeta_k exceeds x^(-s)
            raise ResultOverflow(f"zeta_k({x}, {s}) with k={k}: "
                                 "x^(-s) overflows a float") from None
        err += sys.float_info.epsilon * abs(value)
    return EvalResult(value, err, "euler_maclaurin", r.terms_or_nodes_used)


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
    hx = _H_X_FACTOR * x
    if not (k > 0.0 and x > 0.0 and hx * hx > 0.0):
        raise DomainError(f"needs k, x > 0 and (x/100)^2 > 0, got k={k}, x={x}")
    comp = (_s_slope(k, x + hx, profile) - 2.0 * _s_slope(k, x, profile)
            + _s_slope(k, x - hx, profile)) / (hx * hx)
    fourth = 6.0 * zeta_k(ZetaKSpec(k, x, 4.0), profile).value
    err = hx * hx / 12.0 * fourth + 1e-8
    if not (math.isfinite(comp) and math.isfinite(err)):
        raise ResultOverflow(f"zeta_k_ds_at_zero(k={k}, x={x}) overflows a float")
    return EvalResult(comp, err, "euler_maclaurin", 6)


def _weighted_sum(spec: ZetaKSpec, m: int, factor: float,
                  profile: PrecisionProfile) -> EvalResult:
    """factor (s)_m W, W = sum_{n>=0} n^m (x + nk)^(-s-m) reduced exactly to
    Hurwitz calls through n^m = k^(-m) ((x+nk) - x)^m expanded binomially;
    for m >= 1 and s > 1, where every reduced exponent is off the s = 1 pole.
    DomainError where a power x^(m-j) or k^(-m) passes the float range."""
    from .pochhammer import PochhammerSpec, pochhammer_k
    k, x, s = spec.k, spec.x, spec.s
    if m < 1:
        raise DomainError(f"derivative order must be >= 1, got {m}")
    if not (s > 1.0):
        raise DomainError(f"k-derivative needs s > 1, got {s}")
    total = 0.0
    err = 0.0
    terms = 0
    try:
        for j in range(m + 1):
            coef = math.comb(m, j) * (-x) ** (m - j)
            part = zeta_k(ZetaKSpec(k, x, s + m - j), profile)
            total += coef * part.value
            err += abs(coef) * part.err_estimate
            terms += part.terms_or_nodes_used
        scale = k ** (-m)
    except ResultOverflow:
        raise
    except OverflowError:   # a power past the float range; W itself may fit
        raise DomainError(f"k-derivative of zeta_k({x}, {s}) with k={k}: a power in "
                          "its binomial reduction passes the float range") from None
    w, werr = scale * total, scale * err
    pref = factor * pochhammer_k(PochhammerSpec(s, m, 1))
    return EvalResult(pref * w, abs(pref) * werr, "euler_maclaurin", terms)


def zeta_k_dk(spec: ZetaKSpec, m: int,
              profile: PrecisionProfile = DEFAULT) -> EvalResult:
    """Term-wise m-th k-derivative:
        sum_{n>=0} d^m/dk^m (x+nk)^(-s) = (-1)^m (s)_m W,
    W and its domain as in _weighted_sum."""
    return _weighted_sum(spec, m, (-1.0) ** m, profile)


def zeta_k_dk_printed_variant(spec: ZetaKSpec, m: int,
                              profile: PrecisionProfile = DEFAULT) -> EvalResult:
    """The alternative right-hand side -x (s)_m W. Relative to the term-wise
    derivative this carries an extra factor -(-1)^m x, so it can only agree
    where that factor is 1; kept so the mismatch is checkable, not asserted
    away."""
    return _weighted_sum(spec, m, -spec.x, profile)

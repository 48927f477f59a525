"""Hurwitz zeta by Euler-Maclaurin summation.

zeta_H(s, a) = sum_{n>=0} (a+n)^(-s), continued to s != 1.

    zeta_H(s,a) = sum_{n=0}^{M-1} (a+n)^(-s)
                + A^(1-s)/(s-1) + A^(-s)/2
                + sum_{j=1}^{J} B_{2j}/(2j)! * (s)_{2j-1} * A^(-s-2j+1),

with A = a + M, M = 20 and Bernoulli numbers through B_10 (J = 5). The
error estimate is the first omitted correction (the B_12 term) plus the
rounding of the sum, 4 eps (|head| + |tail|): for s <= 0 the head (the M
direct terms) and the tail (the rest) cancel, so the value can be far
smaller than either, or exactly 0.
Accurate to ~1e-14 relative for s in (-3, 40] and a > 0 at these settings;
the continuation is what the s-derivative machinery differentiates.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, PoleError, ResultOverflow
from .profiles import DEFAULT, EvalResult, PrecisionProfile

_M = 20
# (B_{2j}/(2j)!, 2j - 1, 2j) for j = 1..5; each B_{2j} is rounded before
# the division
_CORRECTIONS = (
    (1.0 / 6.0 / 2.0, 1, 2),
    (-1.0 / 30.0 / 24.0, 3, 4),
    (1.0 / 42.0 / 720.0, 5, 6),
    (-1.0 / 30.0 / 40320.0, 7, 8),
    (5.0 / 66.0 / 3628800.0, 9, 10),
)
# B_12/12! for the error term, rounded the same way
_ERR_COEFF = -691.0 / 2730.0 / 479001600.0
# eps per unit of |head| + |tail| in the rounding term: against the exact
# zeta_H(-m, a), m = 0..10, 3 of 6,000 seeded draws fell outside an
# estimate with 3 eps, none with 4
_ROUNDING = 4.0 * sys.float_info.epsilon


def power_tail_sums(n_terms: int) -> tuple[float, float, float, float]:
    """S_m = sum_{n>N} n^-m = zeta_H(m, N+1) for m = 2..5 in Euler-Maclaurin
    closed form; the tails of the truncated Gamma_k and B_k products."""
    N = float(n_terms)
    s2 = 1.0 / N - 1.0 / (2.0 * N ** 2) + 1.0 / (6.0 * N ** 3)
    s3 = 1.0 / (2.0 * N ** 2) - 1.0 / (2.0 * N ** 3) + 1.0 / (4.0 * N ** 4)
    s4 = 1.0 / (3.0 * N ** 3) - 1.0 / (2.0 * N ** 4) + 1.0 / (3.0 * N ** 5)
    s5 = 1.0 / (4.0 * N ** 4) - 1.0 / (2.0 * N ** 5)
    return s2, s3, s4, s5


def hurwitz_zeta(s: float, a: float, profile: PrecisionProfile = DEFAULT) -> EvalResult:
    """Continued Hurwitz zeta; PoleError at s = 1, DomainError for a <= 0
    or s = nan, ResultOverflow when a term or the sum exceeds the largest
    double (e.g. a^(-s) for tiny a)."""
    if not (a > 0.0):
        raise DomainError(f"hurwitz_zeta requires a > 0, got a={a}")
    if math.isnan(s):
        raise DomainError("hurwitz_zeta requires a number s, got nan")
    if s == 1.0:
        raise PoleError("hurwitz_zeta has a simple pole at s = 1")
    try:
        ms = -s
        head = 0.0
        for n in range(_M):
            head += (a + n) ** ms
        big_a = a + _M
        tail = big_a ** (1.0 - s) / (s - 1.0) + 0.5 * big_a ** ms
        rise = 1.0 * s  # (s)_(2j-1) in step j, multiplied left to right
        for coeff, odd, even in _CORRECTIONS:
            tail += coeff * rise * big_a ** (ms - even + 1)
            rise = rise * (s + odd) * (s + even)
        err = (abs(_ERR_COEFF * rise * big_a ** (ms - 11))
               + _ROUNDING * (abs(head) + abs(tail)))
        value = head + tail
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ResultOverflow(
            f"hurwitz_zeta(s={s}, a={a}) overflows a float")
    return EvalResult(value, err, "euler_maclaurin", _M + len(_CORRECTIONS))

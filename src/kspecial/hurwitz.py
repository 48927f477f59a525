"""Hurwitz zeta by Euler-Maclaurin summation.

zeta_H(s, a) = sum_{n>=0} (a+n)^(-s), continued to s != 1.

    zeta_H(s,a) = sum_{n=0}^{M-1} (a+n)^(-s)
                + A^(1-s)/(s-1) + A^(-s)/2
                + sum_{j=1}^{J} B_{2j}/(2j)! * (s)_{2j-1} * A^(-s-2j+1),

with A = a + M, M = 20 and Bernoulli numbers through B_10 (J = 5). The
first omitted correction (the B_12 term) serves as the error estimate.
Accurate to ~1e-14 relative for s in (-3, 40] and a > 0 at these settings;
the continuation is what the s-derivative machinery differentiates.
"""

from __future__ import annotations

import math

from .errors import DomainError, PoleError
from .profiles import DEFAULT, EvalResult, PrecisionProfile

_M = 20
# (B_{2j}, (2j)!) for j = 1..5, plus B_12 for the error term.
_BERNOULLI = (
    (1.0 / 6.0, 2.0),
    (-1.0 / 30.0, 24.0),
    (1.0 / 42.0, 720.0),
    (-1.0 / 30.0, 40320.0),
    (5.0 / 66.0, 3628800.0),
)
_B12 = -691.0 / 2730.0
_FACT12 = 479001600.0


def rising(s: float, m: int) -> float:
    """Rising factorial (s)_m = s (s+1) ... (s+m-1) in floats."""
    out = 1.0
    for i in range(m):
        out *= s + i
    return out


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
    """Continued Hurwitz zeta; PoleError at s = 1, DomainError for a <= 0."""
    if not (a > 0.0):
        raise DomainError(f"hurwitz_zeta requires a > 0, got a={a}")
    if s == 1.0:
        raise PoleError("hurwitz_zeta has a simple pole at s = 1")
    head = 0.0
    for n in range(_M):
        head += (a + n) ** (-s)
    big_a = a + _M
    tail = big_a ** (1.0 - s) / (s - 1.0) + 0.5 * big_a ** (-s)
    for j, (b2j, fact) in enumerate(_BERNOULLI, start=1):
        tail += b2j / fact * rising(s, 2 * j - 1) * big_a ** (-s - 2 * j + 1)
    err = abs(_B12 / _FACT12 * rising(s, 11) * big_a ** (-s - 11))
    value = head + tail
    err = max(err, 2e-16 * abs(value))
    return EvalResult(value, err, "euler_maclaurin", _M + len(_BERNOULLI))

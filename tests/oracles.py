"""Independent reference machinery for tests.

Everything here avoids the package's own engines: brute-force trapezoid
integration, direct partial sums with explicit tail corrections, and central
finite differences. Frozen constants in the test files were produced either
by these oracles or by 30-digit arbitrary-precision evaluation; the source
is noted next to each constant.
"""

from __future__ import annotations

import math


def trapezoid(f, a: float, b: float, n: int) -> float:
    h = (b - a) / n
    tot = 0.5 * (f(a) + f(b))
    for i in range(1, n):
        tot += f(a + i * h)
    return tot * h


def central_diff(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_diff(f, x: float, h: float) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def direct_zeta2(a: float, n_terms: int = 200_000) -> float:
    """sum_{n>=0} (a+n)^-2 by direct summation plus Euler-Maclaurin tail."""
    tot = sum(1.0 / (a + n) ** 2 for n in range(n_terms))
    last = a + n_terms - 1  # tail = trigamma(last+1) expanded about last
    return tot + 1.0 / last - 1.0 / (2.0 * last * last) + 1.0 / (6.0 * last ** 3)


def rising_product(x: float, n: int, step: float) -> float:
    """x (x+step) ... (x+(n-1)step) by plain multiplication."""
    out = 1.0
    for j in range(n):
        out *= x + j * step
    return out


def gamma_k_product_loop(k: float, x: float, n_terms: int) -> float:
    """The truncated reciprocal product of gammak.gamma_k_product, factor by
    factor in a plain loop, with the same fourth-order tail."""
    q = x / k
    sign = 1 if x > 0.0 else -1
    log_recip = math.log(abs(x)) - q * math.log(k) + q * 0.5772156649015329
    for n in range(1, n_terms + 1):
        f = 1.0 + q / n
        if f < 0.0:
            sign = -sign
        log_recip += math.log(abs(f)) - q / n
    N = float(n_terms)
    s2 = 1.0 / N - 1.0 / (2.0 * N ** 2) + 1.0 / (6.0 * N ** 3)
    s3 = 1.0 / (2.0 * N ** 2) - 1.0 / (2.0 * N ** 3) + 1.0 / (4.0 * N ** 4)
    s4 = 1.0 / (3.0 * N ** 3) - 1.0 / (2.0 * N ** 4) + 1.0 / (3.0 * N ** 5)
    log_recip += -0.5 * q * q * s2 + (q ** 3 / 3.0) * s3 - (q ** 4 / 4.0) * s4
    return sign * math.exp(-log_recip)


def beta_k_product_loop(k: float, x: float, y: float, n_terms: int) -> float:
    """The truncated product of betak.beta_k_product in a plain loop, with
    the same tail through w^4."""
    s = x + y
    log_v = math.log(s / (x * y))
    for n in range(1, n_terms + 1):
        nk = n * k
        log_v += math.log1p(s / nk) - math.log1p(x / nk) - math.log1p(y / nk)
    N = float(n_terms)
    s2 = 1.0 / N - 1.0 / (2.0 * N ** 2) + 1.0 / (6.0 * N ** 3)
    s3 = 1.0 / (2.0 * N ** 2) - 1.0 / (2.0 * N ** 3) + 1.0 / (4.0 * N ** 4)
    s4 = 1.0 / (3.0 * N ** 3) - 1.0 / (2.0 * N ** 4) + 1.0 / (3.0 * N ** 5)
    log_v += (-(x * y / k ** 2) * s2 + (x * y * s / k ** 3) * s3
              + ((x ** 4 + y ** 4 - s ** 4) / (4.0 * k ** 4)) * s4)
    return math.exp(log_v)

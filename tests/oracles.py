"""Independent reference machinery for tests.

Everything here avoids the package's own engines: brute-force trapezoid
integration, direct partial sums with explicit tail corrections, and central
finite differences. Frozen constants in the test files were produced either
by these oracles or by 30-digit arbitrary-precision evaluation; the source
is noted next to each constant.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction


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


def pochhammer_k_tested(x, n: int, k, overflow=OverflowError):
    """pochhammer.pochhammer_k's float product with both tests at every
    factor: the first factor that is not finite raises DomainError, and the
    first inf partial product raises overflow, each with the kernel's
    message. No nan is returned."""
    from kspecial.errors import DomainError

    out = 1.0
    for j in range(n):
        factor = x + j * k
        if not math.isfinite(factor):
            raise DomainError(f"(x)_{{n,k}} needs a finite last factor x + (n-1)k, "
                              f"got x={x}, n={n}, k={k}")
        out = out * factor
        if isinstance(out, float) and math.isinf(out):
            raise overflow(
                f"(x)_{{n,k}} overflows a float at factor {j + 1} of {n}; "
                "use pochhammer_k_log")
    return out


def tail_sums(n_terms: int) -> tuple[float, float, float, float]:
    """sum_{n > N} n^-p for p = 2..5 in Euler-Maclaurin closed form, the
    sums that restore the product routes' tails. Each stops after the
    B_2 term, whose successor is below 2/N^4 of the sum."""
    N = float(n_terms)
    s2 = 1.0 / N - 1.0 / (2.0 * N ** 2) + 1.0 / (6.0 * N ** 3)
    s3 = 1.0 / (2.0 * N ** 2) - 1.0 / (2.0 * N ** 3) + 1.0 / (4.0 * N ** 4)
    s4 = 1.0 / (3.0 * N ** 3) - 1.0 / (2.0 * N ** 4) + 1.0 / (3.0 * N ** 5)
    s5 = 1.0 / (4.0 * N ** 4) - 1.0 / (2.0 * N ** 5) + 5.0 / (12.0 * N ** 6)
    return s2, s3, s4, s5


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
    s2, s3, s4, _ = tail_sums(n_terms)
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
    s2, s3, s4, _ = tail_sums(n_terms)
    log_v += (-(x * y / k ** 2) * s2 + (x * y * s / k ** 3) * s3
              + ((x ** 4 + y ** 4 - s ** 4) / (4.0 * k ** 4)) * s4)
    return math.exp(log_v)


def gamma_k_product_fsum(k: float, x: float, n_terms: int) -> tuple[float, float]:
    """gamma_k_product's truncated product and tail with its log terms made
    one at a time by math and summed exactly (math.fsum); (value, sum of
    |log|1 + q/n| - q/n| over the n_terms product terms)."""
    q = x / k
    terms = [math.log1p(q / n) - q / n if q / n >= -0.5
             else math.log(abs(1.0 + q / n)) - q / n
             for n in range(1, n_terms + 1)]
    sign = (1 if x > 0.0 else -1) * (-1) ** sum(q / n < -1.0 for n in range(1, n_terms + 1))
    s2, s3, s4, _ = tail_sums(n_terms)
    log_recip = math.fsum([math.log(abs(x)), -q * math.log(k), q * 0.5772156649015329,
                           *terms, -0.5 * q * q * s2, (q ** 3 / 3.0) * s3,
                           -(q ** 4 / 4.0) * s4])
    return sign * math.exp(-log_recip), math.fsum(map(abs, terms))


def beta_k_product_fsum(k: float, x: float, y: float, n_terms: int) -> tuple[float, float]:
    """beta_k_product's truncated product and tail with its log terms made
    one at a time by math and summed exactly (math.fsum); (value, sum of
    |term| over the n_terms product terms)."""
    s = x + y
    terms = [math.log1p(s / (n * k)) - math.log1p(x / (n * k)) - math.log1p(y / (n * k))
             for n in range(1, n_terms + 1)]
    a, b, c = x / k, y / k, s / k
    s2, s3, s4, _ = tail_sums(n_terms)
    log_v = math.fsum([math.log(s), -math.log(x), -math.log(y), *terms,
                       -(a * b) * s2, (a * b * c) * s3,
                       ((a ** 4 + b ** 4 - c ** 4) / 4.0) * s4])
    return math.exp(log_v), math.fsum(map(abs, terms))


def log_beta_k(k: float, x: float, y: float) -> float:
    """log B_k(x, y) = log B(a, b) - log k, a, b = x/k, y/k, in mpmath at 256
    bits, taking a <= b. Where b/a passes 2^128, a + b is within rounding of
    b and log Gamma(b) - log Gamma(a + b) would keep no digit: there it is
    -a psi(b), as its Taylor series in a gives, whose next term (a^2/2)
    psi'(b) is below 2^-128 (1 + a) (at 40 digits, log B read +744.44 at
    (5e-324, 1.7e308, 5e-324), where the truth is log(1/x) = -709.7)."""
    import mpmath

    with mpmath.workprec(256):
        a, b = sorted((mpmath.mpf(x) / k, mpmath.mpf(y) / k))
        if b / a > mpmath.mpf(2) ** 128:
            log_b = mpmath.loggamma(a) - a * mpmath.digamma(b)
        else:
            log_b = mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)
        return float(log_b - mpmath.log(k))


def log_abs_zeta_k(k: float, x: float, s: float) -> float:
    """log|zeta_k(x, s)| = -s log k + log|zeta_H(s, x/k)|, in mpmath at 256
    bits; -inf where zeta_H is 0."""
    import mpmath

    with mpmath.workprec(256):
        z = mpmath.zeta(mpmath.mpf(s), mpmath.mpf(x) / k)
        return float(-s * mpmath.log(k) + mpmath.log(abs(z))) if z else -math.inf


def pochhammer_k_log_array(x: float, n: int, k: float) -> tuple[float, int]:
    """(log|(x)_{n,k}|, sign) by the full-array formula: every factor in one
    numpy array, zero and negative factors counted over the whole array,
    one pairwise sum of the logs."""
    import numpy as np
    factors = x + k * np.arange(n, dtype=np.float64)
    if np.any(factors == 0.0):
        return -math.inf, 0
    sign = -1 if int(np.count_nonzero(factors < 0.0)) % 2 else 1
    return float(np.log(np.abs(factors)).sum()), sign


def pochhammer_k_log_chunked(x: float, n: int, k: float, chunk: int
                             ) -> tuple[float, int]:
    """(log|(x)_{n,k}|, sign) by the chunked formula: every factor in one
    numpy array, zero and negative factors counted over the whole array.
    The magnitudes are cut into slices of `chunk`; each slice's logs get one
    pairwise sum, and math.fsum adds the slice sums."""
    import numpy as np
    factors = x + k * np.arange(n, dtype=np.float64)
    if np.any(factors == 0.0):
        return -math.inf, 0
    sign = -1 if int(np.count_nonzero(factors < 0.0)) % 2 else 1
    mags = np.abs(factors)
    return math.fsum(float(np.log(mags[start:start + chunk]).sum())
                     for start in range(0, n, chunk)), sign


# -- per-term and per-factor references ----------------------------------------
#
# The loops below are the kernels' earlier, plainer forms: one callback call
# per series term, one test per Pochhammer factor, one rising factorial per
# Euler-Maclaurin correction. They run the same floating-point operations in
# the same order as the package's streamlined kernels, so the two must agree
# bit for bit.

def hyper_terms(spec, x: float):
    """The terms c_n x^n of the hypergeometric series at x, n = 0, 1, ...
    without end, each from the last by the ratio x prod_j (a_j + n k_j) /
    ((n + 1.0) prod_i (b_i + n s_i)), multiplied left to right: the
    recurrence that series.sum_series and hypergeometric.ode_residual form
    inline."""
    upper = tuple(zip(spec.a, spec.k))
    lower = tuple(zip(spec.b, spec.s))
    v = 1.0
    n = 0
    while True:
        yield v
        num = x
        for a_j, k_j in upper:
            num *= a_j + n * k_j
        den = n + 1.0
        for b_i, s_i in lower:
            den *= b_i + n * s_i
        v = v * num / den
        n += 1


def sum_series(terms, profile):
    """Sum an iterator of terms (term 0 first, without end) under the
    profile's stop rule; the term after the last included one is read, as
    the error estimate. The iterator form of series.sum_series' stop loop:
    with hyper_terms as the iterator it must give evaluate's result and
    refusals bit for bit."""
    from kspecial.errors import NonConvergent, ResultOverflow
    from kspecial.profiles import EvalResult

    abs_tol, rel_tol = profile.abs_tol, profile.rel_tol
    total = 0.0
    consecutive = 0
    for n, t in zip(range(profile.max_terms), terms):
        total += t
        if abs(t) <= abs_tol + rel_tol * abs(total):
            consecutive += 1
            if consecutive == 3:
                return EvalResult(total, abs(next(terms)), "series", n + 1)
        elif math.isfinite(total):
            consecutive = 0
        else:
            raise ResultOverflow(f"sum_series: the partial sum is {total} after "
                                 f"{n + 1} terms; the terms pass the float range")
    raise NonConvergent(
        f"sum_series: stop rule unmet after {profile.max_terms} terms",
        last_value=total)


def sum_series_callback(term, abs_tol: float, rel_tol: float, max_terms: int):
    """term(0) + term(1) + ... until |term_n| <= abs_tol + rel_tol |sum|
    three times in a row; (sum, |first omitted term|, terms used). Raises
    ArithmeticError carrying the partial sum after max_terms terms."""
    total = 0.0
    consecutive = 0
    for n in range(max_terms):
        t = term(n)
        total += t
        if abs(t) <= abs_tol + rel_tol * abs(total):
            consecutive += 1
            if consecutive == 3:
                return total, abs(term(n + 1)), n + 1
        else:
            consecutive = 0
    raise ArithmeticError(total)


def _shifted_product(acc, params, steps, n):
    for p, q in zip(params, steps):
        acc *= p + n * q
    return acc


def hyper_term_callback(a, k, b, s, x):
    """term(n) = c_n x^n of the step-generalized series, for n = 0, 1, ...
    in order, by the recurrence c_{n+1} x^{n+1} = c_n x^n *
    x prod_j (a_j + n k_j) / ((n+1) prod_i (b_i + n s_i))."""
    state = [0, 1.0]

    def term(n):
        assert n == state[0], "terms must be requested consecutively"
        v = state[1]
        state[1] = v * _shifted_product(x, a, k, n) / _shifted_product(n + 1.0, b, s, n)
        state[0] = n + 1
        return v

    return term


def hyper_ode_residual_callback(a, k, b, s, degree):
    """hypergeometric.ode_residual with c_n from hyper_term_callback at x = 1."""
    term = hyper_term_callback(a, k, b, s, 1.0)
    c = [term(n) for n in range(degree)]
    worst = scale = 0.0
    for n in range(1, degree):
        lhs = _shifted_product(n * c[n], b, s, n - 1)
        rhs = _shifted_product(c[n - 1], a, k, n - 1)
        worst = max(worst, abs(lhs - rhs))
        scale = max(scale, abs(lhs), abs(rhs))
    return worst / scale if scale > 0.0 else 0.0


def pochhammer_k_log_loop(x: float, n: int, k: float) -> tuple[float, int]:
    """(log|(x)_{n,k}|, sign), testing each factor for zero and sign."""
    log_abs = 0.0
    sign = 1
    for j in range(n):
        f = x + j * k
        if f == 0.0:
            return -math.inf, 0
        if f < 0.0:
            sign = -sign
        log_abs += math.log(abs(f))
    return log_abs, sign


# (B_2j, (2j)!) for j = 1..5, and (B_12, 12!) for the error term
HURWITZ_BERNOULLI = ((1.0 / 6.0, 2.0), (-1.0 / 30.0, 24.0), (1.0 / 42.0, 720.0),
                     (-1.0 / 30.0, 40320.0), (5.0 / 66.0, 3628800.0))
HURWITZ_B12 = (-691.0 / 2730.0, 479001600.0)


def hurwitz_zeta_rising(s: float, a: float) -> tuple[float, float, float]:
    """(head, tail, B_12 error term) of hurwitz.hurwitz_zeta's
    Euler-Maclaurin sum (M = 20, B_2..B_10), whose value is head + tail,
    forming each rising factorial (s)_m afresh and dividing each B_2j by
    (2j)! (and B_12 by 12!) at call time."""
    def rising(m):
        out = 1.0
        for i in range(m):
            out *= s + i
        return out

    head = 0.0
    for n in range(20):
        head += (a + n) ** (-s)
    big_a = a + 20
    tail = big_a ** (1.0 - s) / (s - 1.0) + 0.5 * big_a ** (-s)
    for j, (b2j, fact) in enumerate(HURWITZ_BERNOULLI, start=1):
        tail += b2j / fact * rising(2 * j - 1) * big_a ** (-s - 2 * j + 1)
    b12, fact12 = HURWITZ_B12
    err = abs(b12 / fact12 * rising(11) * big_a ** (-s - 11))
    return head, tail, err


@functools.cache
def bernoulli_numbers(m: int) -> tuple[Fraction, ...]:
    """B_0 .. B_m as Fractions (B_1 = -1/2), from sum_{j<=i} C(i+1, j) B_j = 0."""
    b = [Fraction(1)]
    for i in range(1, m + 1):
        b.append(-sum(math.comb(i + 1, j) * b[j] for j in range(i)) / (i + 1))
    return tuple(b)


def hurwitz_zeta_nonpositive(m: int, a) -> Fraction:
    """zeta_H(-m, a) = -B_{m+1}(a) / (m + 1) exactly, for an int m >= 0 and
    a rational a (a float is taken at its exact value), with the Bernoulli
    polynomial B_n(a) = sum_j C(n, j) B_j a^(n-j)."""
    a = Fraction(a)
    n = m + 1
    b = bernoulli_numbers(n)
    return -sum(math.comb(n, j) * b[j] * a ** (n - j) for j in range(n + 1)) / n


# The quadrature node tables and the scalar integrands as they were before
# every integrand became an array function: the node lists built one node at
# a time, and each integrand called once per node through math.log/exp.

_C = math.pi / 2.0


def halfline_nodes(level: int) -> list[tuple[float, float]]:
    """(t, weight) for the exp-sinh map, level L, weight = t * c * cosh(u).

    Level 0: the u = 0 node, then all nonzero multiples of h0. Level L>0: odd
    multiples of h_L only (the even ones were already seen at coarser
    levels). Nonzero u come in both signs, +u first.
    """
    h = 0.5 / (1 << level)
    out = [(1.0, _C)] if level == 0 else []
    step = 1 if level == 0 else 2
    j = 1
    while True:
        u = j * h
        if u > 6.75:
            break
        sh = _C * math.sinh(u)
        ch = _C * math.cosh(u)
        for sign in (1.0, -1.0):
            t = math.exp(sign * sh)
            out.append((t, t * ch))
        j += step
    return out


def unit_nodes(level: int) -> list[tuple[float, float, float]]:
    """(t, 1-t, weight) for the tanh-sinh map on (0,1), in the order of
    halfline_nodes; nodes whose weight underflows to 0 are dropped."""
    h = 0.5 / (1 << level)
    out = [(0.5, 0.5, 2.0 * 0.25 * _C)] if level == 0 else []
    step = 1 if level == 0 else 2
    j = 1
    while True:
        u = j * h
        if u > 6.5:
            break
        z = _C * math.sinh(u)
        ch = _C * math.cosh(u)
        e = math.exp(-2.0 * z)
        small = e / (1.0 + e)
        big = 1.0 / (1.0 + e)
        w = 2.0 * big * small * ch
        if w > 0.0:
            out.append((big, small, w))
            out.append((small, big, w))
        j += step
    return out


def gamma_k_integrand_scalar(k: float, p: float, c: float = 1.0):
    """t -> t^p exp(-c t^k / k), 0 where t^k > e^700 or the log is below
    -745."""
    def f(t: float) -> float:
        lt = math.log(t)
        e = k * lt
        if e > 700.0:
            return 0.0
        w = p * lt - c * math.exp(e) / k
        return math.exp(w) if w > -745.0 else 0.0

    return f


def gamma_k_dk_integrand_scalar(k: float, x: float):
    """t -> log(t) t^(x+k) exp(-t^k / k), gammak.gamma_k_dk's integrand."""
    weight = gamma_k_integrand_scalar(k, x + k)
    return lambda t: math.log(t) * weight(t)


def beta_k_halfline_integrand_scalar(k: float, x: float, y: float):
    """t -> t^(x-1) (1 + t^k)^(-(x+y)/k)."""
    power = (x + y) / k

    def f(t: float) -> float:
        lt = math.log(t)
        e = k * lt
        lp = e if e > 700.0 else math.log1p(math.exp(e))
        w = (x - 1.0) * lt - power * lp
        return math.exp(w) if w > -745.0 else 0.0

    return f


def beta_k_unit_integrand_scalar(k: float, x: float, y: float):
    """(t, 1-t) -> t^(x/k-1) (1-t)^(y/k-1)."""
    p = x / k - 1.0
    q = y / k - 1.0

    def f(t: float, omt: float) -> float:
        w = p * math.log(t) + q * math.log(omt)
        return math.exp(w) if w > -745.0 else 0.0

    return f


def hyper_integrand_loop(level, args, a_p: float, k_p: float, depth: int):
    """hypergeometric.integral_representation_check's integrand at one
    nesting depth, its t-only factors formed node by node through
    math.log/exp; level(depth - 1, arguments) gives the inner factor."""
    import numpy as np

    def integrand(rows, t):
        need, keep, scale, weight = [], [], [], []
        for j, tj in enumerate(t.tolist()):
            lt = math.log(tj)
            e = k_p * lt
            if e > 700.0:
                continue
            tk = math.exp(e)
            decay = tk / k_p
            w = (a_p - 1.0) * lt - decay
            if tj > 1.0 and w + 0.5 * decay < -745.0:
                continue
            if w > -745.0:
                keep.append(len(need))
                weight.append(math.exp(w))
            need.append(j)
            scale.append(tk)
        out = np.zeros((rows.size, t.size))
        if need:
            inner_args = np.multiply.outer(args[rows], scale).ravel()
            inner = level(depth - 1, inner_args)[0].reshape(rows.size, -1)
            keep = np.array(keep, dtype=np.intp)
            out[:, np.array(need)[keep]] = weight * inner[:, keep]
        return out

    return integrand


def enumerate_forests_rescan(a: int, n: int, k: int):
    """The attachment tuples of the (a, n, k) forest family in scan order,
    by the plain recursion: every step rescans roots, then earlier vertices
    and their slots, for the attachments not yet taken."""
    def rec(nodes):
        i = len(nodes)
        if i == n:
            yield tuple(nodes)
            return
        occupied = set(nodes)
        candidates = [(("r", j), 0) for j in range(1, a + 1)]
        candidates += [(("v", m), slot) for m in range(1, i + 1) for slot in range(k + 1)]
        for att in candidates:
            if att not in occupied:
                nodes.append(att)
                yield from rec(nodes)
                nodes.pop()

    yield from rec([])


def _whole_as_int(v):
    return int(v) if type(v) is Fraction and v.denominator == 1 else v


def pochhammer_k_fraction_loop(x, n: int, k):
    """Exact (x)_{n,k} factor by factor from int 1: each step forms and
    normalizes one Fraction; a whole result comes back as an int."""
    out = 1
    for j in range(n):
        out = out * (x + j * k)
    return _whole_as_int(out)


def pochhammer_symmetric_fraction_sum(x, n: int, k):
    """Exact sum_s e_s(1..n-1) k^s x^(n-s) in Fractions, the e_s by the
    add-one-variable recurrence; a whole result comes back as an int."""
    if n == 0:
        return 1
    e = [1] + [0] * (n - 1)
    for j in range(1, n):
        for s in range(j, 0, -1):
            e[s] += j * e[s - 1]
    out = 0
    for s in range(n):
        out = out + e[s] * k ** s * x ** (n - s)
    return _whole_as_int(out)


def validate_forest_sequential(f) -> str | None:
    """The message of the first structural fault of forest f = (a, k, nodes)
    in vertex order, each vertex's range before its slot's repeat, by one
    walk with a set of the slots taken so far; None for a valid forest."""
    a, k, nodes = f
    if not (isinstance(a, int) and a >= 1 and isinstance(k, int) and k >= 1):
        return f"bad family parameters a={a}, k={k}"
    seen = set()
    for i, (parent, slot) in enumerate(nodes, start=1):
        kind, idx = parent
        if kind == "r":
            if not 1 <= idx <= a:
                return f"v_{i} attaches to nonexistent root {idx}"
            if slot != 0:
                return f"roots carry a single slot, v_{i} uses {slot}"
        elif kind == "v":
            if not 1 <= idx < i:
                return f"v_{i} must attach to an earlier internal vertex, got v_{idx}"
            if not 0 <= slot <= k:
                return f"internal vertices carry slots 0..{k}, v_{i} uses {slot}"
        else:
            return f"unknown parent kind {kind!r}"
        if (parent, slot) in seen:
            return f"slot {(parent, slot)} occupied twice"
        seen.add((parent, slot))
    return None


def serialize_forest_lines(f) -> str:
    """A valid forest's text, one f-string line at a time: `root j` lines,
    `node i parent=<kind><index> slot=<slot>` lines, then `tails=a + nk`."""
    a, k, nodes = f
    lines = [f"root {j}\n" for j in range(1, a + 1)]
    for i, ((kind, idx), slot) in enumerate(nodes, start=1):
        lines.append(f"node {i} parent={kind}{idx} slot={slot}\n")
    lines.append(f"tails={a + len(nodes) * k}\n")
    return "".join(lines)


def psi_series_loop(k: float, x: float) -> float:
    """S(k, x) = sum_{n>=1} (1/(x+nk) - 1/(nk)): a 200-term head added in a
    loop over n, and an Euler-Maclaurin tail."""
    head = 0.0
    for n in range(1, 201):
        head += 1.0 / (x + n * k) - 1.0 / (n * k)
    a = 201.0
    integral = -math.log1p(x / (a * k)) / k
    g_a = 1.0 / (x + a * k) - 1.0 / (a * k)
    g1_a = -k / (x + a * k) ** 2 + 1.0 / (k * a * a)
    g3_a = -6.0 * k ** 3 / (x + a * k) ** 4 + 6.0 / (k * a ** 4)
    return head + (integral + 0.5 * g_a - g1_a / 12.0 + g3_a / 720.0)


def psi_point_two_series(k: float, x: float) -> tuple[float, float, float]:
    """(psi_x, psi_k, psi_kk) of log Gamma_k at (k, x), each partial summing
    its own series S(k, x) by psi_series_loop."""
    euler_gamma = 0.5772156649015329

    def psi_k(k, x):
        return (x / (k * k)) * ((1.0 - math.log(k) + euler_gamma)
                                + k * psi_series_loop(k, x))

    h = 1e-5 * k
    return (-1.0 / x + (math.log(k) - euler_gamma) / k - psi_series_loop(k, x),
            psi_k(k, x), (psi_k(k + h, x) - psi_k(k - h, x)) / (2.0 * h))


def gamma_k_product_every_pass(k: float, x: float, n_terms: int) -> tuple[float, float]:
    """(value, err_estimate) of gammak.gamma_k_product with its factor passes
    run at every sign of q = x/k: the zero-factor search, log|1+q/n| where
    1 + q/n < 0.5 and the count of negative factors, over 1..N from
    np.arange. For (k, x) the route accepts; DomainError at a zero factor."""
    import numpy as np

    from kspecial.errors import DomainError
    from kspecial.gammak import _tail_sums

    q = x / k
    r = q / np.arange(1, n_terms + 1, dtype=np.float64)
    f = 1.0 + r
    zero = np.flatnonzero(f == 0.0)
    if zero.size:
        n = int(zero[0]) + 1
        raise DomainError(f"product factor vanished at n={n}; x on pole lattice",
                          nearest_pole=-n * k)
    low = f < 0.5
    terms = np.empty(n_terms)
    np.log1p(r, out=terms, where=~low)
    np.log(np.abs(f), out=terms, where=low)
    terms -= r
    sign = 1 if x > 0.0 else -1
    if np.count_nonzero(f < 0.0) % 2:
        sign = -sign
    log_recip = math.fsum([math.log(abs(x)), -q * math.log(k), q * 0.5772156649015329,
                           float(terms.sum())])
    s2, s3, s4, s5 = _tail_sums(n_terms)
    log_recip += -0.5 * q * q * s2 + (q ** 3 / 3.0) * s3 - (q ** 4 / 4.0) * s4
    v = sign * math.exp(-log_recip)
    rounding = sys.float_info.epsilon * math.log2(n_terms) * float(np.abs(terms).sum())
    return v, abs(v) * (abs(q) ** 5 / 5.0 * s5 + 1e-12 + rounding)

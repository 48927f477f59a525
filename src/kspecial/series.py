"""Summation of power series with a rational coefficient ratio (the
hypergeometric form) under a three-in-a-row stop rule.

Terms are added until |term_n| < abs_tol + rel_tol * |partial_sum| holds for
three consecutive n (one small term can be an accidental zero of an
alternating or polynomial series). err_estimate is the magnitude of the
first omitted term, which is honest only when the terms eventually decrease;
slowly converging series satisfy the rule long before the sum is accurate,
which is the caller's problem to know about. A nan partial sum can never
meet the rule, so sum_series raises at the first one: DomainError where
the term itself is nan, ResultOverflow where inf terms made it.

sum_series sums one series, forming each term and applying the stop rule
in one loop: per-term interpreter overhead is most of a point evaluation's
cost. It stays scalar because its callers sum one series per call, where
numpy's per-call overhead would cost more than the loop.
sum_series_batch applies the same rule, element by element, to a whole
array of arguments of one power series whose coefficient ratio does not
depend on the argument; the iterated-integral hypergeometric route needs
that series at thousands of arguments per quadrature level. It makes terms
in blocks of 6, 12, 24 and then 32, since most of those series stop
within a few terms and a long tail needs over a hundred.
"""

from __future__ import annotations

import math

from .errors import DomainError, NonConvergent, ResultOverflow
from .profiles import DEFAULT, EvalResult, PrecisionProfile

# Terms per numpy step in sum_series_batch: _FIRST_BLOCK, doubling up to
# _MAX_BLOCK. One term per step took ~1.4x as long on the p=2 integral-route
# check, whose 79,030 arguments need 5.4 terms on average (131 at most). Its
# 37 calls took 19.0 ms with a fixed block of 16, 18.0 ms with 6 and 14.5 ms
# with this schedule (2 vCPU, Python 3.11, numpy 2.4).
_FIRST_BLOCK = 6
_MAX_BLOCK = 32


def sum_series(x, upper: tuple, lower: tuple,
               profile: PrecisionProfile = DEFAULT) -> EvalResult:
    """Sum sum_n c_n x^n under the profile's stop rule, where term n+1 is

        term_n * (x prod_j (a_j + n k_j)) / ((n + 1.0) prod_i (b_i + n s_i))

    over the (a_j, k_j) pairs of upper and the (b_i, s_i) pairs of lower,
    multiplied left to right; a factor of int or Fraction parameters is
    formed exactly before it meets a float. The term after the last
    included one is formed, as the error estimate (at the max_terms cap
    too, where it goes unread).
    """
    abs_tol, rel_tol = profile.abs_tol, profile.rel_tol
    isfinite = math.isfinite
    total = 0.0
    consecutive = 0
    t = 1.0
    for n in range(profile.max_terms):
        total += t
        if abs(t) <= abs_tol + rel_tol * abs(total):
            consecutive += 1
        elif isfinite(total):
            consecutive = 0
        else:
            # nan (or inf under rel_tol 0) never meets the rule; an inf sum
            # under rel_tol > 0 does, and its EvalResult refuses it
            if t != t:   # inf/inf or 0*inf: the term itself may be small
                raise DomainError(f"sum_series: term {n + 1} is nan; its factor "
                                  "products leave the float range")
            raise ResultOverflow(f"sum_series: the partial sum is {total} after "
                                 f"{n + 1} terms; the terms pass the float range")
        num = x
        for a_j, k_j in upper:
            num *= a_j + n * k_j
        den = n + 1.0
        for b_i, s_i in lower:
            den *= b_i + n * s_i
        t = t * num / den
        if consecutive == 3:
            return EvalResult(total, abs(t), "series", n + 1)
    raise NonConvergent(
        f"sum_series: stop rule unmet after {profile.max_terms} terms",
        last_value=total)


def sum_series_batch(x: np.ndarray, den, profile: PrecisionProfile = DEFAULT
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Sum sum_n x^n / (den(0) ... den(n-1)) for every element of x.

    Term n+1 is term n * x / den(n), the order of operations of the scalar
    term recurrences, partial sums are accumulated in term order, and each
    element stops under sum_series's rule, so every sum is bit for bit the
    scalar one. x == 0 takes the one-term shortcut. Returns (sums, terms
    used) arrays.

    Terms are made a block at a time and the stop rule is found in the
    block as a whole: the per-call cost of numpy, not the arithmetic, is
    what a few hundred elements per step would otherwise pay for. Blocks
    grow from _FIRST_BLOCK to _MAX_BLOCK terms; the last one ends at
    profile.max_terms.
    """
    import numpy as np

    total = np.ones(x.size)
    terms = np.ones(x.size, dtype=np.int64)
    idx = np.flatnonzero(x != 0.0)
    xa = x[idx]
    term = np.ones(idx.size)
    acc = np.zeros(idx.size)
    run = np.zeros(idx.size, dtype=np.int64)  # small terms in a row, 0..2
    n = 0
    block_size = _FIRST_BLOCK
    while idx.size:
        if n == profile.max_terms:
            raise NonConvergent(
                f"sum_series: stop rule unmet after {profile.max_terms} terms",
                last_value=float(acc[0]))
        size = min(block_size, profile.max_terms - n)
        # row 0 the sum so far, rows 1..size terms n..n+size-1
        block = np.empty((size + 1, idx.size))
        block[0] = acc
        block[1] = term
        rows = list(block)
        for j in range(1, size):
            np.multiply(rows[j], xa, out=rows[j + 1])
            np.divide(rows[j + 1], den(n + j - 1), out=rows[j + 1])
        term = rows[size] * xa / den(n + size - 1)
        mag = np.abs(block[1:])
        np.cumsum(block, axis=0, out=block)
        sums = block[1:]
        bound = np.abs(sums)
        bound *= profile.rel_tol
        bound += profile.abs_tol
        # small[i + 2]: term n+i meets the rule; rows 0, 1 carry the run
        small = np.empty((size + 2, idx.size), dtype=bool)
        small[0] = run >= 2
        small[1] = run >= 1
        np.less_equal(mag, bound, out=small[2:])
        third = small[2:] & small[1:-1] & small[:-2]
        hit = third.any(axis=0)
        done = np.flatnonzero(hit)
        first = third.argmax(axis=0)[done]
        total[idx[done]] = sums[first, done]
        terms[idx[done]] = n + first + 1
        keep = ~hit
        run = np.where(small[-1] & small[-2], 2, small[-1])[keep]
        idx, xa, term, acc = idx[keep], xa[keep], term[keep], sums[-1][keep]
        n += size
        block_size = min(2 * block_size, _MAX_BLOCK)
    return total, terms

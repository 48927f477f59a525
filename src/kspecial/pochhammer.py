"""Pochhammer k-symbol: (x)_{n,k} = x (x+k) (x+2k) ... (x+(n-1)k).

Arithmetic follows the operand types, so passing ints/Fractions gives exact
rational results while floats give the usual double-precision path. The
log-space form tracks the sign separately and is the one to use for the
huge n that show up in limit-style evaluations.

pochhammer_k_log sums log|x + jk| with a scalar loop below _NUMPY_CUTOFF =
64 factors and with numpy from there on. 64 is the measured crossover on a
shared 2-vCPU x86_64 host: the loop costs ~0.15-0.25 us per factor and the
numpy path a flat ~6-15 us per call up to 32,768 factors, so the two meet
at ~44 factors in timeit and at ~72 in a stream of mixed point
evaluations, where the numpy path's cost doubles. An inf or nan x or k,
which only _make lets into a spec, runs the loop at any n. Because the
factors increase with j, the negative factors are a prefix and a zero
factor, if any, is the first non-negative one; both paths find these, and
so the sign, from ceil(-x/k) with no test per factor. The numpy path works
through the factors _CHUNK at a time in one buffer of at most _CHUNK
doubles, so a 10^6-factor call touches 256 KB instead of building several
8 MB arrays. Each chunk is formed as x + k*j (bit for bit the factors of x
+ k*arange(n)): the first as k times the index table, which allocates the
buffer, and each later one in that buffer, from the table plus its start.
Where the chunk holds no sign change and its two end factors, which bound
every magnitude in it and are formed again as Python floats by the same
IEEE expression, lie in [2^-64, 2^64], it is folded in place into products
of 2^_FOLD factors by _FOLD halvings (b[:m] *= b[m:2m]), so one log covers
2^_FOLD factors and no product leaves [2^-512, 2^512]; the < 2^_FOLD
factors past the last whole group stay single. Any other chunk keeps one
log per factor. The logs are summed pairwise (np.add.reduce, as
ndarray.sum) in place, and math.fsum adds the sums of two or more chunks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple

from .errors import DomainError, ResultOverflow, require_finite

Number = float | int | Fraction

# from this many factors on, the log form takes the numpy path (the
# measured crossover; see the module docstring)
_NUMPY_CUTOFF = 64
# factors per numpy step above the cutoff: a 256 KB buffer stays in L2
_CHUNK = 1 << 15
# halvings per chunk: one log per 2**_FOLD factors
_FOLD = 3
# a chunk folds only when every factor magnitude lies in this range, so a
# product of 2**_FOLD factors stays inside [2**-512, 2**512]
_FOLD_LO, _FOLD_HI = 2.0 ** -64, 2.0 ** 64
# the largest n whose factor indices j are all exact as floats
_N_MAX = 2 ** 53
# read-only 0, 1, ..., _CHUNK-1 as float64; built on first use
_J: np.ndarray | None = None


class PochhammerSpec(NamedTuple("PochhammerSpec",
                                [("x", Number), ("n", int), ("k", Number)])):
    """(x)_{n,k} with n factors stepping by k."""

    __slots__ = ()

    def __new__(cls, x, n, k):
        if not isinstance(n, int) or n < 0:
            raise DomainError(f"n must be a nonnegative int, got {n!r}")
        if not (k > 0):
            raise DomainError(f"k must be > 0, got {k!r}")
        require_finite("x", x)
        require_finite("k", k)
        if type(x) is not type(k) and (isinstance(x, float) or isinstance(k, float)):
            _as_float("x", x)
            _as_float("k", k)
        return tuple.__new__(cls, (x, n, k))


def _is_exact(v) -> bool:
    # int and Fraction, not float; a float answers before the slower ABC test
    return type(v) is not float and isinstance(v, Rational)


def _as_float(name: str, v) -> float:
    """float(v), or DomainError naming name for an int or Fraction no float holds."""
    try:
        return float(v)
    except OverflowError:
        raise DomainError(f"{name} is an exact value of {int(v).bit_length()} "
                          "bits, beyond the float range") from None


def _int_if_whole(v):
    """A Fraction with denominator 1 as an int; anything else unchanged."""
    if type(v) is Fraction and v.denominator == 1:  # faster than the ABC isinstance
        return int(v)
    return v


def pochhammer_k(spec: PochhammerSpec):
    """Direct product in one loop, from int 1 (exact) when x and k are both
    int/Fraction and from 1.0 otherwise.

    A float partial product that reaches inf stays inf, or turns nan at a
    later zero factor, so the loop tests once, after it ends. Only a
    non-finite product, or a factor beyond the float range (an int k in a
    spec built by _make), runs the second pass, which tests every partial
    product to name the first factor that overflowed."""
    x, n, k = spec.x, spec.n, spec.k
    out = 1 if _is_exact(x) and _is_exact(k) else 1.0
    try:
        for j in range(n):
            out = out * (x + j * k)
        if not isinstance(out, float) or math.isfinite(out):
            return _int_if_whole(out)
    except OverflowError:
        pass
    out = 1.0
    for j in range(n):
        out = out * (x + j * k)
        if isinstance(out, float) and math.isinf(out):
            raise ResultOverflow(
                f"(x)_{{n,k}} overflows a float at factor {j + 1} of {n}; "
                "use pochhammer_k_log")
    return out


def _first_nonnegative(x: float, k: float, n: int) -> int:
    """Smallest j < n with x + k*j >= 0 as the kernel rounds it, else n.

    The rounded factors never decrease with j, so the negative ones are
    j < ceil(-x/k) up to rounding; the guess is corrected against the same
    float expression at the neighbouring j (one step at most while
    j < 2**52).
    """
    r = -x / k
    if not (x < 0.0) or math.isnan(r):  # x >= 0 or nan; -inf with k = inf
        return 0
    j = n if r >= n else math.ceil(r)
    while j > 0 and x + k * float(j - 1) >= 0.0:
        j -= 1
    while j < n and x + k * float(j) < 0.0:
        j += 1
    return j


def _chunk_table() -> np.ndarray:
    global _J
    if _J is None:
        import numpy as np
        _J = np.arange(_CHUNK, dtype=np.float64)
        _J.flags.writeable = False
    return _J


def _fold(b: np.ndarray) -> np.ndarray:
    """Multiply b's first m - m % 2**_FOLD entries together 2**_FOLD at a
    time, in place, by _FOLD halvings; the view of b holding those m >> _FOLD
    products followed by the m % 2**_FOLD entries left over."""
    m = b.size
    w = m >> _FOLD << _FOLD
    rest = m - w
    for _ in range(_FOLD):
        w //= 2
        head = b[:w]
        head *= b[w:2 * w]
    if rest:
        b[w:w + rest] = b[m - rest:]
    return b[:w + rest]


def pochhammer_k_log(spec: PochhammerSpec) -> tuple[float, int]:
    """(log |(x)_{n,k}|, sign). sign is 0 when some factor is exactly zero
    (then the log is -inf). DomainError when finite x and k give a last
    factor x + (n-1)k beyond the float range, or n above 2**53, where the
    factor index j stops being exact as a float; an inf or nan that _make
    let into the spec runs the factor loop."""
    x, n, k = _as_float("x", spec.x), spec.n, _as_float("k", spec.k)
    if n == 0:
        return 0.0, 1
    if n > _N_MAX:
        raise DomainError(f"(x)_{{n,k}} in log form needs n <= 2**53, "
                          f"got an n of {n.bit_length()} bits")
    finite = math.isfinite(x) and math.isfinite(k)
    if finite and not math.isfinite(x + (n - 1) * k):
        raise DomainError(f"(x)_{{n,k}} needs a finite last factor x + (n-1)k, "
                          f"got x={x}, n={n}, k={k}")
    neg = _first_nonnegative(x, k, n)
    if neg < n and x + k * float(neg) == 0.0:
        return -math.inf, 0
    sign = -1 if neg % 2 else 1
    if n >= _NUMPY_CUTOFF and finite:
        import numpy as np

        table = _chunk_table()
        sums = []
        for start in range(0, n, _CHUNK):
            m = min(_CHUNK, n - start)
            if start:   # later chunks reuse the first one's buffer
                b = np.add(table[:m], start, out=buf[:m])    # exact below 2**53
                b *= k
            else:
                b = buf = np.multiply(table[:m], k)
            b += x
            if start < neg:
                np.abs(b, out=b)
            # |factors| are monotone in j, so the ends bound the chunk; each
            # end is the same IEEE expression the array ran
            first = abs(x + k * float(start))
            last = abs(x + k * float(start + m - 1))
            if (not start < neg < start + m and _FOLD_LO <= first <= _FOLD_HI
                    and _FOLD_LO <= last <= _FOLD_HI):
                b = _fold(b)
            np.log(b, out=b)
            sums.append(float(np.add.reduce(b)))
        return (sums[0] if n <= _CHUNK else math.fsum(sums)), sign
    # not sum(): from Python 3.12 it rounds differently from this loop
    log_abs = 0.0
    for j in range(neg):
        log_abs += math.log(-(x + j * k))
    for j in range(neg, n):
        log_abs += math.log(x + j * k)
    return log_abs, sign


def log_sum_rounding(n: int, log_abs: float) -> float:
    """Rounding of pochhammer_k_log's log_abs = log|(x)_{n,k}|, a sum of n
    logs, in units of eps.

    The scalar loop adds the logs one by one, so its error is a random walk
    of n roundings of a growing partial sum: about sqrt(n)/6 units of
    eps * |log_abs| at one standard deviation, and sqrt(n) is taken. The
    chunked numpy path sums pairwise within each chunk and exactly (fsum)
    across chunks, which leaves about one rounding of the result. Its fold
    adds an absolute error that does not shrink with |log_abs|: a product of
    2**_FOLD factors takes 2**_FOLD - 1 multiplications, each rounding at
    most eps relative, so at most eps in its log, and up to n >> _FOLD such
    products are logged. Where the factors are near 1 and |log_abs| < n,
    this term is the larger one.
    """
    if n < _NUMPY_CUTOFF:
        return math.sqrt(n) * abs(log_abs)
    return abs(log_abs) + ((1 << _FOLD) - 1) * (n >> _FOLD)


def _require_float_range(out, what: str, **args):
    """out, or ResultOverflow naming what at args if out is an inf or nan float."""
    if isinstance(out, float) and not math.isfinite(out):
        at = ", ".join(f"{name}={v}" for name, v in args.items())
        raise ResultOverflow(f"{what} at {at}: a term or the result overflows a "
                             "float; use pochhammer_k_log")
    return out


def _elementary_symmetric_table(m: int) -> list[int]:
    """e_s(1, 2, ..., m) for s = 0..m, by the add-one-variable recurrence
    e_s(1..j) = e_s(1..j-1) + j * e_{s-1}(1..j-1)."""
    e = [1] + [0] * m
    for j in range(1, m + 1):
        for s in range(min(j, m), 0, -1):
            e[s] = e[s] + j * e[s - 1]
    return e


def pochhammer_via_symmetric(spec: PochhammerSpec):
    """(x)_{n,k} = sum_s e_s(1,...,n-1) k^s x^(n-s).

    Independent of the direct product; the e_s are exact integers, so in
    rational mode the two routes must agree exactly.
    """
    x, n, k = spec.x, spec.n, spec.k
    if n == 0:
        return pochhammer_k(spec)
    e = _elementary_symmetric_table(n - 1)
    out = 0  # the loop runs, so float inputs give a float
    try:
        for s in range(n):
            out = out + e[s] * k ** s * x ** (n - s)
    except OverflowError:  # an int e_s or a power past the float range
        out = math.inf
    return _int_if_whole(_require_float_range(out, "(x)_{n,k}", x=x, n=n, k=k))


def pochhammer_dk(spec: PochhammerSpec):
    """d/dk (x)_{n,k} = sum_{s=1}^{n-1} s * (x)_{s,k} * (x+(s+1)k)_{n-1-s,k}.

    Each summand drops the (x+sk) factor from the full product and weights
    by s, which is exactly the product rule applied to the n-1 k-bearing
    factors.
    """
    x, n, k = spec.x, spec.n, spec.k
    out = 0 if _is_exact(x) and _is_exact(k) else 0.0  # typed: n <= 1 adds no term
    for s in range(1, n):
        left = pochhammer_k(PochhammerSpec(x, s, k))
        right = pochhammer_k(PochhammerSpec(x + (s + 1) * k, n - 1 - s, k))
        out = out + s * left * right
    return _int_if_whole(_require_float_range(out, "d/dk (x)_{n,k}", x=x, n=n, k=k))


def pochhammer_rescale(x: Number, n: int, s: Number, k: Number):
    """(x)_{n,s} computed through step k: (s/k)^n * (kx/s)_{n,k}.

    DomainError for an inf or nan float argument, ResultOverflow naming
    x, n, s and k where a float kx/s, (s/k)^n or the result overflows."""
    if not (s > 0):
        raise DomainError(f"target step s must be > 0, got {s!r}")
    exact = _is_exact(x) and _is_exact(s) and _is_exact(k)
    if exact:
        ratio = Fraction(s) / Fraction(k)
        arg = Fraction(k) * Fraction(x) / Fraction(s)
    else:
        for name, v in (("x", x), ("s", s), ("k", k)):
            require_finite(name, _as_float(name, v))
        ratio = s / k
        arg = _require_float_range(k * x / s, "(x)_{n,s}", x=x, n=n, s=s, k=k)
    try:
        out = ratio ** n * pochhammer_k(PochhammerSpec(arg, n, k))
    except OverflowError:  # ratio ** n, or pochhammer_k's ResultOverflow
        out = math.inf
    return _int_if_whole(_require_float_range(out, "(x)_{n,s}", x=x, n=n, s=s, k=k))

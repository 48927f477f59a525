"""Pochhammer k-symbol: (x)_{n,k} = x (x+k) (x+2k) ... (x+(n-1)k).

Arithmetic follows the operand types, so passing ints/Fractions gives exact
rational results while floats give the usual double-precision path. The
log-space form tracks the sign separately and is the one to use for the
huge n that show up in limit-style evaluations.

pochhammer_k_log sums log|x + jk| with a scalar loop below _NUMPY_CUTOFF
factors and with numpy above it. The numpy path works through the factors
_CHUNK at a time in one buffer of at most _CHUNK doubles, so a 10^6-factor
call touches 256 KB instead of building several 8 MB arrays: each chunk is
formed in place as x + k*j (bit for bit the factors of x + k*arange(n)),
logged in place and summed, and math.fsum adds the chunk sums. Because the
factors increase with j, the negative factors are a prefix and a zero
factor, if any, is the first non-negative one; both follow from
ceil(-x/k) without a pass over the array. A call with n <= _CHUNK is one
chunk and equals the full-array sum bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import DomainError, ResultOverflow

Number = float | int | Fraction

# above this, the log form switches to a vectorized sum
_NUMPY_CUTOFF = 512
# factors per numpy step above the cutoff: a 256 KB buffer stays in L2
_CHUNK = 1 << 15
# read-only 0, 1, ..., _CHUNK-1 as float64; built on first use
_J: np.ndarray | None = None


@dataclass(frozen=True, slots=True)
class PochhammerSpec:
    """(x)_{n,k} with n factors stepping by k."""

    x: Number
    n: int
    k: Number

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 0:
            raise DomainError(f"n must be a nonnegative int, got {self.n!r}")
        if not (self.k > 0):
            raise DomainError(f"k must be > 0, got {self.k!r}")


def _is_exact(v) -> bool:
    return isinstance(v, Rational)  # int and Fraction, not float


def pochhammer_k(spec: PochhammerSpec):
    """Direct product. Exact when x and k are both int/Fraction."""
    x, n, k = spec.x, spec.n, spec.k
    out = Fraction(1) if (_is_exact(x) and _is_exact(k)) else 1.0
    for j in range(n):
        out = out * (x + j * k)
        if isinstance(out, float) and math.isinf(out):
            raise ResultOverflow(
                f"(x)_{{n,k}} overflows a float at factor {j + 1} of {n}; "
                "use pochhammer_k_log")
    if isinstance(out, Fraction) and out.denominator == 1:
        return int(out)
    return out


def _first_nonnegative(x: float, k: float, n: int) -> int:
    """Smallest j < n with x + k*j >= 0 as the kernel rounds it, else n.

    The rounded factors never decrease with j, so the negative ones are
    j < ceil(-x/k) up to rounding; the guess is corrected against the same
    float expression at the neighbouring j (one step at most while
    j < 2**52).
    """
    if not (x < 0.0):           # x >= 0, or nan
        return 0
    r = -x / k
    j = n if r >= n else math.ceil(r)
    while j > 0 and x + k * float(j - 1) >= 0.0:
        j -= 1
    while j < n and x + k * float(j) < 0.0:
        j += 1
    return j


def _chunk_table() -> np.ndarray:
    global _J
    if _J is None:
        _J = np.arange(_CHUNK, dtype=np.float64)
        _J.flags.writeable = False
    return _J


def pochhammer_k_log(spec: PochhammerSpec) -> tuple[float, int]:
    """(log |(x)_{n,k}|, sign). sign is 0 when some factor is exactly zero
    (then the log is -inf)."""
    x, n, k = float(spec.x), spec.n, float(spec.k)
    if n == 0:
        return 0.0, 1
    if n >= _NUMPY_CUTOFF:
        neg = _first_nonnegative(x, k, n)
        if neg < n and x + k * float(neg) == 0.0:
            return -math.inf, 0
        table = _chunk_table()
        buf = np.empty(min(n, _CHUNK))
        sums = []
        for start in range(0, n, _CHUNK):
            b = buf[:min(_CHUNK, n - start)]
            np.add(table[:b.size], start, out=b)    # exact below 2**53
            b *= k
            b += x
            if start < neg:
                np.abs(b, out=b)
            np.log(b, out=b)
            sums.append(float(b.sum()))
        return math.fsum(sums), -1 if neg % 2 else 1
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


def log_sum_rounding(n: int) -> float:
    """Rounding of pochhammer_k_log's sum of n logs, in units of
    eps * |log|(x)_{n,k}||.

    The scalar loop adds the logs one by one, so its error is a random walk
    of n roundings of a growing partial sum: about sqrt(n)/6 units at one
    standard deviation, and sqrt(n) is taken. The chunked numpy path sums
    pairwise within each chunk and exactly (fsum) across chunks, which
    leaves about one rounding of the result.
    """
    return math.sqrt(n) if n < _NUMPY_CUTOFF else 1.0


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
    exact = _is_exact(x) and _is_exact(k)
    out = Fraction(0) if exact else 0.0
    for s in range(n):
        out = out + e[s] * k ** s * x ** (n - s)
    if isinstance(out, Fraction) and out.denominator == 1:
        return int(out)
    return out


def pochhammer_dk(spec: PochhammerSpec):
    """d/dk (x)_{n,k} = sum_{s=1}^{n-1} s * (x)_{s,k} * (x+(s+1)k)_{n-1-s,k}.

    Each summand drops the (x+sk) factor from the full product and weights
    by s, which is exactly the product rule applied to the n-1 k-bearing
    factors.
    """
    x, n, k = spec.x, spec.n, spec.k
    exact = _is_exact(x) and _is_exact(k)
    out = Fraction(0) if exact else 0.0
    for s in range(1, n):
        left = pochhammer_k(PochhammerSpec(x, s, k))
        right = pochhammer_k(PochhammerSpec(x + (s + 1) * k, n - 1 - s, k))
        out = out + s * left * right
    if isinstance(out, Fraction) and out.denominator == 1:
        return int(out)
    return out


def pochhammer_rescale(x: Number, n: int, s: Number, k: Number):
    """(x)_{n,s} computed through step k: (s/k)^n * (kx/s)_{n,k}."""
    if not (s > 0):
        raise DomainError(f"target step s must be > 0, got {s!r}")
    exact = _is_exact(x) and _is_exact(s) and _is_exact(k)
    if exact:
        ratio = Fraction(s, k) if isinstance(s, int) and isinstance(k, int) else Fraction(s) / Fraction(k)
        arg = Fraction(k) * Fraction(x) / Fraction(s)
    else:
        ratio = s / k
        arg = k * x / s
    out = ratio ** n * pochhammer_k(PochhammerSpec(arg, n, k))
    if isinstance(out, Fraction) and out.denominator == 1:
        return int(out)
    return out

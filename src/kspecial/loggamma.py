"""Classical log-gamma for x > 0: the stdlib's math.lgamma behind a domain
check.

The check is load-bearing: math.lgamma returns log|Gamma(x)| at negative
non-integers (finite, e.g. at -0.5) and nan for nan, and the callers here
need log Gamma(x) itself, which exists only for x > 0. Above x ~ 2.6e305
log Gamma(x) exceeds the largest double: math.lgamma raises there, and the
kernel returns inf, which the callers' exp_or_overflow turns into
ResultOverflow.
"""

from __future__ import annotations

import math

from .errors import DomainError


def log_gamma_classic(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not (x > 0.0):
        raise DomainError(f"log_gamma_classic requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:   # log Gamma(x) itself exceeds the largest double
        return math.inf

"""Typed failure modes shared across the package.

Every engine either returns a finite value with an error estimate or raises
one of these. Callers that probe edge behavior (poles, divergent series,
enumeration caps) catch the specific type.
"""

from __future__ import annotations

import math


class DomainError(ValueError):
    """Input outside the mathematical domain of the operation.

    For Gamma_k-style evaluations at a pole, ``nearest_pole`` carries the
    offending lattice point (poles sit at x in {0, -k, -2k, ...}).
    """

    def __init__(self, message: str, *, nearest_pole: float | None = None):
        super().__init__(message)
        self.nearest_pole = nearest_pole


class PoleError(DomainError):
    """Evaluation exactly at a pole (e.g. Hurwitz zeta at s = 1)."""


class OutsideRadius(DomainError):
    """Series argument at or beyond the radius of convergence."""

    def __init__(self, message: str, *, radius: float | None = None):
        super().__init__(message)
        self.radius = radius


class DivergentSeries(DomainError):
    """Series diverges for every nonzero argument."""


class NonConvergent(ArithmeticError):
    """Iteration cap reached before the stop rule was satisfied."""

    def __init__(self, message: str, *, last_value: float | None = None,
                 last_delta: float | None = None):
        super().__init__(message)
        self.last_value = last_value
        self.last_delta = last_delta


class ResultOverflow(OverflowError):
    """The result exists but its magnitude exceeds the largest double
    (e.g. Gamma_k(x) for x/k above ~171)."""


def exp_or_overflow(log_v: float, name: str, k: float, *args: float) -> float:
    """exp(log_v), the value of name(*args) at k; ResultOverflow naming them
    when it exceeds the largest double (math.exp raises for a finite log_v
    and returns inf for inf). The message is built only on failure."""
    try:
        v = math.exp(log_v)
    except OverflowError:
        v = math.inf
    if v == math.inf:
        raise ResultOverflow(
            f"{name}({', '.join(map(str, args))}) with k={k} overflows a "
            f"float (log value {log_v:.6g})")
    return v


class CapExceeded(RuntimeError):
    """Enumeration would produce more objects than the requested cap.

    ``count`` carries the exact cardinality, which is cheap to compute even
    when materializing the family is not.
    """

    def __init__(self, message: str, *, count: int):
        super().__init__(message)
        self.count = count


class InvariantViolation(ValueError):
    """A structural invariant of a combinatorial object fails to hold."""

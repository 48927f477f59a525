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
    """The result, or a quantity its route must form, exceeds the largest
    double (e.g. Gamma_k(x) for x/k above ~171)."""


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


def require_finite(name: str, *values) -> None:
    """DomainError naming the first inexact real among values (a float, a
    numpy float of any width) that is inf or nan. Exact values, which carry
    a denominator (ints, Fractions), pass, however large."""
    for v in values:
        if ((isinstance(v, float) or not hasattr(v, "denominator") and _is_real(v))
                and not math.isfinite(v)):
            raise DomainError(f"{name} must be finite, got {v}")


def builtin_real(v):
    """float(v) for an inexact real that is no float (a numpy float); else v."""
    return v if hasattr(v, "denominator") or not _is_real(v) else float(v)


def _is_real(v) -> bool:
    # numbers is imported only here, for a value that is neither a float nor
    # exact: no command needs it at start-up
    from numbers import Real
    return isinstance(v, Real)


def as_float(name: str, v, zero_ok: bool = False) -> float:
    """float(v), or DomainError naming name for an int or Fraction no float
    holds: one past the largest double, or a nonzero one whose float is 0.0.
    zero_ok reads the latter as 0.0, as the float literal 1e-400 reads, for
    a point where the function is continuous at 0 (hyper's x, zeta_k's s)."""
    try:
        f = float(v)
    except OverflowError:
        raise DomainError(f"{name} is an exact value of {int(v).bit_length()} "
                          "bits, beyond the float range") from None
    if f == 0.0 and not zero_ok and v != 0:
        raise DomainError(f"{name} is a nonzero exact value below the float range")
    return f


class CapExceeded(RuntimeError):
    """Enumeration would produce more objects than the requested cap.

    ``count`` carries the exact cardinality, which is cheap to compute even
    when materializing the family is not.
    """

    def __init__(self, message: str, *, count: int):
        super().__init__(message)
        self.count = count


class InvariantViolation(ValueError):
    """A structural invariant fails: of a forest, or a PsiPoint's psi_xx > 0."""

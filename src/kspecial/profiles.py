"""Precision profiles and the common evaluation-result record.

A PrecisionProfile bundles the knobs every iterative engine consumes
(series summation, quadrature refinement, product truncation). Three named
profiles are provided; ``default`` is used when nothing else is requested,
and the CLI maps KSPECIAL_PROFILE=strict|default|fast onto these.

Every record in the package is a typing.NamedTuple. One that checks its
fields does so in __new__, which then builds the record with
tuple.__new__(cls, fields), not through super() and the generated __new__;
_replace and _make still skip the checks. Every route returns an EvalResult,
whose __new__ refuses an inf or nan value or estimate with ResultOverflow.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ResultOverflow, require_finite

# Euler-Mascheroni constant, gamma = lim (H_n - log n).
EULER_GAMMA = 0.5772156649015328606

# Tags carried by EvalResult.method. "scaling" marks closed-form reference
# evaluations, the rest name the engine that produced the value.
METHODS = frozenset({
    "limit", "integral", "scaling", "product", "series", "euler_maclaurin",
})


class PrecisionProfile(NamedTuple("PrecisionProfile", [
        ("rel_tol", float), ("abs_tol", float), ("max_terms", int),
        ("max_quad_refinements", int)])):
    __slots__ = ()

    def __new__(cls, rel_tol=1e-10, abs_tol=1e-14, max_terms=100_000,
                max_quad_refinements=12):
        if not (rel_tol > 0 and abs_tol > 0):
            raise ValueError("tolerances must be positive")
        require_finite("tolerances", rel_tol, abs_tol)
        if max_terms < 1 or max_quad_refinements < 1:
            raise ValueError("iteration caps must be >= 1")
        return tuple.__new__(cls, (rel_tol, abs_tol, max_terms, max_quad_refinements))


DEFAULT = PrecisionProfile()
STRICT = PrecisionProfile(rel_tol=1e-12, abs_tol=1e-15,
                          max_terms=500_000, max_quad_refinements=14)
FAST = PrecisionProfile(rel_tol=1e-7, abs_tol=1e-10,
                        max_terms=20_000, max_quad_refinements=9)

PROFILES = {"strict": STRICT, "default": DEFAULT, "fast": FAST}


class EvalResult(NamedTuple("EvalResult", [
        ("value", float), ("err_estimate", float), ("method", str),
        ("terms_or_nodes_used", int)])):
    """A numeric value plus how it was obtained and how far to trust it.

    err_estimate is an a-posteriori bound-ish quantity (last refinement
    delta, first omitted term, or a tail-order bound), not a guarantee.
    """

    __slots__ = ()

    def __new__(cls, value, err_estimate, method, terms_or_nodes_used=0):
        if method not in METHODS:
            raise ValueError(f"unknown method tag {method!r}")
        if not (math.isfinite(value) and math.isfinite(err_estimate)):
            raise ResultOverflow(f"{method} result overflows a float after "
                                 f"{terms_or_nodes_used} terms or nodes: value {value}, "
                                 f"err_estimate {err_estimate}")
        if err_estimate < 0:
            raise ValueError("err_estimate must be >= 0")
        if terms_or_nodes_used < 0:
            raise ValueError("terms_or_nodes_used must be >= 0")
        return tuple.__new__(cls, (value, err_estimate, method, terms_or_nodes_used))

    def __float__(self) -> float:
        return self.value

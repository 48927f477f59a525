"""The step-generalized hypergeometric series

    F(x) = sum_{n>=0}  prod_j (a_j)_{n,k_j} / prod_i (b_i)_{n,s_i} * x^n / n!

with per-parameter step sizes k_j (upper) and s_i (lower). The ratio test
fixes the convergence class: entire for p <= q, radius (s_1...s_q)/(k_1...k_p)
for p = q+1, divergent for every nonzero x when p > q+1.

Routes kept independent for cross-checking:

  * evaluate           term recurrence + safeguarded summation
  * transfer_classical rescale all steps to 1 and the argument by kbar/sbar
  * coefficient        n-th derivative at 0, exact in rational mode
  * ode_residual       both sides of the defining operator equation applied
                       coefficient-wise
  * integral_representation_check
                       peels upper parameters one at a time into halfline
                       integrals weighted by exp(-t^k/k) t^(a-1), down to
                       the p = 0 base series
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .errors import (DivergentSeries, DomainError, OutsideRadius, ResultOverflow,
                     as_float, builtin_real)
from .gammak import gamma_k_integrand, gamma_k_scaling, nearest_pole
from .profiles import DEFAULT, EvalResult, PrecisionProfile
from .series import sum_series, sum_series_batch


class HypergeometricSpec(NamedTuple("HypergeometricSpec", [("a", tuple), ("k", tuple),
                                                          ("b", tuple), ("s", tuple)])):
    __slots__ = ()

    def __new__(cls, a, k, b, s):
        a, k, b, s = tuple(a), tuple(k), tuple(b), tuple(s)
        if len(a) != len(k):
            raise DomainError(f"need one step per upper parameter: {len(a)} vs {len(k)}")
        if len(b) != len(s):
            raise DomainError(f"need one step per lower parameter: {len(b)} vs {len(s)}")
        # One pass: a step that is not > 0 is refused at once, the first inf
        # or nan float (in the order a, k, b, s) when the pass ends, and only
        # then a b_i <= 0 on the pole lattice of its step. A numpy float
        # starts the spec again with every such value as a Python float.
        nonfinite = None
        for name, values, step in (("a", a, False), ("k", k, True),
                                   ("b", b, False), ("s", s, True)):
            for v in values:
                if step and not (v > 0):
                    raise DomainError("all step parameters must be > 0")
                if type(v) is float:
                    if nonfinite is None and not math.isfinite(v):
                        nonfinite = f"{name} must be finite, got {v}"
                elif builtin_real(v) is not v:
                    return cls(*(tuple(map(builtin_real, p)) for p in (a, k, b, s)))
        if nonfinite is not None:
            raise DomainError(nonfinite)
        for b_i, s_i in zip(b, s):
            if b_i <= 0 and nearest_pole(as_float("s", s_i), as_float("b", b_i)) is not None:
                raise DomainError(
                    f"lower parameter {b_i} sits on the pole lattice of step {s_i}",
                    nearest_pole=float(b_i))
        return tuple.__new__(cls, (a, k, b, s))

    @property
    def p(self) -> int:
        return len(self.a)

    @property
    def q(self) -> int:
        return len(self.b)


class ConvergenceClass(NamedTuple("ConvergenceClass", [("kind", str), ("radius", float)])):
    __slots__ = ()

    def __new__(cls, kind, radius):
        if kind not in ("entire", "radius", "divergent"):
            raise ValueError(f"unknown convergence kind {kind!r}")
        return tuple.__new__(cls, (kind, radius))


def classify(spec: HypergeometricSpec) -> ConvergenceClass:
    if spec.p <= spec.q:
        return ConvergenceClass("entire", math.inf)
    if spec.p == spec.q + 1:
        try:
            radius = math.prod(map(float, spec.s)) / math.prod(map(float, spec.k))
        except (OverflowError, ZeroDivisionError):
            _refuse_beyond_float(spec, "ks")
            radius = math.nan
        if not 0.0 < radius < math.inf:
            # a step product left the float range (steps > 0, so the true
            # radius is positive and finite): from logs
            log_r = math.fsum(map(math.log, spec.s)) - math.fsum(map(math.log, spec.k))
            try:
                radius = math.exp(log_r)
            except OverflowError:
                radius = math.inf
        return ConvergenceClass("radius", radius)
    return ConvergenceClass("divergent", 0.0)


def _refuse_beyond_float(spec: HypergeometricSpec, fields: str = "akbs") -> None:
    """DomainError naming the first exact parameter among fields (spec field
    names, in spec order) that no float holds."""
    for name, values in zip("akbs", spec):
        if name in fields:
            for v in values:
                as_float(name, v)


def _times_shifted(acc, params: tuple, steps: tuple, n: int):
    """acc * (p_1 + n q_1) * (p_2 + n q_2) * ..., multiplied left to right
    (exact when every operand is int/Fraction)."""
    for p, q in zip(params, steps):
        acc *= p + n * q
    return acc


def _step(acc, up, down, what: str, n: int):
    """acc * up / down, step n of a coefficient recursion. DomainError where
    up and down leave the float range the same way (0.0/0.0 or inf/inf): the
    quotient is unknown, not an overflow."""
    if up == down == 0.0 or abs(up) == abs(down) == math.inf:
        way = "underflow to 0.0" if up == 0.0 else "overflow"
        raise DomainError(f"{what}: the upper and lower factor products of step {n} "
                          f"both {way}, so this route cannot form their quotient")
    return acc * up / down


def evaluate(spec: HypergeometricSpec, x: float,
             profile: PrecisionProfile = DEFAULT) -> EvalResult:
    """The series at x, summed by series.sum_series under the profile's
    stop rule. ResultOverflow where a term, the sum or its estimate passes
    the float range; DomainError for a nan x, a nan term (inf/inf: its
    factor products leave the float range) or an exact parameter no float
    holds."""
    if type(x) is not float:
        x = builtin_real(x)
    if x != x:
        raise DomainError(f"hypergeometric series needs a number x, got {x}")
    cls = classify(spec)
    if cls.kind == "divergent" and x != 0.0:
        raise DivergentSeries(
            f"series with p={spec.p} > q+1={spec.q + 1} diverges for x != 0")
    if cls.kind == "radius" and abs(x) >= cls.radius:
        raise OutsideRadius(
            f"|x|={abs(x)} is outside the open disk of radius {cls.radius}",
            radius=cls.radius)
    if x == 0.0:
        return EvalResult(1.0, 0.0, "series", 1)
    try:
        r = sum_series(x, tuple(zip(spec.a, spec.k)), tuple(zip(spec.b, spec.s)),
                       profile)
    except ResultOverflow:
        raise
    except (OverflowError, ZeroDivisionError):
        # an exact parameter met a float, or a term's factors left the range
        _refuse_beyond_float(spec)
        raise ResultOverflow(f"hypergeometric series at x={x}: a term passes the "
                             "float range") from None
    return r


def transfer_classical(spec: HypergeometricSpec, x: float,
                       profile: PrecisionProfile = DEFAULT) -> EvalResult:
    """Evaluate through the all-steps-1 form: dividing each parameter by its
    step and scaling x by kbar/sbar leaves every term unchanged.

    DomainError where the step product kbar or sbar leaves the float range
    (0.0 or inf): the value may be finite, but this route cannot reach it."""
    try:
        kbar = math.prod(map(float, spec.k))
        sbar = math.prod(map(float, spec.s))
        flat = HypergeometricSpec(
            tuple(a_j / k_j for a_j, k_j in zip(spec.a, spec.k)),
            (1.0,) * spec.p,
            tuple(b_i / s_i for b_i, s_i in zip(spec.b, spec.s)),
            (1.0,) * spec.q)
    except (OverflowError, ZeroDivisionError):
        _refuse_beyond_float(spec)
        raise
    if not (0.0 < kbar < math.inf and 0.0 < sbar < math.inf):
        raise DomainError(f"transfer route needs step products inside the float "
                          f"range, got kbar={kbar}, sbar={sbar}")
    return evaluate(flat, float(x) * kbar / sbar, profile)


def coefficient(spec: HypergeometricSpec, n: int):
    """n! c_n = prod (a_j)_{n,k_j} / prod (b_i)_{n,s_i}: the n-th derivative
    of the series at x = 0. Exact (Fraction) when every parameter is
    rational; float otherwise, and then ResultOverflow where a factor
    product or the coefficient passes the float range, and DomainError where
    a step's two products leave it the same way, as in ode_residual.
    """
    if n < 0:
        raise DomainError(f"derivative order must be >= 0, got {n}")
    from fractions import Fraction
    from numbers import Rational

    params = (*spec.a, *spec.k, *spec.b, *spec.s)
    exact = all(isinstance(v, Rational) for v in params)
    if not exact:
        _refuse_beyond_float(spec)
    r = Fraction(1) if exact else 1.0
    one = 1 if exact else 1.0
    try:
        for m in range(n):
            r = _step(r, _times_shifted(one, spec.a, spec.k, m),
                      _times_shifted(one, spec.b, spec.s, m), f"coefficient n={n}", m)
    except (OverflowError, ZeroDivisionError):   # float mode only
        r = math.inf
    if not abs(r) < math.inf:
        raise ResultOverflow(f"coefficient n={n}: a factor product or the coefficient "
                             "passes the float range")
    return r


def ode_residual(spec: HypergeometricSpec, degree: int) -> float:
    """Apply both sides of the series' operator equation
        D prod_i (s_i D + b_i - s_i) y  =  x prod_j (k_j D + a_j) y,
    D = x d/dx, to the truncated series and return the largest coefficient
    mismatch through x^(degree-1), normalized by the largest magnitude among
    the compared operator outputs (the c_n scale alone would let the factor
    n prod(b_i + (n-1) s_i), which can reach ~1e5 at degree 15 within the
    legal parameter range, inflate plain rounding past any fixed bound).
    On x^n the left side reads n prod_i (b_i + (n-1) s_i) c_n and the right
    side prod_j (a_j + (n-1) k_j) c_{n-1}. ResultOverflow where one of them,
    or a coefficient, passes the float range: the mismatch is then unknown;
    DomainError where a coefficient step's two products leave it the same way.
    """
    if degree < 2:
        raise DomainError(f"degree must be >= 2, got {degree}")
    _refuse_beyond_float(spec)
    worst = 0.0
    scale = 0.0
    try:
        c = [1.0]
        for n in range(degree - 1):
            c.append(_step(c[n], _times_shifted(1.0, spec.a, spec.k, n),
                           _times_shifted(n + 1.0, spec.b, spec.s, n),
                           f"ode_residual through degree {degree}", n))
        for n in range(1, degree):
            lhs = _times_shifted(n * c[n], spec.b, spec.s, n - 1)
            rhs = _times_shifted(c[n - 1], spec.a, spec.k, n - 1)
            worst = max(worst, abs(lhs - rhs))
            scale = max(scale, abs(lhs), abs(rhs))
    except (OverflowError, ZeroDivisionError):
        # a factor an exact parameter forms, or a coefficient, left the range
        scale = math.inf
    if not (worst < math.inf and scale < math.inf):
        raise ResultOverflow(f"ode_residual through degree {degree}: a coefficient or "
                             "operator output passes the float range")
    return worst / scale if scale > 0.0 else 0.0


def integral_representation_check(spec: HypergeometricSpec, x: float,
                                  profile: PrecisionProfile = DEFAULT
                                  ) -> EvalResult:
    """Iterated-quadrature route: peel the last upper parameter through

        F_(p)(x) = 1/Gamma_k(a) int_0^inf e^(-t^k/k) t^(a-1) F_(p-1)(x t^k) dt

    recursively until the p = 0 series remains. Entire class only (p <= q),
    positive upper parameters, depth capped at 3 for cost. The weight is
    gammak.gamma_k_integrand's, and only its nonzero nodes recurse.

    Each nesting level is evaluated for a whole batch of arguments: one
    batched quad_halfline call integrates F_(p-1) for every argument the
    enclosing level asks for, and at each of its calls (refinement levels
    0-2 joined, then one level each) its integrand evaluates the next level
    inward for all active rows times all nodes in one array call, down to
    one sum_series_batch over every base-series argument. Each row and each
    series keeps its own stop rule, so value, err_estimate and work are
    those of integrating one node at a time. quad_halfline hands the
    integrand blocks of at most max(quadrature._BLOCK, one call's nodes)
    values, so the arrays of every depth stay within a fixed multiple of
    that. The base series' denominators (n + 1) prod_i (b_i + n
    s_i) are formed once per call, when a batch first reaches n; DomainError
    where one is 0.0, inf or nan, as in transfer_classical.
    """
    if spec.p > spec.q:
        raise DomainError(
            f"integral route needs the entire class (p <= q), got p={spec.p}, q={spec.q}")
    if spec.p > 3:
        raise DomainError(f"recursion depth capped at 3, got p={spec.p}")
    if any(not (a_j > 0) for a_j in spec.a):
        raise DomainError("integral route needs every upper parameter > 0")
    _refuse_beyond_float(spec)
    import numpy as np

    from .quadrature import quad_halfline

    @functools.cache
    def base_den(n: int) -> float:
        d = _times_shifted(n + 1.0, spec.b, spec.s, n)
        if not (0.0 < abs(d) < math.inf):
            raise DomainError(f"integral route: the base-series denominator "
                              f"at n={n} is {d}, outside the float range")
        return d

    evals = 0

    def level(depth: int, args: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(F_(depth)(args), err_estimate) over the first depth upper
        parameters, elementwise."""
        nonlocal evals
        if depth == 0:
            value, terms = sum_series_batch(args, base_den, profile)
            evals += int(terms.sum())
            return value, np.zeros(args.size)
        a_p, k_p = float(spec.a[depth - 1]), float(spec.k[depth - 1])
        weight = gamma_k_integrand(k_p, a_p - 1.0)

        def integrand(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
            w = weight(t)
            keep = w > 0.0
            out = np.zeros((rows.size, t.size))
            if np.count_nonzero(keep):
                tk = np.exp(k_p * np.log(t[keep]))
                inner_args = np.multiply.outer(args[rows], tk).ravel()
                inner = level(depth - 1, inner_args)[0].reshape(rows.size, -1)
                out[:, keep] = w[keep] * inner
            return out

        r = quad_halfline(integrand, profile, batch=args.size)
        evals += r.terms_or_nodes_used
        g = gamma_k_scaling(k_p, a_p).value
        return r.value / g, r.err_estimate / g

    # an overflow that matters reaches quad_halfline as a non-finite integrand
    # value and raises DomainError there; numpy's warnings would add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        value, err = level(spec.p, np.array([float(x)]))
    return EvalResult(float(value[0]), float(err[0]), "integral", evals)


# the value routes at (spec, x, profile), looked up by name as in gammak.ROUTES
ROUTES = {
    "series": lambda spec, x, profile: evaluate(spec, x, profile),
    "transfer": lambda spec, x, profile: transfer_classical(spec, x, profile),
    "integral": lambda spec, x, profile: integral_representation_check(spec, x, profile),
}

"""Double-exponential (tanh-sinh family) quadrature.

Two maps are provided:

* (0, inf):   t = exp(c sinh u),          c = pi/2   ("exp-sinh")
* (0, 1):     t = 1 / (1 + exp(-2 c sinh u))          ("tanh-sinh")

Both turn endpoint singularities that are integrable into integrands that
decay double-exponentially in u, so the trapezoid rule converges extremely
fast in the step h. One refinement loop halves h until two successive
levels agree within the profile tolerances; err_estimate is the last
inter-level delta (a conservative bound, since convergence is much faster
than linear).

The loop integrates a batch of independent integrands at once: each level
asks the integrand for every active row at all of the level's nodes in one
array call, and each row keeps its own stop rule, error estimate and node
count, leaving the batch once it converges. A level is summed in node order
(u = 0 first at level 0), so a row's result is bit for bit what the same
integrand gives alone. quad_halfline and quad_unit run it for one scalar
integrand; quad_halfline(batch=n) runs it for n rows of an array integrand,
which the iterated-integral hypergeometric route uses.

Node/jacobian tables depend only on (map, level), so they are built on first
use and cached at module level as numpy arrays; evaluation cost is pure
integrand calls. The integrand is asked for at most _BLOCK values per call
(rows, and the nodes of a level too when it has more than _BLOCK), which
bounds the memory a nested batch (an integrand that itself integrates a
batch) can take at any depth.

The u-range is clipped to keep every intermediate double finite:
|c sinh u| <= ~671 at U = 6.75, so t itself never overflows. Integrands must
still be written so that *their* values stay finite wherever the weight has
not underflowed to zero: a non-finite integrand value, an OverflowError from
the integrand, or an integrand times weight that overflows raises
DomainError.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NonConvergent
from .profiles import DEFAULT, EvalResult, PrecisionProfile

_C = math.pi / 2.0
_U_MAX_HALFLINE = 6.75
_U_MAX_UNIT = 6.5
_BASE_H = 0.5  # level-0 step; level L uses h = _BASE_H / 2**L
_BLOCK = 1 << 13  # most integrand values requested in one call

# (kind, level) -> (t, weight) for "halfline", (t, 1-t, weight) for "unit";
# each a float64 array in node order, built lazily.
_node_cache: dict[tuple[str, int], tuple] = {}


def _halfline_nodes(level: int) -> list[tuple[float, float]]:
    """(t, weight) for the exp-sinh map, level L, weight = t * c * cosh(u).

    Level 0: the u = 0 node, then all nonzero multiples of h0. Level L>0: odd
    multiples of h_L only (the even ones were already seen at coarser
    levels). Nonzero u come in both signs, +u first.
    """
    h = _BASE_H / (1 << level)
    out = [(1.0, _C)] if level == 0 else []
    step = 1 if level == 0 else 2
    j = 1
    while True:
        u = j * h
        if u > _U_MAX_HALFLINE:
            break
        sh = _C * math.sinh(u)
        ch = _C * math.cosh(u)
        for sign in (1.0, -1.0):
            t = math.exp(sign * sh)
            out.append((t, t * ch))
        j += step
    return out


def _unit_nodes(level: int) -> list[tuple[float, float, float]]:
    """(t, 1-t, weight) for the tanh-sinh map on (0,1), in the order of
    _halfline_nodes; nodes whose weight underflows to 0 are dropped."""
    h = _BASE_H / (1 << level)
    out = [(0.5, 0.5, 2.0 * 0.25 * _C)] if level == 0 else []
    step = 1 if level == 0 else 2
    j = 1
    while True:
        u = j * h
        if u > _U_MAX_UNIT:
            break
        z = _C * math.sinh(u)
        ch = _C * math.cosh(u)
        # t = sigma(2z), 1-t = sigma(-2z); compute the small one stably.
        e = math.exp(-2.0 * z)  # z > 0 here
        small = e / (1.0 + e)   # = 1 - t
        big = 1.0 / (1.0 + e)   # = t
        w = 2.0 * big * small * ch  # dt/du = 2 t (1-t) c cosh u
        if w > 0.0:
            out.append((big, small, w))    # node at +u
            out.append((small, big, w))    # node at -u (t and 1-t swap)
        j += step
    return out


_NODE_TABLES = {"halfline": _halfline_nodes, "unit": _unit_nodes}


def _nodes(kind: str, level: int) -> tuple:
    key = (kind, level)
    if key not in _node_cache:
        _node_cache[key] = tuple(np.array(col) for col in
                                 zip(*_NODE_TABLES[kind](level)))
    return _node_cache[key]


class QuadBatch(NamedTuple):
    """Results of a batched integration, each an array indexed by row."""
    value: np.ndarray
    err_estimate: np.ndarray
    nodes_used: np.ndarray

    @property
    def terms_or_nodes_used(self) -> int:
        """Nodes summed over the rows, each row counted as EvalResult counts
        one integral."""
        return int(self.nodes_used.sum())


def _block_sums(f, rows: np.ndarray, cols: list, w: np.ndarray,
                acc: np.ndarray | None = None) -> np.ndarray:
    """acc plus each row's sum of f * w over the nodes cols, added in node
    order (a pairwise sum would round differently), so a row's sum depends
    neither on the batch it is in nor on how its nodes are split."""
    try:
        fv = np.asarray(f(rows, *cols), dtype=np.float64)
    except OverflowError:
        raise DomainError(f"integrand overflows a float on nodes "
                          f"t in [{cols[0].min()}, {cols[0].max()}]") from None
    fw = fv * w
    if acc is not None:
        fw[:, 0] += acc
    sums = fw.cumsum(axis=1)[:, -1]
    # a non-finite value or an overflowing product makes its row's sum
    # non-finite; count_nonzero is cheaper than all() on a small array
    if np.count_nonzero(np.isfinite(sums)) != sums.size:
        bad = np.argwhere(~np.isfinite(fv))
        if bad.size:
            i, j = bad[0]
            raise DomainError(f"integrand returned non-finite value "
                              f"{fv[i, j]} at t={cols[0][j]}")
        raise DomainError("integrand times quadrature weight overflows a "
                          "float")
    return sums


def _level_sums(f, active: np.ndarray, cols: list, w: np.ndarray
                ) -> np.ndarray:
    """Each active row's sum of f * w over one level's nodes.

    f sees at most _BLOCK values per call: rows are taken a block at a time
    and, when one row alone has more nodes than that, the nodes too.
    """
    if active.size * w.size <= _BLOCK:  # one call, the common case
        return _block_sums(f, active, cols, w)
    width = min(w.size, _BLOCK)
    step = _BLOCK // width
    sums = np.empty(active.size)
    for lo in range(0, active.size, step):
        rows = active[lo:lo + step]
        acc = None
        for c in range(0, w.size, width):
            part = slice(c, c + width)
            acc = _block_sums(f, rows, [col[part] for col in cols], w[part],
                              acc)
        sums[lo:lo + step] = acc
    return sums


def _refine(kind: str, f, n: int, profile: PrecisionProfile) -> QuadBatch:
    """The refinement loop: integrate n integrands over the map kind
    ("halfline" for (0, inf), "unit" for (0, 1)); see quad_halfline."""
    value = np.zeros(n)
    err = np.zeros(n)
    used = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    evals = 0
    for level in range(profile.max_quad_refinements + 1):
        *cols, w = _nodes(kind, level)
        evals += w.size
        add = _level_sums(f, active, cols, w)
        if level == 0:
            prev = add * _BASE_H
            continue
        cur = prev / 2.0 + add * (_BASE_H / (1 << level))
        delta = np.abs(cur - prev)
        if level >= 2:
            done = delta <= profile.rel_tol * np.abs(cur) + profile.abs_tol
            closed = np.count_nonzero(done)
            if closed == done.size:
                value[active], err[active], used[active] = cur, delta, evals
                return QuadBatch(value, err, used)
            if closed:
                rows = active[done]
                value[rows], err[rows], used[rows] = cur[done], delta[done], evals
                keep = ~done
                active, cur, delta = active[keep], cur[keep], delta[keep]
        prev = cur
    raise NonConvergent(
        f"quad_{kind}: no convergence after {profile.max_quad_refinements} refinements",
        last_value=float(prev[0]), last_delta=float(delta[0]))


def _one(kind: str, f, profile: PrecisionProfile) -> EvalResult:
    """_refine for a single scalar integrand f(*node)."""
    def rows_f(rows, *cols):
        values = map(f, *(c.tolist() for c in cols))
        return np.fromiter(values, np.float64, cols[0].size).reshape(1, -1)

    with np.errstate(over="ignore"):    # reported by _block_sums
        value, err, used = _refine(kind, rows_f, 1, profile)
    return EvalResult(float(value[0]), float(err[0]), "integral", int(used[0]))


def quad_halfline(f, profile: PrecisionProfile = DEFAULT,
                  batch: int | None = None) -> EvalResult | QuadBatch:
    """Integrate f over (0, inf).

    f maps t -> value and must return finite floats on (0, inf); values are
    allowed to underflow to 0. Raises DomainError on a non-finite value and
    NonConvergent if the refinement cap is hit before two successive levels
    agree.

    With batch=n, n integrands are integrated at once and the result is a
    QuadBatch: f(rows, t) gets an int array of row numbers and an array of
    nodes and returns the values of those rows at those nodes, shape
    (len(rows), len(t)). Each row stops on its own, and its value,
    err_estimate and node count are those of integrating it alone.
    NonConvergent is raised if any row is still open at the cap.
    """
    if batch is None:
        return _one("halfline", f, profile)
    with np.errstate(over="ignore"):    # reported by _block_sums
        return _refine("halfline", f, batch, profile)


def quad_unit(f, profile: PrecisionProfile = DEFAULT) -> EvalResult:
    """Integrate f over (0, 1); f is called as f(t, 1-t).

    Passing 1-t explicitly keeps endpoint-singular factors like (1-t)**(c-1)
    accurate near t = 1, where 1-t computed by subtraction would lose all
    precision.
    """
    return _one("unit", f, profile)

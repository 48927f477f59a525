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

The loop integrates a batch of independent integrands at once: each call
asks the integrand for every active row at all of its nodes in one array,
and each row keeps its own stop rule, error estimate and node count,
leaving the batch once it converges. No row stops before level 2, so the
first call takes levels 0-2 joined, then each level is one call. A level is
summed from its own slice in node order (u = 0 first at level 0), so a
row's result is bit for bit what the same integrand gives alone. Every
integrand is an array function, called with whole levels (a batch's, for a
block of rows) and never once per node.
quad_halfline(batch=n) runs it for n rows of an integrand f(rows, t), as the
iterated-integral hypergeometric route does. For one integrand f(*nodes),
quad_halfline and quad_unit run _refine_one: the same float operations in
the same order, its bookkeeping in Python floats, not arrays of one row, so
the value, err_estimate, node count and errors are bit for bit those of a
batch of one.

Node/jacobian tables depend only on (map, level), so _nodes builds each on
first use and functools.cache keeps it as numpy arrays; evaluation cost is
pure integrand calls. A batch's integrand is asked for as many rows as fit
in _BLOCK values, and at least one, so a call takes at most max(_BLOCK, its
nodes) values: that bounds the memory a nested batch can take at any depth.
The widest call is halfline level 14, 221,184 nodes (1.8 MB).

The u-range is clipped to keep every intermediate double finite:
|c sinh u| <= ~671 at U = 6.75, so t itself never overflows. Integrands must
still be written so that *their* values stay finite wherever the weight has
not underflowed to zero: a non-finite integrand value or an integrand times
weight that overflows raises DomainError. numpy's overflow and invalid-value
warnings are silenced inside the loop, since that check reports the inf or
nan; so an integrand must not map a nan to 0.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .errors import DomainError, NonConvergent
from .profiles import DEFAULT, EvalResult, PrecisionProfile

_C = math.pi / 2.0
_U_MAX_HALFLINE = 6.75
_U_MAX_UNIT = 6.5
_BASE_H = 0.5  # level-0 step; level L uses h = _BASE_H / 2**L
_BLOCK = 1 << 13  # most integrand values requested in one call
_FIRST_STOP = 2  # no row stops before this level; the first call takes 0 to it


@functools.cache
def _nodes(kind: str, level: int) -> tuple:
    """(t, weight) for the exp-sinh map, t = exp(c sinh u), weight =
    t c cosh(u); (t, 1-t, weight) for the tanh-sinh map on (0, 1), t =
    sigma(2 c sinh u), weight = 2 t (1-t) c cosh(u), with the unit nodes
    whose weight underflows to 0 dropped. Each a float64 array in node order.

    Level 0: the u = 0 node, then all nonzero multiples of h0. Level L>0: odd
    multiples of h_L only (the even ones were already seen at coarser
    levels). Nonzero u come in both signs, +u first.
    """
    import numpy as np

    h = _BASE_H / (1 << level)
    halfline = kind == "halfline"
    out = [] if level else [(1.0, _C) if halfline else (0.5, 0.5, 0.5 * _C)]
    u_max = _U_MAX_HALFLINE if halfline else _U_MAX_UNIT
    for j in range(1, int(u_max / h) + 1, 2 if level else 1):
        z = _C * math.sinh(j * h)
        ch = _C * math.cosh(j * h)
        if halfline:
            out += [(t, t * ch) for t in (math.exp(z), math.exp(-z))]
            continue
        # t = sigma(2z), 1-t = sigma(-2z); compute the small one stably.
        e = math.exp(-2.0 * z)  # z > 0 here
        small = e / (1.0 + e)   # = 1 - t
        big = 1.0 / (1.0 + e)   # = t
        w = 2.0 * big * small * ch
        if w > 0.0:  # at -u, t and 1-t swap
            out += [(big, small, w), (small, big, w)]
    return tuple(np.array(col) for col in zip(*out))


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


def _refuse(fv, t: np.ndarray, at: slice) -> None:
    """The DomainError of a level whose sum is not finite: the first
    non-finite value in fv (broadcast against the nodes t) at the level's
    nodes t[at], and its t, else the overflowing product with the weight."""
    import numpy as np

    fv = np.broadcast_to(fv, np.broadcast_shapes(np.shape(fv), t.shape))[..., at]
    bad = np.argwhere(~np.isfinite(fv))
    if bad.size:
        i = tuple(bad[0])
        raise DomainError(f"integrand returned non-finite value {fv[i]} "
                          f"at t={t[at][i[-1]]}")
    raise DomainError("integrand times quadrature weight overflows a float")


@functools.cache
def _call(kind: str, first: int, last: int) -> tuple:
    """One integrand call's nodes: the columns of _nodes for levels
    first..last joined in level order, then per level a (level, its slice,
    nodes of levels 0..level)."""
    import numpy as np

    tables = [_nodes(kind, level) for level in range(first, last + 1)]
    used = sum(_nodes(kind, level)[-1].size for level in range(first))
    levels, lo = [], 0
    for level, (*_, w) in enumerate(tables, first):
        levels.append((level, slice(lo, lo + w.size), used + lo + w.size))
        lo += w.size
    return (*(np.concatenate(c) if first < last else c[0] for c in zip(*tables)),
            tuple(levels))


def _calls(kind: str, cap: int):
    """The _call of each integrand call up to level cap: levels 0 to
    _FIRST_STOP (or cap) in one, then one per level."""
    yield _call(kind, 0, min(_FIRST_STOP, cap))
    for level in range(_FIRST_STOP + 1, cap + 1):
        yield _call(kind, level, level)


def _call_sums(f, active: np.ndarray, cols: list, w: np.ndarray,
               levels: tuple) -> np.ndarray:
    """Each active row's sum of f * w over each level of one call's nodes,
    one row per level: f gets all of the call's nodes for as many rows as
    fit in _BLOCK values, and at least one. A row's sum is added in node
    order (a pairwise sum would round differently), so it does not depend
    on the batch the row is in, nor on the levels that share its call."""
    import numpy as np

    step = max(1, _BLOCK // w.size)
    sums = np.empty((len(levels), active.size))
    bad = (len(levels), None)   # the first non-finite level, and its block's fv
    for lo in range(0, active.size, step):
        fv = np.asarray(f(active[lo:lo + step], *cols), dtype=np.float64)
        fw = fv * w
        block = sums[:, lo:lo + step]
        for out, (_, at, _) in zip(block, levels):
            out[:] = fw[:, at].cumsum(axis=1)[:, -1]
        # a non-finite value or an overflowing product makes its row's sum
        # non-finite; count_nonzero is cheaper than all() on a small array
        if np.count_nonzero(np.isfinite(block)) != block.size:
            level = int(np.argmin(np.isfinite(block).all(axis=1)))
            if level < bad[0]:
                bad = (level, fv)
            if level == 0:
                break
    if bad[1] is not None:
        _refuse(bad[1], cols[0], levels[bad[0]][1])
    return sums


def _refine(kind: str, f, n: int, profile: PrecisionProfile) -> QuadBatch:
    """The refinement loop: integrate n integrands over the map kind
    ("halfline" for (0, inf), "unit" for (0, 1)); see quad_halfline."""
    import numpy as np

    value, err = np.zeros(n), np.zeros(n)
    used = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    for *cols, w, levels in _calls(kind, profile.max_quad_refinements):
        for (level, _, evals), add in zip(levels, _call_sums(f, active, cols, w, levels)):
            if level == 0:
                prev = add * _BASE_H
                continue
            cur = prev / 2.0 + add * (_BASE_H / (1 << level))
            delta = np.abs(cur - prev)
            if level >= _FIRST_STOP:   # the last level of its call
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


def _refine_one(kind: str, f, profile: PrecisionProfile) -> EvalResult:
    """_refine for one integrand f(*nodes), its bookkeeping in floats and
    each call's nodes in one array; _refuse reports a level whose sum is
    not finite."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):    # reported by _refuse
        for *cols, w, levels in _calls(kind, profile.max_quad_refinements):
            fw = (fv := f(*cols)) * w
            for level, at, evals in levels:
                add = float(fw[at].cumsum()[-1])
                if not math.isfinite(add):
                    _refuse(fv, cols[0], at)
                if level == 0:
                    prev = add * _BASE_H
                    continue
                cur = prev / 2.0 + add * (_BASE_H / (1 << level))
                delta = abs(cur - prev)
                if level >= _FIRST_STOP and delta <= profile.rel_tol * abs(cur) + profile.abs_tol:
                    return EvalResult(cur, delta, "integral", evals)
                prev = cur
    raise NonConvergent(
        f"quad_{kind}: no convergence after {profile.max_quad_refinements} refinements",
        last_value=prev, last_delta=delta)


def quad_halfline(f, profile: PrecisionProfile = DEFAULT,
                  batch: int | None = None) -> EvalResult | QuadBatch:
    """Integrate f over (0, inf).

    f is an array function: f(t) gets a float64 array of nodes and returns
    the integrand's values there, an array of t's shape, finite on (0, inf);
    values are allowed to underflow to 0. It is called once with the nodes
    of levels 0-2, joined in level order, then once per further refinement
    level, with all of the level's nodes. Raises DomainError on a non-finite
    value and NonConvergent if the refinement cap is hit before two
    successive levels agree.

    With batch=n, n integrands are integrated at once and the result is a
    QuadBatch: f(rows, t) gets an int array of row numbers and all of a
    call's nodes, as many rows as fit in quadrature._BLOCK values and at
    least one, and returns the values of those rows at those nodes, shape
    (len(rows), len(t)). Each row stops on its own, and its value,
    err_estimate and node count are those of integrating it alone.
    NonConvergent is raised if any row is still open at the cap.
    """
    if batch is None:
        return _refine_one("halfline", f, profile)
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):    # reported by _refuse
        return _refine("halfline", f, batch, profile)


def quad_unit(f, profile: PrecisionProfile = DEFAULT) -> EvalResult:
    """Integrate f over (0, 1); f is called as f(t, 1-t) on two node arrays
    and returns an array of their shape, under quad_halfline's contract.

    Passing 1-t explicitly keeps endpoint-singular factors like (1-t)**(c-1)
    accurate near t = 1, where 1-t computed by subtraction would lose all
    precision.
    """
    return _refine_one("unit", f, profile)

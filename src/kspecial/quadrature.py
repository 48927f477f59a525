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
integrand gives alone. Every integrand is an array function, called with
whole levels (a batch's, for a block of rows) and never once per node.
quad_halfline(batch=n) runs it for n rows of an integrand f(rows, t), as the
iterated-integral hypergeometric route does. For one integrand f(*nodes),
quad_halfline and quad_unit run _refine_one: the same float operations in
the same order, its bookkeeping in Python floats, not arrays of one row, so
the value, err_estimate, node count and errors are bit for bit those of a
batch of one.

Node/jacobian tables depend only on (map, level), so _nodes builds each on
first use and functools.cache keeps it as numpy arrays; evaluation cost is
pure integrand calls. A batch's integrand is asked for as many rows as fit
in _BLOCK values, and at least one, so a call takes at most max(_BLOCK, one
level) values: that bounds the memory a nested batch can take at any depth.
The widest level has 221,184 nodes (halfline level 14, 1.8 MB).

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


def _refuse(fv, t: np.ndarray) -> None:
    """The DomainError of a level whose sum is not finite: the first
    non-finite value in fv (broadcast against the nodes t) and its t, else
    the overflowing product with the weight."""
    import numpy as np

    fv = np.broadcast_to(fv, np.broadcast_shapes(np.shape(fv), t.shape))
    bad = np.argwhere(~np.isfinite(fv))
    if bad.size:
        at = tuple(bad[0])
        raise DomainError(f"integrand returned non-finite value {fv[at]} "
                          f"at t={t[at[-1]]}")
    raise DomainError("integrand times quadrature weight overflows a float")


def _level_sums(f, active: np.ndarray, cols: list, w: np.ndarray
                ) -> np.ndarray:
    """Each active row's sum of f * w over one level's nodes: f gets the
    whole level for as many rows as fit in _BLOCK values, and at least one.
    A row's sum is added in node order (a pairwise sum would round
    differently), so it does not depend on the batch the row is in."""
    import numpy as np

    step = max(1, _BLOCK // w.size)
    blocks = []
    for lo in range(0, active.size, step):
        fv = np.asarray(f(active[lo:lo + step], *cols), dtype=np.float64)
        sums = (fv * w).cumsum(axis=1)[:, -1]
        # a non-finite value or an overflowing product makes its row's sum
        # non-finite; count_nonzero is cheaper than all() on a small array
        if np.count_nonzero(np.isfinite(sums)) != sums.size:
            _refuse(fv, cols[0])
        blocks.append(sums)
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _refine(kind: str, f, n: int, profile: PrecisionProfile) -> QuadBatch:
    """The refinement loop: integrate n integrands over the map kind
    ("halfline" for (0, inf), "unit" for (0, 1)); see quad_halfline."""
    import numpy as np

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


def _refine_one(kind: str, f, profile: PrecisionProfile) -> EvalResult:
    """_refine for one integrand f(*nodes), its bookkeeping in floats and
    each level summed in one call; _refuse reports a sum that is not
    finite."""
    import numpy as np

    evals = 0
    with np.errstate(over="ignore", invalid="ignore"):    # reported by _refuse
        for level in range(profile.max_quad_refinements + 1):
            *cols, w = _nodes(kind, level)
            evals += w.size
            add = float(((fv := f(*cols)) * w).cumsum()[-1])
            if not math.isfinite(add):
                _refuse(fv, cols[0])
            if level == 0:
                prev = add * _BASE_H
                continue
            cur = prev / 2.0 + add * (_BASE_H / (1 << level))
            delta = abs(cur - prev)
            if level >= 2 and delta <= profile.rel_tol * abs(cur) + profile.abs_tol:
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
    values are allowed to underflow to 0. It is called once per refinement
    level, with all of the level's nodes. Raises DomainError on a non-finite
    value and NonConvergent if the refinement cap is hit before two
    successive levels agree.

    With batch=n, n integrands are integrated at once and the result is a
    QuadBatch: f(rows, t) gets an int array of row numbers and all of a
    level's nodes, as many rows as fit in quadrature._BLOCK values and at
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

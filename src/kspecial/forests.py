"""Planar-forest families whose cardinality realizes the Pochhammer k-symbol.

A family member for parameters (a, n, k) is built incrementally: start from
a ordered roots, each bearing a single tail slot; for i = 1..n the internal
vertex v_i replaces one free tail and opens k+1 fresh slots of its own.
Every vertex therefore addresses its parent as either root j (slot 0) or an
earlier internal vertex m < i (slot 0..k), and a forest is exactly the
tuple of those attachment choices. At step i there are a + (i-1)k free
tails, so |family| = a (a+k) (a+2k) ... (a+(n-1)k).

Counting is exact big-integer arithmetic; enumeration is deterministic in a
fixed scan order (roots by index, then internal vertices by index, then
slot position) and guarded by a cap, since families grow factorially.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

from .errors import CapExceeded, InvariantViolation

Parent = tuple[str, int]           # ("r", j) root, ("v", m) internal, 1-based
Attachment = tuple[Parent, int]    # (parent, slot)


class ForestFamily(NamedTuple("ForestFamily", [("a", int), ("n", int), ("k", int)])):
    __slots__ = ()

    def __new__(cls, a, n, k):
        if not (isinstance(a, int) and a >= 1):
            raise InvariantViolation(f"root count must be an integer >= 1, got {a}")
        if not (isinstance(n, int) and n >= 0):
            raise InvariantViolation(f"internal count must be an integer >= 0, got {n}")
        if not (isinstance(k, int) and k >= 1):
            raise InvariantViolation(f"arity parameter must be an integer >= 1, got {k}")
        return tuple.__new__(cls, (a, n, k))


class PlanarForest(NamedTuple):
    """nodes[i-1] is the attachment of internal vertex v_i. Structural
    validity is checked by validate_forest/tail_count, not at construction,
    so malformed instances can be built and then rejected."""

    a: int
    k: int
    nodes: tuple[Attachment, ...]

    @property
    def n(self) -> int:
        return len(self.nodes)


def validate_forest(f: PlanarForest) -> None:
    """Family constraints: index and slot are ints, parents exist and precede
    their children, slots sit in range (roots one slot, internal vertices k+1),
    no slot is taken twice. One walk names the first fault in vertex order: at
    each vertex its type, then its range, then a repeat, which is looked for
    only where len(set(nodes)) shows one."""
    a, k, nodes = f
    if not (isinstance(a, int) and a >= 1 and isinstance(k, int) and k >= 1):
        raise InvariantViolation(f"bad family parameters a={a}, k={k}")
    repeats = len(set(nodes)) < len(nodes)
    i = 0
    for (kind, idx), slot in nodes:
        i += 1
        if not type(idx) is type(slot) is int:   # a float or bool equals an int
            raise InvariantViolation(f"v_{i} needs int index and slot, got {idx!r}, {slot!r}")
        if kind == "r":
            if not 1 <= idx <= a:
                raise InvariantViolation(f"v_{i} attaches to nonexistent root {idx}")
            if slot != 0:
                raise InvariantViolation(f"roots carry a single slot, v_{i} uses {slot}")
        elif kind == "v":
            if not 1 <= idx < i:
                raise InvariantViolation(
                    f"v_{i} must attach to an earlier internal vertex, got v_{idx}")
            if not 0 <= slot <= k:
                raise InvariantViolation(
                    f"internal vertices carry slots 0..{k}, v_{i} uses {slot}")
        else:
            raise InvariantViolation(f"unknown parent kind {kind!r}")
        if repeats and nodes.index(nodes[i - 1]) < i - 1:
            raise InvariantViolation(f"slot {nodes[i - 1]} occupied twice")


def tail_count(f: PlanarForest) -> int:
    """Number of free tails: a + n(k+1) slots minus the n occupied ones,
    i.e. a + nk for every valid family member."""
    validate_forest(f)
    return f.a + f.n * f.k


def count(family: ForestFamily) -> int:
    return math.prod(range(family.a, family.a + family.n * family.k, family.k))


def enumerate_forests(family: ForestFamily,
                      cap: int = 1_000_000) -> Iterator[PlanarForest]:
    """Yield every family member exactly once, deterministically.

    Raises CapExceeded (carrying the exact count) before yielding anything
    if the family is larger than cap.

    The free attachments are carried in scan order, and v_(i+1) takes each
    in turn: the one taken leaves, and the k+1 slots of v_(i+1) go last.
    """
    total = count(family)
    if total > cap:
        raise CapExceeded(
            f"family (a={family.a}, n={family.n}, k={family.k}) has {total} members, "
            f"cap is {cap}", count=total)

    a, n, k = family
    if n == 0:
        yield PlanarForest(a, k, ())
        return
    # the slots each placed vertex opens; v_n's are never taken
    opened = [[(("v", m), slot) for slot in range(k + 1)] for m in range(1, n)]

    def rec(placed: tuple, free: list) -> Iterator[PlanarForest]:
        i = len(placed)
        if i == n - 1:
            for att in free:
                yield tuple.__new__(PlanarForest, (a, k, placed + (att,)))
            return
        new = opened[i]
        for p, att in enumerate(free):
            yield from rec(placed + (att,), free[:p] + free[p + 1:] + new)

    yield from rec((), [(("r", j), 0) for j in range(1, a + 1)])


def derivative_ratio(a: tuple, k: tuple, b: tuple, s: tuple, n: int) -> Fraction:
    """prod_j |family(a_j, n, k_j)| / prod_i |family(b_i, n, s_i)| as an
    exact rational; equals the hypergeometric coefficient n! c_n for
    integer-parameter specs."""
    if len(a) != len(k) or len(b) != len(s):
        raise InvariantViolation("parameter lists must pair up")
    if n < 0:
        raise InvariantViolation(f"derivative order must be >= 0, got {n}")
    num = 1
    for a_j, k_j in zip(a, k):
        num *= count(ForestFamily(a_j, n, k_j))
    den = 1
    for b_i, s_i in zip(b, s):
        den *= count(ForestFamily(b_i, n, s_i))
    return Fraction(num, den)


def serialize_forest(f: PlanarForest) -> str:
    """Canonical line format (stable across runs, used for golden tests):
    `root i` lines, `node i parent=<v> slot=<j>` lines, final `tails=<m>`."""
    validate_forest(f)
    a, k, nodes = f
    args = []
    for parent, slot in nodes:
        args += parent
        args.append(slot)
    return _template(a, len(nodes), k) % tuple(args)


@lru_cache(maxsize=64)
def _template(a: int, n: int, k: int) -> str:
    """Every (a, n, k) forest's text, %s (str) for each parent kind, index and slot."""
    body = "".join([f"node {i + 1} parent=%s%s slot=%s\n" for i in range(n)])
    return "".join(f"root {j + 1}\n" for j in range(a)) + body + f"tails={a + n * k}\n"


_ROOT_RE = re.compile(r"root (\d+)$")
_NODE_RE = re.compile(r"node (\d+) parent=([rv])(\d+) slot=(\d+)$")
_TAILS_RE = re.compile(r"tails=(\d+)$")


def parse_forest(text: str) -> PlanarForest:
    """Inverse of serialize_forest. The arity k is recovered from the tail
    line (tails = a + nk); a bare-roots forest (n = 0) carries no arity
    information, so k defaults to 1 there."""
    roots = 0
    nodes: list[Attachment] = []
    tails = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if m := _ROOT_RE.match(line):
            roots += 1
            if int(m.group(1)) != roots:
                raise InvariantViolation(f"root lines out of order at {line!r}")
        elif m := _NODE_RE.match(line):
            if int(m.group(1)) != len(nodes) + 1:
                raise InvariantViolation(f"node lines out of order at {line!r}")
            nodes.append(((m.group(2), int(m.group(3))), int(m.group(4))))
        elif m := _TAILS_RE.match(line):
            tails = int(m.group(1))
        else:
            raise InvariantViolation(f"unparseable line {line!r}")
    if roots == 0 or tails is None:
        raise InvariantViolation("serialization needs root lines and a tail line")
    n = len(nodes)
    if n == 0:
        if tails != roots:
            raise InvariantViolation(f"bare forest must have tails=a, got {tails}")
        k = 1
    else:
        k, rem = divmod(tails - roots, n)
        if rem != 0 or k < 1:
            raise InvariantViolation(
                f"tail count {tails} incompatible with a={roots}, n={n}")
    f = PlanarForest(roots, k, tuple(nodes))
    validate_forest(f)
    return f

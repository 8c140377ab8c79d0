"""Color-set assignments on digraph vertices and the defining verifier.

A representation maps every vertex to a nonempty set of colors.  It
represents a digraph D when, for every ordered pair (u, v):

    (u, v) is an arc  <=>  the color sets intersect and |set(u)| < |set(v)|.

``verify`` checks that equivalence exhaustively and reports every broken
pair, in both directions.
"""

from __future__ import annotations

import json
from functools import cached_property, reduce
from itertools import islice
from operator import eq, or_
from typing import Iterable, NamedTuple

from .digraph import Digraph, _Frozen, _unique_keys, is_int, vertex_subset

MISSING_INTERSECTION = "missing-intersection"
SIZE_NOT_INCREASING = "size-not-increasing"
FALSE_ARC_IMPLIED = "false-arc-implied"


class Violation(NamedTuple):
    u: int
    v: int
    kind: str


class ValidityReport(NamedTuple):
    valid: bool
    violations: tuple[Violation, ...]


class Representation(_Frozen):
    """Immutable vertex -> color-set assignment for vertices 1..n.

    Colors are opaque non-negative ints (not bools); the palette is the
    union of all sets and need not be contiguous (``canonicalize`` produces
    the 0..k-1 form).  Each set is kept once, as a tuple of distinct ids in
    ascending order; ``color_sets`` is a derived view of frozensets, built
    on first read.
    """

    n: int
    _sorted: tuple[tuple[int, ...], ...]
    _fields = ("n", "_sorted")

    def __init__(self, n: int, color_sets: Iterable[Iterable[int]]):
        if not is_int(n) or n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {n!r}")
        sets = tuple(color_sets)
        if len(sets) != n:
            raise ValueError(f"expected {n} color sets, got {len(sets)}")
        kept = []
        for v, s in enumerate(sets, start=1):
            s = list(s)
            if not s:
                raise ValueError(f"vertex {v} has an empty color set")
            # exactly int: True, 1.9 and '1' are not color ids; checked
            # before sorting, so mixed types never reach sort()
            if not set(map(type, s)) <= {int}:
                raise ValueError(f"vertex {v} has a color id that is not an integer")
            s.sort()
            if s[0] < 0:
                raise ValueError(f"vertex {v} has a negative color id")
            # sorted, so any repeat is next to its twin
            if any(map(eq, s, islice(s, 1, None))):
                s = list(dict.fromkeys(s))
            kept.append(tuple(s))
        vars(self).update(n=n, _sorted=tuple(kept))

    @cached_property
    def color_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(map(frozenset, self._sorted))

    def color_set(self, v: int) -> frozenset[int]:
        return self.color_sets[v - 1]

    @property
    def palette(self) -> frozenset[int]:
        return frozenset().union(*self._sorted)

    @cached_property
    def palette_size(self) -> int:
        # the count is kept, not the palette set, which can be large
        return len(self.palette)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {list(s)}" for v, s in enumerate(self._sorted, start=1))
        return f"Representation(n={self.n}, {{{inner}}})"


def verify(D: Digraph, rep: Representation) -> ValidityReport:
    """Check the defining arc equivalence over all ordered vertex pairs.

    Reports every violation rather than stopping at the first, ordered by
    (u, v); a pair of non-adjacent vertices with equal-size intersecting
    sets is fine (only a strict size increase plus an intersection implies
    an arc).

    Works on n-bit vertex masks, one row u at a time: ``meet`` holds the
    vertices sharing a color with u (the OR of the holder masks of u's
    colors), ``up`` those with strictly larger sets, ``out`` u's
    out-neighbours.  Only the bits of (meet & up) ^ out are violations.
    """
    if rep.n != D.n:
        raise ValueError(f"representation covers {rep.n} vertices, digraph has {D.n}")
    # bit v - 1 stands for vertex v
    holders: dict[int, int] = {}
    by_size: dict[int, int] = {}
    for i, s in enumerate(rep._sorted):
        bit = 1 << i
        for c in s:
            holders[c] = holders.get(c, 0) | bit
        by_size[len(s)] = by_size.get(len(s), 0) | bit
    above: dict[int, int] = {}
    larger = 0
    for size in sorted(by_size, reverse=True):
        above[size] = larger
        larger |= by_size[size]
    out = [0] * (D.n + 1)
    for t, h in D.arcs:
        out[t] |= 1 << (h - 1)
    violations: list[Violation] = []
    for u, s in enumerate(rep._sorted, start=1):
        meet = reduce(or_, map(holders.__getitem__, s))
        up = above[len(s)]
        bad = (meet & up) ^ out[u]
        while bad:
            low = bad & -bad
            bad ^= low
            v = low.bit_length()
            if not out[u] & low:
                violations.append(Violation(u, v, FALSE_ARC_IMPLIED))
                continue
            if not meet & low:
                violations.append(Violation(u, v, MISSING_INTERSECTION))
            if not up & low:
                violations.append(Violation(u, v, SIZE_NOT_INCREASING))
    return ValidityReport(valid=not violations, violations=tuple(violations))


def restrict(rep: Representation, vertices: Iterable[int]) -> Representation:
    """Representation induced on a vertex subset, relabeled in label order.

    Color sets are carried over unchanged, so the result is valid on the
    correspondingly induced subgraph whenever the input was valid (the
    defining condition is pairwise).
    """
    sub = vertex_subset(vertices, rep.n)
    return Representation(len(sub), [rep._sorted[v - 1] for v in sub])


def canonicalize(rep: Representation) -> Representation:
    """Rename colors to 0..k-1 in first-use order.

    First use scans vertices 1..n, colors within a vertex in ascending id
    order.  Validity and palette size are preserved; the map is idempotent.
    """
    mapping: dict[int, int] = {}
    for s in rep._sorted:
        for c in s:
            if c not in mapping:
                mapping[c] = len(mapping)
    return Representation(rep.n, [map(mapping.__getitem__, s) for s in rep._sorted])


def rep_to_obj(rep: Representation) -> dict:
    """The JSON form as a dict: {"n":…, "phi": {"1": [...], …}, "palette_size":…}."""
    return {
        "n": rep.n,
        "phi": {str(v): list(s) for v, s in enumerate(rep._sorted, start=1)},
        "palette_size": rep.palette_size,
    }


def rep_to_json(rep: Representation) -> str:
    """Serialize ``rep_to_obj(rep)`` with sorted keys, one line."""
    return json.dumps(rep_to_obj(rep), sort_keys=True) + "\n"


def rep_from_json(text: str) -> Representation:
    """Parse the JSON form; the stored palette_size is advisory and ignored.

    ``phi`` must map exactly the labels "1".."n" to lists of integers.
    """
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # bad JSON or a repeated key
        raise ValueError(f"invalid representation JSON: {exc}") from None
    if not isinstance(obj, dict) or "n" not in obj or "phi" not in obj:
        raise ValueError("representation JSON must be an object with 'n' and 'phi'")
    n, phi = obj["n"], obj["phi"]
    if not is_int(n) or n < 1:
        raise ValueError(f"representation JSON 'n' must be a positive integer, got {n!r}")
    if not isinstance(phi, dict):
        raise ValueError("representation JSON 'phi' must be an object")
    # the length test first, so a huge n builds no label set
    if len(phi) != n or set(phi) != {str(v) for v in range(1, n + 1)}:
        raise ValueError(f"representation JSON 'phi' keys must be exactly the labels 1..{n}")
    for v, colors in phi.items():
        # JSON integers parse as exactly int; true and 1.7 do not pass
        if not (isinstance(colors, list) and set(map(type, colors)) <= {int}):
            raise ValueError(f"representation JSON vertex {v}: colors must be a list of integers")
    return Representation(n, [phi[str(v)] for v in range(1, n + 1)])

"""Color-set assignments on digraph vertices and the defining verifier.

A representation maps every vertex to a nonempty set of colors.  It
represents a digraph D when, for every ordered pair (u, v):

    (u, v) is an arc  <=>  the color sets intersect and |set(u)| < |set(v)|.

``verify`` checks that equivalence exhaustively and reports every broken
pair, in both directions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Mapping, NamedTuple

from .digraph import Digraph, is_int

MISSING_INTERSECTION = "missing-intersection"
SIZE_NOT_INCREASING = "size-not-increasing"
FALSE_ARC_IMPLIED = "false-arc-implied"


class Violation(NamedTuple):
    u: int
    v: int
    kind: str


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class Representation:
    """Immutable vertex -> color-set assignment for vertices 1..n.

    Colors are opaque non-negative integers; the palette is the union of all
    sets and need not be contiguous (``canonicalize`` produces the 0..k-1
    form).
    """

    n: int
    color_sets: tuple[frozenset[int], ...]

    def __init__(self, n: int, color_sets: Iterable[Iterable[int]]):
        sets = tuple(frozenset(int(c) for c in s) for s in color_sets)
        if not is_int(n) or n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {n!r}")
        if len(sets) != n:
            raise ValueError(f"expected {n} color sets, got {len(sets)}")
        for v, s in enumerate(sets, start=1):
            if not s:
                raise ValueError(f"vertex {v} has an empty color set")
            if any(c < 0 for c in s):
                raise ValueError(f"vertex {v} has a negative color id")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "color_sets", sets)

    @classmethod
    def from_mapping(cls, n: int, mapping: Mapping[int, Iterable[int]]) -> "Representation":
        missing = [v for v in range(1, n + 1) if v not in mapping]
        if missing:
            raise ValueError(f"mapping misses vertices {missing}")
        return cls(n, tuple(mapping[v] for v in range(1, n + 1)))

    def color_set(self, v: int) -> frozenset[int]:
        return self.color_sets[v - 1]

    @property
    def palette(self) -> frozenset[int]:
        return frozenset().union(*self.color_sets)

    @cached_property
    def palette_size(self) -> int:
        # the count is kept, not the palette set, which can be large
        return len(self.palette)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {sorted(self.color_set(v))}" for v in range(1, self.n + 1))
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
    for i, s in enumerate(rep.color_sets):
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
    for u, s in enumerate(rep.color_sets, start=1):
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
    sub = sorted(set(vertices))
    if not sub:
        raise ValueError("restriction needs a nonempty vertex set")
    if sub[0] < 1 or sub[-1] > rep.n:
        raise ValueError(f"vertex set not contained in 1..{rep.n}")
    return Representation(len(sub), tuple(rep.color_set(v) for v in sub))


def canonicalize(rep: Representation) -> Representation:
    """Rename colors to 0..k-1 in first-use order.

    First use scans vertices 1..n, colors within a vertex in ascending id
    order.  Validity and palette size are preserved; the map is idempotent.
    """
    mapping: dict[int, int] = {}
    for v in range(1, rep.n + 1):
        for c in sorted(rep.color_set(v)):
            if c not in mapping:
                mapping[c] = len(mapping)
    return Representation(rep.n, tuple(frozenset(mapping[c] for c in s) for s in rep.color_sets))


def rep_to_json(rep: Representation) -> str:
    """Serialize as {"n":…, "phi": {"1": [...], …}, "palette_size":…}."""
    obj = {
        "n": rep.n,
        "phi": {str(v): sorted(rep.color_set(v)) for v in range(1, rep.n + 1)},
        "palette_size": rep.palette_size,
    }
    return json.dumps(obj, sort_keys=True) + "\n"


def rep_from_json(text: str) -> Representation:
    """Parse the JSON form; the stored palette_size is advisory and ignored.

    ``phi`` must map exactly the labels "1".."n" to lists of integers.
    """
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
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

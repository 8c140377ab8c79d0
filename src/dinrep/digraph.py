"""DAG data model, orderings, longest-path levels, and family generators.

Vertices are labeled 1..n throughout, matching the 1-based labels used in
graph files.  Arcs are (tail, head) pairs with tail != head.  A Digraph is
not required to be acyclic; acyclicity is checked where an operation needs
it and cyclic inputs raise :class:`CyclicGraphError`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import CyclicGraphError, GraphParseError, SelfLoopError, VertexRangeError

Arc = tuple[int, int]


def is_int(x: object) -> bool:
    """True for an integer that is not a bool (JSON true would read as 1)."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class Digraph:
    """Immutable directed graph on vertices 1..n with an explicit arc set."""

    n: int
    arcs: frozenset[Arc]

    def __init__(self, n: int, arcs: Iterable[Arc] = ()):
        if not is_int(n) or n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {n!r}")
        normalized = frozenset((int(t), int(h)) for t, h in arcs)
        for t, h in normalized:
            if t == h:
                raise SelfLoopError(f"self-loop on vertex {t}")
            if not (1 <= t <= n and 1 <= h <= n):
                raise VertexRangeError(f"arc ({t}, {h}) outside vertex range 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", normalized)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def out_map(self) -> dict[int, frozenset[int]]:
        succ: dict[int, set[int]] = {v: set() for v in self.vertices}
        for t, h in self.arcs:
            succ[t].add(h)
        return {v: frozenset(s) for v, s in succ.items()}

    @cached_property
    def in_map(self) -> dict[int, frozenset[int]]:
        pred: dict[int, set[int]] = {v: set() for v in self.vertices}
        for t, h in self.arcs:
            pred[h].add(t)
        return {v: frozenset(s) for v, s in pred.items()}

    @cached_property
    def _gamma(self) -> tuple[int, ...] | None:
        """Longest-path-to-vertex lengths via Kahn's algorithm, None on a cycle."""
        indeg = {v: 0 for v in self.vertices}
        for _, h in self.arcs:
            indeg[h] += 1
        stack = [v for v in self.vertices if indeg[v] == 0]
        gamma = [0] * self.n
        seen = 0
        while stack:
            u = stack.pop()
            seen += 1
            for w in self.out_map[u]:
                if gamma[w - 1] < gamma[u - 1] + 1:
                    gamma[w - 1] = gamma[u - 1] + 1
                indeg[w] -= 1
                if indeg[w] == 0:
                    stack.append(w)
        return tuple(gamma) if seen == self.n else None

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={sorted(self.arcs)})"


@dataclass(frozen=True)
class LevelDecomposition:
    """Longest-path levels of a DAG.

    ``gamma[v - 1]`` is the arc count of the longest directed path ending at
    vertex v; ``levels[i]`` lists the vertices with gamma value i, so
    ``levels[0]`` is exactly the set of sources.
    """

    gamma: tuple[int, ...]
    levels: tuple[tuple[int, ...], ...]

    def gamma_of(self, v: int) -> int:
        return self.gamma[v - 1]


def _gamma_values(D: Digraph) -> tuple[int, ...]:
    """Longest-path-to-vertex lengths, computed once per digraph; raises on cycles."""
    if D._gamma is None:
        raise CyclicGraphError("digraph contains a directed cycle")
    return D._gamma


def is_acyclic(D: Digraph) -> bool:
    """True iff D contains no directed cycle."""
    return D._gamma is not None


def longest_path_levels(D: Digraph) -> LevelDecomposition:
    """Longest-path level decomposition of an acyclic digraph."""
    gamma = _gamma_values(D)
    top = max(gamma)
    levels = tuple(
        tuple(v for v in D.vertices if gamma[v - 1] == i) for i in range(top + 1)
    )
    return LevelDecomposition(gamma, levels)


def left_to_right_order(D: Digraph) -> tuple[int, ...]:
    """Deterministic topological order: by level, then by vertex label.

    Every arc points from an earlier to a later position.  Sorting by
    (gamma, label) is valid because an arc (u, v) forces gamma(u) < gamma(v).
    """
    gamma = _gamma_values(D)
    return tuple(sorted(D.vertices, key=lambda v: (gamma[v - 1], v)))


def induced_subgraph(D: Digraph, vertices: Iterable[int]) -> tuple[Digraph, dict[int, int]]:
    """Subgraph induced by a vertex set, relabeled 1..|S| in label order.

    Returns the subgraph and the old-label -> new-label map.
    """
    sub = sorted(set(vertices))
    if not sub:
        raise ValueError("induced subgraph needs a nonempty vertex set")
    if sub[0] < 1 or sub[-1] > D.n:
        raise VertexRangeError(f"vertex set not contained in 1..{D.n}")
    relabel = {old: i for i, old in enumerate(sub, start=1)}
    keep = set(sub)
    arcs = {(relabel[t], relabel[h]) for t, h in D.arcs if t in keep and h in keep}
    return Digraph(len(sub), arcs), relabel


# ---------------------------------------------------------------------------
# file formats


# plain ASCII decimal integers only: int() would also take '1_0', '+1' and
# non-ASCII digits
_INTEGER = re.compile(r"-?[0-9]+")


def from_edge_list(text: str) -> Digraph:
    """Parse the line-oriented graph format.

    First meaningful line is n; each following non-empty line is
    "tail head".  Lines starting with '#' are comments.  Numbers are plain
    ASCII decimal integers.  Duplicate arcs are silently dropped.
    """
    n: int | None = None
    arcs: list[Arc] = []
    # only \n ends a line: splitlines() would also split at \x0b, \x1c, \u2028
    # and others; strip() drops the \r of a \r\n file
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise GraphParseError(f"line {lineno}: expected vertex count, got {line!r}")
            if not _INTEGER.fullmatch(fields[0]):
                raise GraphParseError(f"line {lineno}: vertex count {fields[0]!r} is not an integer")
            n = int(fields[0])
            if n < 1:
                raise GraphParseError(f"line {lineno}: vertex count must be positive, got {n}")
            continue
        if len(fields) != 2:
            raise GraphParseError(f"line {lineno}: expected 'tail head', got {line!r}")
        if not all(map(_INTEGER.fullmatch, fields)):
            raise GraphParseError(f"line {lineno}: arc endpoints must be integers, got {line!r}")
        t, h = int(fields[0]), int(fields[1])
        if t == h:
            raise SelfLoopError(f"line {lineno}: self-loop on vertex {t}")
        if not (1 <= t <= n and 1 <= h <= n):
            raise VertexRangeError(f"line {lineno}: arc ({t}, {h}) outside vertex range 1..{n}")
        arcs.append((t, h))
    if n is None:
        raise GraphParseError("empty graph file: missing vertex count line")
    return Digraph(n, arcs)


def to_edge_list(D: Digraph) -> str:
    """Serialize to the line-oriented format with arcs sorted (byte-stable)."""
    lines = [str(D.n)]
    lines.extend(f"{t} {h}" for t, h in sorted(D.arcs))
    return "\n".join(lines) + "\n"


def graph_from_json(text: str) -> Digraph:
    """Parse the JSON graph form {"n": int, "arcs": [[t, h], ...]}."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphParseError(f"invalid JSON graph: {exc}") from None
    if not isinstance(obj, dict) or "n" not in obj or "arcs" not in obj:
        raise GraphParseError("JSON graph must be an object with 'n' and 'arcs'")
    arcs = obj["arcs"]
    if not isinstance(arcs, list):
        raise GraphParseError(f"JSON graph 'arcs' must be a list, got {arcs!r}")
    for arc in arcs:
        if not (isinstance(arc, list) and len(arc) == 2 and all(map(is_int, arc))):
            raise GraphParseError(f"JSON graph arc {arc!r} is not a [tail, head] pair of integers")
    return Digraph(obj["n"], [tuple(a) for a in arcs])


def graph_to_json(D: Digraph) -> str:
    return json.dumps({"n": D.n, "arcs": sorted(list(a) for a in D.arcs)}) + "\n"


def load_graph(text: str) -> Digraph:
    """Parse either supported graph format, sniffing JSON by a leading '{'."""
    if text.lstrip().startswith("{"):
        return graph_from_json(text)
    return from_edge_list(text)


# ---------------------------------------------------------------------------
# family generators


def _source_arc_path_arcs(n: int) -> set[Arc]:
    arcs = {(k, k + 1) for k in range(1, n)}
    arcs.update((1, 2 * k) for k in range(1, n // 2 + 1))
    return arcs


def _augmented_arcs(n: int) -> tuple[set[Arc], list[Arc]]:
    """Source arc-path plus a triangle-free bipartite arc set on odd labels.

    Returns (all arcs, the added arcs sorted lexicographically).
    """
    arcs = _source_arc_path_arcs(n)
    if (n - 2) // 2 % 2 == 0:
        xs = range(3, n // 2 + 1, 2)
        ys = range(n // 2 + 2, n, 2)
        drop = (n // 2, n // 2 + 2)
    else:
        xs = range(3, n // 2 + 2, 2)
        ys = range(n // 2 + 3, n, 2)
        drop = (n // 2 + 1, n // 2 + 3)
    added = sorted({(x, y) for x in xs for y in ys} - {drop})
    arcs.update(added)
    return arcs, added


FIG3_TREE_SMALL_ARCS: frozenset[Arc] = frozenset({(1, 2), (1, 3), (3, 4)})
# Six-vertex companion fixture: the four-vertex tree with one more
# child-with-child branch under the root; exact minimum palette 6.
FIG3_TREE_LARGE_ARCS: frozenset[Arc] = frozenset(
    {(1, 2), (1, 3), (3, 4), (1, 5), (5, 6)}
)

FAMILIES = (
    "directed_path",
    "star",
    "complete_dag",
    "source_arc_path",
    "augmented_source_arc_path",
    "fig3_tree_small",
    "fig3_tree_large",
)


def gen_family(family: str, n: int | None = None) -> Digraph:
    """Build a named graph family member on n vertices.

    The two fixed tree fixtures ignore n.  ``augmented_source_arc_path``
    requires even n >= 8; every other parameterized family requires n >= 2.
    """
    if family == "fig3_tree_small":
        return Digraph(4, FIG3_TREE_SMALL_ARCS)
    if family == "fig3_tree_large":
        return Digraph(6, FIG3_TREE_LARGE_ARCS)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if n is None:
        raise ValueError(f"family {family!r} requires a vertex count")
    if n < 2:
        raise ValueError(f"family {family!r} requires n >= 2, got {n}")
    if family == "directed_path":
        return Digraph(n, {(k, k + 1) for k in range(1, n)})
    if family == "star":
        return Digraph(n, {(k, n) for k in range(1, n)})
    if family == "complete_dag":
        return Digraph(n, {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)})
    if family == "source_arc_path":
        return Digraph(n, _source_arc_path_arcs(n))
    # augmented_source_arc_path
    if n % 2 or n < 8:
        raise ValueError(f"augmented source arc-path requires even n >= 8, got {n}")
    arcs, _ = _augmented_arcs(n)
    return Digraph(n, arcs)


def augmented_added_arcs(n: int) -> list[Arc]:
    """The arcs the augmented family adds on top of the source arc-path."""
    if n % 2 or n < 8:
        raise ValueError(f"augmented source arc-path requires even n >= 8, got {n}")
    return _augmented_arcs(n)[1]

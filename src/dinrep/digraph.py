"""DAG data model, orderings, longest-path levels, and family generators.

Vertices are labeled 1..n throughout, matching the 1-based labels used in
graph files.  Arcs are (tail, head) pairs with tail != head.  A Digraph is
not required to be acyclic; acyclicity is checked where an operation needs
it and cyclic inputs raise :class:`CyclicGraphError`.
"""

from __future__ import annotations

import json
import re
from functools import cached_property
from typing import Callable, Iterable, NamedTuple

from .errors import CyclicGraphError, GraphParseError, SelfLoopError, VertexRangeError

Arc = tuple[int, int]


def is_int(x: object) -> bool:
    """True for a value of exactly type int, as colour ids must be: not a
    bool (JSON true would read as 1) nor any other int subclass."""
    return type(x) is int


class _Frozen:
    """Value semantics for Digraph and Representation: equal within a class and
    hashed by ``_fields``, read-only once ``__init__`` fills ``vars(self)``."""

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete attribute {name!r}")
    __delattr__ = __setattr__


class Digraph(_Frozen):
    """Immutable directed graph on vertices 1..n with an explicit arc set."""

    n: int
    arcs: frozenset[Arc]
    _fields = ("n", "arcs")

    def __init__(self, n: int, arcs: Iterable[Arc] = ()):
        if not is_int(n) or n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {n!r}")
        pairs = [(t, h) for t, h in arcs]
        for t, h in pairs:
            if not (is_int(t) and is_int(h)):
                raise ValueError(f"arc ({t!r}, {h!r}) has a vertex id that is not an integer")
            if t == h:
                raise SelfLoopError(f"self-loop on vertex {t}")
            if not (1 <= t <= n and 1 <= h <= n):
                raise VertexRangeError(f"arc ({t}, {h}) outside vertex range 1..{n}")
        vars(self).update(n=n, arcs=frozenset(pairs))

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def _gamma(self) -> tuple[int, ...] | None:
        """Longest-path-to-vertex lengths via Kahn's algorithm, None on a cycle."""
        n = self.n
        indeg = [0] * (n + 1)
        succ: list[list[int]] = [[] for _ in range(n + 1)]
        for t, h in self.arcs:
            indeg[h] += 1
            succ[t].append(h)
        stack = [v for v in range(1, n + 1) if not indeg[v]]
        gamma = [0] * (n + 1)
        seen = 0
        while stack:
            u = stack.pop()
            seen += 1
            for w in succ[u]:
                if gamma[w] <= gamma[u]:
                    gamma[w] = gamma[u] + 1
                indeg[w] -= 1
                if not indeg[w]:
                    stack.append(w)
        return tuple(gamma[1:]) if seen == n else None

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={sorted(self.arcs)})"


class LevelDecomposition(NamedTuple):
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
    levels = [[] for _ in range(max(gamma) + 1)]
    for v, g in enumerate(gamma, 1):
        levels[g].append(v)
    return LevelDecomposition(gamma, tuple(map(tuple, levels)))


def left_to_right_order(D: Digraph) -> tuple[int, ...]:
    """Deterministic topological order: by level, then by vertex label.

    Every arc points from an earlier to a later position.  Sorting by
    (gamma, label) is valid because an arc (u, v) forces gamma(u) < gamma(v).
    """
    gamma = _gamma_values(D)
    return tuple(sorted(D.vertices, key=lambda v: (gamma[v - 1], v)))


def vertex_subset(vertices: Iterable[int], n: int) -> list[int]:
    """The distinct ids in ``vertices``, sorted; a nonempty subset of 1..n."""
    sub = set(vertices)
    if not all(map(is_int, sub)):
        raise ValueError("vertex set holds an id that is not an integer")
    if not sub:
        raise ValueError("vertex set must be nonempty")
    if min(sub) < 1 or max(sub) > n:
        raise VertexRangeError(f"vertex set not contained in 1..{n}")
    return sorted(sub)


def induced_subgraph(D: Digraph, vertices: Iterable[int]) -> tuple[Digraph, dict[int, int]]:
    """Subgraph induced by a vertex set, relabeled 1..|S| in label order.

    Returns the subgraph and the old-label -> new-label map.
    """
    sub = vertex_subset(vertices, D.n)
    relabel = {old: i for i, old in enumerate(sub, start=1)}
    arcs = {(relabel[t], relabel[h]) for t, h in D.arcs if t in relabel and h in relabel}
    return Digraph(len(sub), arcs), relabel


# ---------------------------------------------------------------------------
# file formats


# plain ASCII decimal integers only: int() would also take '1_0', '+1' and
# non-ASCII digits; \s is exactly the whitespace str.split() splits at
_INTEGER = re.compile(r"-?[0-9]+")
_ARC = re.compile(r"(-?[0-9]+)\s+(-?[0-9]+)")


def from_edge_list(text: str) -> Digraph:
    """Parse the line-oriented graph format.

    First meaningful line is n; each following non-empty line is
    "tail head".  Lines starting with '#' are comments.  Numbers are plain
    ASCII decimal integers.  Duplicate arcs are silently dropped.
    """
    n: int | None = None
    arcs: list[Arc] = []
    linenos: list[int] = []
    try:
        # only \n ends a line: splitlines() would also split at \x0b, \x1c,
        # \u2028 and others; strip() drops the \r of a \r\n file
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if n is None:
                fields = line.split()
                if len(fields) != 1:
                    raise GraphParseError(f"line {lineno}: expected vertex count, got {line!r}")
                if not _INTEGER.fullmatch(fields[0]):
                    raise GraphParseError(f"line {lineno}: vertex count {fields[0]!r} is not an integer")
                n = int(fields[0])
                if n < 1:
                    raise GraphParseError(f"line {lineno}: vertex count must be positive, got {n}")
                continue
            match = _ARC.fullmatch(line)
            if match is None:
                Digraph(n, arcs)  # a bad arc on an earlier line is reported first
                if len(line.split()) != 2:
                    raise GraphParseError(f"line {lineno}: expected 'tail head', got {line!r}")
                raise GraphParseError(f"line {lineno}: arc endpoints must be integers, got {line!r}")
            arcs.append((int(match[1]), int(match[2])))
            linenos.append(lineno)
        if n is None:
            raise GraphParseError("empty graph file: missing vertex count line")
        return Digraph(n, arcs)
    except (SelfLoopError, VertexRangeError) as exc:
        # the first arc that is a self-loop or out of range is the one named
        bad = (t == h or not (1 <= t <= n and 1 <= h <= n) for t, h in arcs)
        lineno = next(line for line, wrong in zip(linenos, bad) if wrong)
        raise type(exc)(f"line {lineno}: {exc}") from None


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


def _source_arc_path_arcs(n: int) -> list[Arc]:
    return [(k, k + 1) for k in range(1, n)] + [(1, 2 * k) for k in range(1, n // 2 + 1)]


def augmented_added_arcs(n: int) -> list[Arc]:
    """The triangle-free bipartite arcs on odd labels that the augmented
    family adds to the source arc-path, sorted lexicographically: from the
    odd labels 3..m to the odd labels m+2..n-1, all but (m, m+2), where m is
    the middle odd label."""
    if not is_int(n) or n % 2 or n < 8:
        raise ValueError(f"augmented source arc-path requires even n >= 8, got {n!r}")
    m = n // 2 + (n - 2) // 2 % 2
    return [(x, y) for x in range(3, m + 1, 2) for y in range(m + 2, n, 2) if (x, y) != (m, m + 2)]


# each parameterized family's arcs on n vertices
_ARC_BUILDERS: dict[str, Callable[[int], Iterable[Arc]]] = {
    "directed_path": lambda n: ((k, k + 1) for k in range(1, n)),
    "star": lambda n: ((k, n) for k in range(1, n)),
    "complete_dag": lambda n: ((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)),
    "source_arc_path": _source_arc_path_arcs,
    "augmented_source_arc_path": lambda n: _source_arc_path_arcs(n) + augmented_added_arcs(n),
}
# the fixed tree fixtures, as vertex count and arcs; the larger one is the
# smaller with one more child-with-child branch under the root, exact
# minimum palette 6
_FIXED_TREES: dict[str, tuple[int, tuple[Arc, ...]]] = {
    "fig3_tree_small": (4, ((1, 2), (1, 3), (3, 4))),
    "fig3_tree_large": (6, ((1, 2), (1, 3), (3, 4), (1, 5), (5, 6))),
}
FAMILIES = (*_ARC_BUILDERS, *_FIXED_TREES)


def gen_family(family: str, n: int | None = None) -> Digraph:
    """Build a named graph family member on n vertices.

    The two fixed tree fixtures ignore n.  ``augmented_source_arc_path``
    requires even n >= 8; every other parameterized family requires n >= 2.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if family in _FIXED_TREES:
        return Digraph(*_FIXED_TREES[family])
    if n is None:
        raise ValueError(f"family {family!r} requires a vertex count")
    if not is_int(n) or n < 2:
        raise ValueError(f"family {family!r} requires n >= 2, got {n!r}")
    return Digraph(n, _ARC_BUILDERS[family](n))

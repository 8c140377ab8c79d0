"""Exact minimum-palette computation by iterative deepening.

For each candidate palette size k = 1, 2, ... the solver decides whether a
valid representation exists using colors 0..k-1.  The first feasible k is
the exact answer, certified by the exhausted searches below it.

The decision search runs in two phases over the deterministic left-to-right
vertex order (all in-neighbors of a vertex precede it):

* enumerate size functions s(v) in [1, k] that strictly increase along
  every arc, hence along every path, with s(v) between a static floor and
  k minus the longest path leaving v.  The floor exceeds every
  in-neighbor's floor and is at least the largest set of neighbors of v
  that are pairwise non-adjacent and joined by a path: those differ in
  size, share no color, and v meets each through a color of its own.
  Pairwise non-adjacent vertices of distinct sizes have disjoint sets, so
  in every maximal non-adjacent clique the distinct sizes sum to at most
  k: each vertex takes only the sizes that each clique through it already
  holds or still has the slack for.  Every later vertex has a dynamic
  floor, above each in-neighbor's size or dynamic floor; it stays within
  the vertex's ceiling, since every size and static floor stays within
  its own.  A look-ahead runs at each level's root and after each size is
  given: each clique has a fixed chain of later members, each reachable
  from the one before, whose sizes strictly increase from those floors;
  the ones above the clique's largest size are new distinct sizes, which
  must fit in its slack.

* backtracking set assignment: each vertex takes s(v) colors, reusing old
  colors where allowed and introducing fresh colors only as the next unused
  ids (canonical introduction order breaks color symmetry).  Non-adjacent
  vertices with different sizes must stay disjoint; every in-neighbor must
  be hit by a reused color.  Each unassigned vertex keeps a mask of the
  colors it may no longer take, updated as vertices are assigned and
  restored as they are unassigned.  The clique bound is rechecked on what
  is left: the unassigned members of a clique that differ in size need
  their distinct sizes in disjoint colors, drawn from the old colors each
  may still take and the colors not yet introduced.

The bounds and the look-ahead only cut subtrees that hold no
representation and leave the enumeration order alone, so the first
witness found is the same with or without them.

Everything is deterministic: fixed orders, fixed enumeration, no RNG.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from itertools import combinations, count

from .constructors import inductive_construction, pairing_construction
from .digraph import Digraph, is_acyclic, is_int, left_to_right_order
from .errors import BudgetExhaustedError, CyclicGraphError, SearchDepthError
from .representation import Representation, canonicalize

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
BUDGET_EXHAUSTED = "budget_exhausted"

# interpreter frames kept free for the callers of the search; each search
# phase recurses once per vertex on top of them
_FRAME_RESERVE = 150

# the clique bounds and the size floor's set search are optional for
# correctness; above this many vertices their enumerations could blow up, so
# they are skipped
_PRUNE_MAX_VERTICES = 24


@dataclass(frozen=True)
class SolveBudget:
    """Cap on the exact search: explored nodes.

    The deepening needs no palette ceiling: the constructions bound the DIN,
    so on a DAG running out of nodes is the only way a search stops short.
    """

    max_nodes: int = 100_000_000

    def __post_init__(self):
        if not is_int(self.max_nodes) or self.max_nodes < 1:
            raise ValueError(f"node budget must be a positive integer, got {self.max_nodes!r}")


DEFAULT_BUDGET = SolveBudget()


@dataclass(frozen=True)
class LevelStats:
    """Work done by the decision search at one palette size k."""

    k: int
    nodes: int
    size_nodes: int  # nodes of size enumeration; the rest are set assignment
    size_functions: int  # complete size functions that reached assignment
    seconds: float


@dataclass(frozen=True)
class SolveResult:
    status: str  # one of OPTIMAL, INFEASIBLE, BUDGET_EXHAUSTED
    din: int | None
    witness: Representation | None
    nodes_explored: int
    elapsed: float
    # smaller constructor palette, set when the budget ran out
    best_upper: int | None = None
    levels: tuple[LevelStats, ...] = ()


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool | None  # None means unknown (budget ran out)
    witness: Representation | None
    nodes_explored: int


class _OutOfNodes(Exception):
    pass


def max_search_vertices() -> int:
    """Largest vertex count the recursive search handles at this recursion limit."""
    return (sys.getrecursionlimit() - _FRAME_RESERVE) // 2 - 1


def _maximal_nonadjacent_cliques(n: int, adj: list[int]) -> list[int]:
    """Maximal cliques (as bitmasks, size >= 2) of the non-adjacency graph."""
    comp = [(~adj[i]) & (((1 << n) - 1) ^ (1 << i)) for i in range(n)]
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            if r.bit_count() >= 2:
                out.append(r)
            return
        pivot = (p | x).bit_length() - 1
        candidates = p & ~comp[pivot]
        while candidates:
            low = candidates & -candidates
            v = low.bit_length() - 1
            expand(r | low, p & comp[v], x & comp[v])
            p &= ~low
            x |= low
            candidates &= ~low
    expand(0, (1 << n) - 1, 0)
    return out


def _size_floors(in_prev: list[tuple[int, ...]], out_next: list[tuple[int, ...]],
                 adj: list[int]) -> list[int]:
    """Least size of each vertex in any size function, at least 1.

    A vertex exceeds its in-neighbors, and it needs one color per member
    of the largest set of its neighbors that are pairwise non-adjacent and
    joined by a path: sizes increase along paths, so such neighbors differ
    in size, share no color, and meet the vertex through distinct colors.
    """
    n = len(adj)
    # per vertex: the descendants it is not adjacent to
    apart = [0] * n
    reach = [0] * n
    for i in range(n - 1, -1, -1):
        for j in out_next[i]:
            reach[i] |= (1 << j) | reach[j]
        apart[i] = reach[i] & ~adj[i]

    def largest(cand: int, size: int, best: int) -> int:
        while cand and size + cand.bit_count() > best:
            low = cand & -cand
            cand ^= low
            best = largest(cand & apart[low.bit_length() - 1], size + 1, best)
        return max(best, size)

    floor = [largest(a, 0, 0) if n <= _PRUNE_MAX_VERTICES else 0 for a in adj]
    for i in range(n):
        floor[i] = max(floor[i], max((floor[q] + 1 for q in in_prev[i]), default=1))
    return floor


def _clique_chains(n: int, cliques: list[int], reach: list[int]) -> tuple[list, list[list]]:
    """The (clique, chain) pairs to check at the root and after each p.  A
    chain from a member is it, then the chain from the first later member it
    reaches.  After p a clique's chain starts at its first member after p; it
    can newly fail only if it meets p's descendants or the clique holds p."""
    root, after = [], [[] for _ in range(n)]
    for i, c in enumerate(cliques):
        chain_from = {}
        chain, mask = (), 0  # the chain after p, and its members as a mask
        for p in range(n - 1, -1, -1):
            member = (c >> p) & 1
            if chain and (member or mask & reach[p]):
                after[p].append((i, chain))
            if member:
                nxt = c & reach[p]
                tail, tail_mask = chain_from[(nxt & -nxt).bit_length() - 1] if nxt else ((), 0)
                chain, mask = chain_from[p] = (p,) + tail, tail_mask | (1 << p)
        root.append((i, chain))
    return root, after


def _residual_cliques(
    sizes: list[int], conflicts: tuple[int, ...],
    tails: tuple[tuple[int, tuple[int, ...]], ...],
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The clique tails to recheck once a vertex has colors.

    ``tails`` are the parts of the non-adjacent cliques after the vertex,
    as (mask, members).  Each check is (members, the sum of their distinct
    sizes).  Only tails through a vertex whose forbidden mask grows
    (``conflicts``) can newly fail, and a tail whose members share one size
    is already covered by the per-vertex size test.
    """
    hit = 0
    for w in conflicts:
        hit |= 1 << w
    checks = []
    for mask, members in tails:
        if mask & hit:
            distinct = {sizes[w] for w in members}
            if len(distinct) > 1:
                checks.append((members, sum(distinct)))
    return tuple(checks)


class _Search:
    """Search state for one digraph; reusable across deepening levels."""

    def __init__(self, D: Digraph, max_nodes: int):
        n = D.n
        self.n = n
        self.order = left_to_right_order(D)
        posmap = {v: i for i, v in enumerate(self.order)}
        arcs = {(posmap[u], posmap[v]) for u, v in D.arcs}
        self.in_prev = [tuple(q for q in range(i) if (q, i) in arcs) for i in range(n)]
        self.out_next = [tuple(j for j in range(i + 1, n) if (i, j) in arcs) for i in range(n)]
        adj = [0] * n
        for i, j in arcs:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self.later_nonadj = [
            tuple(j for j in range(i + 1, n) if not (adj[i] >> j) & 1) for i in range(n)
        ]
        self.floor = _size_floors(self.in_prev, self.out_next, adj)
        h_out = [0] * n
        reach = [0] * n
        for i in range(n - 1, -1, -1):
            h_out[i] = max((h_out[j] + 1 for j in self.out_next[i]), default=0)
            for j in self.out_next[i]:
                reach[i] |= (1 << j) | reach[j]
        self.h_out = h_out
        self.below = [tuple(w for w in range(i + 1, n) if (reach[i] >> w) & 1) for i in range(n)]
        cliques = _maximal_nonadjacent_cliques(n, adj) if n <= _PRUNE_MAX_VERTICES else []
        self.root_checks, self.checks = _clique_chains(n, cliques, reach)
        # per position p: the distinct parts after p of the cliques, where
        # they keep two members or more, as (mask, members)
        self.tails = []
        for p in range(n):
            masks = sorted({c & (-1 << (p + 1)) for c in cliques})
            self.tails.append(tuple(
                (t, tuple(w for w in range(p + 1, n) if (t >> w) & 1))
                for t in masks if t & (t - 1)
            ))
        self.through = [tuple(c for c, q in enumerate(cliques) if (q >> i) & 1) for i in range(n)]
        self.n_cliques = len(cliques)
        self.nodes = 0
        self.max_nodes = max_nodes
        self.size_nodes = 0
        self.size_functions = 0
        self.levels: list[LevelStats] = []
        # per-run state
        self.k = 0
        # the size of each sized vertex, the dynamic floor of the others
        self.sizes = [0] * n
        # per clique: bitmask of the distinct sizes given so far, and k minus
        # their sum
        self.held = [0] * self.n_cliques
        self.slack = [0] * self.n_cliques
        self.phi = [0] * n
        self.used = 0
        # per vertex: later non-adjacent vertices of another size, and the
        # colors of assigned vertices it must stay disjoint from
        self.conflicts: list[tuple[int, ...]] = [()] * n
        self.forb = [0] * n

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise _OutOfNodes

    def run(self, k: int) -> Representation | None:
        """Canonical witness with palette [0, k), or None if there is none."""
        nodes, size_nodes, size_functions = self.nodes, self.size_nodes, self.size_functions
        start = time.perf_counter()
        try:
            self.k = k
            self.held = [0] * self.n_cliques
            self.slack = [k] * self.n_cliques
            self.sizes = list(self.floor)
            if any(self.floor[i] > k - self.h_out[i] for i in range(self.n)):
                return None
            if self._refuted(self.root_checks) or not self._sizes_dfs(0):
                return None
        finally:
            self.levels.append(LevelStats(
                k, self.nodes - nodes, self.size_nodes - size_nodes,
                self.size_functions - size_functions, time.perf_counter() - start,
            ))
        return canonicalize(Representation.from_mapping(self.n, {
            vertex: {c for c in range(k) if (self.phi[p] >> c) & 1}
            for p, vertex in enumerate(self.order)
        }))

    def _sizes_dfs(self, p: int) -> bool:
        self.size_nodes += 1
        self._tick()
        if p == self.n:
            self.size_functions += 1
            return self._start_assignment()
        # p's in-neighbors are sized, so its dynamic floor exceeds each
        sizes, floor, in_prev = self.sizes, self.floor, self.in_prev
        lo, hi = sizes[p], self.k - self.h_out[p]
        # the sizes in [lo, hi] that each clique through p already holds or
        # still has the slack for
        through, held, slack = self.through[p], self.held, self.slack
        values = ((2 << hi) - 1) >> lo << lo
        for c in through:
            values &= held[c] | ((2 << slack[c]) - 1)
        below, checks = self.below[p], self.checks[p]
        saved = sizes[p:]
        while values:
            bit = values & -values
            values ^= bit
            value = bit.bit_length() - 1
            sizes[p] = value
            for w in below:
                f = floor[w]
                for q in in_prev[w]:
                    if sizes[q] >= f:
                        f = sizes[q] + 1
                sizes[w] = f
            added = [c for c in through if not held[c] & bit]
            for c in added:
                held[c] |= bit
                slack[c] -= value
            if not (checks and self._refuted(checks)) and self._sizes_dfs(p + 1):
                return True
            for c in added:
                held[c] ^= bit
                slack[c] += value
        sizes[p:] = saved
        return False

    def _refuted(self, checks) -> bool:
        """Whether a chain in ``checks`` needs more new sizes than its clique
        has slack for."""
        sizes, held, slack = self.sizes, self.held, self.slack
        for c, chain in checks:
            # chain sizes strictly increase from the dynamic floors, and each
            # above the largest size the clique holds is a new distinct size
            top, room, value = held[c].bit_length() - 1, slack[c], 0
            for w in chain:
                value = value + 1 if value >= sizes[w] else sizes[w]
                if value > top:
                    room -= value
                    if room < 0:
                        return True
        return False

    def _start_assignment(self) -> bool:
        sizes = self.sizes
        self.conflicts = [
            tuple(w for w in later if sizes[w] != sizes[p])
            for p, later in enumerate(self.later_nonadj)
        ]
        self.forb = [0] * self.n
        self.used = 0
        return self._assign_dfs(0)

    def _future_ok(self, p: int) -> bool:
        # every unassigned vertex must still be able to reach its size and
        # to intersect each already-assigned in-neighbor.  All forbidden
        # colors are old colors, so the size test reads s(w) + |forb(w)| <= k.
        # Both tests held before p was assigned, so only the vertices whose
        # forbidden mask just grew and p's later out-neighbors can fail.
        k, sizes, forb, phi = self.k, self.sizes, self.forb, self.phi
        for w in self.conflicts[p]:
            f = forb[w]
            if sizes[w] + f.bit_count() > k:
                return False
            for q in self.in_prev[w]:
                if q > p:
                    break
                if not (phi[q] & ~f):
                    return False
        mask = phi[p]
        for w in self.out_next[p]:
            if not (mask & ~forb[w]):
                return False
        # the later members of a non-adjacent clique that differ in size take
        # disjoint sets, drawn from the old colors each may still take and
        # the colors not yet introduced
        old = (1 << self.used) - 1
        fresh = k - self.used
        for members, total in _residual_cliques(sizes, self.conflicts[p], self.tails[p]):
            free = 0
            for w in members:
                free |= ~forb[w]
            if total > (free & old).bit_count() + fresh:
                return False
        return True

    def _assign_dfs(self, p: int) -> bool:
        self._tick()
        if p == self.n:
            return True
        k = self.k
        s_p = self.sizes[p]
        forb = self.forb
        allowed = ((1 << self.used) - 1) & ~forb[p]
        need = [self.phi[q] & allowed for q in self.in_prev[p]]
        abits = []
        m = allowed
        while m:
            low = m & -m
            abits.append(low)
            m &= ~low
        conflicts = self.conflicts[p]
        saved_forb = [forb[w] for w in conflicts]
        saved_used = self.used
        t_min = max(0, s_p - len(abits))
        t_max = min(s_p, k - saved_used)
        for t in range(t_min, t_max + 1):
            reuse = s_p - t
            fresh = ((1 << t) - 1) << saved_used
            for combo in combinations(abits, reuse):
                self._tick()
                mask = fresh
                for bit in combo:
                    mask |= bit
                ok = True
                for req in need:
                    if not (mask & req):
                        ok = False
                        break
                if not ok:
                    continue
                self.phi[p] = mask
                self.used = saved_used + t
                for w in conflicts:
                    forb[w] |= mask
                if self._future_ok(p) and self._assign_dfs(p + 1):
                    return True
                for w, f in zip(conflicts, saved_forb):
                    forb[w] = f
        self.phi[p] = 0
        self.used = saved_used
        return False


def _constructor_upper(D: Digraph) -> int:
    """Smaller palette of the two polynomial constructions."""
    if D.n < 2:
        return 1
    return min(
        pairing_construction(D).palette_size,
        inductive_construction(D).palette_size,
    )


def _search_for(D: Digraph, budget: SolveBudget | None) -> _Search | None:
    """The search state for D, or None if D is cyclic.

    A graph too large for the search raises ``SearchDepthError`` before
    anything else looks at it, so a huge input costs no acyclicity test
    first, whether or not it is cyclic.
    """
    limit = max_search_vertices()
    if D.n > limit:
        raise SearchDepthError(
            f"exact search handles at most {limit} vertices at recursion "
            f"limit {sys.getrecursionlimit()}, got {D.n}"
        )
    if not is_acyclic(D):
        return None
    return _Search(D, (budget or DEFAULT_BUDGET).max_nodes)


def exact_din(D: Digraph, budget: SolveBudget | None = None) -> SolveResult:
    """Exact minimum palette size, with a verified witness.

    Graphs too large for the recursive search raise ``SearchDepthError``
    first, cyclic or not; cyclic inputs are then reported infeasible
    immediately.  Otherwise the deepening loop proves every k below the
    answer infeasible, so an ``optimal`` result is a completeness
    certificate as well as a witness.
    When the budget runs out, ``best_upper`` carries the smaller
    constructor palette.  ``levels`` records the work at each k tried.
    """
    start = time.perf_counter()
    search = _search_for(D, budget)
    if search is None:
        return SolveResult(INFEASIBLE, None, None, 0, time.perf_counter() - start)
    try:
        for k in count(1):
            witness = search.run(k)
            if witness is not None:
                return SolveResult(
                    OPTIMAL, k, witness, search.nodes, time.perf_counter() - start,
                    levels=tuple(search.levels),
                )
    except _OutOfNodes:
        return SolveResult(
            BUDGET_EXHAUSTED, None, None, search.nodes, time.perf_counter() - start,
            best_upper=_constructor_upper(D), levels=tuple(search.levels),
        )


def feasible_with_palette(
    D: Digraph, k: int, budget: SolveBudget | None = None
) -> FeasibilityResult:
    """Decide whether some valid representation uses at most k colors.

    Tri-state: yes (with witness), no, or unknown when the node budget runs
    out first.
    """
    if not is_int(k) or k < 1:
        raise ValueError(f"palette size must be a positive integer, got {k!r}")
    search = _search_for(D, budget)
    if search is None:
        raise CyclicGraphError("feasibility is defined for acyclic digraphs")
    try:
        witness = search.run(k)
    except _OutOfNodes:
        return FeasibilityResult(None, None, search.nodes)
    return FeasibilityResult(witness is not None, witness, search.nodes)


# ---------------------------------------------------------------------------
# exhaustive extremal enumeration at desk scale


def _graph_for_mask(n: int, mask: int) -> Digraph:
    """The DAG on 1..n whose arcs are the forward pairs selected by ``mask``
    (bit b is pair b of (i, j), i < j, in row order)."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return Digraph(n, {pairs[b] for b in range(len(pairs)) if (mask >> b) & 1})


def _din(n: int, budget: SolveBudget, mask: int) -> int | None:
    return exact_din(_graph_for_mask(n, mask), budget).din


def extremal_din(
    n: int,
    budget: SolveBudget | None = None,
    *,
    workers: int | None = None,
) -> tuple[int, list[Digraph]]:
    """Largest exact palette over all DAGs on n vertices, with witnesses.

    Every DAG appears among the arc subsets of the complete DAG on ordered
    vertices under some topological labeling, so enumerating the
    2^(n(n-1)/2) labeled subsets covers all of them.  No isomorphism
    reduction is attempted; at this scale correctness beats cleverness.
    Witnesses come in arc-mask order, whatever the number of workers, which
    must be at least 1 and is capped at the CPU count.
    """
    if not is_int(n) or not 2 <= n <= 6:
        raise ValueError(f"extremal enumeration supports 2 <= n <= 6, got {n!r}")
    if workers is not None and (not is_int(workers) or workers < 1):
        raise ValueError(f"workers must be at least 1, got {workers!r}")
    workers = min(workers or 1, os.cpu_count() or 1)
    masks = range(1 << (n * (n - 1) // 2))
    solve = partial(_din, n, budget or DEFAULT_BUDGET)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            dins = pool.map(solve, masks, chunksize=64)
    else:
        dins = list(map(solve, masks))
    exhausted = dins.count(None)
    if exhausted:
        raise BudgetExhaustedError(
            f"budget exhausted on {exhausted} of {len(masks)} digraphs (n={n})"
        )
    best = max(dins)
    # only the witnesses are rebuilt: keeping every solved graph would hold
    # its arcs and cached longest paths, about 1.5 KB a graph
    return best, [_graph_for_mask(n, mask) for mask, din in enumerate(dins) if din == best]

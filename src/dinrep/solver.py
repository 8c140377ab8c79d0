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
  size, share no color, and v meets each through a color of its own.  Such
  a set lies in one maximal non-adjacent clique as a chain, so it is the
  tallest chain that a clique cuts from v's neighbors.
  Pairwise non-adjacent vertices of distinct sizes have disjoint sets, so
  in every maximal non-adjacent clique the distinct sizes sum to at most
  k: each vertex takes only the sizes that each clique through it already
  holds or still has the slack for.  Every later vertex holds its dynamic
  floor, its static floor raised above each in-neighbor's size or floor,
  so the floors rise along every arc.  After each size is given a
  look-ahead reads them as they are: each clique has a fixed chain of later
  members, each reachable from the one before, whose floors strictly
  increase; the ones above the clique's largest size are new distinct
  sizes, which must fit in its slack.  A level's root is one test, k at
  least the least palette: the largest static floor and each clique's
  static floors summed along its chain.  Neighbors of v that are pairwise
  non-adjacent and of different sizes share no color, so v meets each
  through a color of its own: at most s(v) of them.  Such neighbors lie in
  one maximal non-adjacent clique, so the neighbors of v in each clique
  may take at most s(v) distinct sizes.  Every sized vertex keeps this
  over its sized neighbors, so it filters p's values wherever a clique
  through p holds earlier neighbors of an in-neighbor w of p: once they
  take s(w) sizes, p takes one of them.  w's in-neighbors are all smaller
  than w, so only w with an out-neighbor before p can have that many.

* decide each complete size function by color classes, the holders of one
  color.  Two members of a class are adjacent or of equal size, and s is
  feasible exactly when at most k classes put every vertex v in s(v) of
  them and both ends of every arc in a common one.  The first vertex v
  with need left takes all its remaining classes, grown lazily from the
  later vertices with need: v's next class repeats its last or leaves out
  the lowest member where the two differ, so colors are not permuted.  A
  vertex whose need runs out must have every arc covered.  After each
  class no vertex may need more classes than are left, and no maximal
  non-adjacent clique's slack may fall below 0: a class spends one unit of
  it unless it lowers the clique's demand, the largest need of each of its
  sizes summed, since its sizes share no class.  Class i becomes color i.

The bounds and the look-ahead only cut subtrees that hold no
representation and leave the enumeration order alone, so the first
witness found is the same with or without them.

Everything is deterministic: fixed orders, fixed enumeration, no RNG.
"""

from __future__ import annotations

import logging
import os
import sys
import time
from functools import partial
from itertools import chain, combinations, count, groupby, permutations, product
from typing import NamedTuple

from .constructors import inductive_construction, pairing_construction
from .digraph import Digraph, is_acyclic, is_int, left_to_right_order
from .errors import BudgetExhaustedError, CyclicGraphError, SearchDepthError
from .representation import Representation, canonicalize

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
BUDGET_EXHAUSTED = "budget_exhausted"

# interpreter frames kept free for the callers of the search; the size phase
# recurses once per vertex on top of them and the class search adds one frame.
# max_search_vertices still halves the rest: the graphs `din` refuses with
# exit 2 are part of the CLI contract
_FRAME_RESERVE = 150

# the maximal non-adjacent cliques carry every color-counting bound, which
# correctness does not need; above this many vertices their enumeration could
# blow up, so none is listed
_PRUNE_MAX_VERTICES = 24

_log = logging.getLogger(__name__)


class SolveBudget(NamedTuple("SolveBudget", [("max_nodes", int)])):
    """Cap on the exact search: explored nodes.

    The deepening needs no palette ceiling: the constructions bound the DIN,
    so on a DAG running out of nodes is the only way a search stops short.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the check

    def __new__(cls, max_nodes: int = 100_000_000):
        if not is_int(max_nodes) or max_nodes < 1:
            raise ValueError(f"node budget must be a positive integer, got {max_nodes!r}")
        return super().__new__(cls, max_nodes)


DEFAULT_BUDGET = SolveBudget()


class LevelStats(NamedTuple):
    """Work done by the decision search at one palette size k."""

    k: int
    nodes: int
    size_nodes: int  # nodes of size enumeration; the rest are classes tried
    size_functions: int  # complete size functions that reached the class search
    seconds: float


class SolveResult(NamedTuple):
    status: str  # one of OPTIMAL, INFEASIBLE, BUDGET_EXHAUSTED
    din: int | None
    witness: Representation | None
    nodes_explored: int
    elapsed: float
    # smaller constructor palette, set when the budget ran out
    best_upper: int | None = None
    levels: tuple[LevelStats, ...] = ()


class FeasibilityResult(NamedTuple):
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


def _clique_chains(n: int, cliques: list[int], reach: list[int]) -> tuple[list, list[list], list[list]]:
    """Each clique's chain from its first member; per p, the (clique, chain)
    pairs to check after p and the cliques through p.  A chain from a member
    is it, then the chain from the first later member it reaches.  After p a
    clique's chain starts at its first member after p; it can newly fail
    only if it meets p's descendants or the clique holds p."""
    root, after, through = [], [[] for _ in range(n)], [[] for _ in range(n)]
    for i, c in enumerate(cliques):
        chain_from = {}
        chain, mask = (), 0  # the chain after p, and its members as a mask
        for p in range(c.bit_length() - 1, -1, -1):  # no chain above c's top member
            member = (c >> p) & 1
            if chain and (member or mask & reach[p]):
                after[p].append((i, chain))
            if member:
                through[p].append(i)
                nxt = c & reach[p]
                tail, tail_mask = chain_from[(nxt & -nxt).bit_length() - 1] if nxt else ((), 0)
                chain, mask = chain_from[p] = (p,) + tail, tail_mask | (1 << p)
        root.append(chain)
    return root, after, through


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _height(part: int, reach: list[int]) -> int:
    """Longest chain of ``part`` under reachability (``reach`` holds each
    vertex's descendants as a mask): the rounds of dropping the members
    that no other member reaches (Mirsky 1971)."""
    rounds = 0
    while part:
        reached = 0
        for x in _bits(part):
            reached |= reach[x]
        part &= reached
        rounds += 1
    return rounds


class _Search:
    """Search state for one digraph; reusable across deepening levels."""

    def __init__(self, D: Digraph, max_nodes: int):
        n = D.n
        self.n = n
        self.order = left_to_right_order(D)
        posmap = {v: i for i, v in enumerate(self.order)}
        adj = self.adj = [0] * n
        for u, v in D.arcs:
            i, j = posmap[u], posmap[v]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        # every arc points to a later position
        self.in_prev = [tuple(_bits(a & ((1 << i) - 1))) for i, a in enumerate(adj)]
        out_next = [_bits(a & ~((2 << i) - 1)) for i, a in enumerate(adj)]
        h_out = self.h_out = [0] * n
        reach = [0] * n
        for i in range(n - 1, -1, -1):
            for j in out_next[i]:
                h_out[i] = max(h_out[i], h_out[j] + 1)
                reach[i] |= (1 << j) | reach[j]
        self.below = [tuple(_bits(r)) for r in reach]
        cliques = self.cliques = _maximal_nonadjacent_cliques(n, adj) if n <= _PRUNE_MAX_VERTICES else []
        root, self.checks, self.through = _clique_chains(n, cliques, reach)
        # the distinct sets the maximal non-adjacent cliques cut from each
        # vertex's neighbors: the tallest part's height is the set search's
        # floor; a part no larger than the in-neighbors' bound cannot raise it
        floor = self.floor = []
        for w in range(n):
            f = max((floor[q] + 1 for q in self.in_prev[w]), default=1)
            parts = {c & adj[w] for c in cliques}
            floor.append(max([f, *(_height(g, reach) for g in parts if g.bit_count() > f)]))
        # per position p: p's in-neighbors with an out-neighbor before p.  At
        # w's first out-neighbor its earlier neighbors are its in-neighbors,
        # all smaller than w, which cannot take s(w) sizes
        self.late = [tuple(w for w in self.in_prev[p] if adj[w] & ((1 << p) - (2 << w)))
                     for p in range(n)]
        # the floors rise along every path, so floor[i] + h_out[i] is at most
        # the largest floor; below this k a level's root is refuted
        self.least = max([*floor, *(sum(floor[w] for w in chain) for chain in root)])
        self.nodes = 0
        self.max_nodes = max_nodes
        self.size_nodes = 0
        self.size_functions = 0
        self.levels: list[LevelStats] = []
        self.classes: list[int] = []  # the class search's path, as masks of holders

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise _OutOfNodes

    def run(self, k: int) -> Representation | None:
        """Canonical witness with palette [0, k), or None if there is none."""
        nodes, size_nodes, size_functions = self.nodes, self.size_nodes, self.size_functions
        start = time.perf_counter()
        try:
            if k < self.least:
                return None
            self.k = k
            # per clique: bitmask of the distinct sizes given so far, and the
            # colors it can still spare, k minus their sum; classes spend a copy
            self.held = [0] * len(self.cliques)
            self.slack = [k] * len(self.cliques)
            # the size of each sized vertex, the dynamic floor of the others
            self.sizes = list(self.floor)
            if not self._sizes_dfs(0):
                return None
        finally:
            self.levels.append(LevelStats(
                k, self.nodes - nodes, self.size_nodes - size_nodes,
                self.size_functions - size_functions, time.perf_counter() - start,
            ))
        # class i is color i
        return canonicalize(Representation(self.n, [
            {i for i, holders in enumerate(self.classes) if (holders >> p) & 1}
            for p in sorted(range(self.n), key=self.order.__getitem__)
        ]))

    def _sizes_dfs(self, p: int) -> bool:
        self.size_nodes += 1
        self._tick()
        if p == self.n:
            self.size_functions += 1
            return self._classes()
        # p's in-neighbors are sized, so its dynamic floor exceeds each
        sizes, in_prev = self.sizes, self.in_prev
        lo, hi = sizes[p], self.k - self.h_out[p]
        # the sizes in [lo, hi] that each clique through p already holds or
        # still has the slack for
        through, held, slack = self.through[p], self.held, self.slack
        cliques, adj, late, early = self.cliques, self.adj, self.late[p], (1 << p) - 1
        values = ((2 << hi) - 1) >> lo << lo
        for c in through:
            values &= held[c] | ((2 << slack[c]) - 1)
            # w's neighbors in c meet w through colors of their own; those
            # before p already take at most s(w) sizes, so once they take
            # s(w), p, also in c, must repeat one
            for w in late:
                group = cliques[c] & early & adj[w]
                if group.bit_count() >= sizes[w]:
                    seen = 0
                    for x in _bits(group):
                        seen |= 1 << sizes[x]
                    if seen.bit_count() >= sizes[w]:
                        values &= seen
        below, checks = self.below[p], self.checks[p]
        saved = sizes[p:]
        while values:
            bit = values & -values
            values ^= bit
            value = bit.bit_length() - 1
            sizes[p] = value
            # p's values rise and each child restores sizes[p + 1:], so
            # raising p's descendants in position order keeps their floors
            for w in below:
                for q in in_prev[w]:
                    if sizes[q] >= sizes[w]:
                        sizes[w] = sizes[q] + 1
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
            # the floors rise along the chain, and each above the largest
            # size the clique holds is a new distinct size
            top, room = held[c].bit_length() - 1, slack[c]
            for w in chain:
                if sizes[w] > top:
                    room -= sizes[w]
                    if room < 0:
                        return True
        return False

    def _classes(self) -> bool:
        """Decide the size function by classes in one loop over open branches,
        depth first.  A branch grows one class: (classes kept before it,
        members so far, candidates, members it must take, state), the state
        being need, uncovered arcs, spare slack and the vertices with need
        left.  Each class belongs to its lowest member, the first vertex with
        need left, which takes its classes as a multiset in include-first
        order; a vertex whose need runs out has every arc covered.  A kept
        class changes its own copies of the state's lists and opens one
        branch, so a popped branch restores nothing but the class list."""
        sizes, adj, classes = self.sizes, self.adj, self.classes
        same = {}
        for p, s in enumerate(sizes):
            same[s] = same.get(s, 0) | 1 << p
        # two vertices may share a class when adjacent or of equal size
        compat = [a | same[s] for a, s in zip(adj, sizes)]
        # the root's state holds the size phase's lists; no kept class writes them
        alive = (1 << self.n) - 1
        stack = [(0, 1, alive & compat[0] & ~1, adj[0] if sizes[0] == 1 else 0, (sizes, adj, self.slack, alive))]
        while stack:
            depth, members, cand, required, state = stack.pop()
            need, uncovered, spare, alive = state
            del classes[depth:]  # at the root, the last size function's classes
            # an earlier vertex's class holds it, below all of members: no tie
            prev = classes[-1] if depth else 0
            while cand:
                low = cand & -cand
                cand ^= low
                # members holds bits below low only: while it matches prev
                # there, taking low outside prev would order the class before it
                if not prev & low and prev & (low - 1) == members:
                    if low & required:
                        break
                    continue
                if not low & required:
                    stack.append((depth, members, cand, required, state))
                w = low.bit_length() - 1
                members |= low
                cand &= compat[w]
                if need[w] == 1:
                    required |= uncovered[w]
                if required & ~(members | cand):
                    break
            else:
                self._tick()
                need, uncovered, spare = need[:], uncovered[:], spare[:]
                classes.append(members)
                for m in _bits(members):
                    need[m] -= 1
                    uncovered[m] &= ~members
                    if not need[m]:
                        alive ^= 1 << m
                if max(need) > self.k - len(classes) or self._over_demand(members, need, spare, compat):
                    continue
                if not alive:
                    return True
                vbit = alive & -alive
                v = vbit.bit_length() - 1
                stack.append((depth + 1, vbit, alive & compat[v] & ~vbit, uncovered[v] if need[v] == 1 else 0,
                              (need, uncovered, spare, alive)))
        return False

    def _over_demand(self, members: int, need: list[int], spare: list[int], compat: list[int]) -> bool:
        """Spend the class just taken from ``spare``, its copy of each clique's
        slack, and tell whether one now falls below 0, stopping at the first.
        Slack is the classes left minus the demand, so a class spends one unit
        of it unless it lowers the demand too: it meets one size of a clique
        at most and lowers the largest ``need`` there unless a vertex of that
        size outside it needs as much.  ``compat`` holds, per vertex, the
        vertices that may share a class with it."""
        for c, q in enumerate(self.cliques):
            inside = q & members
            if inside:
                # in a clique the vertices compatible with a member share its size
                outside = q & compat[(inside & -inside).bit_length() - 1] & ~members
                if not outside or max(need[w] for w in _bits(inside)) >= max(need[w] for w in _bits(outside)):
                    continue
            spare[c] -= 1
            if spare[c] < 0:
                return True
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
    """Exact minimum palette size, with a witness valid by construction.

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


def _mask_arcs(n: int, mask: int) -> list[tuple[int, int]]:
    """The forward pairs (i, j), i < j, of 1..n that ``mask`` selects (bit b
    is pair b in row order)."""
    return [pair for b, pair in enumerate(combinations(range(1, n + 1), 2)) if (mask >> b) & 1]


def _graph_for_mask(n: int, mask: int) -> Digraph:
    return Digraph(n, _mask_arcs(n, mask))


def _canonical_form(n: int, arcs: list[tuple[int, int]]) -> int:
    """Least arc mask (bit i * n + j for an arc from position i to j) over
    the relabellings that list 1..n in (in-degree, out-degree) order,
    permuting only vertices that tie.  An isomorphism maps this set of
    relabellings onto itself and the mask encodes the whole labelled graph,
    so two graphs share a form exactly when they are isomorphic."""
    degrees = [[0, 0] for _ in range(n + 1)]
    for u, v in arcs:
        degrees[v][0] += 1
        degrees[u][1] += 1
    ranked = sorted(range(1, n + 1), key=degrees.__getitem__)
    ties = [tuple(tie) for _, tie in groupby(ranked, key=degrees.__getitem__)]
    return min(
        sum(1 << (pos[u] * n + pos[v]) for u, v in arcs)
        for pos in (dict(zip(chain(*split), range(n))) for split in product(*map(permutations, ties)))
    )


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
    vertices under some topological labeling, so the 2^(n(n-1)/2) labeled
    subsets cover all of them.  Isomorphic subsets share a canonical form,
    so only the first mask of each isomorphism class is solved and every
    mask takes its class's DIN.  The node budget applies to each class
    solve: when it runs out, ``BudgetExhaustedError`` counts the masks whose
    class representative (the least mask in the class) ran out.
    Witnesses are every mask of the largest DIN, in arc-mask order,
    whatever the number of workers, which must be at least 1 and is capped
    at the CPU count.  One INFO line on the ``dinrep.solver`` logger gives
    the mask count, the class count and the maximum.
    """
    if not is_int(n) or not 2 <= n <= 6:
        raise ValueError(f"extremal enumeration supports 2 <= n <= 6, got {n!r}")
    if workers is not None and (not is_int(workers) or workers < 1):
        raise ValueError(f"workers must be at least 1, got {workers!r}")
    workers = min(workers or 1, os.cpu_count() or 1)
    masks = range(1 << (n * (n - 1) // 2))
    # each class's least mask, by form, and each mask's representative
    first: dict[int, int] = {}
    reps = [first.setdefault(_canonical_form(n, _mask_arcs(n, mask)), mask) for mask in masks]
    todo = list(first.values())
    solve = partial(_din, n, budget or DEFAULT_BUDGET)
    if workers > 1:
        import multiprocessing  # only a parallel sweep pays for loading it
        with multiprocessing.Pool(workers) as pool:
            solved = pool.map(solve, todo, chunksize=64)
    else:
        solved = list(map(solve, todo))
    din_of = dict(zip(todo, solved))
    dins = [din_of[rep] for rep in reps]
    exhausted = dins.count(None)
    if exhausted:
        raise BudgetExhaustedError(
            f"budget exhausted on {exhausted} of {len(masks)} digraphs (n={n})"
        )
    best = max(dins)
    _log.info("extremal n=%d: %d masks, %d isomorphism classes, max DIN %d",
              n, len(masks), len(todo), best)
    # only the witnesses are rebuilt: keeping every solved graph would hold
    # its arcs and cached longest paths, about 1.5 KB a graph
    return best, [_graph_for_mask(n, mask) for mask, din in enumerate(dins) if din == best]

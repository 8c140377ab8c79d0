"""Constructive representation builders.

Two general-purpose constructions work for every DAG:

* ``pairing_construction`` — group the vertices of a left-to-right order
  into consecutive pairs, start from pairwise-disjoint color blocks, copy a
  donor color per cross-pair arc, then pad each pair to fixed target sizes
  from a shared fresh pool.  Palette <= 5n^2/8 - n/4 for even n.

* ``inductive_construction`` — peel the first two vertices off the order,
  build the rest recursively, then re-insert the front pair with fresh
  blocks, one bridging color, per-arc donor copies, and uniform padding of
  the later pairs.  A case analysis on the arcs among the first four
  vertices always saves one color, giving palette <= 5n^2/8 - 3n/4 + 1 for
  even n, together with exact structural guarantees on the set sizes.

Both handle odd n by padding with one isolated dummy vertex and dropping it
afterwards; the even-n palette bound is then only guaranteed at the padded
size.

The closed forms ``source_arc_path_representation`` and
``augmented_representation`` realize the exact minimum palettes of the two
Hamiltonian families, floor(n^2/2) and floor(n^2/2) + m.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import count, groupby, islice

from .bounds import augmented_din, source_arc_path_din
from .digraph import Digraph, augmented_added_arcs, is_acyclic, is_int, left_to_right_order
from .errors import CyclicGraphError
from .representation import Representation, restrict


def _general(D: Digraph, fill: Callable[[int, list[set[int]], count], list[list[int]]]) -> Representation:
    """Check D, then build a general construction: ``fill(n, out, colors)``
    gets the out-neighbours by 1-based left-to-right position and fresh color
    ids from 0, and returns each position's colors."""
    if D.n < 2:
        raise ValueError(f"construction needs n >= 2, got {D.n}")
    if not is_acyclic(D):
        raise CyclicGraphError("construction requires an acyclic digraph")
    # odd n: an isolated vertex n+1 lands at the end of the source level in
    # the left-to-right order and is dropped again after construction
    padded = Digraph(D.n + 1, D.arcs) if D.n % 2 else D
    n, order = padded.n, left_to_right_order(padded)
    pos = {v: i for i, v in enumerate(order, start=1)}
    out: list[set[int]] = [set() for _ in range(n + 1)]
    for u, v in D.arcs:
        out[pos[u]].add(pos[v])
    phi = fill(n, out, count())
    rep = Representation(n, [phi[pos[v]] for v in range(1, n + 1)])
    return restrict(rep, range(1, D.n + 1)) if D.n % 2 else rep


def initial_block_sizes(n: int) -> list[int]:
    """Disjoint starting block sizes of the pairing construction (even n).

    Position i (1-based) starts with n/2 - ceil(i/2) private colors; the
    last pair starts empty and is inflated by the padding step.  The total
    is n^2/4 - n/2.
    """
    if n % 2:
        raise ValueError("initial blocks are defined for even n")
    return [n // 2 - (i + 1) // 2 for i in range(1, n + 1)]


def pairing_construction(D: Digraph) -> Representation:
    """Valid representation via pair blocking; palette <= 5n^2/8 - n/4 (even n)."""
    return _general(D, _pairing)


def _pairing(n: int, out: list[set[int]], colors: count) -> list[list[int]]:
    half = n // 2
    # each position's list starts with its initial block, its donor colors
    phi = [[]] + [list(islice(colors, size)) for size in initial_block_sizes(n)]

    # one private donor color per arc-carrying later pair; a vertex in pair
    # p has exactly half - p following pairs, matching its block size
    for i in range(1, n + 1):
        donors = iter(phi[i])
        # the later pairs i reaches, in ascending order; an odd i's partner is i + 1
        later = (j for j in sorted(out[i]) if j > i + i % 2)
        for _, targets in groupby(later, key=lambda j: (j + 1) // 2):
            color = next(donors)
            for j in targets:
                phi[j].append(color)

    # pad both members of each pair from one fresh pool; sharing inside a
    # pair is harmless (equal final sizes when the pair arc is absent) and
    # supplies the required common color when the pair arc is present
    for pair in range(1, half + 1):
        o, e = 2 * pair - 1, 2 * pair
        target_o = half + 2 * pair - 2 if e in out[o] else half + 2 * pair - 1
        target_e = half + 2 * pair - 1
        need_o = target_o - len(phi[o])
        need_e = target_e - len(phi[e])
        assert need_o >= 1 and need_e >= 1, "padding slack is always positive"
        pool = list(islice(colors, max(need_o, need_e)))
        phi[o] += pool[:need_o]
        phi[e] += pool[:need_e]
    return phi


def _save_one_color(
    phi: list[list[int]],
    v1: int,
    a1: int,
    b1: int,
    bump: int,
    pattern: list[bool],
    v3_pads: list[int],
) -> None:
    """Drop one front-pair color via the arc pattern on the first two pairs.

    ``pattern`` holds the arcs v1->v3, v1->v4, v2->v3 and v2->v4.  Only
    called when the front pair carries its arc and a second pair exists.  In
    the patterns not handled here the saving is automatic: the shared
    padding pool already mints at most two colors for the second pair, or
    the padding delta was lowered to two for every pair.
    """
    a13, a14, a23, a24 = pattern
    v2, v3, v4 = v1 + 1, v1 + 2, v1 + 3
    if a23 and a24:
        return
    if not a13 and not a14:
        if a23 or a24:
            # a1 was never copied anywhere; replace it by the size color
            moves = [(v1, a1, bump)]
        else:
            # b1 was never copied anywhere; v2 can reuse a1 across the pair arc
            moves = [(v2, b1, a1)]
    elif a23 and a13 and not a14:
        # b1 sits in v2 and v3 only; reroute both uses and retire it
        moves = [(v3, b1, bump), (v2, b1, a1)]
    elif a24 and a14 and not a13:
        # swap a1 out of v4 for a pad color v3 holds exclusively, and
        # cover the (v1, v4) arc through b1 instead
        moves = [(v4, a1, v3_pads[0]), (v1, a1, b1)]
    else:
        return
    for v, old, new in moves:
        phi[v].remove(old)
        phi[v].append(new)


def inductive_construction(D: Digraph) -> Representation:
    """Valid representation via recursive pair insertion (even n).

    For the fixed left-to-right order the output satisfies, with h = n/2:
    the first vertex has exactly h colors, the second at least h, every
    later vertex at least h + 1; within each consecutive pair the sizes
    differ by exactly one when the pair arc exists and are equal otherwise;
    and the palette has at most 5n^2/8 - 3n/4 + 1 colors.

    Odd n goes through the dummy-padding wrapper without the bound
    guarantee.
    """
    return _general(D, _inductive)


def _inductive(n: int, out: list[set[int]], colors: count) -> list[list[int]]:
    phi: list[list[int]] = [[] for _ in range(n + 1)]
    # peel pairs from the back so the deepest sub-problem mints colors first
    for lo in range(n - 1, 0, -2):
        half = (n - lo + 1) // 2
        v1, v2 = lo, lo + 1
        pair_arc = v2 in out[v1]

        alpha = list(islice(colors, half - 1))
        beta = list(islice(colors, half - 1))
        bridge = next(colors)
        phi[v1] = [*alpha, bridge]
        phi[v2] = [*beta, bridge]
        if pair_arc:
            bump = next(colors)
            phi[v2].append(bump)

        if half < 2:
            continue

        pattern = [w in out[v] for v in (v1, v2) for w in (v1 + 2, v1 + 3)]
        a13, a14, a23, a24 = pattern
        # the delta drops to 2 when the pair arc is present, v2 reaches
        # neither member of the second pair and v1 reaches exactly one
        lowered = pair_arc and not a23 and not a24 and a13 != a14
        delta = 2 if lowered else 3

        # each member of a later pair gains delta colors: its donor copies,
        # then pads from the pair's one shared pool; the pools of all later
        # pairs are minted in pair order as one block
        need = [delta] * (n + 1)
        for v, donors in ((v1, alpha), (v2, beta)):
            for j in out[v] - {v2}:
                phi[j].append(donors[(j - v1) // 2 - 1])
                need[j] -= 1
        needs = list(zip(need[v1 + 2::2], need[v1 + 3::2]))
        block = list(islice(colors, sum(map(max, needs))))
        start = 0
        for o, (need_o, need_e) in zip(range(v1 + 2, n, 2), needs):
            phi[o] += block[start:start + need_o]
            phi[o + 1] += block[start:start + need_e]
            start += need_o if need_o > need_e else need_e
        v3_pads = block[needs[0][1]:needs[0][0]]

        if pair_arc and not lowered:
            _save_one_color(phi, v1, alpha[0], beta[0], bump, pattern, v3_pads)
    return phi


# ---------------------------------------------------------------------------
# closed forms for the two Hamiltonian families

# colors are minted kind by kind, so this is their palette id order: hub
# colors tie the source to each even vertex, pair colors tie each
# consecutive odd-even pair, link colors tie each even vertex to the next
# odd one, fill colors are the per-pair bulk shared only inside a pair,
# patch colors serve the augmented family's added arcs
def _source_arc_path(n: int, colors: count) -> tuple[dict[int, set[int]], dict[int, list[int]]]:
    """Closed-form sets of the source arc-path and each odd vertex's fill colors."""
    half = n // 2
    hubs = list(islice(colors, half))  # pairs 1..half
    pairs = list(islice(colors, half - 1))  # pairs 2..half
    links = list(islice(colors, half - 1))  # pairs 1..half-1
    # pair 1 has half - 1 fills, pair i >= 2 has half + 2i - 4 and vertex n
    # one more, minted last
    fills = [list(islice(colors, half - 1))]
    fills += [list(islice(colors, half + 2 * i - 4)) for i in range(2, half + 1)]

    phi = {1: set(hubs), 2: {hubs[0], *fills[0]}}
    for e, hub, pair, fill in zip(range(4, n + 1, 2), hubs[1:], pairs, fills[1:]):
        phi[e - 1] = {pair, *fill}
        phi[e] = {hub, pair, *fill}
    for e, link in zip(range(2, n, 2), links):
        phi[e].add(link)
        phi[e + 1].add(link)
    phi[n].add(next(colors))
    return phi, {2 * i + 1: fills[i] for i in range(1, half)}


def source_arc_path_representation(n: int) -> Representation:
    """The exact-minimum assignment for the source arc-path, n^2/2 colors.

    Vertex sizes are forced to n/2 + j - 1 along the Hamiltonian path; the
    even-labeled vertices receive pairwise disjoint sets.
    """
    if not is_int(n) or n % 2 or n < 4:
        raise ValueError(f"source arc-path closed form needs even n >= 4, got {n!r}")
    phi, _ = _source_arc_path(n, count())
    rep = Representation(n, [phi[v] for v in range(1, n + 1)])
    assert rep.palette_size == source_arc_path_din(n)
    return rep


def augmented_representation(n: int) -> Representation:
    """Closed form for the augmented family: n^2/2 + m colors.

    Starts from the source arc-path assignment; every added arc gets one
    fresh patch color on both endpoints while one fill color, still held by
    the pair partner, is dropped from each endpoint.  Each step therefore
    grows the palette by exactly one.
    """
    added = augmented_added_arcs(n)  # checks n before any other work
    colors = count()
    phi, reservoir = _source_arc_path(n, colors)
    for arc, patch in zip(added, colors):
        for v in arc:
            phi[v].add(patch)
            phi[v].remove(reservoir[v].pop())
    rep = Representation(n, [phi[v] for v in range(1, n + 1)])
    assert rep.palette_size == augmented_din(n)
    return rep

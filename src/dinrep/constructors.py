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

from itertools import count, islice

from .bounds import augmented_din, source_arc_path_din
from .digraph import Arc, Digraph, augmented_added_arcs, is_acyclic, left_to_right_order
from .errors import CyclicGraphError
from .representation import Representation, restrict


def _require_small_dag(D: Digraph) -> None:
    if D.n < 2:
        raise ValueError(f"construction needs n >= 2, got {D.n}")
    if not is_acyclic(D):
        raise CyclicGraphError("construction requires an acyclic digraph")


def _with_dummy(D: Digraph) -> Digraph:
    # isolated vertex n+1; it lands at the end of the source level in the
    # left-to-right order and is dropped again after construction
    return Digraph(D.n + 1, D.arcs)


def _positions(D: Digraph) -> tuple[tuple[int, ...], set[Arc], count]:
    """Left-to-right order, arcs between its 1-based positions, fresh color ids from 0."""
    order = left_to_right_order(D)
    pos = {v: i for i, v in enumerate(order, start=1)}
    return order, {(pos[u], pos[v]) for u, v in D.arcs}, count()


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
    _require_small_dag(D)
    if D.n % 2:
        return restrict(pairing_construction(_with_dummy(D)), range(1, D.n + 1))

    n, half = D.n, D.n // 2
    order, arcs, colors = _positions(D)
    initial = {
        i: list(islice(colors, size)) for i, size in enumerate(initial_block_sizes(n), start=1)
    }
    phi: dict[int, set[int]] = {i: set(initial[i]) for i in range(1, n + 1)}

    # one private donor color per arc-carrying later pair; a vertex in pair
    # p has exactly half - p following pairs, matching its block size
    for i in range(1, n + 1):
        donors = initial[i]
        ptr = 0
        for pair in range((i + 1) // 2 + 1, half + 1):
            o, e = 2 * pair - 1, 2 * pair
            to_odd = (i, o) in arcs
            to_even = (i, e) in arcs
            if to_odd or to_even:
                color = donors[ptr]
                ptr += 1
                if to_odd:
                    phi[o].add(color)
                if to_even:
                    phi[e].add(color)

    # pad both members of each pair from one fresh pool; sharing inside a
    # pair is harmless (equal final sizes when the pair arc is absent) and
    # supplies the required common color when the pair arc is present
    for pair in range(1, half + 1):
        o, e = 2 * pair - 1, 2 * pair
        pair_arc = (o, e) in arcs
        target_o = half + 2 * pair - 2 if pair_arc else half + 2 * pair - 1
        target_e = half + 2 * pair - 1
        need_o = target_o - len(phi[o])
        need_e = target_e - len(phi[e])
        assert need_o >= 1 and need_e >= 1, "padding slack is always positive"
        pool = list(islice(colors, max(need_o, need_e)))
        phi[o].update(pool[:need_o])
        phi[e].update(pool[:need_e])

    return Representation.from_mapping(n, {order[i - 1]: phi[i] for i in range(1, n + 1)})


def _save_one_color(
    phi: dict[int, set[int]],
    v1: int,
    alpha: list[int],
    beta: list[int],
    bump: int,
    arcs: set[tuple[int, int]],
    pair2_pool: tuple[list[int], int, int],
) -> None:
    """Drop one front-pair color via the arc pattern on the first two pairs.

    Only called when the front pair carries its arc and a second pair
    exists.  In the patterns not handled here the saving is automatic: the
    shared padding pool already mints at most two colors for the second
    pair, or the padding delta was lowered to two for every pair.
    """
    v2, v3, v4 = v1 + 1, v1 + 2, v1 + 3
    a13 = (v1, v3) in arcs
    a14 = (v1, v4) in arcs
    a23 = (v2, v3) in arcs
    a24 = (v2, v4) in arcs
    a1, b1 = alpha[0], beta[0]
    if a23 and a24:
        return
    if a23:
        if a13 and not a14:
            # b1 sits in v2 and v3 only; reroute both uses and retire it
            phi[v3].remove(b1)
            phi[v3].add(bump)
            phi[v2].remove(b1)
            phi[v2].add(a1)
        elif not a13 and not a14:
            # a1 was never copied anywhere; replace it by the size color
            phi[v1].remove(a1)
            phi[v1].add(bump)
        return
    if a24:
        if not a13 and a14:
            # swap a1 out of v4 for a pad color v3 holds exclusively, and
            # cover the (v1, v4) arc through b1 instead
            pool, need_o, need_e = pair2_pool
            spare = pool[need_e]
            phi[v4].remove(a1)
            phi[v4].add(spare)
            phi[v1].remove(a1)
            phi[v1].add(b1)
        elif not a13 and not a14:
            phi[v1].remove(a1)
            phi[v1].add(bump)
        return
    if not a13 and not a14:
        # b1 was never copied anywhere; v2 can reuse a1 across the pair arc
        phi[v2].remove(b1)
        phi[v2].add(a1)


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
    _require_small_dag(D)
    if D.n % 2:
        return restrict(inductive_construction(_with_dummy(D)), range(1, D.n + 1))

    n = D.n
    order, arcs, colors = _positions(D)
    phi: dict[int, set[int]] = {}
    # peel pairs from the back so the deepest sub-problem mints colors first
    for lo in range(n - 1, 0, -2):
        half = (n - lo + 1) // 2
        v1, v2 = lo, lo + 1
        pair_arc = (v1, v2) in arcs

        alpha = list(islice(colors, half - 1))
        beta = list(islice(colors, half - 1))
        bridge = next(colors)
        phi[v1] = set(alpha) | {bridge}
        phi[v2] = set(beta) | {bridge}
        bump = None
        if pair_arc:
            bump = next(colors)
            phi[v2].add(bump)

        if half < 2:
            continue

        gains = {w: 0 for w in range(lo + 2, n + 1)}
        for pair in range(2, half + 1):
            o = lo + 2 * (pair - 1)
            e = o + 1
            for src, color in ((v1, alpha[pair - 2]), (v2, beta[pair - 2])):
                if (src, o) in arcs:
                    phi[o].add(color)
                    gains[o] += 1
                if (src, e) in arcs:
                    phi[e].add(color)
                    gains[e] += 1

        # the delta drops to 2 when neither front vertex reaches the second
        # pair's even slot and exactly one arc reaches its odd slot
        a13 = (v1, lo + 2) in arcs
        a14 = (v1, lo + 3) in arcs
        a23 = (v2, lo + 2) in arcs
        a24 = (v2, lo + 3) in arcs
        lowered = pair_arc and not a23 and not a24 and (a13 != a14)
        delta = 2 if lowered else 3

        pair2_pool: tuple[list[int], int, int] | None = None
        for pair in range(2, half + 1):
            o = lo + 2 * (pair - 1)
            e = o + 1
            need_o = delta - gains[o]
            need_e = delta - gains[e]
            pool = list(islice(colors, max(need_o, need_e)))
            phi[o].update(pool[:need_o])
            phi[e].update(pool[:need_e])
            if pair == 2:
                pair2_pool = (pool, need_o, need_e)

        if pair_arc and not lowered:
            assert bump is not None and pair2_pool is not None
            _save_one_color(phi, v1, alpha, beta, bump, arcs, pair2_pool)

    return Representation.from_mapping(n, {order[i - 1]: phi[i] for i in range(1, n + 1)})


# ---------------------------------------------------------------------------
# closed forms for the two Hamiltonian families

# color kinds, in palette id order: hub colors tie the source to each even
# vertex, pair colors tie each consecutive odd-even pair, link colors tie
# each even vertex to the next odd one, fill colors are the per-pair bulk
# shared only inside a pair, patch colors serve the augmented family's
# added arcs
_HUB, _PAIR, _LINK, _FILL, _PATCH = range(5)


def _symbolic_source_arc_path(n: int) -> dict[int, set[tuple]]:
    half = n // 2
    phi: dict[int, set[tuple]] = {}

    def fills(pair: int, count: int) -> set[tuple]:
        return {(_FILL, pair, j) for j in range(1, count + 1)}

    phi[1] = {(_HUB, i, 0) for i in range(1, half + 1)}
    phi[2] = {(_HUB, 1, 0), (_LINK, 1, 0)} | fills(1, half - 1)
    for i in range(2, half):
        bulk = fills(i, half + 2 * i - 4)
        phi[2 * i - 1] = {(_PAIR, i, 0), (_LINK, i - 1, 0)} | bulk
        phi[2 * i] = {(_HUB, i, 0), (_PAIR, i, 0), (_LINK, i, 0)} | bulk
    phi[n - 1] = {(_LINK, half - 1, 0), (_PAIR, half, 0)} | fills(half, half + n - 4)
    phi[n] = {(_HUB, half, 0), (_PAIR, half, 0)} | fills(half, half + n - 3)
    return phi


def _intify(phi: dict[int, set[tuple]], n: int) -> Representation:
    keys = sorted(set().union(*phi.values()))
    ids = {key: i for i, key in enumerate(keys)}
    return Representation.from_mapping(n, {v: {ids[c] for c in s} for v, s in phi.items()})


def source_arc_path_representation(n: int) -> Representation:
    """The exact-minimum assignment for the source arc-path, n^2/2 colors.

    Vertex sizes are forced to n/2 + j - 1 along the Hamiltonian path; the
    even-labeled vertices receive pairwise disjoint sets.
    """
    if n % 2:
        raise ValueError(f"source arc-path closed form needs even n, got {n}")
    if n < 4:
        raise ValueError(f"source arc-path closed form needs n >= 4, got {n}")
    rep = _intify(_symbolic_source_arc_path(n), n)
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
    phi = _symbolic_source_arc_path(n)
    reservoir = {
        v: sorted(c for c in phi[v] if c[0] == _FILL)
        for v in range(3, n, 2)
    }
    for k, (a, b) in enumerate(added, start=1):
        patch = (_PATCH, k, 0)
        phi[a].add(patch)
        phi[b].add(patch)
        phi[a].remove(reservoir[a].pop())
        phi[b].remove(reservoir[b].pop())
    rep = _intify(phi, n)
    assert rep.palette_size == augmented_din(n)
    return rep

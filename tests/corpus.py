"""Shared test helpers: random DAG corpora and independent oracles."""

from __future__ import annotations

import random
from itertools import combinations, permutations
from typing import Iterator

from dinrep import (
    FALSE_ARC_IMPLIED,
    MISSING_INTERSECTION,
    SIZE_NOT_INCREASING,
    Digraph,
    Representation,
    Violation,
)


def reference_violations(D: Digraph, rep: Representation) -> Iterator[Violation]:
    """Direct evaluation of the defining arc equivalence, pair by pair.

    Deliberately re-implemented from the definition, not via dinrep.verify,
    so the two can be checked against each other: every ordered pair
    (u, v), u != v, in row order, yields the violations ``verify`` must
    report for it, in the order it must report them.
    """
    for u in range(1, D.n + 1):
        su = rep.color_set(u)
        for v in range(1, D.n + 1):
            if u == v:
                continue
            sv = rep.color_set(v)
            if (u, v) in D.arcs:
                if not su & sv:
                    yield Violation(u, v, MISSING_INTERSECTION)
                if len(su) >= len(sv):
                    yield Violation(u, v, SIZE_NOT_INCREASING)
            elif su & sv and len(su) < len(sv):
                yield Violation(u, v, FALSE_ARC_IMPLIED)


def independent_validity(D: Digraph, rep: Representation) -> bool:
    """True iff the reference finds no violation; stops at the first."""
    return next(reference_violations(D, rep), None) is None


def random_connected_dag(rng: random.Random, n: int) -> Digraph:
    """Weakly connected DAG on 1..n: random forward arborescence plus noise."""
    arcs = {(rng.randrange(1, j), j) for j in range(2, n + 1)}
    density = rng.uniform(0.05, 0.6)
    for i, j in combinations(range(1, n + 1), 2):
        if rng.random() < density:
            arcs.add((i, j))
    return Digraph(n, arcs)


def connected_dag_corpus(n: int, count: int, seed: int) -> list[Digraph]:
    rng = random.Random(seed)
    return [random_connected_dag(rng, n) for _ in range(count)]


def random_dag(rng: random.Random, n: int, density: float) -> Digraph:
    """DAG on 1..n: each pair is an arc with probability ``density``,
    oriented along a random topological order."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    rand = rng.random
    return Digraph(n, {(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rand() < density})


def all_forward_digraphs(n: int):
    """Every DAG whose labels are already a topological order."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for mask in range(1 << len(pairs)):
        yield Digraph(n, {pairs[b] for b in range(len(pairs)) if (mask >> b) & 1})


def brute_force_form(n: int, arcs) -> int:
    """Least arc mask (bit i * n + j for an arc from position i to j) over
    all n! relabellings of 1..n, with no degree refinement: equal for two
    graphs exactly when they are isomorphic."""
    return min(sum(1 << (p[u - 1] * n + p[v - 1]) for u, v in arcs) for p in permutations(range(n)))


def first_of_class(forms) -> list[int]:
    """Each item's class, named by the index of the first item with its form."""
    first: dict = {}
    return [first.setdefault(form, i) for i, form in enumerate(forms)]


def class_work(result) -> bytes:
    """Each level's palette size, size functions and class nodes
    (``nodes - size_nodes``) of an ``exact_din`` result, as one line to
    hash.  A prune of size enumeration alone leaves them as they are."""
    return f"{[(lv.k, lv.size_functions, lv.nodes - lv.size_nodes) for lv in result.levels]}\n".encode()

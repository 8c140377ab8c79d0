"""Seeded inputs for the benchmark workloads.

Everything here is plain Python on arc sets; dinrep never sees a generator,
only the graphs and graph files made from what these functions return.  A
workload that draws from these functions with the same seed gets the same
graphs, byte for byte.
"""

from __future__ import annotations

import random
from itertools import combinations

Arcs = set[tuple[int, int]]

# The certify corpus is drawn once from this fixed stream; the workload seed
# only relabels its vertices (see ``relabel``).
CERTIFY_CORPUS_SEED = "dinrep/certify-corpus"
CERTIFY_CORPUS = ((7, 12), (8, 12))  # (vertex count, how many graphs)

# The sweep's forward DAGs are one fixed sample of masks; the workload seed
# relabels them too.
SWEEP_SAMPLE_SEED = "dinrep/sweep-sample"
SWEEP_N = 6
SWEEP_COUNT = 1000

REPRESENT_DENSITY = 0.1


def stream(workload: str, seed: int) -> random.Random:
    """Independent random stream for one workload and seed."""
    return random.Random(f"dinrep/{workload}/{seed}")


def random_connected_dag(rng: random.Random, n: int) -> Arcs:
    """Weakly connected DAG on 1..n: random forward arborescence plus noise.

    The noise density is itself drawn from [0.05, 0.6], so a corpus mixes
    sparse, tree-like graphs with dense ones.
    """
    arcs = {(rng.randrange(1, j), j) for j in range(2, n + 1)}
    density = rng.uniform(0.05, 0.6)
    for i, j in combinations(range(1, n + 1), 2):
        if rng.random() < density:
            arcs.add((i, j))
    return arcs


def certify_corpus() -> list[tuple[str, int, Arcs]]:
    """The fixed random part of ``certify``: (label, n, arcs) per graph."""
    rng = random.Random(CERTIFY_CORPUS_SEED)
    out = []
    for n, count in CERTIFY_CORPUS:
        for i in range(count):
            out.append((f"rand{n}-{i:02d}", n, random_connected_dag(rng, n)))
    return out


def relabel(rng: random.Random, n: int, arcs: Arcs) -> Arcs:
    """The same graph under a uniformly random vertex relabelling."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return {(perm[t - 1], perm[h - 1]) for t, h in arcs}


def forward_dag(n: int, mask: int) -> Arcs:
    """The forward DAG on 1..n whose arcs are the set bits of ``mask``, bit b
    standing for the b-th pair (i, j), i < j, in lexicographic order."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return {pairs[b] for b in range(len(pairs)) if (mask >> b) & 1}


def sweep_masks() -> list[int]:
    """The sweep's sample: SWEEP_COUNT distinct forward-DAG masks on SWEEP_N
    vertices."""
    rng = random.Random(SWEEP_SAMPLE_SEED)
    return rng.sample(range(1 << (SWEEP_N * (SWEEP_N - 1) // 2)), SWEEP_COUNT)


def random_dag(rng: random.Random, n: int, density: float) -> Arcs:
    """DAG on 1..n: each pair is an arc with probability ``density``,
    oriented along a random topological order."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    arcs = set()
    rand = rng.random
    for i in range(n):
        u = order[i]
        for j in range(i + 1, n):
            if rand() < density:
                arcs.add((u, order[j]))
    return arcs


def edge_list(n: int, arcs: Arcs) -> str:
    """The line-oriented graph file format: n, then one "tail head" per arc."""
    lines = [str(n)]
    lines.extend(f"{t} {h}" for t, h in sorted(arcs))
    return "\n".join(lines) + "\n"

"""Independent exact DIN oracle: a 0/1 integer program solved by HiGHS.

It shares nothing with ``dinrep.solver`` but the definition: u -> v is an
arc iff the sets of u and v meet and u's set is strictly smaller.  With a
palette ceiling K (the smaller constructor palette, which bounds the DIN),
the variables are

* x[v, c]: vertex v holds color c;
* y[c]: color c is used, with y[0] >= y[1] >= ... so the used colors come
  first and the objective sum(y) is the palette size;
* z[a, c]: both ends of arc a hold c, so the arc's sets meet;
* w[u, v] per non-adjacent pair: the two sets meet, which forces equal
  sizes (a big-M of K on both differences).

Every set is non-empty and sizes strictly increase along arcs.  Tests only:
``scipy`` is a test dependency, never a dependency of ``dinrep``.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from dinrep import Digraph, Representation, inductive_construction, pairing_construction


def ilp_din(D: Digraph) -> tuple[int, Representation]:
    """Minimum palette of an acyclic D on n >= 2 vertices, with the model's witness."""
    K = min(pairing_construction(D).palette_size, inductive_construction(D).palette_size)
    n = D.n
    arcs = sorted(D.arcs)
    apart = [
        (u, v) for u, v in combinations(D.vertices, 2)
        if (u, v) not in D.arcs and (v, u) not in D.arcs
    ]
    colors = range(K)

    def x(v, c):
        return (v - 1) * K + c

    def y(c):
        return n * K + c

    def z(a, c):
        return n * K + K + a * K + c

    def w(i):
        return n * K + K + len(arcs) * K + i

    n_vars = w(len(apart))
    rows: list[tuple[dict[int, float], float, float]] = []

    def size_minus(v, u=None):
        """Coefficients of s(v) - s(u), or of s(v) alone."""
        row = {x(v, c): 1 for c in colors}
        if u is not None:
            row.update({x(u, c): -1 for c in colors})
        return row

    for v in D.vertices:
        rows.append((size_minus(v), 1, np.inf))
        for c in colors:
            rows.append(({x(v, c): 1, y(c): -1}, -np.inf, 0))
    for c in range(1, K):
        rows.append(({y(c - 1): 1, y(c): -1}, 0, np.inf))
    for a, (u, v) in enumerate(arcs):
        rows.append((size_minus(v, u), 1, np.inf))
        rows.append(({z(a, c): 1 for c in colors}, 1, np.inf))
        for c in colors:
            rows.append(({z(a, c): 1, x(u, c): -1}, -np.inf, 0))
            rows.append(({z(a, c): 1, x(v, c): -1}, -np.inf, 0))
    for i, (u, v) in enumerate(apart):
        for c in colors:
            rows.append(({x(u, c): 1, x(v, c): 1, w(i): -1}, -np.inf, 1))
        for first, second in ((u, v), (v, u)):
            row = size_minus(first, second)
            row[w(i)] = K
            rows.append((row, -np.inf, K))

    A = np.zeros((len(rows), n_vars))
    for r, (coef, _, _) in enumerate(rows):
        for j, value in coef.items():
            A[r, j] = value
    cost = np.zeros(n_vars)
    cost[y(0):y(K)] = 1
    result = milp(
        cost,
        constraints=LinearConstraint(A, [lo for _, lo, _ in rows], [hi for _, _, hi in rows]),
        integrality=np.ones(n_vars),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    if result.status != 0:
        raise RuntimeError(f"ILP not solved to optimality: {result.message}")
    sets = [
        {c for c in colors if result.x[x(v, c)] > 0.5} for v in D.vertices
    ]
    return round(result.fun), Representation(n, sets)

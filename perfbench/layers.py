"""Per-layer numbers for the traced run, recorded from outside the program.

The benchmark replaces public functions in the namespaces of the dinrep
modules that call them (``dinrep.cli.verify``, ``dinrep.solver.canonicalize``
and so on) with wrappers that record a span per call: name, start, end and
the enclosing span.  Nothing under ``src/`` changes.  Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from time import perf_counter

# (module, attribute) pairs to wrap, for calls between the program's layers
# and for the benchmark's own calls into them.  Each span is named
# "<defining module>.<function>", so a call is charged to the layer that
# implements it, whichever module made it.
WRAPPED = {
    "cli": (
        "main", "load_graph", "gen_family", "pairing_construction",
        "inductive_construction", "source_arc_path_representation",
        "augmented_representation", "rep_to_json", "rep_from_json", "verify",
        "exact_din", "extremal_din",
    ),
    "solver": ("is_acyclic", "left_to_right_order", "canonicalize", "exact_din"),
    "constructors": ("is_acyclic", "left_to_right_order", "restrict"),
}

# What a span keeps of its call, besides its times: nodes and status of a
# solve, vertex count of a verification.
_NOTES = {
    "solver.exact_din": lambda args, result: (result.nodes_explored, result.status),
    "representation.verify": lambda args, result: args[0].n,
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        # one [name, start, end, parent index, group, note] per call
        self.spans: list[list] = []
        self.group: str | None = None  # case class of the operation running
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self, modules: dict[str, object]) -> None:
        for mod_name, attrs in WRAPPED.items():
            module = modules[mod_name]
            for attr in attrs:
                fn = getattr(module, attr)
                self._undo.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        note = _NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.group, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if note is not None:
                rec[5] = note(args, result)
            return result

        return traced


class SpanStats:
    """Totals over a list of spans: duration and self time per name."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        child = [0.0] * len(spans)
        for rec in spans:
            name, start, end, parent = rec[0], rec[1], rec[2], rec[3]
            self.total[name] = self.total.get(name, 0.0) + (end - start)
            if parent >= 0:
                child[parent] += end - start
        for i, rec in enumerate(spans):
            self.self_time[rec[0]] = self.self_time.get(rec[0], 0.0) + (rec[2] - rec[1] - child[i])

    def s(self, name: str) -> float:
        return self.total.get(name, 0.0)

    def self_s(self, name: str) -> float:
        return self.self_time.get(name, 0.0)

    def named(self, name: str) -> list[list]:
        return [rec for rec in self.spans if rec[0] == name]

    def children_of(self, parent_name: str, names: set[str]) -> float:
        """Summed duration of spans in ``names`` called directly by a
        ``parent_name`` span."""
        return sum(
            rec[2] - rec[1]
            for rec in self.spans
            if rec[0] in names and rec[3] >= 0 and self.spans[rec[3]][0] == parent_name
        )


# case classes whose search nodes are reported one by one
NODE_GROUPS = ("dpath", "sap", "tree", "rand7", "rand8", "n6", "extremal5")
SOLVER_SETUP = {"digraph.is_acyclic", "digraph.left_to_right_order", "representation.canonicalize"}


def level_profile(dr, ops, outcomes, max_nodes: int) -> list[dict]:
    """Nodes and seconds of ``feasible_with_palette(D, k)`` for k = 1..DIN,
    for every certified solve.  Recorded, not asserted: only the last level
    should be feasible."""
    budget = dr.pkg.SolveBudget(max_nodes=max_nodes)
    rows = []
    for op, o in zip(ops, outcomes):
        if op.graph is None or o.din is None:
            continue
        levels = []
        for k in range(1, o.din + 1):
            start = perf_counter()
            r = dr.pkg.feasible_with_palette(op.graph, k, budget)
            levels.append([k, r.feasible, r.nodes_explored, perf_counter() - start])
        rows.append({"case": op.label, "din": o.din, "levels": levels})
    return rows


def per_layer(spans, outcomes, levels, overhead_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass.  A layer the workload never
    calls reads 0."""
    st = SpanStats(spans)
    solves = st.named("solver.exact_din")
    nodes = dict.fromkeys(NODE_GROUPS, 0)
    for rec in solves:
        nodes[rec[4]] = nodes.get(rec[4], 0) + rec[5][0]
    certified = sum(1 for rec in solves if rec[5][1] == "optimal")
    search_s = st.self_s("solver.exact_din")
    verify_s = st.s("representation.verify")
    pairs = sum(rec[5] * (rec[5] - 1) for rec in st.named("representation.verify"))
    palette = {"pairing": 0, "inductive": 0}
    for o in outcomes:
        if o.palette and o.palette[0] in palette:
            palette[o.palette[0]] += o.palette[1]
    level_nodes = sum(lv[2] for row in levels for lv in row["levels"])
    final_nodes = sum(row["levels"][-1][2] for row in levels)

    m: dict[str, tuple[float, str]] = {}
    for group in NODE_GROUPS:
        m[f"solver.nodes.{group}"] = (nodes[group], "count")
    m["solver.nodes_per_s"] = (sum(nodes.values()) / search_s if search_s else 0.0, "1/s")
    m["solver.level.final_nodes_share"] = (final_nodes / level_nodes if level_nodes else 0.0, "ratio")
    m["solver.exact_din.self_s"] = (search_s, "s")
    m["solver.setup_s"] = (st.children_of("solver.exact_din", SOLVER_SETUP), "s")
    m["solver.certified_share"] = (certified / len(solves) if solves else 0.0, "ratio")
    m["representation.verify.s"] = (verify_s, "s")
    m["representation.verify.pairs_per_s"] = (pairs / verify_s if verify_s else 0.0, "1/s")
    for fn in ("rep_to_json", "rep_from_json", "canonicalize"):
        m[f"representation.{fn}.s"] = (st.s(f"representation.{fn}"), "s")
    m["constructors.pairing.s"] = (st.s("constructors.pairing_construction"), "s")
    m["constructors.inductive.s"] = (st.s("constructors.inductive_construction"), "s")
    m["constructors.closed_form.s"] = (
        st.s("constructors.source_arc_path_representation")
        + st.s("constructors.augmented_representation"), "s")
    m["constructors.pairing.palette"] = (palette["pairing"], "count")
    m["constructors.inductive.palette"] = (palette["inductive"], "count")
    for fn in ("load_graph", "left_to_right_order", "is_acyclic"):
        m[f"digraph.{fn}.s"] = (st.s(f"digraph.{fn}"), "s")
    m["cli.main.self_s"] = (st.self_s("cli.main"), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def write_trace(path: Path, spans, levels, metrics, info) -> None:
    """Write the spans (times relative to the first), the level profile and
    the derived metrics as one JSON file."""
    t0 = spans[0][1] if spans else 0.0
    rows = [[name, start - t0, end - t0, parent, group, note]
            for name, start, end, parent, group, note in spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"info": info, "metrics": metrics, "levels": levels,
                   "span_fields": ["name", "start", "end", "parent", "group", "note"],
                   "spans": rows}, fh)

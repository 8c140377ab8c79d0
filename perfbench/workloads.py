"""The three workloads: their inputs, their fixed operation lists, and the
checks on every output.

Each workload is a closed loop: one client in one process runs the
operations one at a time, in a fixed order, and the next starts when the
previous one returns.  An operation is what a user of dinrep runs: an
in-process ``dinrep.cli.main`` call, or an ``exact_din`` call for the sweep.
Only the call itself is timed; reading and checking its output happens after
the pass.
"""

from __future__ import annotations

import importlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from inputs import (
    REPRESENT_DENSITY,
    SWEEP_N,
    certify_corpus,
    edge_list,
    forward_dag,
    random_dag,
    relabel,
    stream,
    sweep_masks,
)

# Node budget of every solve in certify and sweep.  Under it the directed
# path on 9 vertices, the source arc-path on 8 and two of the random 8-vertex
# graphs run out at this commit, so a better-pruned search shows as fewer
# failed operations.  Every certified case needs under 0.7M nodes.
SOLVE_BUDGET = 1_000_000

EXPECTED_FILE = Path(__file__).with_name("expected.json")
MODULES = ("cli", "solver", "constructors", "bounds")


@dataclass
class Outcome:
    """What the checks make of one operation's output."""

    nodes: int = 0  # search nodes the operation reported
    failed: bool = False  # a solve that ran out of its node budget
    din: int | None = None  # certified DIN, for the per-level profile
    palette: tuple[str, int] | None = None  # (method, palette) of a construction
    digest: object = None  # must read the same in every pass
    errors: list[str] = field(default_factory=list)


@dataclass
class Op:
    label: str  # the case, unique in the workload
    group: str  # case class, for per-layer counts
    call: Callable[[], object]  # the timed operation; returns its raw output
    judge: Callable[[object], Outcome]  # reads and checks the raw output
    graph: object = None  # the Digraph a solve runs on


def import_dinrep() -> SimpleNamespace:
    """Import dinrep afresh, so that each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "dinrep" or m.startswith("dinrep.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dinrep")
    return SimpleNamespace(pkg=pkg, **{m: importlib.import_module(f"dinrep.{m}") for m in MODULES})


def load_expected() -> dict[str, dict[str, int | None]]:
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def cli_call(dr: SimpleNamespace, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dr.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def solve(dr: SimpleNamespace, n: int, arcs, budget):
    # a fresh Digraph per call, as extremal_din builds one per mask, so that
    # per-graph caches are paid on every pass; exact_din is looked up at call
    # time, so that a traced pass goes through the wrapper
    return dr.solver.exact_din(dr.pkg.Digraph(n, arcs), budget)


# ---------------------------------------------------------------------------
# checks


def represents(n: int, arcs, sets) -> bool:
    """The defining condition, checked without dinrep: (u, v) is an arc
    exactly when the colour sets of u and v meet and u's is the smaller."""
    arcs = set(arcs)
    return all(
        ((u, v) in arcs) == (bool(su & sv) and len(su) < len(sv))
        for u, su in enumerate(sets, 1)
        for v, sv in enumerate(sets, 1)
        if u != v
    )


def check_solution(dr, D, din: int, witness, expected: int | None, errors: list[str]) -> None:
    """A certified DIN must come with a valid witness of exactly that palette,
    must not exceed either general construction, and must match the known
    value where there is one.  The witness is checked both by dinrep's
    ``verify`` and by ``represents``, so a ``verify`` that accepts too much
    still fails the run."""
    if not dr.pkg.verify(D, witness).valid:
        errors.append("witness fails verify")
    if not represents(D.n, D.arcs, witness.color_sets):
        errors.append("witness fails the pairwise check")
    palette = len(frozenset().union(*witness.color_sets))
    if palette != din:
        errors.append(f"witness palette {palette} != DIN {din}")
    upper = min(
        dr.pkg.pairing_construction(D).palette_size,
        dr.pkg.inductive_construction(D).palette_size,
    )
    if din > upper:
        errors.append(f"DIN {din} above the smaller construction palette {upper}")
    if expected is not None and din != expected:
        errors.append(f"DIN {din}, expected {expected}")


def judge_din_cli(dr, D, expected: int | None, raw) -> Outcome:
    code, out, err = raw
    try:
        obj = json.loads(out)
        status, din, nodes = obj["status"], obj["din"], obj["nodes_explored"]
    except (ValueError, KeyError, TypeError):
        return Outcome(errors=[f"din exited {code} without a result: {err.strip()[:200]}"])
    o = Outcome(nodes=nodes, digest=(status, din, nodes, obj.get("witness")))
    if status == "budget_exhausted" and code == 4:
        o.failed = True
    elif status == "optimal" and code == 0:
        o.din = din
        check_solution(dr, D, din, dr.pkg.rep_from_json(json.dumps(obj["witness"])), expected, o.errors)
    else:
        o.errors.append(f"din exited {code} with status {status!r}")
    return o


def judge_solve(dr, D, expected: int | None, result) -> Outcome:
    # the digest hashes the witness, so that keeping the first pass's
    # outcomes does not keep its witnesses alive
    o = Outcome(
        nodes=result.nodes_explored,
        digest=(result.status, result.din, result.nodes_explored,
                hash(result.witness.color_sets) if result.witness else None),
    )
    if result.status == "budget_exhausted":
        o.failed = True
    elif result.status == "optimal":
        o.din = result.din
        check_solution(dr, D, result.din, result.witness, expected, o.errors)
    else:
        o.errors.append(f"exact_din returned {result.status!r}")
    return o


def judge_extremal(raw) -> Outcome:
    code, out, _ = raw
    o = Outcome(digest=out)
    try:
        obj = json.loads(out)
        best, witnesses = obj["max_din"], obj["witnesses"]
    except (ValueError, KeyError, TypeError):
        return Outcome(errors=[f"extremal exited {code} without a result"])
    if code != 0 or best != 12 or len(witnesses) != 2:
        o.errors.append(f"extremal 5: exit {code}, max {best} with {len(witnesses)} witnesses; expected 12 with 2")
    return o


def judge_construct(dr, n: int, method: str, rep_path: Path, raw) -> Outcome:
    code, out, err = raw
    fields = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    if code != 0 or fields.get("method") != method:
        return Outcome(errors=[f"construct {method} n={n} exited {code}: {err.strip()[:200]}"])
    palette, bound = int(fields["palette_size"]), int(fields["bound"])
    o = Outcome(palette=(method, palette), digest=out)
    with open(rep_path, encoding="utf-8") as fh:
        phi = json.load(fh)["phi"]
    if sorted(map(int, phi)) != list(range(1, n + 1)):
        o.errors.append(f"{rep_path.name}: phi does not cover vertices 1..{n}")
    if len(set().union(*phi.values())) != palette:
        o.errors.append(f"{rep_path.name}: printed palette {palette} differs from the file's")
    b = dr.bounds
    want = {"pairing": b.lemma_upper_bound, "inductive": b.general_upper_bound,
            "closed-form": b.augmented_din}[method](n)
    if bound != want:
        o.errors.append(f"construct {method} n={n}: printed bound {bound}, formula gives {want}")
    if palette > bound or (method == "closed-form" and palette != bound):
        o.errors.append(f"construct {method} n={n}: palette {palette} against bound {bound}")
    return o


def judge_verify(name: str, raw) -> Outcome:
    code, out, _ = raw
    if code != 0 or out != "VALID\n":
        return Outcome(errors=[f"verify {name}: exit {code}, {out[:200]!r}"])
    return Outcome(digest=out)


def judge_verify_broken(name: str, broken: set[tuple[int, int]], raw) -> Outcome:
    code, out, _ = raw
    try:
        reported = {(int(u), int(v)) for u, v, _ in (line.split() for line in out.splitlines())}
    except ValueError:
        reported = None
    if code != 1 or reported != broken:
        return Outcome(errors=[f"verify {name}: exit {code}, {out[:200]!r}; expected exit 1 "
                               f"and violations on exactly the {len(broken)} arcs at the corrupted vertex"])
    return Outcome(digest=out)


# ---------------------------------------------------------------------------
# workloads: each function generates the inputs, writes the graph files and
# returns the fixed operation list


def din_op(dr, label: str, group: str, path: Path, D, expected: int | None) -> Op:
    argv = ["din", str(path), "--json", "--budget-nodes", str(SOLVE_BUDGET)]
    return Op(label, group, partial(cli_call, dr, argv), partial(judge_din_cli, dr, D, expected), D)


def write_graph(workdir: Path, name: str, n: int, arcs) -> Path:
    path = workdir / f"{name}.g"
    path.write_text(edge_list(n, arcs), encoding="utf-8")
    return path


def broken_verify_op(dr, workdir: Path, name: str, graph: Path, n: int, arcs) -> Op:
    """``verify`` on a representation that must be rejected: the pairing
    construction with the colours of one arc's head replaced by as many
    fresh colours.  Exactly the arcs at that vertex lose their intersection;
    sizes are unchanged and fresh colours meet nothing, so nothing else
    breaks."""
    sets = list(dr.pkg.pairing_construction(dr.pkg.Digraph(n, arcs)).color_sets)
    head = min(arcs)[1]
    fresh = max(frozenset().union(*sets)) + 1
    sets[head - 1] = frozenset(range(fresh, fresh + len(sets[head - 1])))
    broken = {(u, v) for u, v in arcs if head in (u, v)}
    rep = workdir / f"{name}-broken.json"
    phi = {str(v): sorted(s) for v, s in enumerate(sets, 1)}
    palette = len(frozenset().union(*sets))
    rep.write_text(json.dumps({"n": n, "phi": phi, "palette_size": palette}), encoding="utf-8")
    return Op(f"verify-broken-{name}", "verify",
              partial(cli_call, dr, ["verify", str(graph), str(rep)]),
              partial(judge_verify_broken, f"{name}-broken", broken))


def certify(dr, seed: int, workdir: Path, table: dict) -> list[Op]:
    """Exact DIN under one node budget for named families with known values
    and a fixed corpus of random connected DAGs; the seed relabels every
    graph, which leaves each DIN unchanged."""
    gen, b = dr.pkg.gen_family, dr.bounds
    cases = [(f"dpath{n}", "dpath", gen("directed_path", n), b.directed_path_din(n)) for n in (8, 9)]
    cases += [(f"sap{n}", "sap", gen("source_arc_path", n), b.source_arc_path_din(n)) for n in (6, 8)]
    cases += [("tree", "tree", gen("fig3_tree_large"), 6)]
    cases += [(label, f"rand{n}", dr.pkg.Digraph(n, arcs), None) for label, n, arcs in certify_corpus()]
    rng = stream("certify", seed)
    ops = []
    for label, group, G, known in cases:
        recorded = table.get(label)
        if known is not None and recorded is not None and recorded != known:
            raise ValueError(f"recorded DIN {recorded} of {label} contradicts the closed form {known}")
        arcs = relabel(rng, G.n, G.arcs)
        path = write_graph(workdir, label, G.n, arcs)
        expected = known if known is not None else recorded
        ops.append(din_op(dr, label, group, path, dr.pkg.Digraph(G.n, arcs), expected))
    return ops


def sweep(dr, seed: int, workdir: Path, table: dict) -> list[Op]:
    """``extremal 5`` through the CLI, then thousands of shallow exact
    solves on a fixed sample of 6-vertex forward DAGs, relabelled by the
    seed."""
    ops = [Op("extremal5", "extremal5",
              partial(cli_call, dr, ["extremal", "5", "--json"]), judge_extremal)]
    budget = dr.pkg.SolveBudget(max_nodes=SOLVE_BUDGET)
    rng = stream("sweep", seed)
    for mask in sweep_masks():
        label = f"n6-{mask}"
        arcs = relabel(rng, SWEEP_N, forward_dag(SWEEP_N, mask))
        D = dr.pkg.Digraph(SWEEP_N, arcs)  # for the checks and the level profile
        ops.append(Op(label, "n6", partial(solve, dr, SWEEP_N, arcs, budget),
                      partial(judge_solve, dr, D, table.get(label)), D))
    return ops


def represent(dr, seed: int, workdir: Path, table: dict) -> list[Op]:
    """Construct and verify representations of large DAGs through the CLI.
    Verification at n = 1000 takes about 20 s, so n = 1000 is construct
    only.  At n = 200 ``verify`` also runs on a corrupted representation,
    which it must reject.  The small ``din`` at the end is the workload's
    only search."""
    rng = stream("represent", seed)

    def construct(name: str, n: int, graph: Path, method: str, check: bool) -> None:
        rep = workdir / f"{name}-{method}.json"
        argv = ["construct", str(graph), "--method", method, "-o", str(rep)]
        ops.append(Op(f"construct-{method}-{name}", "construct",
                      partial(cli_call, dr, argv), partial(judge_construct, dr, n, method, rep)))
        if check:
            ops.append(Op(f"verify-{method}-{name}", "verify",
                          partial(cli_call, dr, ["verify", str(graph), str(rep)]),
                          partial(judge_verify, f"{name}-{method}")))

    ops: list[Op] = []
    for n in (200, 400, 1000):
        arcs = random_dag(rng, n, REPRESENT_DENSITY)
        graph = write_graph(workdir, f"r{n}", n, arcs)
        for method in ("pairing", "inductive"):
            construct(f"r{n}", n, graph, method, n < 1000)
        if n == 200:
            ops.append(broken_verify_op(dr, workdir, f"r{n}", graph, n, arcs))
        if n == 400:
            aug = workdir / "aug400.g"
            code, _, err = cli_call(dr, ["gen", "augmented", "400", "-o", str(aug)])
            if code != 0:
                raise RuntimeError(f"gen augmented 400 failed: {err}")
            construct("aug400", 400, aug, "closed-form", True)
    # the gap between a construction and the exact value, on a graph small
    # enough to solve
    tree = dr.pkg.gen_family("fig3_tree_large")
    arcs = relabel(rng, tree.n, tree.arcs)
    path = write_graph(workdir, "tree", tree.n, arcs)
    construct("tree", tree.n, path, "pairing", False)
    ops.append(din_op(dr, "tree", "tree", path, dr.pkg.Digraph(tree.n, arcs), 6))
    return ops


WORKLOADS = {"certify": certify, "sweep": sweep, "represent": represent}

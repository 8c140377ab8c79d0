"""Command-line front end.

Subcommands: gen, construct, verify, din, extremal, bound.  Exit codes are
part of the contract so shell harnesses need no output parsing:

    0  success / representation valid
    1  representation invalid
    2  usage, parse, or domain error, or out of memory
    3  cyclic input
    4  search budget exhausted

Every path argument accepts '-' for standard input or output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bounds as bounds_mod
from .constructors import (
    augmented_representation,
    inductive_construction,
    pairing_construction,
    source_arc_path_representation,
)
from .digraph import (
    FAMILIES,
    Digraph,
    gen_family,
    load_graph,
    to_edge_list,
)
from .errors import BudgetExhaustedError, CyclicGraphError
from .representation import Representation, rep_from_json, rep_to_json, rep_to_obj, verify
from .solver import (
    BUDGET_EXHAUSTED,
    DEFAULT_BUDGET,
    INFEASIBLE,
    OPTIMAL,
    SolveBudget,
    exact_din,
    extremal_din,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_CYCLIC = 3
EXIT_BUDGET = 4


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# the gen choices: each family spelled with dashes, and "augmented" for short
_FAMILY_NAMES = {f.replace("_", "-"): f for f in FAMILIES} | {"augmented": "augmented_source_arc_path"}


def _cmd_gen(args) -> int:
    D = gen_family(_FAMILY_NAMES[args.family], args.n)
    _write(args.out, to_edge_list(D))
    return EXIT_OK


def _construct(D: Digraph, method: str) -> tuple[Representation, int]:
    """The representation ``method`` builds for D, and the bound it certifies.

    The closed form needs an exact arc-set match with one of the two
    Hamiltonian families and certifies the family's exact value; a mismatch
    raises ``ValueError``.  The general constructions run odd n through
    dummy padding, so only the bound at the padded size is certified.
    """
    n = D.n
    if method == "closed-form":
        for family, build, value in (
            ("source_arc_path", source_arc_path_representation, bounds_mod.source_arc_path_din),
            ("augmented_source_arc_path", augmented_representation, bounds_mod.augmented_din),
        ):
            try:
                # the source arc-path's arcs plus one per patch colour of the
                # augmented family: a count to check before building either
                arc_count = 3 * n // 2 - 2 + value(n) - bounds_mod.source_arc_path_din(n)
            except ValueError:  # n outside the family's value domain
                continue
            if len(D.arcs) == arc_count and D.arcs == gen_family(family, n).arcs:
                return build(n), value(n)
        raise ValueError(
            "closed-form method requires an exact source-arc-path or augmented family match"
        )
    padded = n + n % 2
    if method == "pairing":
        return pairing_construction(D), bounds_mod.lemma_upper_bound(padded)
    return inductive_construction(D), bounds_mod.general_upper_bound(padded)


def _cmd_construct(args) -> int:
    D = load_graph(_read(args.graph))
    rep, bound = _construct(D, args.method)
    if args.out is not None:
        _write(args.out, rep_to_json(rep))
    print(f"method = {args.method}")
    print(f"palette_size = {rep.palette_size}")
    print(f"bound = {bound}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    D = load_graph(_read(args.graph))
    rep = rep_from_json(_read(args.rep))
    report = verify(D, rep)
    if report.valid:
        print("VALID")
        return EXIT_OK
    for u, v, kind in report.violations:
        print(f"{u} {v} {kind}")
    return EXIT_INVALID


_DIN_EXIT = {OPTIMAL: EXIT_OK, INFEASIBLE: EXIT_CYCLIC, BUDGET_EXHAUSTED: EXIT_BUDGET}


def _cmd_din(args) -> int:
    D = load_graph(_read(args.graph))
    result = exact_din(D, SolveBudget(max_nodes=args.budget_nodes))
    # a budget stop refuted every level below the one it stopped in
    best_lower = result.levels[-1].k if result.status == BUDGET_EXHAUSTED else None
    if args.json:
        obj = {
            "status": result.status,
            "din": result.din,
            "nodes_explored": result.nodes_explored,
            "elapsed": result.elapsed,
            "best_upper": result.best_upper,
            "best_lower": best_lower,
            "levels": [level._asdict() for level in result.levels],
        }
        if result.witness is not None:
            obj["witness"] = rep_to_obj(result.witness)
        print(json.dumps(obj, sort_keys=True))
    # the witness goes out after the JSON line and before the text line, so
    # '-w -' keeps its place on stdout in both modes
    if result.status == OPTIMAL and args.witness is not None:
        _write(args.witness, rep_to_json(result.witness))
    if not args.json:
        if result.status == INFEASIBLE:
            print("INFEASIBLE (cyclic)")
        elif result.status == BUDGET_EXHAUSTED:
            print(f"UNKNOWN (budget), best upper bound {result.best_upper}, "
                  f"certified lower bound {best_lower}")
        elif args.witness is not None:
            print(f"DIN = {result.din} (witness: {args.witness})")
        else:
            print(f"DIN = {result.din}")
    return _DIN_EXIT[result.status]


def _cmd_extremal(args) -> int:
    best, witnesses = extremal_din(
        args.n, SolveBudget(max_nodes=args.budget_nodes), workers=args.threads
    )
    if args.json:
        obj = {
            "n": args.n,
            "max_din": best,
            "witnesses": [sorted(list(a) for a in w.arcs) for w in witnesses],
        }
        print(json.dumps(obj, sort_keys=True))
        return EXIT_OK
    print(f"max_din = {best} ({len(witnesses)} witnesses)")
    for w in witnesses:
        arcs = " ".join(f"({t},{h})" for t, h in sorted(w.arcs))
        print(f"witness: {arcs}")
    return EXIT_OK


# the formulas of n alone, in listing order; each raises ValueError outside
# its domain
_FORMULAS = {
    "general": bounds_mod.general_upper_bound,
    "lemma": bounds_mod.lemma_upper_bound,
    "directed-path": bounds_mod.directed_path_din,
    "source-arc-path": bounds_mod.source_arc_path_din,
    "augmented": bounds_mod.augmented_din,
}


def _cmd_bound(args) -> int:
    n = args.n
    if args.formula == "p-intersection":  # n is read as the base din value
        p = 1 if args.p is None else args.p
        rows = [(args.formula, bounds_mod.p_intersection_upper_bound(n, p))]
    elif args.p is not None:
        raise ValueError("--p applies only to --formula p-intersection")
    elif args.formula is not None:
        rows = [(args.formula, _FORMULAS[args.formula](n))]
    else:
        rows = []
        for name, formula in _FORMULAS.items():
            try:
                rows.append((name, formula(n)))
            except ValueError:
                pass
        if not rows:
            raise ValueError(f"no formula applies to n = {n}")
    for name, value in rows:
        print(f"{name} {value}")
    return EXIT_OK


@functools.cache  # built on the first main call; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dinrep",
        description="Directed intersection representations of DAGs: generate "
        "families, construct and verify representations, compute exact "
        "minimum palettes, and evaluate bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a family graph file")
    p.add_argument("family", choices=sorted(_FAMILY_NAMES))
    p.add_argument("n", nargs="?", type=int, default=None)
    p.add_argument("-o", "--out", default="-")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("construct", help="build a representation for a DAG")
    p.add_argument("graph")
    p.add_argument("--method", choices=("pairing", "inductive", "closed-form"), required=True)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a representation against a digraph")
    p.add_argument("graph")
    p.add_argument("rep")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("din", help="exact minimum palette size")
    p.add_argument("graph")
    p.add_argument("--budget-nodes", type=int, default=DEFAULT_BUDGET.max_nodes)
    p.add_argument("--json", action="store_true")
    p.add_argument("-w", "--witness", default=None, help="write the witness JSON here")
    p.set_defaults(func=_cmd_din)

    p = sub.add_parser("extremal", help="max DIN over all DAGs on n vertices")
    p.add_argument("n", type=int)
    p.add_argument("--budget-nodes", type=int, default=DEFAULT_BUDGET.max_nodes)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("bound", help="evaluate the closed-form formulas")
    p.add_argument("n", type=int)
    p.add_argument("--formula", choices=(*_FORMULAS, "p-intersection"), default=None)
    p.add_argument("--p", type=int, default=None, help="p for the p-intersection formula (default 1)")
    p.set_defaults(func=_cmd_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CyclicGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CYCLIC
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, OverflowError):  # a vertex count past any list index overflows
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Every graph of the benchmark's ``certify`` workload certifies in budget.

The graphs come from ``perfbench/inputs.py``, loaded by path and only read,
plus the named families the workload adds.  Under the workload's node
budget of one million each must reach ``optimal``, with a witness that
passes ``verify`` and uses exactly DIN colors, no more than the smaller
constructor palette.
"""

import importlib.util
from pathlib import Path

import pytest

from dinrep import (
    OPTIMAL,
    Digraph,
    SolveBudget,
    directed_path_din,
    exact_din,
    gen_family,
    inductive_construction,
    pairing_construction,
    source_arc_path_din,
    verify,
)

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
BUDGET = SolveBudget(max_nodes=1_000_000)


def _load_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


inputs = _load_inputs()

CASES = [(f"dpath{n}", gen_family("directed_path", n), directed_path_din(n)) for n in (8, 9)]
CASES += [(f"sap{n}", gen_family("source_arc_path", n), source_arc_path_din(n)) for n in (6, 8)]
CASES += [("tree", gen_family("fig3_tree_large"), 6)]
CASES += [(label, Digraph(n, arcs), None) for label, n, arcs in inputs.certify_corpus()]


@pytest.mark.parametrize("label,D,known", CASES, ids=[label for label, _, _ in CASES])
def test_certifies_in_budget(label, D, known):
    result = exact_din(D, BUDGET)
    assert result.status == OPTIMAL
    if known is not None:
        assert result.din == known
    assert verify(D, result.witness).valid
    assert result.witness.palette_size == result.din
    assert result.din <= min(
        pairing_construction(D).palette_size, inductive_construction(D).palette_size
    )


def test_every_corpus_graph_is_a_case():
    assert len(CASES) == 5 + sum(count for _, count in inputs.CERTIFY_CORPUS) > 5

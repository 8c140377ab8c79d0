"""The exact search against an independent integer program (``ilp_oracle``)."""

import json
from pathlib import Path

import pytest

pytest.importorskip("scipy")

from dinrep import OPTIMAL, exact_din, gen_family
from corpus import all_forward_digraphs, independent_validity
from ilp_oracle import ilp_din

FROZEN_N5 = json.loads((Path(__file__).parent / "frozen_din_n5.json").read_text())

# arc masks of forward DAGs on 5 vertices (bit b is pair b of (i, j), i < j,
# in row order), one of each DIN from 1 to 8
MASKS_N5 = [0, 15, 1, 100, 1023, 185, 95, 209]


def _check(D):
    din, witness = ilp_din(D)
    assert independent_validity(D, witness) and witness.palette_size == din
    result = exact_din(D)
    assert result.status == OPTIMAL
    assert result.din == din, sorted(D.arcs)


@pytest.mark.parametrize("family,n", [
    ("source_arc_path", 4), ("directed_path", 5), ("fig3_tree_small", None),
    ("star", 5), ("complete_dag", 4),
])
def test_families(family, n):
    _check(gen_family(family, n))


@pytest.mark.parametrize("mask", MASKS_N5)
def test_forward_dags_on_five_vertices(mask):
    _check(list(all_forward_digraphs(5))[mask])


@pytest.mark.stretch
def test_every_forward_dag_on_five_vertices():
    for D, frozen in zip(all_forward_digraphs(5), FROZEN_N5["din"], strict=True):
        assert ilp_din(D)[0] == int(frozen, 16), sorted(D.arcs)

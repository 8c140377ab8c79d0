"""Frozen exact DIN of every forward DAG on 5 vertices.

``frozen_din_n5.json`` was produced by the solver before the size phase
learned to prune partial size functions.  Its witness digest was taken
again when the class search replaced set assignment, which changed the
witnesses on purpose.  Every later solver change must reproduce its DIN
values and its witnesses exactly.

``CLASS_WORK_SHA256`` pins, at every level of every solve, the palette size,
the size functions that reached the class search and the class nodes.  A
prune of size enumeration that cuts only subtrees without a representation,
and keeps the enumeration order, leaves it as it is.
"""

import hashlib
import json
from pathlib import Path

from dinrep import OPTIMAL, exact_din, extremal_din, rep_to_json
from corpus import all_forward_digraphs, class_work

FROZEN = json.loads((Path(__file__).parent / "frozen_din_n5.json").read_text())
# taken before size enumeration checked the neighbourhood bound on partial
# neighbourhoods
CLASS_WORK_SHA256 = "91b265f1ea25d88e7c8b8203f4a93c821a6308dd9178ba314e85f93dd0fe1eef"


def test_every_forward_dag_on_five_vertices():
    n = FROZEN["n"]
    digest, work = hashlib.sha256(), hashlib.sha256()
    dins = []
    for D in all_forward_digraphs(n):
        result = exact_din(D)
        assert result.status == OPTIMAL, sorted(D.arcs)
        dins.append(format(result.din, "x"))
        digest.update(rep_to_json(result.witness).encode())
        work.update(class_work(result))
    assert "".join(dins) == FROZEN["din"]
    assert digest.hexdigest() == FROZEN["witness_sha256"]
    assert work.hexdigest() == CLASS_WORK_SHA256


def test_extremal_five():
    frozen = [int(d, 16) for d in FROZEN["din"]]
    best, witnesses = extremal_din(5)
    assert best == 12 == max(frozen)
    assert witnesses == [D for D, din in zip(all_forward_digraphs(5), frozen) if din == best]
    assert [sorted(w.arcs) for w in witnesses] == [
        [(1, 2), (1, 4), (2, 3), (3, 4), (4, 5)],
        [(1, 2), (1, 4), (2, 3), (2, 5), (3, 4), (4, 5)],
    ]

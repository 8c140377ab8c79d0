"""Frozen exact DIN of every forward DAG on 6 vertices (stretch).

``frozen_din_n6.json`` was produced by the solver before the palette
ceiling was removed from ``SolveBudget``.  Its witness digest was taken
again when the class search replaced set assignment.  Every later solver
change must reproduce its DIN values and its witnesses exactly.
``CLASS_WORK_SHA256`` pins each level's class work, as in ``test_frozen.py``.
Run with ``pytest -m stretch``: 32,768 exact solves, then the extremal sweep.
"""

import hashlib
import json
import string
from pathlib import Path

import pytest

from dinrep import OPTIMAL, exact_din, extremal_din, rep_to_json
from corpus import all_forward_digraphs, class_work

FROZEN = json.loads((Path(__file__).parent / "frozen_din_n6.json").read_text())
# taken before size enumeration checked the neighbourhood bound on partial
# neighbourhoods
CLASS_WORK_SHA256 = "5019ebd6d44c743dc87bf22157c6cc3551429da8be15ecf3b592275d6751d5f2"
DIGITS = string.digits + string.ascii_lowercase  # base 36: DIN 18 is 'i'

pytestmark = pytest.mark.stretch


def test_every_forward_dag_on_six_vertices():
    n = FROZEN["n"]
    digest, work = hashlib.sha256(), hashlib.sha256()
    dins = []
    for D in all_forward_digraphs(n):
        result = exact_din(D)
        assert result.status == OPTIMAL, sorted(D.arcs)
        dins.append(DIGITS[result.din])
        digest.update(rep_to_json(result.witness).encode())
        work.update(class_work(result))
    assert "".join(dins) == FROZEN["din"]
    assert digest.hexdigest() == FROZEN["witness_sha256"]
    assert work.hexdigest() == CLASS_WORK_SHA256


def test_extremal_six():
    frozen = [DIGITS.index(d) for d in FROZEN["din"]]
    best, witnesses = extremal_din(6, workers=2)
    assert best == 18 == max(frozen)
    extremal = [D for D, din in zip(all_forward_digraphs(6), frozen) if din == best]
    assert len(witnesses) == len(extremal) == 32
    assert witnesses == extremal

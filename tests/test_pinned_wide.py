"""The constructions pinned byte for byte on a wide input set (stretch).

``test_pinned.py`` pins the constructions on every forward DAG up to 5
vertices and a few fixed larger graphs.  This digest covers every forward
DAG on 6 vertices and both closed forms at every even n up to 200, so a
rewrite of the constructions that moves one colour id anywhere in that
range is caught.  ``test_constructions_n1000`` pins both general
constructions on seeded random DAGs at n = 999 and 1000, the largest size
the benchmark constructs.  Run with ``pytest -m stretch`` (about 20 s).
"""

import hashlib
import random

import pytest

from dinrep import (
    augmented_representation,
    inductive_construction,
    pairing_construction,
    rep_to_json,
    source_arc_path_representation,
)
from corpus import all_forward_digraphs, random_dag

WIDE_CONSTRUCTIONS_SHA256 = "6c214a72384d02b96afdabd2fc09943c79f515f4515b0d1e5b384cf79a62fcbf"
# taken before the constructions read arcs from per-position out-neighbour sets
N1000_CONSTRUCTIONS_SHA256 = "f6f98a569ad237b9c7f427b0f45326da1989c562d2233eff43f1d75a73a07fa1"

pytestmark = pytest.mark.stretch


def test_constructions_wide():
    digest = hashlib.sha256()
    for D in all_forward_digraphs(6):
        for build in (pairing_construction, inductive_construction):
            digest.update(rep_to_json(build(D)).encode())
    for n in range(4, 201, 2):
        digest.update(rep_to_json(source_arc_path_representation(n)).encode())
    for n in range(8, 201, 2):
        digest.update(rep_to_json(augmented_representation(n)).encode())
    assert digest.hexdigest() == WIDE_CONSTRUCTIONS_SHA256


def test_constructions_n1000():
    digest = hashlib.sha256()
    for n in (999, 1000):
        D = random_dag(random.Random(n), n, 0.1)
        for build in (pairing_construction, inductive_construction):
            digest.update(rep_to_json(build(D)).encode())
    assert digest.hexdigest() == N1000_CONSTRUCTIONS_SHA256

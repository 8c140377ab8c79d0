"""The constructions pinned byte for byte on a wide input set (stretch).

``test_pinned.py`` pins the constructions on every forward DAG up to 5
vertices and a few fixed larger graphs.  This digest covers every forward
DAG on 6 vertices and both closed forms at every even n up to 200, so a
rewrite of the constructions that moves one colour id anywhere in that
range is caught.  Run with ``pytest -m stretch`` (about 10 s).
"""

import hashlib

import pytest

from dinrep import (
    augmented_representation,
    inductive_construction,
    pairing_construction,
    rep_to_json,
    source_arc_path_representation,
)
from corpus import all_forward_digraphs

WIDE_CONSTRUCTIONS_SHA256 = "6c214a72384d02b96afdabd2fc09943c79f515f4515b0d1e5b384cf79a62fcbf"

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

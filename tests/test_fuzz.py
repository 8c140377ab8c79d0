"""Fuzzing the readers and the CLI with malformed and near-valid input.

The contract: parsing raises only ``ValueError`` subclasses, the CLI exits
with a code in 0..4 and never with a traceback, and exit 1 ("representation
invalid") comes only from a real ``verify`` verdict.  Every integer drawn
here is small, so no input asks the solver or the constructors for a large
graph.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinrep import load_graph, rep_from_json, verify
from dinrep.cli import main

small_int = st.integers(min_value=-1, max_value=7)
json_values = st.recursive(
    st.none() | st.booleans() | small_int | st.floats(-10, 10) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)
junk = small_int | json_values

graph_json = st.fixed_dictionaries({
    "n": junk,
    "arcs": st.lists(st.lists(junk, max_size=3), max_size=6) | json_values,
}).map(json.dumps)
edge_lists = st.lists(
    st.lists(small_int.map(str) | st.sampled_from(["x", "#", "1.5", "-"]), max_size=3).map(" ".join),
    max_size=6,
).map("\n".join)
graph_texts = graph_json | edge_lists | json_values.map(json.dumps)

label = st.sampled_from(["1", "2", "3", "4", "0", "01", " 1", "x"])
rep_texts = st.fixed_dictionaries({
    "n": junk,
    "phi": st.dictionaries(label, st.lists(junk, max_size=4) | junk, max_size=4) | json_values,
}).map(json.dumps) | json_values.map(json.dumps)

FUZZ = settings(max_examples=150, deadline=None)


def _parses(reader, text):
    try:
        return reader(text)
    except ValueError:
        return None


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("fuzz")
    return workdir / "graph", workdir / "rep.json"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@FUZZ
@given(text=graph_texts | st.text(max_size=40))
def test_load_graph_raises_only_value_errors(text):
    _parses(load_graph, text)


@FUZZ
@given(text=rep_texts | st.text(max_size=40))
def test_rep_from_json_raises_only_value_errors(text):
    _parses(rep_from_json, text)


@FUZZ
@given(graph=graph_texts, rep=rep_texts)
def test_verify_exit_codes(files, graph, rep):
    g, r = files
    g.write_text(graph)
    r.write_text(rep)
    code, err = _run(["verify", str(g), str(r)])
    assert code in (0, 1, 2, 3)
    D, parsed = _parses(load_graph, graph), _parses(rep_from_json, rep)
    if code == 1:
        assert D is not None and parsed is not None and not verify(D, parsed).valid
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


@FUZZ
@given(graph=graph_texts, method=st.sampled_from(["pairing", "inductive", "closed-form"]))
def test_construct_and_din_exit_codes(files, graph, method):
    g, _ = files
    g.write_text(graph)
    for argv in (["construct", str(g), "--method", method],
                 ["din", str(g), "--budget-nodes", "2000"]):
        code, err = _run(argv)
        assert code in (0, 2, 3, 4)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1

"""Verifier, palette accounting, restriction, and canonicalization."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dinrep import (
    FALSE_ARC_IMPLIED,
    MISSING_INTERSECTION,
    SIZE_NOT_INCREASING,
    Digraph,
    Representation,
    ValidityReport,
    VertexRangeError,
    Violation,
    canonicalize,
    gen_family,
    induced_subgraph,
    inductive_construction,
    pairing_construction,
    rep_from_json,
    rep_to_json,
    restrict,
    source_arc_path_representation,
    verify,
)
from corpus import connected_dag_corpus, reference_violations

SINGLE_ARC = Digraph(2, {(1, 2)})
TRIANGLE = Digraph(3, {(1, 2), (2, 3), (3, 1)})


@st.composite
def digraph_and_rep(draw, max_n=4, max_colors=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    arcs = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    color = st.integers(min_value=0, max_value=max_colors - 1)
    sets = [draw(st.sets(color, min_size=1)) for _ in range(n)]
    return Digraph(n, arcs), Representation(n, sets)


@st.composite
def cyclic_digraph_and_rep(draw, max_n=7):
    """Digraphs with 2-cycles (both (u, v) and (v, u)) and sparse color ids
    of at least 10**6, some shared."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    both = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    one = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    arcs = {a for i, j in both for a in ((i, j), (j, i))} | one
    color = st.sampled_from([10**6, 10**6 + 1, 2**31 - 1, 10**9 + 7, 3 * 10**12, 2**70])
    sets = [draw(st.sets(color, min_size=1)) for _ in range(n)]
    return Digraph(n, arcs), Representation(n, sets)


class TestVerify:
    def test_valid_single_arc(self):
        rep = Representation(2, [{1}, {1, 2}])
        assert verify(SINGLE_ARC, rep).valid

    def test_reversed_sizes(self):
        rep = Representation(2, [{1, 2}, {1}])
        report = verify(SINGLE_ARC, rep)
        assert not report.valid
        assert report.violations == (
            Violation(1, 2, SIZE_NOT_INCREASING),
            Violation(2, 1, FALSE_ARC_IMPLIED),
        )

    def test_missing_intersection(self):
        rep = Representation(2, [{1}, {2, 3}])
        report = verify(SINGLE_ARC, rep)
        assert report.violations == (Violation(1, 2, MISSING_INTERSECTION),)

    def test_closed_form_sap4(self):
        D = gen_family("source_arc_path", 4)
        rep = source_arc_path_representation(4)
        report = verify(D, rep)
        assert report.valid
        assert rep.palette_size == 8

    def test_equal_sizes_with_intersection_is_fine(self):
        # no arc in either direction, equal sizes, shared color: valid
        rep = Representation(2, [{1}, {1}])
        assert verify(Digraph(2), rep).valid

    def test_size_mismatch_error(self):
        with pytest.raises(ValueError, match="covers"):
            verify(SINGLE_ARC, Representation(3, [{1}, {1}, {2}]))

    def test_empty_color_set_rejected_at_construction(self):
        with pytest.raises(ValueError, match="empty"):
            Representation(2, [{1}, set()])

    @pytest.mark.parametrize("sets", [
        ["01", [1.9]], [[0], [1.9]], [[True]], [[0], {2, 3.5}],
        # an unhashable id and a mix that sort() could not order
        [[[0]]], [[0, "a"]], [[0], ["a", 0]],
    ])
    def test_non_integer_color_rejected(self, sets):
        # not converted: int() would read "01" as {0, 1}, 1.9 as 1, True as 1
        with pytest.raises(ValueError, match="not an integer"):
            Representation(len(sets), sets)

    def test_negative_color_rejected(self):
        with pytest.raises(ValueError, match="vertex 2 has a negative color id"):
            Representation(2, [{0}, {3, -1}])

    def test_set_count_must_match_n(self):
        with pytest.raises(ValueError, match="expected 2 color sets, got 1"):
            Representation(2, [{0}])

    def test_non_iterable_color_set(self):
        with pytest.raises(TypeError):
            Representation(1, [5])

    @pytest.mark.parametrize("n,sets,message", [
        (0, [], "^vertex count must be a positive integer, got 0$"),
        (2, [[]], "^expected 2 color sets, got 1$"),
        (2, [[], ["a"]], "^vertex 1 has an empty color set$"),
        (2, [["a"], []], "^vertex 1 has a color id that is not an integer$"),
        (1, [[-1, "a"]], "^vertex 1 has a color id that is not an integer$"),
        (2, [[-1], ["a"]], "^vertex 1 has a negative color id$"),
    ], ids=["n-before-count", "count-before-empty", "empty-before-type",
            "type-before-empty", "type-before-negative", "negative-before-type"])
    def test_first_fault_is_reported(self, n, sets, message):
        # two faults each: n, then the set count, then vertex by vertex the
        # empty set, a non-integer id, a negative id
        with pytest.raises(ValueError, match=message):
            Representation(n, sets)

    @pytest.mark.parametrize("sets", [
        [[0], [2, 1, 0]],
        [[0, 0], [0, 1, 2, 2, 1]],
        [(c for c in [0]), (c for c in [1, 0, 2])],
        [range(1), range(3)],
        [{0}, {2, 1, 0}],
        (frozenset(s) for s in [[0], [0, 1, 2]]),
    ], ids=["unsorted", "duplicates", "generators", "ranges", "sets", "generator-of-sets"])
    def test_equal_inputs_give_equal_reps(self, sets):
        rep = Representation(2, sets)
        expected = Representation(2, [[0], [0, 1, 2]])
        assert rep == expected and hash(rep) == hash(expected)
        assert repr(rep) == "Representation(n=2, {1: [0], 2: [0, 1, 2]})"
        assert rep.palette_size == 3

    def test_color_sets_is_a_cached_read_only_view(self):
        rep = Representation(2, [[3, 1], [1]])
        view = rep.color_sets
        assert view == (frozenset({1, 3}), frozenset({1}))
        assert type(view) is tuple and all(type(s) is frozenset for s in view)
        assert rep.color_sets is view and rep.color_set(1) is view[0]
        with pytest.raises(AttributeError):
            rep.color_sets = ()
        with pytest.raises(AttributeError):
            del rep.color_sets
        assert rep.color_sets is view
        # the view takes no part in equality or hashing
        assert rep == Representation(2, [[1, 3], [1]])
        assert hash(rep) == hash(Representation(2, [[1, 3], [1]]))

    @settings(deadline=None, max_examples=300)
    @given(digraph_and_rep())
    def test_agrees_with_independent_reimplementation(self, pair):
        D, rep = pair
        expected = tuple(reference_violations(D, rep))
        assert verify(D, rep) == ValidityReport(not expected, expected)

    @settings(deadline=None, max_examples=300)
    @given(cyclic_digraph_and_rep())
    @example((Digraph(1), Representation(1, [{10**6}])))
    @example((Digraph(2, {(1, 2), (2, 1)}), Representation(2, [{10**6}, {10**6, 2**70}])))
    def test_agrees_on_cycles_and_sparse_colors(self, pair):
        D, rep = pair
        expected = tuple(reference_violations(D, rep))
        assert verify(D, rep) == ValidityReport(not expected, expected)

    def test_fresh_colors_at_one_vertex_break_exactly_its_arcs(self):
        D = connected_dag_corpus(60, 1, seed=63)[0]
        rep = pairing_construction(D)
        assert verify(D, rep).valid
        h = 30
        assert any(v == h for _, v in D.arcs) and any(u == h for u, _ in D.arcs)
        sets = list(rep.color_sets)
        sets[h - 1] = frozenset(range(10**6, 10**6 + len(sets[h - 1])))
        report = verify(D, Representation(D.n, sets))
        assert report.violations == tuple(
            Violation(u, v, MISSING_INTERSECTION) for u, v in sorted(D.arcs) if h in (u, v)
        )

    @settings(deadline=None)
    @given(digraph_and_rep(), st.randoms(use_true_random=False))
    def test_color_permutation_invariance(self, pair, rng):
        D, rep = pair
        colors = sorted(rep.palette)
        shuffled = colors[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(colors, shuffled))
        permuted = Representation(
            rep.n, [{mapping[c] for c in s} for s in rep.color_sets]
        )
        assert verify(D, rep).valid == verify(D, permuted).valid


class TestCycleInfeasibility:
    def test_triangle_rejects_every_small_candidate(self):
        subsets = [frozenset(s) for r in (1, 2, 3)
                   for s in itertools.combinations(range(3), r)]
        for sets in itertools.product(subsets, repeat=3):
            assert not verify(TRIANGLE, Representation(3, sets)).valid

    @settings(deadline=None)
    @given(st.lists(st.sets(st.integers(0, 6), min_size=1), min_size=3, max_size=3))
    def test_triangle_rejects_random_candidates(self, sets):
        assert not verify(TRIANGLE, Representation(3, sets)).valid


class TestHamiltonianConsequence:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_sizes_all_distinct_on_source_arc_path(self, n):
        D = gen_family("source_arc_path", n)
        rep = source_arc_path_representation(n)
        assert verify(D, rep).valid
        sizes = [len(rep.color_set(v)) for v in D.vertices]
        assert len(set(sizes)) == n


class TestPalette:
    def test_two_colors(self):
        assert Representation(2, [{1}, {1, 2}]).palette_size == 2

    def test_sap6_closed_form(self):
        assert source_arc_path_representation(6).palette_size == 18

    def test_non_contiguous_palette(self):
        assert Representation(2, [{7}, {42}]).palette_size == 2


class TestRestrict:
    def test_identity(self):
        rep = Representation(3, [{1}, {1, 2}, {3, 4, 5}])
        assert restrict(rep, [1, 2, 3]) == rep

    def test_restriction_preserves_validity(self):
        D = gen_family("source_arc_path", 6)
        rep = source_arc_path_representation(6)
        for S in ({1, 2}, {2, 4, 6}, {1, 3, 5}, {1, 2, 3, 4, 5, 6}):
            sub, _ = induced_subgraph(D, S)
            assert verify(sub, restrict(rep, S)).valid

    def test_sap6_even_vertices_pairwise_disjoint(self):
        rep = source_arc_path_representation(6)
        sub = restrict(rep, {2, 4, 6})
        for a, b in itertools.combinations(range(1, 4), 2):
            assert not (sub.color_set(a) & sub.color_set(b))

    def test_empty_set_error(self):
        with pytest.raises(ValueError):
            restrict(Representation(2, [{1}, {2}]), [])

    def test_out_of_range_error(self):
        with pytest.raises(ValueError, match=r"not contained in 1\.\.2"):
            restrict(Representation(2, [{1}, {2}]), {3})

    def test_out_of_range_error_type(self):
        # the same error as induced_subgraph raises for the same vertex set
        with pytest.raises(VertexRangeError):
            restrict(Representation(2, [{1}, {2}]), [0])

    @pytest.mark.parametrize("vertices", [[True, 2], [1.5]])
    def test_non_integer_id_error(self, vertices):
        with pytest.raises(ValueError, match="not an integer"):
            restrict(Representation(2, [{1}, {2}]), vertices)


class TestCanonicalize:
    def test_renames_in_first_use_order(self):
        rep = canonicalize(Representation(2, [{7}, {7, 42}]))
        assert rep.color_sets == (frozenset({0}), frozenset({0, 1}))

    def test_idempotent(self):
        rep = Representation(3, [{9, 2}, {2, 5}, {5}])
        once = canonicalize(rep)
        assert canonicalize(once) == once

    def test_preserves_validity_and_palette(self):
        D = gen_family("source_arc_path", 6)
        rep = source_arc_path_representation(6)
        canon = canonicalize(rep)
        assert verify(D, canon).valid
        assert canon.palette_size == rep.palette_size
        assert canon.palette == frozenset(range(rep.palette_size))


class TestJson:
    def test_round_trip(self):
        rep = source_arc_path_representation(6)
        assert rep_from_json(rep_to_json(rep)) == rep

    def test_palette_recomputed_on_load(self):
        text = '{"n": 2, "phi": {"1": [0], "2": [0, 1]}, "palette_size": 99}'
        assert rep_from_json(text).palette_size == 2

    def test_bad_json(self):
        with pytest.raises(ValueError):
            rep_from_json("{not json")
        with pytest.raises(ValueError):
            rep_from_json('{"n": 2}')

    @pytest.mark.parametrize("text,message", [
        ('{"n": 2, "phi": {"1": [0], "2": "01"}}', "vertex 2: colors must be a list of integers"),
        ('{"n": 2, "phi": {"1": [0], "2": [0, 1.7]}}', "vertex 2: colors must be a list of integers"),
        ('{"n": 2, "phi": {"1": [false], "2": [0, 1]}}', "vertex 1: colors must be a list of integers"),
        ('{"n": 2, "phi": {"1": [0], "2": [0, 1], "3": [2]}}', "keys must be exactly the labels 1..2"),
        ('{"n": 2, "phi": {"1": [0], " 2": [0, 1]}}', "keys must be exactly the labels 1..2"),
        ('{"n": 2, "phi": {"1": [0]}}', "keys must be exactly the labels 1..2"),
        ('{"n": 2, "phi": [[0], [0, 1]]}', "'phi' must be an object"),
        ('{"n": "2", "phi": {"1": [0], "2": [0, 1]}}', "'n' must be a positive integer"),
        ('{"n": true, "phi": {"1": [0]}}', "'n' must be a positive integer"),
        ('{"n": 10000000000000, "phi": {}}', "keys must be exactly the labels"),
        ('{"n": 2, "phi": ' + "[" * 100_000, "invalid representation JSON"),
        ('{"n": 2, "phi": {"1": [0], "2": [0], "2": [0, 1]}}', "^invalid representation JSON: duplicate key '2'$"),
        ('{"n": 3, "n": 2, "phi": {"1": [0], "2": [0, 1]}}', "^invalid representation JSON: duplicate key 'n'$"),
    ], ids=["string-colors", "float-color", "bool-color", "key-above-n", "padded-key",
            "missing-vertex", "phi-list", "string-n", "bool-n", "huge-n", "deeply-nested",
            "duplicate-vertex", "duplicate-n"])
    def test_malformed_json(self, text, message):
        with pytest.raises(ValueError, match=message):
            rep_from_json(text)

    def test_bool_vertex_count(self):
        with pytest.raises(ValueError):
            Representation(True, [{0}])


_N60 = connected_dag_corpus(60, 1, seed=63)[0]
_BUILT = {
    "pairing": lambda: (_N60, pairing_construction(_N60)),
    "inductive": lambda: (_N60, inductive_construction(_N60)),
    "closed-form": lambda: (gen_family("source_arc_path", 60), source_arc_path_representation(60)),
}


@pytest.mark.parametrize("build", _BUILT.values(), ids=_BUILT)
def test_hot_path_builds_no_frozenset_view(build):
    """Construction, JSON, verify, canonicalize, restrict and the palette
    count read the sorted tuples; only ``color_sets`` builds frozensets."""
    D, rep = build()
    loaded = rep_from_json(rep_to_json(rep))
    assert verify(D, rep).valid and verify(D, loaded).valid
    made = [rep, loaded, canonicalize(rep), restrict(rep, range(1, 31))]
    assert [r.palette_size for r in made[:3]] == [rep.palette_size] * 3
    for r in made:
        assert "color_sets" not in vars(r)


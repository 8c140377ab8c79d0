"""Graph core: parsing, orders, levels, subgraphs, and family generators."""

import json
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinrep import (
    FAMILIES,
    CyclicGraphError,
    Digraph,
    GraphParseError,
    Representation,
    SelfLoopError,
    VertexRangeError,
    augmented_added_arcs,
    from_edge_list,
    gen_family,
    graph_from_json,
    graph_to_json,
    induced_subgraph,
    is_acyclic,
    left_to_right_order,
    load_graph,
    longest_path_levels,
    to_edge_list,
)

TRIANGLE = Digraph(3, {(1, 2), (2, 3), (3, 1)})


@st.composite
def acyclic_digraphs(draw, max_n=6):
    """Strategy: DAGs whose labels are a topological order."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    arcs = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Digraph(n, arcs)


class TestParsing:
    def test_single_arc(self):
        D = from_edge_list("2\n1 2\n")
        assert D.n == 2 and D.arcs == {(1, 2)}

    def test_triangle_parses_even_though_cyclic(self):
        D = from_edge_list("3\n1 2\n2 3\n3 1\n")
        assert D.arcs == {(1, 2), (2, 3), (3, 1)}

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(SelfLoopError, match="line 2"):
            from_edge_list("2\n1 1\n")

    def test_out_of_range_endpoint(self):
        with pytest.raises(VertexRangeError, match="line 3"):
            from_edge_list("2\n1 2\n1 3\n")

    def test_comments_and_blank_lines(self):
        D = from_edge_list("# a comment\n\n3\n\n1 2\n# another\n2 3\n")
        assert D.n == 3 and D.arcs == {(1, 2), (2, 3)}

    def test_duplicate_arcs_deduplicated(self):
        D = from_edge_list("2\n1 2\n1 2\n")
        assert D.arcs == {(1, 2)}

    def test_malformed_lines(self):
        with pytest.raises(GraphParseError, match="line 1"):
            from_edge_list("x\n")
        with pytest.raises(GraphParseError, match="line 2"):
            from_edge_list("3\n1 2 3\n")
        with pytest.raises(GraphParseError):
            from_edge_list("")

    def test_arc_line_with_three_fields(self):
        with pytest.raises(GraphParseError, match="line 2: expected 'tail head'"):
            from_edge_list("3\n1 2 x\n")

    def test_tab_separated_arc(self):
        assert from_edge_list("3\n1\t2\n").arcs == {(1, 2)}

    def test_first_bad_arc_names_its_line(self):
        with pytest.raises(VertexRangeError, match=r"^line 3: arc \(1, 5\) outside"):
            from_edge_list("3\n1 2\n1 5\n2 2\n")
        with pytest.raises(SelfLoopError, match="^line 2: self-loop on vertex 2"):
            from_edge_list("3\n2 2\n# comment\n1 5\n")

    def test_bad_arc_before_a_malformed_line_is_reported_first(self):
        with pytest.raises(SelfLoopError, match="line 2"):
            from_edge_list("3\n1 1\n1 x\n")
        with pytest.raises(GraphParseError, match="line 2"):
            from_edge_list("3\n1 x\n1 1\n")

    def test_python_integer_spellings_rejected(self):
        # int() reads this as n = 10 with the arc (1, 2)
        with pytest.raises(GraphParseError, match="line 1: vertex count '1_0'"):
            from_edge_list("1_0\n+1 \u0662\n")

    # spellings that int() accepts
    @pytest.mark.parametrize("spelling", ["1_0", "+1", "\u0662", "\uff12"],
                             ids=["underscore", "plus-sign", "arabic-indic-digit",
                                  "fullwidth-digit"])
    def test_only_plain_ascii_integers(self, spelling):
        with pytest.raises(GraphParseError, match="line 1: vertex count"):
            from_edge_list(f"{spelling}\n")
        with pytest.raises(GraphParseError, match="line 2: arc endpoints must be integers"):
            from_edge_list(f"12\n1 {spelling}\n")
        with pytest.raises(GraphParseError, match="line 3: arc endpoints must be integers"):
            from_edge_list(f"12\n1 2\n{spelling} 3\n")

    def test_zero_and_negative_keep_their_messages(self):
        with pytest.raises(GraphParseError, match="line 1: vertex count must be positive, got 0"):
            from_edge_list("0\n")
        with pytest.raises(GraphParseError, match="line 1: vertex count must be positive, got -1"):
            from_edge_list("-1\n")
        with pytest.raises(VertexRangeError, match=r"line 2: arc \(-1, 2\) outside"):
            from_edge_list("3\n-1 2\n")
        with pytest.raises(VertexRangeError, match=r"line 2: arc \(0, 2\) outside"):
            from_edge_list("3\n0 2\n")

    def test_vertical_tab_does_not_end_a_line(self):
        # splitlines() would read this as the two arcs (1, 2) and (2, 3)
        with pytest.raises(GraphParseError, match="line 2: expected 'tail head'"):
            from_edge_list("3\n1 2\x0b2 3\n")

    def test_file_separator_does_not_end_a_line(self):
        # splitlines() would read this as n = 2 with the arc (1, 2)
        with pytest.raises(GraphParseError, match="line 1: expected vertex count"):
            from_edge_list("2\x1c1 2\n")

    def test_crlf_lines(self):
        D = from_edge_list("# comment\r\n3\r\n1 2\r\n\r\n2 3\r\n")
        assert D.n == 3 and D.arcs == {(1, 2), (2, 3)}

    def test_round_trip_text(self):
        D = gen_family("source_arc_path", 6)
        assert from_edge_list(to_edge_list(D)) == D

    def test_round_trip_json(self):
        D = gen_family("augmented_source_arc_path", 8)
        assert graph_from_json(graph_to_json(D)) == D

    @pytest.mark.parametrize("text,message", [
        ('{"n": 2, "arcs": 5}', "'arcs' must be a list"),
        ('{"n": 3, "arcs": [[1, 2, 3]]}', r"arc \[1, 2, 3\] is not a \[tail, head\] pair"),
        ('{"n": 2, "arcs": [[1, 2.7]]}', "not a .* pair of integers"),
        ('{"n": 2, "arcs": [[true, 2]]}', "not a .* pair of integers"),
        ('{"n": 2, "arcs": ["12"]}', "not a .* pair of integers"),
        ('{"n": ' + "[" * 100_000, "invalid JSON graph"),
    ], ids=["arcs-not-list", "three-element-arc", "float-endpoint", "bool-endpoint",
            "string-arc", "deeply-nested"])
    def test_malformed_json(self, text, message):
        with pytest.raises(GraphParseError, match=message):
            graph_from_json(text)

    @pytest.mark.parametrize("n", [True, "2", 2.0])
    def test_json_vertex_count_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="vertex count must be a positive integer"):
            graph_from_json(f'{{"n": {json.dumps(n)}, "arcs": []}}')

    def test_load_graph_sniffs_format(self):
        D = gen_family("directed_path", 3)
        assert load_graph(to_edge_list(D)) == D
        assert load_graph(graph_to_json(D)) == D


class TestDigraphInvariants:
    def test_self_loop_in_constructor(self):
        with pytest.raises(SelfLoopError):
            Digraph(3, {(2, 2)})

    def test_out_of_range_in_constructor(self):
        with pytest.raises(VertexRangeError):
            Digraph(2, {(1, 3)})

    def test_first_bad_arc_in_input_order_is_reported(self):
        with pytest.raises(VertexRangeError, match=r"arc \(1, 5\)"):
            Digraph(3, [(1, 5), (2, 2)])
        with pytest.raises(SelfLoopError):
            Digraph(3, [(2, 2), (1, 5)])

    def test_type_is_checked_before_range(self):
        with pytest.raises(ValueError, match="not an integer"):
            Digraph(3, [(1.5, 9)])

    @pytest.mark.parametrize("arc", [(1.5, 2), (1, 2.0), (True, 2), ("1", 2)])
    def test_non_integer_endpoint_rejected(self, arc):
        # not converted: int(1.5) would silently store the arc (1, 2)
        with pytest.raises(ValueError, match="not an integer"):
            Digraph(3, [arc])

    def test_int_subclass_vertex_rejected(self):
        # one integer rule for vertex ids and colour ids: exactly int
        member = IntEnum("Vertex", "ONE")(1)
        with pytest.raises(ValueError, match="not an integer"):
            Digraph(2, [(member, 2)])
        with pytest.raises(ValueError, match="not an integer"):
            Representation(1, [[member]])

    def test_nonpositive_n(self):
        with pytest.raises(ValueError):
            Digraph(0)

    def test_bool_n(self):
        with pytest.raises(ValueError):
            Digraph(True)


# each factory builds a new instance with the same fields on every call
_VALUES = {
    "digraph": lambda: Digraph(3, [(1, 2), (2, 3)]),
    "representation": lambda: Representation(3, [{0}, {0, 1}, {1, 2, 3}]),
}


class TestValueSemantics:
    """Digraph and Representation compare and hash by their fields and
    refuse every assignment and deletion."""

    @pytest.mark.parametrize("make", _VALUES.values(), ids=_VALUES)
    def test_equal_hashed_and_members_by_fields(self, make):
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert b in {a} and len({a, b}) == 1

    def test_unequal_fields(self):
        assert Digraph(3, [(1, 2)]) != Digraph(3, [(2, 3)]) != Digraph(4, [(2, 3)])
        assert Representation(2, [{0}, {1}]) != Representation(2, [{0}, {0}])
        assert len({Digraph(2), Digraph(2, [(1, 2)]), Digraph(3), Representation(2, [{0}, {1}])}) == 4

    def test_no_equality_across_classes(self):
        D, rep = _VALUES["digraph"](), _VALUES["representation"]()
        assert D.__eq__(rep) is rep.__eq__(D) is NotImplemented
        assert D != rep and rep != D
        # nor with a tuple of the very same fields
        assert D != (D.n, D.arcs) and rep != (rep.n, rep.color_sets)

    @pytest.mark.parametrize("make", _VALUES.values(), ids=_VALUES)
    @pytest.mark.parametrize("name", ["n", "arcs", "color_sets", "palette_size", "_gamma", "extra"])
    def test_assignment_and_deletion_refused(self, make, name):
        value = make()
        with pytest.raises(AttributeError):
            setattr(value, name, 5)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert value == make()

    def test_gamma_computed_once(self, monkeypatch):
        calls = []
        gamma = Digraph.__dict__["_gamma"].func
        monkeypatch.setattr(Digraph.__dict__["_gamma"], "func", lambda D: calls.append(D) or gamma(D))
        D = _VALUES["digraph"]()
        assert longest_path_levels(D).gamma == (0, 1, 2)
        assert left_to_right_order(D) == (1, 2, 3) and is_acyclic(D)
        assert len(calls) == 1 and vars(D)["_gamma"] is D._gamma
        # the cached value is no field
        assert D == _VALUES["digraph"]() and hash(D) == hash(_VALUES["digraph"]())


class TestAcyclicity:
    def test_triangle_cyclic(self):
        assert not is_acyclic(TRIANGLE)

    def test_path_acyclic(self):
        assert is_acyclic(gen_family("directed_path", 4))

    def test_empty_arcs_acyclic(self):
        assert is_acyclic(Digraph(5))

    def test_two_cycle(self):
        assert not is_acyclic(Digraph(2, {(1, 2), (2, 1)}))


class TestLeftToRightOrder:
    def test_path_forced(self):
        assert left_to_right_order(gen_family("directed_path", 3)) == (1, 2, 3)

    def test_star_into_center_one(self):
        D = Digraph(5, {(i, 1) for i in range(2, 6)})
        assert left_to_right_order(D) == (2, 3, 4, 5, 1)

    def test_cyclic_rejected(self):
        with pytest.raises(CyclicGraphError):
            left_to_right_order(TRIANGLE)

    def test_cyclic_rejected_on_every_call(self):
        D = Digraph(3, {(1, 2), (2, 3), (3, 1)})
        for _ in range(2):
            assert not is_acyclic(D)
            with pytest.raises(CyclicGraphError):
                left_to_right_order(D)
            with pytest.raises(CyclicGraphError):
                longest_path_levels(D)

    @settings(deadline=None)
    @given(acyclic_digraphs())
    def test_topological_and_deterministic(self, D):
        order = left_to_right_order(D)
        assert sorted(order) == list(D.vertices)
        position = {v: i for i, v in enumerate(order)}
        assert all(position[u] < position[v] for u, v in D.arcs)
        assert left_to_right_order(D) == order


class TestLongestPathLevels:
    def test_path_gamma(self):
        lv = longest_path_levels(gen_family("directed_path", 3))
        assert lv.gamma == (0, 1, 2)

    def test_fig3_tree_levels(self):
        lv = longest_path_levels(gen_family("fig3_tree_small"))
        assert lv.levels == ((1,), (2, 3), (4,))

    def test_no_arcs_single_level(self):
        lv = longest_path_levels(Digraph(4))
        assert lv.levels == ((1, 2, 3, 4),)

    def test_cyclic_rejected(self):
        with pytest.raises(CyclicGraphError):
            longest_path_levels(TRIANGLE)

    @settings(deadline=None)
    @given(acyclic_digraphs())
    def test_level_structure(self, D):
        lv = longest_path_levels(D)
        flat = [v for level in lv.levels for v in level]
        assert sorted(flat) == list(D.vertices)
        # no arc joins two vertices in one level
        for u, v in D.arcs:
            assert lv.gamma_of(u) != lv.gamma_of(v)
        # sources are exactly level zero
        preds = {v: [u for u, h in D.arcs if h == v] for v in D.vertices}
        sources = {v for v in D.vertices if not preds[v]}
        assert set(lv.levels[0]) == sources
        # recurrence at every non-source
        for v in D.vertices:
            if preds[v]:
                assert lv.gamma_of(v) == 1 + max(lv.gamma_of(u) for u in preds[v])


class TestInducedSubgraph:
    def test_path_tail_segment(self):
        D = gen_family("directed_path", 4)
        sub, relabel = induced_subgraph(D, {3, 4})
        assert sub == Digraph(2, {(1, 2)})
        assert relabel == {3: 1, 4: 2}

    def test_identity(self):
        D = gen_family("source_arc_path", 4)
        sub, relabel = induced_subgraph(D, D.vertices)
        assert sub == D
        assert all(relabel[v] == v for v in D.vertices)

    def test_sap6_even_vertices_have_no_arcs(self):
        D = gen_family("source_arc_path", 6)
        sub, _ = induced_subgraph(D, {2, 4, 6})
        assert sub == Digraph(3)

    def test_errors(self):
        D = gen_family("directed_path", 3)
        with pytest.raises(ValueError):
            induced_subgraph(D, ())
        with pytest.raises(VertexRangeError):
            induced_subgraph(D, {1, 9})

    @pytest.mark.parametrize("vertices", [[1.5, 2], [True, 2]])
    def test_non_integer_id_error(self, vertices):
        with pytest.raises(ValueError, match="not an integer"):
            induced_subgraph(gen_family("directed_path", 4), vertices)


def _augmented_added_reference(n):
    """The augmented family's added arcs by their two-branch definition, on
    the parity of (n - 2) / 2."""
    if (n - 2) // 2 % 2 == 0:
        xs = range(3, n // 2 + 1, 2)
        ys = range(n // 2 + 2, n, 2)
        drop = (n // 2, n // 2 + 2)
    else:
        xs = range(3, n // 2 + 2, 2)
        ys = range(n // 2 + 3, n, 2)
        drop = (n // 2 + 1, n // 2 + 3)
    return sorted({(x, y) for x in xs for y in ys} - {drop})


def _family_reference(family, n):
    path = {(k, k + 1) for k in range(1, n)}
    return {
        "directed_path": path,
        "star": {(k, n) for k in range(1, n)},
        "complete_dag": {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)},
        "source_arc_path": path | {(1, j) for j in range(2, n + 1, 2)},
    }[family]


class TestFamilies:
    def test_family_names_in_order(self):
        assert FAMILIES == (
            "directed_path", "star", "complete_dag", "source_arc_path",
            "augmented_source_arc_path", "fig3_tree_small", "fig3_tree_large",
        )

    @pytest.mark.parametrize("n", range(2, 41))
    @pytest.mark.parametrize("family", ["directed_path", "star", "complete_dag", "source_arc_path"])
    def test_family_matches_its_definition(self, family, n):
        D = gen_family(family, n)
        assert D.n == n
        assert D.arcs == _family_reference(family, n)

    @pytest.mark.parametrize("n", range(8, 61, 2))
    def test_augmented_matches_the_two_branch_definition(self, n):
        added = _augmented_added_reference(n)
        assert augmented_added_arcs(n) == added
        D = gen_family("augmented_source_arc_path", n)
        assert D.n == n
        assert D.arcs == _family_reference("source_arc_path", n) | set(added)

    @pytest.mark.parametrize("family,n,arcs", [
        ("fig3_tree_small", 4, {(1, 2), (1, 3), (3, 4)}),
        ("fig3_tree_large", 6, {(1, 2), (1, 3), (3, 4), (1, 5), (5, 6)}),
    ])
    def test_fixture_arcs_and_vertex_count(self, family, n, arcs):
        for given_n in (None, 2, 10):
            D = gen_family(family, given_n)
            assert (D.n, D.arcs) == (n, arcs)

    @pytest.mark.parametrize("family,n,message", [
        ("directed_path", None, "family 'directed_path' requires a vertex count"),
        ("star", 1, "family 'star' requires n >= 2, got 1"),
        ("augmented_source_arc_path", 9, "augmented source arc-path requires even n >= 8, got 9"),
        ("augmented_source_arc_path", None, "family 'augmented_source_arc_path' requires a vertex count"),
    ])
    def test_error_text(self, family, n, message):
        with pytest.raises(ValueError) as info:
            gen_family(family, n)
        assert str(info.value) == message

    def test_source_arc_path_4(self):
        assert gen_family("source_arc_path", 4).arcs == {(1, 2), (1, 4), (2, 3), (3, 4)}

    def test_directed_path_2(self):
        assert gen_family("directed_path", 2).arcs == {(1, 2)}

    def test_star_points_to_center(self):
        assert gen_family("star", 4).arcs == {(1, 4), (2, 4), (3, 4)}

    def test_complete_dag(self):
        assert gen_family("complete_dag", 3).arcs == {(1, 2), (1, 3), (2, 3)}

    def test_fig3_fixtures_ignore_n(self):
        assert gen_family("fig3_tree_small").arcs == {(1, 2), (1, 3), (3, 4)}
        assert gen_family("fig3_tree_small", 10).n == 4
        large = gen_family("fig3_tree_large")
        assert large.n == 6
        assert is_acyclic(large)

    def test_augmented_8_adds_exactly_3_to_7(self):
        base = gen_family("source_arc_path", 8)
        aug = gen_family("augmented_source_arc_path", 8)
        assert aug.arcs - base.arcs == {(3, 7)}
        assert augmented_added_arcs(8) == [(3, 7)]

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            gen_family("directed_path", 1)
        with pytest.raises(ValueError):
            gen_family("unknown_family", 4)
        with pytest.raises(ValueError):
            gen_family("directed_path")
        with pytest.raises(ValueError, match="got 3.5"):
            gen_family("star", 3.5)

    @pytest.mark.parametrize("n", [6, 7, 9])
    def test_augmented_parity_and_size_errors(self, n):
        with pytest.raises(ValueError):
            gen_family("augmented_source_arc_path", n)

    @pytest.mark.parametrize("family,n", [
        ("directed_path", 7),
        ("star", 5),
        ("complete_dag", 6),
        ("source_arc_path", 9),
        ("augmented_source_arc_path", 12),
        ("fig3_tree_small", None),
        ("fig3_tree_large", None),
    ])
    def test_families_are_acyclic(self, family, n):
        assert is_acyclic(gen_family(family, n))

    @pytest.mark.parametrize("n", range(8, 42, 2))
    def test_augmented_added_count_formula(self, n):
        added = augmented_added_arcs(n)
        assert len(added) == (n * n - 4 * n + 4) // 16 - 1

    @pytest.mark.parametrize("n", range(8, 22, 2))
    def test_augmented_has_no_directed_triangle(self, n):
        D = gen_family("augmented_source_arc_path", n)
        arcs = D.arcs
        for i, j in arcs:
            for k in D.vertices:
                assert (j, k) not in arcs or (i, k) not in arcs, (i, j, k)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_source_arc_path_has_hamiltonian_path(self, n):
        D = gen_family("source_arc_path", n)
        assert all((k, k + 1) in D.arcs for k in range(1, n))

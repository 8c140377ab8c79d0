"""Acceptance criteria, one test per numbered item.

Each test prints a single PASS line on success (visible with -s or -v);
a failure surfaces as an ordinary assertion error.  Everything runs on the
default solve budget and desk-scale inputs.
"""

import itertools

import pytest

from dinrep import (
    Digraph,
    Representation,
    augmented_added_arcs,
    augmented_representation,
    directed_path_din,
    exact_din,
    extremal_din,
    feasible_with_palette,
    gen_family,
    general_upper_bound,
    induced_subgraph,
    inductive_construction,
    left_to_right_order,
    lemma_upper_bound,
    pairing_construction,
    restrict,
    source_arc_path_representation,
    verify,
)
from corpus import connected_dag_corpus

EVEN_SIZES = (4, 6, 8, 10, 12)
CORPUS = {n: connected_dag_corpus(n, 200, seed=9000 + n) for n in EVEN_SIZES}


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_c01_directed_triangle_is_infeasible():
    triangle = Digraph(3, {(1, 2), (2, 3), (3, 1)})
    assert exact_din(triangle).status == "infeasible"
    subsets = [frozenset(s) for r in (1, 2, 3)
               for s in itertools.combinations(range(3), r)]
    rejected = 0
    for sets in itertools.product(subsets, repeat=3):
        assert not verify(triangle, Representation(3, sets)).valid
        rejected += 1
    _report("C1", f"solver infeasible; verifier rejected all {rejected} candidates")


def test_c02_star_digraphs_have_din_two():
    for n in range(3, 7):
        assert exact_din(gen_family("star", n)).din == 2
    _report("C2", "exact_din = 2 for star n = 3..6")


def test_c03_complete_dag_on_three_vertices():
    assert exact_din(gen_family("complete_dag", 3)).din == 3
    _report("C3", "exact_din = 3")


def test_c04_directed_paths_match_the_formula():
    values = []
    for n in range(2, 6):
        din = exact_din(gen_family("directed_path", n)).din
        assert din == directed_path_din(n)
        values.append(din)
    assert values == [2, 4, 6, 9]
    _report("C4", f"exact_din = {values} for n = 2..5")


def test_c05_four_vertex_tree_has_din_five():
    assert exact_din(gen_family("fig3_tree_small")).din == 5
    _report("C5", "exact_din = 5")


def test_c05_stretch_six_vertex_tree_has_din_six():
    assert exact_din(gen_family("fig3_tree_large")).din == 6
    _report("C5-stretch", "exact_din = 6")


def test_c06_source_arc_path_closed_form():
    expected = {4: 8, 6: 18, 8: 32, 10: 50}
    for n, palette in expected.items():
        rep = source_arc_path_representation(n)
        assert verify(gen_family("source_arc_path", n), rep).valid
        assert rep.palette_size == palette == n * n // 2
    assert exact_din(gen_family("source_arc_path", 4)).din == 8
    _report("C6", "palettes 8/18/32/50 verified; optimality certified at n = 4")


def test_c07_augmented_family():
    expected = {8: 33, 10: 53, 12: 77}
    for n, palette in expected.items():
        added = augmented_added_arcs(n)
        assert len(added) == (n * n - 4 * n + 4) // 16 - 1
        D = gen_family("augmented_source_arc_path", n)
        for i, j in D.arcs:
            for k in D.vertices:
                assert (j, k) not in D.arcs or (i, k) not in D.arcs, f"directed triangle {i},{j},{k}"
        rep = augmented_representation(n)
        assert verify(D, rep).valid
        assert rep.palette_size == palette
    _report("C7", "arc counts, triangle-freeness, palettes 33/53/77 verified")


def test_c08_pairing_construction_on_random_corpus():
    checked = 0
    for n in EVEN_SIZES:
        bound = lemma_upper_bound(n)
        for D in CORPUS[n]:
            rep = pairing_construction(D)
            assert verify(D, rep).valid, sorted(D.arcs)
            assert rep.palette_size <= bound, sorted(D.arcs)
            checked += 1
    _report("C8", f"{checked} random connected DAGs, zero failures")


def test_c09_inductive_construction_on_random_corpus():
    assert general_upper_bound(4) == 8 and general_upper_bound(6) == 19
    checked = 0
    for n in EVEN_SIZES:
        bound = general_upper_bound(n)
        for D in CORPUS[n]:
            rep = inductive_construction(D)
            assert verify(D, rep).valid, sorted(D.arcs)
            assert rep.palette_size <= bound, sorted(D.arcs)
            order = left_to_right_order(D)
            sizes = [len(rep.color_set(v)) for v in order]
            assert sizes[0] == n // 2
            assert sizes[1] >= n // 2
            assert all(s >= n // 2 + 1 for s in sizes[2:])
            pos_arcs = {(order.index(u), order.index(v)) for u, v in D.arcs}
            for i in range(0, n, 2):
                gap = 1 if (i, i + 1) in pos_arcs else 0
                assert sizes[i] == sizes[i + 1] - gap
            checked += 1
    _report("C9", f"{checked} random connected DAGs, conditions (a)/(b) exact")


def test_c10_extremal_enumeration_up_to_n5():
    expected = {2: 2, 3: 4, 4: 8, 5: 12}
    for n, value in expected.items():
        best, witnesses = extremal_din(n)
        assert best == value, (n, best)
        if n >= 4:
            target = gen_family("source_arc_path", n).arcs
            assert any(w.arcs == target for w in witnesses)
    _report("C10", "max DIN = 2/4/8/12; source arc-paths attain it at n = 4, 5")


def test_c11_oracle_dominance_and_restriction():
    instances = (
        [gen_family("directed_path", n) for n in range(2, 6)]
        + [gen_family("star", n) for n in range(3, 6)]
        + [gen_family("fig3_tree_small"), gen_family("source_arc_path", 4)]
        + connected_dag_corpus(4, 40, seed=9901)
        + connected_dag_corpus(5, 40, seed=9902)
    )
    for D in instances:
        result = exact_din(D)
        assert result.din <= pairing_construction(D).palette_size
        assert result.din <= inductive_construction(D).palette_size
        vertex_sets = [set(range(1, D.n)), {1, D.n}, {2}] if D.n > 2 else [{1, 2}]
        for S in vertex_sets:
            sub, _ = induced_subgraph(D, S)
            assert verify(sub, restrict(result.witness, S)).valid
    _report("C11", f"{len(instances)} solved instances dominated; restrictions valid")


@pytest.mark.stretch
def test_stretch_extremal_n6_source_arc_path_is_extremal():
    # 32768 exact solves; run explicitly with: pytest -m stretch
    best, witnesses = extremal_din(6, workers=2)
    assert best == 18
    target = gen_family("source_arc_path", 6).arcs
    assert any(w.arcs == target for w in witnesses)
    _report("stretch-n6", "max DIN = 18, attained by the source arc-path")

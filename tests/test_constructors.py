"""General constructions and closed forms: validity, bounds, structure."""

import itertools
import random

import pytest

from dinrep import (
    CyclicGraphError,
    Digraph,
    augmented_added_arcs,
    augmented_din,
    augmented_representation,
    exact_din,
    gen_family,
    general_upper_bound,
    inductive_construction,
    left_to_right_order,
    lemma_upper_bound,
    pairing_construction,
    source_arc_path_din,
    source_arc_path_representation,
    verify,
)
from dinrep.constructors import initial_block_sizes
from corpus import all_forward_digraphs, connected_dag_corpus, random_dag

TRIANGLE = Digraph(3, {(1, 2), (2, 3), (3, 1)})


class TestPairingConstruction:
    def test_single_arc(self):
        D = Digraph(2, {(1, 2)})
        rep = pairing_construction(D)
        assert verify(D, rep).valid
        assert rep.palette_size <= lemma_upper_bound(2) == 2

    def test_fig3_tree_bound_is_nine(self):
        # the deterministic run lands exactly on the worked-example value,
        # well above the true optimum of 5
        D = gen_family("fig3_tree_small")
        rep = pairing_construction(D)
        assert verify(D, rep).valid
        assert rep.palette_size == 9
        assert exact_din(D).din == 5

    def test_cyclic_rejected(self):
        with pytest.raises(CyclicGraphError):
            pairing_construction(TRIANGLE)

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            pairing_construction(Digraph(1))

    def test_initial_blocks_occupy_a_prefix_of_the_palette(self):
        for n in (4, 6, 8):
            D = gen_family("source_arc_path", n)
            rep = pairing_construction(D)
            start = sum(initial_block_sizes(n))
            assert start == n * n // 4 - n // 2
            assert set(range(start)) <= rep.palette

    def test_initial_blocks_need_even_n(self):
        with pytest.raises(ValueError, match="initial blocks are defined for even n"):
            initial_block_sizes(5)

    @pytest.mark.parametrize("n", [4, 6])
    def test_exhaustive_small(self, n):
        bound = lemma_upper_bound(n)
        for D in all_forward_digraphs(n):
            rep = pairing_construction(D)
            assert verify(D, rep).valid, sorted(D.arcs)
            assert rep.palette_size <= bound, sorted(D.arcs)

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_random_even(self, n):
        for D in connected_dag_corpus(n, 60, seed=101 + n):
            rep = pairing_construction(D)
            assert verify(D, rep).valid
            assert rep.palette_size <= lemma_upper_bound(n)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_odd_via_dummy_padding(self, n):
        for D in connected_dag_corpus(n, 40, seed=211 + n):
            rep = pairing_construction(D)
            assert verify(D, rep).valid
            # padded-size guarantee
            assert rep.palette_size <= lemma_upper_bound(n + 1)


class TestInductiveConstruction:
    def test_base_case_singleton_goes_to_tail(self):
        D = Digraph(2, {(1, 2)})
        rep = inductive_construction(D)
        assert verify(D, rep).valid
        assert len(rep.color_set(1)) == 1
        assert len(rep.color_set(2)) == 2
        assert rep.palette_size == 2 == general_upper_bound(2)

    def test_cyclic_rejected(self):
        with pytest.raises(CyclicGraphError):
            inductive_construction(TRIANGLE)

    @staticmethod
    def assert_structural_conditions(D, rep):
        n = D.n
        order = left_to_right_order(D)
        sizes = [len(rep.color_set(v)) for v in order]
        assert sizes[0] == n // 2
        assert sizes[1] >= n // 2
        assert all(s >= n // 2 + 1 for s in sizes[2:])
        pos_arcs = {(order.index(u), order.index(v)) for u, v in D.arcs}
        for i in range(0, n, 2):
            if (i, i + 1) in pos_arcs:
                assert sizes[i] == sizes[i + 1] - 1
            else:
                assert sizes[i] == sizes[i + 1]

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_exhaustive_small(self, n):
        bound = general_upper_bound(n)
        count = 0
        for D in all_forward_digraphs(n):
            if n == 6 and count % 7:  # sample every 7th of the 32768 for speed
                count += 1
                continue
            count += 1
            rep = inductive_construction(D)
            assert verify(D, rep).valid, sorted(D.arcs)
            assert rep.palette_size <= bound, sorted(D.arcs)
            self.assert_structural_conditions(D, rep)

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_random_even(self, n):
        for D in connected_dag_corpus(n, 60, seed=307 + n):
            rep = inductive_construction(D)
            assert verify(D, rep).valid
            assert rep.palette_size <= general_upper_bound(n)
            self.assert_structural_conditions(D, rep)

    @pytest.mark.parametrize("n,bound", [(4, 8), (6, 19)])
    def test_even_bounds_match_printed_values(self, n, bound):
        assert general_upper_bound(n) == bound
        for D in connected_dag_corpus(n, 80, seed=401 + n):
            assert inductive_construction(D).palette_size <= bound

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_via_dummy_padding(self, n):
        for D in connected_dag_corpus(n, 40, seed=503 + n):
            rep = inductive_construction(D)
            assert verify(D, rep).valid
            assert rep.palette_size <= general_upper_bound(n + 1)


class TestColourObjects:
    @pytest.mark.parametrize("n", [400, 401])
    @pytest.mark.parametrize("build", [pairing_construction, inductive_construction])
    def test_each_colour_is_one_int_object(self, build, n):
        # a colour held by several vertices is one object shared by their
        # sets; an equal int minted per holder would multiply the memory the
        # large constructions take
        rep = build(random_dag(random.Random(n), n, 0.1))
        assert len({id(c) for s in rep.color_sets for c in s}) == rep.palette_size


class TestSourceArcPathRepresentation:
    @pytest.mark.parametrize("n,palette", [(4, 8), (6, 18), (8, 32), (10, 50)])
    def test_exact_palette_and_validity(self, n, palette):
        rep = source_arc_path_representation(n)
        assert rep.palette_size == palette == source_arc_path_din(n)
        assert verify(gen_family("source_arc_path", n), rep).valid

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_forced_sizes(self, n):
        rep = source_arc_path_representation(n)
        for j in range(1, n + 1):
            assert len(rep.color_set(j)) == n // 2 + j - 1

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_even_vertices_pairwise_disjoint(self, n):
        rep = source_arc_path_representation(n)
        evens = list(range(2, n + 1, 2))
        for a, b in itertools.combinations(evens, 2):
            assert not (rep.color_set(a) & rep.color_set(b))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            source_arc_path_representation(5)
        with pytest.raises(ValueError):
            source_arc_path_representation(2)


class TestAugmentedRepresentation:
    @pytest.mark.parametrize("n,palette", [(8, 33), (10, 53), (12, 77)])
    def test_exact_palette_and_validity(self, n, palette):
        rep = augmented_representation(n)
        assert rep.palette_size == palette == augmented_din(n)
        assert verify(gen_family("augmented_source_arc_path", n), rep).valid

    @pytest.mark.parametrize("n", [8, 10, 12, 14])
    def test_palette_grows_by_one_per_added_arc(self, n):
        base = source_arc_path_representation(n)
        aug = augmented_representation(n)
        assert aug.palette_size - base.palette_size == len(augmented_added_arcs(n))

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_dropped_fill_colors_survive_in_the_pair_partner(self, n):
        base = source_arc_path_representation(n)
        aug = augmented_representation(n)
        for v in range(3, n, 2):
            removed = base.color_set(v) - aug.color_set(v)
            assert removed <= aug.color_set(v + 1)

    def test_domain_errors(self):
        for n in (6, 9):
            with pytest.raises(ValueError, match="augmented source arc-path requires even n >= 8"):
                augmented_representation(n)


class TestOracleDominance:
    def test_exact_din_never_exceeds_constructions(self):
        fixtures = [
            gen_family("directed_path", 4),
            gen_family("star", 5),
            gen_family("fig3_tree_small"),
            gen_family("source_arc_path", 4),
            gen_family("source_arc_path", 5),
        ] + connected_dag_corpus(5, 25, seed=77) + connected_dag_corpus(4, 25, seed=78)
        for D in fixtures:
            din = exact_din(D).din
            assert din <= pairing_construction(D).palette_size
            assert din <= inductive_construction(D).palette_size

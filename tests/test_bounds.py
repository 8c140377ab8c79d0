"""Closed-form formulas and their agreement with the exact solver."""

import re

import pytest

from dinrep import (
    augmented_added_arcs,
    augmented_din,
    augmented_representation,
    directed_path_din,
    exact_din,
    gen_family,
    general_upper_bound,
    lemma_upper_bound,
    p_intersection_upper_bound,
    source_arc_path_din,
    source_arc_path_representation,
)


class TestGeneralUpperBound:
    def test_printed_list(self):
        assert [general_upper_bound(n) for n in range(2, 8)] == [2, 4, 8, 12, 19, 26]

    def test_n100(self):
        assert general_upper_bound(100) == 6176

    def test_domain(self):
        with pytest.raises(ValueError):
            general_upper_bound(1)


class TestLemmaUpperBound:
    @pytest.mark.parametrize("n,value", [(2, 2), (4, 9), (8, 38)])
    def test_values(self, n, value):
        assert lemma_upper_bound(n) == value

    def test_parity(self):
        with pytest.raises(ValueError):
            lemma_upper_bound(5)


class TestDirectedPathDin:
    @pytest.mark.parametrize("n,value", [(2, 2), (3, 4), (4, 6), (5, 9), (6, 12)])
    def test_values(self, n, value):
        assert directed_path_din(n) == value

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_solver_oracle_equality(self, n):
        result = exact_din(gen_family("directed_path", n))
        assert result.din == directed_path_din(n)

    def test_domain(self):
        with pytest.raises(ValueError):
            directed_path_din(1)


class TestSourceArcPathDin:
    @pytest.mark.parametrize("n,value", [(4, 8), (5, 12), (6, 18), (7, 24)])
    def test_values(self, n, value):
        assert source_arc_path_din(n) == value

    def test_solver_oracle_equality_n4(self):
        assert exact_din(gen_family("source_arc_path", 4)).din == 8

    def test_domain(self):
        with pytest.raises(ValueError):
            source_arc_path_din(3)


class TestAugmentedDin:
    @pytest.mark.parametrize("n,value", [(8, 33), (10, 53), (12, 77)])
    def test_values(self, n, value):
        assert augmented_din(n) == value

    def test_domain(self):
        with pytest.raises(ValueError):
            augmented_din(7)
        with pytest.raises(ValueError):
            augmented_din(6)


class TestPIntersection:
    @pytest.mark.parametrize("din,p,value", [(2, 1, 2), (8, 3, 10), (18, 2, 19)])
    def test_values(self, din, p, value):
        assert p_intersection_upper_bound(din, p) == value

    def test_domain(self):
        with pytest.raises(ValueError):
            p_intersection_upper_bound(0, 1)
        with pytest.raises(ValueError):
            p_intersection_upper_bound(1, 0)


class TestCrossFormulaRelations:
    def test_source_arc_path_below_general_bound(self):
        for n in range(4, 13):
            assert source_arc_path_din(n) <= general_upper_bound(n)
            if n >= 6:
                assert source_arc_path_din(n) < general_upper_bound(n)

    def test_augmented_between_source_and_lemma(self):
        for n in range(8, 42, 2):
            assert source_arc_path_din(n) < augmented_din(n) <= lemma_upper_bound(n)

    def test_closed_forms_attain_their_formulas(self):
        for n in (4, 6, 8, 10):
            assert source_arc_path_representation(n).palette_size == source_arc_path_din(n)
        for n in (8, 10, 12):
            assert augmented_representation(n).palette_size == augmented_din(n)


class TestIntRule:
    """Every formula and closed form takes only an int: a float, a bool or
    a string is refused rather than computed with."""

    @pytest.mark.parametrize("value", [6.0, 8.5, True, "8"], ids=repr)
    @pytest.mark.parametrize("function", [
        general_upper_bound, lemma_upper_bound, directed_path_din, source_arc_path_din,
        augmented_din, source_arc_path_representation, augmented_representation,
        augmented_added_arcs, lambda n: p_intersection_upper_bound(n, 2),
        lambda p: p_intersection_upper_bound(8, p),
    ], ids=["general", "lemma", "dpath", "sap", "augmented", "sap_rep", "augmented_rep",
            "augmented_arcs", "p_din", "p_p"])
    def test_non_int_is_refused(self, function, value):
        with pytest.raises(ValueError, match=re.escape(f"got {value!r}")):
            function(value)

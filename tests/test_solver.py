"""Exact search: fixtures, certificates, properties, budgets, enumeration."""

import itertools
import logging
import multiprocessing
import pickle
import random
import sys

import pytest

from dinrep import (
    BUDGET_EXHAUSTED,
    DEFAULT_BUDGET,
    BudgetExhaustedError,
    INFEASIBLE,
    OPTIMAL,
    CyclicGraphError,
    Digraph,
    LevelStats,
    Representation,
    SearchDepthError,
    SolveBudget,
    ValidityReport,
    directed_path_din,
    exact_din,
    extremal_din,
    feasible_with_palette,
    gen_family,
    induced_subgraph,
    inductive_construction,
    longest_path_levels,
    pairing_construction,
    restrict,
    verify,
)
from dinrep import solver
from corpus import (
    all_forward_digraphs,
    brute_force_form,
    connected_dag_corpus,
    first_of_class,
    independent_validity,
    random_dag,
)

TRIANGLE = Digraph(3, {(1, 2), (2, 3), (3, 1)})


def brute_force_din(D, kmax):
    """Dumb reference solver: try every assignment of nonempty subsets.

    Returns the smallest feasible palette size up to kmax, or None.  Shares
    nothing with the real search except the definition itself.
    """
    for k in range(1, kmax + 1):
        subsets = [frozenset(s) for r in range(1, k + 1)
                   for s in itertools.combinations(range(k), r)]
        for sets in itertools.product(subsets, repeat=D.n):
            if independent_validity(D, Representation(D.n, sets)):
                return k
    return None


class TestExactDin:
    def test_triangle_infeasible(self):
        result = exact_din(TRIANGLE)
        assert result.status == INFEASIBLE
        assert result.witness is None

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_star(self, n):
        assert exact_din(gen_family("star", n)).din == 2

    def test_complete_dag_on_three(self):
        assert exact_din(gen_family("complete_dag", 3)).din == 3

    def test_fig3_tree_small(self):
        assert exact_din(gen_family("fig3_tree_small")).din == 5

    def test_empty_graph_needs_one_color(self):
        assert exact_din(Digraph(4)).din == 1

    @pytest.mark.parametrize("n,expected", [(2, 2), (3, 4), (4, 6), (5, 9)])
    def test_directed_paths(self, n, expected):
        assert exact_din(gen_family("directed_path", n)).din == expected

    def test_witnesses_are_valid_and_canonical(self):
        for D in connected_dag_corpus(5, 30, seed=13):
            result = exact_din(D)
            assert result.status == OPTIMAL
            assert verify(D, result.witness).valid
            assert result.witness.palette_size == result.din
            assert result.witness.palette == frozenset(range(result.din))

    def test_deterministic(self):
        D = gen_family("source_arc_path", 5)
        a, b = exact_din(D), exact_din(D)
        assert a.din == b.din
        assert a.witness == b.witness

    def test_minimality_certificate(self):
        for D in connected_dag_corpus(4, 20, seed=29) + connected_dag_corpus(5, 10, seed=31):
            k = exact_din(D).din
            assert feasible_with_palette(D, k).feasible is True
            if k > 1:
                assert feasible_with_palette(D, k - 1).feasible is False

    def test_monotone_under_induced_subgraphs(self):
        for D in connected_dag_corpus(5, 20, seed=37):
            full = exact_din(D)
            for S in ({1, 2, 3}, {2, 4, 5}, {1, 5}):
                sub, _ = induced_subgraph(D, S)
                assert exact_din(sub).din <= full.din
                # restriction of the optimal witness stays valid
                assert verify(sub, restrict(full.witness, S)).valid

    def test_level_lower_bound(self):
        for D in connected_dag_corpus(5, 20, seed=41) + connected_dag_corpus(6, 10, seed=43):
            levels = longest_path_levels(D)
            assert exact_din(D).din >= len(levels.levels)

    def test_budget_exhaustion(self):
        result = exact_din(gen_family("source_arc_path", 6), SolveBudget(max_nodes=10))
        assert result.status == BUDGET_EXHAUSTED
        assert result.din is None

    def test_budget_stop_is_running_out_of_nodes(self):
        # the node budget is the only limit, so every stop short of an
        # answer has spent exactly one node past it
        graphs = [gen_family("source_arc_path", 6), gen_family("directed_path", 9)]
        graphs += connected_dag_corpus(6, 4, seed=51) + connected_dag_corpus(7, 4, seed=52)
        stops = 0
        for D in graphs:
            for max_nodes in (1, 7, 100, 2_000):
                result = exact_din(D, SolveBudget(max_nodes=max_nodes))
                if result.status != BUDGET_EXHAUSTED:
                    assert result.status == OPTIMAL and result.nodes_explored <= max_nodes
                    continue
                stops += 1
                assert result.nodes_explored == max_nodes + 1
                assert result.best_upper is not None
                assert result.din is None and result.witness is None
        assert stops >= len(graphs)

    def test_best_upper_on_budget_exhaustion(self):
        D = gen_family("source_arc_path", 8)
        result = exact_din(D, SolveBudget(max_nodes=20))
        assert result.status == BUDGET_EXHAUSTED
        assert result.best_upper == min(
            pairing_construction(D).palette_size,
            inductive_construction(D).palette_size,
        )
        assert sum(level.nodes for level in result.levels) == result.nodes_explored

    @pytest.mark.parametrize("max_nodes", [0, -1, True, 2.5, "10"])
    def test_budget_must_be_a_positive_int(self, max_nodes):
        with pytest.raises(ValueError, match=f"node budget must be a positive integer, got {max_nodes!r}"):
            SolveBudget(max_nodes=max_nodes)

    def test_best_upper_of_a_single_vertex(self):
        # the constructions need two vertices; one vertex takes one color
        result = exact_din(Digraph(1), SolveBudget(max_nodes=1))
        assert result.status == BUDGET_EXHAUSTED
        assert result.nodes_explored == 2
        assert result.best_upper == 1

    def test_best_upper_unset_when_solved(self):
        assert exact_din(gen_family("source_arc_path", 6)).best_upper is None

    def test_level_stats(self):
        result = exact_din(gen_family("source_arc_path", 6))
        assert [level.k for level in result.levels] == list(range(1, result.din + 1))
        assert sum(level.nodes for level in result.levels) == result.nodes_explored
        assert result.levels[-1].size_functions >= 1
        assert all(level.seconds >= 0 for level in result.levels)

    def test_too_deep_for_the_search(self):
        limit = solver.max_search_vertices()
        assert exact_din(Digraph(limit)).din == 1
        with pytest.raises(SearchDepthError):
            exact_din(Digraph(limit + 1))

    def test_vertex_count_checked_before_acyclicity(self):
        # too large for the search wins over cyclic
        D = Digraph(solver.max_search_vertices() + 1, {(1, 2), (2, 1)})
        with pytest.raises(SearchDepthError):
            exact_din(D)
        with pytest.raises(SearchDepthError):
            feasible_with_palette(D, 3)

    def test_size_nodes_split_the_level_nodes(self):
        result = exact_din(gen_family("source_arc_path", 6))
        assert all(0 <= level.size_nodes <= level.nodes for level in result.levels)
        # the last level reaches the class search
        assert 0 < result.levels[-1].size_nodes < result.levels[-1].nodes


class TestRecords:
    """The budget and the result records are NamedTuples that keep the
    constructors, checks and reprs they had as frozen dataclasses."""

    def test_budget_forms(self):
        assert SolveBudget() == SolveBudget(100_000_000) == SolveBudget(max_nodes=100_000_000) == DEFAULT_BUDGET
        assert SolveBudget(7).max_nodes == SolveBudget(max_nodes=7).max_nodes == 7
        assert type(DEFAULT_BUDGET._replace(max_nodes=7)) is SolveBudget
        assert DEFAULT_BUDGET._replace(max_nodes=7) == SolveBudget._make([7]) == SolveBudget(7)

    @pytest.mark.parametrize("max_nodes", [0, -1, 1.5, True])
    def test_budget_error_text(self, max_nodes):
        for build in (lambda: SolveBudget(max_nodes), lambda: SolveBudget(max_nodes=max_nodes),
                      lambda: DEFAULT_BUDGET._replace(max_nodes=max_nodes)):
            with pytest.raises(ValueError) as error:
                build()
            assert str(error.value) == f"node budget must be a positive integer, got {max_nodes!r}"

    def test_budget_pickles(self):
        # a parallel sweep sends the budget to each worker
        budget = pickle.loads(pickle.dumps(SolveBudget(12_345)))
        assert type(budget) is SolveBudget and budget == SolveBudget(12_345)

    def test_reprs(self):
        assert repr(SolveBudget()) == "SolveBudget(max_nodes=100000000)"
        assert (repr(LevelStats(3, 10, 4, 1, 0.5))
                == "LevelStats(k=3, nodes=10, size_nodes=4, size_functions=1, seconds=0.5)")
        assert repr(ValidityReport(True, ())) == "ValidityReport(valid=True, violations=())"
        assert (repr(verify(Digraph(2, [(1, 2)]), Representation(2, [{0}, {1, 2}])))
                == "ValidityReport(valid=False, violations=(Violation(u=1, v=2, kind='missing-intersection'),))")


class TestFeasibleWithPalette:
    def test_single_arc_brackets(self):
        D = Digraph(2, {(1, 2)})
        assert feasible_with_palette(D, 1).feasible is False
        result = feasible_with_palette(D, 2)
        assert result.feasible is True
        assert verify(D, result.witness).valid

    def test_sap4_brackets_the_exact_value(self):
        D = gen_family("source_arc_path", 4)
        assert feasible_with_palette(D, 7).feasible is False
        assert feasible_with_palette(D, 8).feasible is True

    def test_unknown_under_tiny_budget(self):
        D = gen_family("source_arc_path", 6)
        assert feasible_with_palette(D, 18, SolveBudget(max_nodes=10)).feasible is None

    def test_refuted_at_the_root_under_tiny_budget(self):
        # below the DIN the look-ahead refutes k before the search takes a node
        D = gen_family("source_arc_path", 6)
        result = feasible_with_palette(D, 17, SolveBudget(max_nodes=10))
        assert result.feasible is False
        assert result.nodes_explored == 0

    def test_cyclic_precondition(self):
        with pytest.raises(CyclicGraphError):
            feasible_with_palette(TRIANGLE, 3)

    def test_bad_k(self):
        for k in (0, 4.5, True):
            with pytest.raises(ValueError, match="palette size must be a positive integer"):
                feasible_with_palette(gen_family("directed_path", 3), k)


class TestBruteForceCrossCheck:
    def test_every_three_vertex_digraph(self):
        # includes cyclic digraphs, where brute force finds nothing and the
        # solver must report infeasible; 4 colors cover every 3-vertex DAG
        pairs = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
        for mask in range(1 << len(pairs)):
            D = Digraph(3, {pairs[b] for b in range(len(pairs)) if (mask >> b) & 1})
            brute = brute_force_din(D, kmax=4)
            result = exact_din(D)
            if brute is None:
                assert result.status == INFEASIBLE, sorted(D.arcs)
            else:
                assert result.din == brute, sorted(D.arcs)

    @pytest.mark.parametrize("family,n", [("star", 4), ("complete_dag", 4)])
    def test_four_vertex_fixtures(self, family, n):
        D = gen_family(family, n)
        assert exact_din(D).din == brute_force_din(D, kmax=5)


class TestHamiltonianWitnesses:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_witness_sizes_distinct_along_hamiltonian_path(self, n):
        # any valid representation of a Hamiltonian DAG has pairwise
        # distinct set sizes; check the solver's optimal witnesses
        for D in (gen_family("directed_path", n), gen_family("source_arc_path", max(n, 4))):
            witness = exact_din(D).witness
            sizes = [len(witness.color_set(v)) for v in D.vertices]
            assert len(set(sizes)) == D.n


class TestExtremal:
    def test_n2(self):
        best, witnesses = extremal_din(2)
        assert best == 2
        assert any(w.arcs == {(1, 2)} for w in witnesses)

    def test_n3(self):
        best, _ = extremal_din(3)
        assert best == 4

    def test_n4_source_arc_path_attains(self):
        best, witnesses = extremal_din(4)
        assert best == 8
        target = gen_family("source_arc_path", 4).arcs
        assert any(w.arcs == target for w in witnesses)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            extremal_din(1)
        with pytest.raises(ValueError, match="2 <= n <= 6, got 7"):
            extremal_din(7)
        with pytest.raises(ValueError, match="2 <= n <= 6, got 4.0"):
            extremal_din(4.0)

    def test_workers_match_sequential(self):
        seq = extremal_din(4)
        par = extremal_din(4, workers=2)
        assert seq[0] == par[0] == 8
        assert seq[1] == par[1]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_every_mask_solved(self, n):
        # the maximum over a solve of every mask, and its masks in mask order
        graphs = list(all_forward_digraphs(n))
        dins = [exact_din(D).din for D in graphs]
        best = max(dins)
        expected = (best, [D for D, din in zip(graphs, dins) if din == best])
        assert extremal_din(n) == expected
        assert extremal_din(n, workers=2) == expected

    def test_budget_counts_masks_of_exhausted_classes(self):
        # under 10 nodes 28 of the 64 masks have a representative that runs
        # out, while 26 masks run out when each is solved as labelled
        budget = SolveBudget(max_nodes=10)
        graphs = list(all_forward_digraphs(4))
        reps = first_of_class(brute_force_form(4, D.arcs) for D in graphs)
        out = {r: exact_din(graphs[r], budget).status == BUDGET_EXHAUSTED for r in set(reps)}
        exhausted = sum(out[r] for r in reps)
        assert 0 < exhausted < len(graphs)
        assert exhausted != sum(exact_din(D, budget).status == BUDGET_EXHAUSTED for D in graphs)
        with pytest.raises(BudgetExhaustedError) as error:
            extremal_din(4, budget)
        assert str(error.value) == f"budget exhausted on {exhausted} of 64 digraphs (n=4)"

    def test_logs_masks_classes_and_maximum(self, caplog):
        with caplog.at_level(logging.INFO, logger="dinrep.solver"):
            extremal_din(5)
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("dinrep.solver", "INFO", "extremal n=5: 1024 masks, 302 isomorphism classes, max DIN 12"),
        ]

    @staticmethod
    def _fake_pool(monkeypatch, cpus):
        """Record each pool's size and map in this process; start nothing."""
        sizes = []

        class Pool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return list(map(fn, items))

        monkeypatch.setattr(multiprocessing, "Pool", Pool)
        monkeypatch.setattr(solver.os, "cpu_count", lambda: cpus)
        return sizes

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        expected = extremal_din(3)
        sizes = self._fake_pool(monkeypatch, 3)
        assert extremal_din(3, workers=10**6) == expected
        assert sizes == [3]

    def test_unknown_cpu_count_runs_in_process(self, monkeypatch):
        sizes = self._fake_pool(monkeypatch, None)
        assert extremal_din(3, workers=4)[0] == 4
        assert sizes == []

    @pytest.mark.parametrize("workers", [0, -4, 1.5, True])
    def test_workers_below_one_rejected(self, monkeypatch, workers):
        sizes = self._fake_pool(monkeypatch, 3)
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            extremal_din(3, workers=workers)
        assert sizes == []


class TestCanonicalForm:
    """``_canonical_form`` names isomorphism classes exactly."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_classes_match_brute_force(self, n):
        arcs = [sorted(D.arcs) for D in all_forward_digraphs(n)]
        assert (first_of_class(solver._canonical_form(n, a) for a in arcs)
                == first_of_class(brute_force_form(n, a) for a in arcs))

    # unlabelled DAGs on n vertices (OEIS A003087)
    @pytest.mark.parametrize("n, classes", [(1, 1), (2, 2), (3, 6), (4, 31), (5, 302), (6, 5984)])
    def test_class_counts(self, n, classes):
        assert len({solver._canonical_form(n, solver._mask_arcs(n, m))
                    for m in range(1 << (n * (n - 1) // 2))}) == classes

    @pytest.mark.parametrize("n", [7, 8])
    def test_invariant_under_relabelling(self, n):
        rng = random.Random(n)
        for _ in range(40):
            arcs = sorted(random_dag(rng, n, rng.uniform(0.1, 0.9)).arcs)
            form = solver._canonical_form(n, arcs)
            for _ in range(5):
                label = [0, *rng.sample(range(1, n + 1), n)]
                assert solver._canonical_form(n, [(label[u], label[v]) for u, v in arcs]) == form


class TestCliquePrune:
    """The clique-sum prune only cuts size functions that cannot succeed."""

    @staticmethod
    def _without_prune(monkeypatch, D):
        with monkeypatch.context() as m:
            m.setattr(solver, "_maximal_nonadjacent_cliques", lambda n, adj: [])
            return exact_din(D)

    def _check_same(self, monkeypatch, D):
        pruned = exact_din(D)
        plain = self._without_prune(monkeypatch, D)
        assert pruned.status == plain.status == OPTIMAL, sorted(D.arcs)
        assert pruned.din == plain.din, sorted(D.arcs)
        assert pruned.witness == plain.witness, sorted(D.arcs)
        assert pruned.nodes_explored <= plain.nodes_explored, sorted(D.arcs)

    def test_every_forward_dag_on_four_vertices(self, monkeypatch):
        for D in all_forward_digraphs(4):
            self._check_same(monkeypatch, D)

    @pytest.mark.parametrize("family,n", [("directed_path", 8), ("source_arc_path", 6)])
    def test_families(self, monkeypatch, family, n):
        self._check_same(monkeypatch, gen_family(family, n))

    def test_directed_path_nine_certifies(self):
        result = exact_din(gen_family("directed_path", 9), SolveBudget(max_nodes=1_000_000))
        assert result.status == OPTIMAL
        assert result.din == directed_path_din(9)


def _sets(text):
    """Color sets written one bracket per vertex, as "[0-3] [0,4-7] ..."."""
    out = []
    for group in text.split():
        colors = set()
        for part in group.strip("[]").split(","):
            lo, _, hi = part.partition("-")
            colors.update(range(int(lo), int(hi or lo) + 1))
        out.append(frozenset(colors))
    return out


# the n = 6 extremal mask 21045 plus a sink 7 with in-neighbors {2, 4}
H7 = Digraph(7, {(1, 2), (1, 4), (1, 6), (2, 3), (2, 7), (3, 4), (4, 5), (4, 7), (5, 6)})

# vertex 7 comes first in the order and its five neighbours fill the next
# five positions, so its neighbourhood bound can fire before the last of
# them is sized
CROWDED8 = Digraph(8, {(2, 1), (4, 1), (4, 6), (5, 2), (7, 3), (7, 4), (7, 5), (7, 6),
                       (7, 8), (8, 2), (8, 5)})


def _position_arcs(search, D):
    """D's arcs as pairs of positions in the search's vertex order."""
    pos = {v: i for i, v in enumerate(search.order)}
    return {(pos[u], pos[v]) for u, v in D.arcs}


class TestColorCountingBounds:
    """The size floor and the class search's clique bound only cut subtrees
    without a representation, so the search finds the same first witness."""

    def _without_bounds(self, monkeypatch, D):
        with monkeypatch.context() as m:
            m.setattr(solver, "_height", lambda part, reach: 0)
            m.setattr(solver._Search, "_over_demand", lambda self, *args: False)
            return exact_din(D)

    def _check_same(self, monkeypatch, D):
        bounded = exact_din(D)
        plain = self._without_bounds(monkeypatch, D)
        assert bounded.status == plain.status == OPTIMAL, sorted(D.arcs)
        assert bounded.din == plain.din, sorted(D.arcs)
        assert bounded.witness == plain.witness, sorted(D.arcs)
        assert bounded.nodes_explored <= plain.nodes_explored, sorted(D.arcs)

    def test_every_forward_dag_on_four_vertices(self, monkeypatch):
        for D in all_forward_digraphs(4):
            self._check_same(monkeypatch, D)

    @pytest.mark.parametrize("family,n", [
        ("directed_path", 8), ("source_arc_path", 6), ("fig3_tree_large", None),
    ])
    def test_families(self, monkeypatch, family, n):
        self._check_same(monkeypatch, gen_family(family, n))

    def test_floor_is_at_least_one(self):
        # an isolated vertex has no neighbors to count, but still a color
        assert solver._Search(Digraph(3), 10).floor == [1, 1, 1]

    def test_floor_counts_disjoint_neighbors(self):
        # 2 and 4 are neighbors of 1, not adjacent, and joined by the path
        # 2 -> 3 -> 4: they differ in size and share no color, so 1 meets
        # them through two colors of its own
        D = Digraph(4, {(1, 2), (2, 3), (3, 4), (1, 4)})
        search = solver._Search(D, 10)
        assert search.floor == [2, 3, 4, 5]

    @staticmethod
    def _floors_by_definition(D):
        """Each position's floor from the definition: 1, one more than each
        in-neighbour's floor, and the largest set of its neighbours that are
        pairwise non-adjacent and joined by a directed path."""
        search = solver._Search(D, 1)
        arcs = _position_arcs(search, D)
        n = D.n
        reach = [set() for _ in range(n)]
        for i in range(n - 1, -1, -1):
            for j in range(i + 1, n):
                if (i, j) in arcs:
                    reach[i] |= {j} | reach[j]

        def apart(x, y):
            return (x, y) not in arcs and (y, x) not in arcs and (y in reach[x] or x in reach[y])

        def largest(group, rest):
            return max([len(group)] + [largest(group + [x], rest[at + 1:])
                                       for at, x in enumerate(rest)
                                       if all(apart(x, y) for y in group)])

        floor = []
        for i in range(n):
            near = [x for x in range(n) if (i, x) in arcs or (x, i) in arcs]
            floor.append(max([1, largest([], near)] + [floor[q] + 1 for q in range(i) if (q, i) in arcs]))
        return search.floor, floor

    def test_floor_matches_the_definition(self):
        rng = random.Random(17)
        graphs = [H7, CROWDED8]
        for F in all_forward_digraphs(5):
            label = rng.sample(range(1, 6), 5)
            graphs.append(Digraph(5, {(label[u - 1], label[v - 1]) for u, v in F.arcs}))
        graphs += [random_dag(rng, rng.randint(9, 12), rng.uniform(0.2, 0.5)) for _ in range(6)]
        for D in graphs:
            got, want = self._floors_by_definition(D)
            assert got == want, sorted(D.arcs)

    def test_clique_demand_matches_the_definition(self, monkeypatch):
        """After every class the search keeps, each clique's slack is the
        classes left minus its demand, the largest need of each of its sizes,
        summed."""
        classes, over_demand = solver._Search._classes, solver._Search._over_demand
        deciding = {}
        checked = 0

        def recording(self, sizes, slack):
            deciding["sizes"] = sizes
            return classes(self, sizes, slack)

        def checking(self, members, need, spare, compat):
            nonlocal checked
            sizes = deciding["sizes"]
            over = over_demand(self, members, need, spare, compat)
            if not over:
                for c, q in enumerate(self.cliques):
                    most = {}
                    for w in range(self.n):
                        if (q >> w) & 1:
                            most[sizes[w]] = max(most.get(sizes[w], 0), need[w])
                    assert spare[c] == self.k - len(self.classes) - sum(most.values()), (sizes, need, c)
                checked += 1
            return over

        monkeypatch.setattr(solver._Search, "_classes", recording)
        monkeypatch.setattr(solver._Search, "_over_demand", checking)
        for D in [H7, *all_forward_digraphs(5)]:
            assert exact_din(D).status == OPTIMAL, sorted(D.arcs)
        assert checked > 0

    def test_refuted_size_function_leaves_the_size_state(self, monkeypatch):
        """The class search leaves the sizes and slack it is handed as it
        found them, whether it refutes the size function or not: sibling
        size functions share those lists."""
        classes = solver._Search._classes
        refuted = 0

        def checking(self, sizes, slack):
            nonlocal refuted
            before = (sizes[:], slack[:])
            found = classes(self, sizes, slack)
            assert (sizes, slack) == before, before
            refuted += not found
            return found

        monkeypatch.setattr(solver._Search, "_classes", checking)
        for D in [H7, CROWDED8, *all_forward_digraphs(5)]:
            assert exact_din(D).status == OPTIMAL, sorted(D.arcs)
        assert refuted > 0

    def test_size_enumeration_leaves_the_lists_it_is_handed(self, monkeypatch):
        """No size node writes the sizes, clique sizes or slack it is handed,
        whether a witness lies below it or not: a value that adds no size to
        a clique hands its children the parent's clique lists."""
        sizes_dfs = solver._Search._sizes_dfs
        results = set()

        def checking(self, p, sizes, held, slack):
            before = (sizes[:], held[:], slack[:])
            found = sizes_dfs(self, p, sizes, held, slack)
            assert (sizes, held, slack) == before, (self.order, p, before)
            results.add(found)
            return found

        monkeypatch.setattr(solver._Search, "_sizes_dfs", checking)
        for D in [H7, CROWDED8, *all_forward_digraphs(5)]:
            assert exact_din(D).status == OPTIMAL, sorted(D.arcs)
        assert results == {True, False}

    def test_over_demand_answers_the_definition(self, monkeypatch):
        """After every class, the demand check says whether some clique
        needs more classes than are left: the largest need of each of its
        sizes, summed, since two sizes share no class."""
        classes, over_demand = solver._Search._classes, solver._Search._over_demand
        deciding = {}
        seen = []

        def recording(self, sizes, slack):
            deciding["sizes"] = sizes
            return classes(self, sizes, slack)

        def demand(self, q, need):
            sizes = deciding["sizes"]
            most = {}
            for w in range(self.n):
                if (q >> w) & 1:
                    most[sizes[w]] = max(most.get(sizes[w], 0), need[w])
            return sum(most.values())

        def checking(self, members, need, spare, compat):
            over = over_demand(self, members, need, spare, compat)
            left = self.k - len(self.classes)
            assert over == any(demand(self, q, need) > left for q in self.cliques), (deciding["sizes"], need)
            seen.append(over)
            return over

        monkeypatch.setattr(solver._Search, "_classes", recording)
        monkeypatch.setattr(solver._Search, "_over_demand", checking)
        for D in [H7, CROWDED8, *all_forward_digraphs(5)]:
            assert exact_din(D).status == OPTIMAL, sorted(D.arcs)
        assert True in seen and False in seen

    def test_class_order_matches_the_definition(self, monkeypatch):
        """v is the lowest member of each of its classes and takes them as a
        multiset in include-first order: a class of v after the first
        repeats the last one or leaves out the lowest member where the two
        differ."""
        classes = solver._Search._classes
        seen = {"first": 0, "repeat": 0, "later": 0}

        class Ordered(list):
            def append(self, members):
                last = self[-1] if self else 0
                if last & -last != members & -members:
                    assert members & -members > last & -last, (bin(last), bin(members))
                    seen["first"] += 1
                elif last == members:
                    seen["repeat"] += 1
                else:
                    differ = last ^ members
                    assert not differ & -differ & members, (bin(last), bin(members))
                    seen["later"] += 1
                super().append(members)

        def checking(self, *args):
            if type(self.classes) is list:
                self.classes = Ordered(self.classes)
            return classes(self, *args)

        monkeypatch.setattr(solver._Search, "_classes", checking)
        for D in [H7, CROWDED8, *all_forward_digraphs(5)]:
            assert exact_din(D).status == OPTIMAL, sorted(D.arcs)
        assert seen["repeat"] > 0 and seen["later"] > 0, seen

    def test_source_arc_path_eight_certifies(self):
        D = gen_family("source_arc_path", 8)
        result = exact_din(D, SolveBudget(max_nodes=1_000_000))
        assert result.status == OPTIMAL
        assert result.din == 32
        assert list(result.witness.color_sets) == _sets(
            "[0-3] [0,4-7] [4-9] [1,8-13] [10-17] [2,14-21] [18-27] [3,22-31]"
        )

    def test_h7_certifies(self):
        result = exact_din(H7, SolveBudget(max_nodes=100_000))
        assert result.status == OPTIMAL
        assert result.din == 22
        assert list(result.witness.color_sets) == _sets(
            "[0,1,2] [0,3,4,5] [3,4,6,7,8] [1,6-10] [9-15] [2,15-21] [5,9-14]"
        )


class TestLookAhead:
    """The look-ahead of size enumeration only refutes partial size
    functions that no complete one extends, so everything but the size
    nodes is the same without it."""

    @staticmethod
    def _work(result):
        return [(lv.k, lv.nodes - lv.size_nodes, lv.size_functions) for lv in result.levels]

    def _check_same(self, monkeypatch, D):
        ahead = exact_din(D)
        with monkeypatch.context() as m:
            m.setattr(solver._Search, "_refuted", lambda self, *args: False)
            plain = exact_din(D)
        assert ahead.status == plain.status == OPTIMAL, sorted(D.arcs)
        assert ahead.din == plain.din, sorted(D.arcs)
        assert ahead.witness == plain.witness, sorted(D.arcs)
        assert self._work(ahead) == self._work(plain), sorted(D.arcs)
        size_nodes = [sum(lv.size_nodes for lv in r.levels) for r in (ahead, plain)]
        assert size_nodes[0] <= size_nodes[1], sorted(D.arcs)

    def test_every_forward_dag_on_five_vertices(self, monkeypatch):
        for D in all_forward_digraphs(5):
            self._check_same(monkeypatch, D)

    @pytest.mark.parametrize("D", [
        gen_family("directed_path", 8), gen_family("source_arc_path", 6), H7,
        gen_family("fig3_tree_large"),
    ], ids=["dpath8", "sap6", "H7", "tree"])
    def test_families(self, monkeypatch, D):
        self._check_same(monkeypatch, D)

    def test_floors_hold_their_invariant(self, monkeypatch):
        """At every size node each unsized position holds its dynamic floor:
        its static floor, raised above each in-neighbour's size or floor.
        So the floors rise along every arc, and every chain the look-ahead
        reads is strictly increasing."""
        sizes_dfs, refuted = solver._Search._sizes_dfs, solver._Search._refuted
        seen = {"sizes": 0, "refuted": 0}

        def checking_sizes(self, p, sizes, held, slack):
            for w in range(p, self.n):
                want = max([self.floor[w], *(sizes[q] + 1 for q in self.in_prev[w])])
                assert sizes[w] == want, (self.order, sizes, p, w)
            seen["sizes"] += 1
            return sizes_dfs(self, p, sizes, held, slack)

        def checking_refuted(self, checks, sizes, held, slack):
            for _, chain in checks:
                values = [sizes[w] for w in chain]
                assert values == sorted(set(values)), (self.order, sizes, chain)
            seen["refuted"] += 1
            return refuted(self, checks, sizes, held, slack)

        monkeypatch.setattr(solver._Search, "_sizes_dfs", checking_sizes)
        monkeypatch.setattr(solver._Search, "_refuted", checking_refuted)
        graphs = [*all_forward_digraphs(5), H7, CROWDED8,
                  gen_family("directed_path", 12), gen_family("source_arc_path", 10)]
        for D in graphs:
            assert exact_din(D).status == OPTIMAL, sorted(D.arcs)
        assert seen["sizes"] > 0 and seen["refuted"] > 0

    @pytest.mark.parametrize("n", range(2, 21))
    def test_directed_path_certifies(self, n):
        D = gen_family("directed_path", n)
        result = exact_din(D, SolveBudget(max_nodes=1_000_000))
        assert result.status == OPTIMAL
        assert result.din == directed_path_din(n)
        assert verify(D, result.witness).valid


class TestNeighbourBound:
    """The neighbourhood bound of size enumeration only cuts size functions
    without a representation, so the search finds the same first witness."""

    @staticmethod
    def _pair(monkeypatch, D):
        bounded = exact_din(D)
        init = solver._Search.__init__

        def unbounded_init(self, D, max_nodes):
            init(self, D, max_nodes)
            self.late = [()] * self.n

        with monkeypatch.context() as m:
            m.setattr(solver._Search, "__init__", unbounded_init)
            plain = exact_din(D)
        assert bounded.status == plain.status == OPTIMAL, sorted(D.arcs)
        assert bounded.din == plain.din, sorted(D.arcs)
        assert bounded.witness == plain.witness, sorted(D.arcs)
        assert bounded.nodes_explored <= plain.nodes_explored, sorted(D.arcs)
        return [sum(lv.size_functions for lv in r.levels) for r in (bounded, plain)]

    def test_every_forward_dag_on_five_vertices(self, monkeypatch):
        totals = [self._pair(monkeypatch, D) for D in all_forward_digraphs(5)]
        # it does cut: fewer size functions reach the class search
        assert sum(b for b, _ in totals) < sum(p for _, p in totals)

    @pytest.mark.parametrize("D", [
        gen_family("directed_path", 8), gen_family("source_arc_path", 6), H7,
        gen_family("fig3_tree_large"), CROWDED8,
    ], ids=["dpath8", "sap6", "H7", "tree", "CROWDED8"])
    def test_families(self, monkeypatch, D):
        self._pair(monkeypatch, D)

    @staticmethod
    def _by_definition(arcs, sizes, w, p):
        """Whether more than sizes[w] of w's neighbours at positions up to p
        are pairwise non-adjacent and of pairwise different sizes."""
        near = [x for x in range(p + 1) if (w, x) in arcs or (x, w) in arcs]
        return any(
            all(sizes[x] != sizes[y] and (x, y) not in arcs and (y, x) not in arcs
                for x, y in itertools.combinations(group, 2))
            for r in range(sizes[w] + 1, len(near) + 1)
            for group in itertools.combinations(near, r)
        )

    @staticmethod
    def _hold_the_bound(monkeypatch, graphs):
        """On every entry to ``_sizes_dfs(p)`` each sized vertex w < p meets
        its sized neighbours in no more distinct pairwise non-adjacent sizes
        than s(w): the bound held as each of them was sized."""
        init, sizes_dfs = solver._Search.__init__, solver._Search._sizes_dfs
        seen = {"arcs": None, "entries": 0}

        def recording_init(self, D, max_nodes):
            init(self, D, max_nodes)
            seen["arcs"] = _position_arcs(self, D)

        def checking_sizes(self, p, sizes, held, slack):
            for w in range(p):
                assert not TestNeighbourBound._by_definition(seen["arcs"], sizes, w, p - 1), (
                    self.order, sizes, w, p)
            seen["entries"] += 1
            return sizes_dfs(self, p, sizes, held, slack)

        monkeypatch.setattr(solver._Search, "__init__", recording_init)
        monkeypatch.setattr(solver._Search, "_sizes_dfs", checking_sizes)
        for D in graphs:
            assert exact_din(D).status == OPTIMAL, sorted(D.arcs)
        assert seen["entries"] > 0

    def test_bound_holds_on_five_vertices(self, monkeypatch):
        self._hold_the_bound(monkeypatch, all_forward_digraphs(5))

    def test_bound_holds_on_families(self, monkeypatch):
        self._hold_the_bound(monkeypatch, [CROWDED8, H7, gen_family("directed_path", 12),
                                           gen_family("source_arc_path", 10)])


class TestSetUp:
    """The search's tables, checked against a direct computation from the
    arcs."""

    def test_tables_match_the_arcs(self):
        rng = random.Random(11)
        for F in all_forward_digraphs(5):
            label = rng.sample(range(1, 6), 5)
            D = Digraph(5, {(label[u - 1], label[v - 1]) for u, v in F.arcs})
            search = solver._Search(D, 1)
            arcs = _position_arcs(search, D)
            n = D.n
            assert all(i < j for i, j in arcs), sorted(D.arcs)

            def descendants(i):
                out = set()
                for j in range(n):
                    if (i, j) in arcs:
                        out |= {j} | descendants(j)
                return out

            def height(i):
                return max((height(j) + 1 for j in range(n) if (i, j) in arcs), default=0)

            assert search.adj == [sum(1 << j for j in range(n) if (i, j) in arcs or (j, i) in arcs)
                                  for i in range(n)], sorted(D.arcs)
            assert search.in_prev == [tuple(q for q in range(n) if (q, i) in arcs)
                                      for i in range(n)], sorted(D.arcs)
            assert search.below == [tuple(sorted(descendants(i))) for i in range(n)], sorted(D.arcs)
            assert search.h_out == [height(i) for i in range(n)], sorted(D.arcs)
            # only at w's second or later out-neighbour can the neighbourhood
            # bound fire
            assert search.late == [tuple(w for w in range(p) if (w, p) in arcs
                                         and any((w, x) in arcs for x in range(p)))
                                   for p in range(n)], sorted(D.arcs)
            assert search.least == next(lv.k for lv in exact_din(D).levels if lv.nodes), sorted(D.arcs)

    def test_no_clique_tables_above_the_prune_limit(self):
        # above 24 vertices the clique list is empty, and with it the chains
        # and the cliques through each position
        search = solver._Search(gen_family("directed_path", 25), 1)
        assert search.cliques == []
        assert search.least == 25
        assert search.checks == [[]] * 25
        assert search.through == [[]] * 25
        assert search.floor == list(range(1, 26))


def _sink_extension(mask, in_set):
    """The n = 6 DAG of ``mask`` plus a sink 7 with in-neighbors ``in_set``."""
    return Digraph(7, solver._graph_for_mask(6, mask).arcs | {(q, 7) for q in in_set})


class TestFrontier:
    """Graphs that took millions of nodes when each size function was
    decided by assigning color sets vertex by vertex."""

    @pytest.mark.parametrize("D,din", [
        (solver._graph_for_mask(7, 428602), 17),
        (solver._graph_for_mask(7, 553213), 17),
        (gen_family("source_arc_path", 10), 50),
        (gen_family("source_arc_path", 12), 72),
        (_sink_extension(24255, (1, 3, 6)), 20),
    ], ids=["mask428602", "mask553213", "sap10", "sap12", "sink24255-136"])
    def test_certifies(self, D, din):
        result = exact_din(D, SolveBudget(max_nodes=1_000_000))
        assert result.status == OPTIMAL
        assert result.din == din
        assert verify(D, result.witness).valid

    def test_depth_guard(self):
        # the size phase recurses once per vertex and the class search runs in
        # one frame, never one per class: k = 156 classes fit in the frames
        # that 24 vertices get
        D = gen_family("directed_path", 24)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            assert solver.max_search_vertices() >= 24
            result = exact_din(D, SolveBudget(max_nodes=1_000_000))
        finally:
            sys.setrecursionlimit(limit)
        assert result.status == OPTIMAL
        assert result.din == directed_path_din(24) == 156
        assert verify(D, result.witness).valid

    def test_search_takes_about_one_frame_per_vertex(self):
        # the size phase takes one frame per vertex and the class search one
        # for all its classes, so k = 156 fits in n + 10 frames above this one
        n = 24
        D = gen_family("directed_path", n)
        search = solver._Search(D, 1_000_000)
        limit = sys.getrecursionlimit()
        try:
            # the lowest limit accepted here is one above the current depth
            for low in itertools.count(1):
                try:
                    sys.setrecursionlimit(low)
                    break
                except RecursionError:
                    pass
            sys.setrecursionlimit(low + n + 10)
            witness = search.run(156)
        finally:
            sys.setrecursionlimit(limit)
        assert witness is not None and verify(D, witness).valid


def _levels(result):
    return [(lv.k, lv.nodes, lv.size_nodes, lv.size_functions) for lv in result.levels]


def _no_work(top):
    """Levels 1..top, each refuted at its root."""
    return [(k, 0, 0, 0) for k in range(1, top + 1)]


class TestPinnedNodeCounts:
    """Per-level work, pinned: a change that keeps every prune and the
    enumeration order visits exactly these nodes at every palette size."""

    def test_source_arc_path_six(self):
        result = exact_din(gen_family("source_arc_path", 6))
        assert _levels(result) == _no_work(17) + [(18, 26, 7, 1)]
        assert result.nodes_explored == 26

    def test_directed_path_eight(self):
        result = exact_din(gen_family("directed_path", 8))
        assert _levels(result) == _no_work(19) + [(20, 29, 9, 1)]
        assert result.nodes_explored == 29

    def test_h7(self):
        result = exact_din(H7)
        assert _levels(result) == _no_work(17) + [
            (18, 6, 6, 0), (19, 7, 7, 0), (20, 21, 15, 1), (21, 48, 28, 2), (22, 31, 8, 1),
        ]
        assert result.nodes_explored == 113

    def test_tree(self):
        # the root's three children are pairwise non-adjacent and of one
        # size: their clique's demand falls only when a class holds every
        # child with the largest need
        result = exact_din(gen_family("fig3_tree_large"))
        assert _levels(result) == _no_work(3) + [(4, 4, 4, 0), (5, 12, 10, 1), (6, 13, 7, 1)]
        assert result.nodes_explored == 29

    def test_neighbours_sized_before_the_last(self):
        result = exact_din(CROWDED8)
        assert _levels(result) == _no_work(5) + [
            (6, 4, 4, 0), (7, 5, 5, 0), (8, 12, 12, 0), (9, 18, 18, 0), (10, 34, 34, 0),
            (11, 51, 51, 0), (12, 81, 81, 0), (13, 179, 132, 2), (14, 49, 30, 1),
        ]
        assert result.nodes_explored == 433

    def test_source_arc_path_eight_total(self):
        result = exact_din(gen_family("source_arc_path", 8), SolveBudget(max_nodes=1_000_000))
        assert result.status == OPTIMAL
        assert result.nodes_explored == 48

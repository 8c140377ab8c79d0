"""Command-line behavior: outputs, exit codes, round trips, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dinrep
from dinrep import exact_din, gen_family, to_edge_list
from dinrep.cli import _FAMILY_NAMES, _build_parser, main
from dinrep.solver import DEFAULT_BUDGET, max_search_vertices


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_source_arc_path_4(self, capsys, tmp_path):
        out = tmp_path / "sap4.g"
        code, _, _ = run(capsys, "gen", "source-arc-path", "4", "-o", str(out))
        assert code == 0
        assert out.read_text() == "4\n1 2\n1 4\n2 3\n3 4\n"

    def test_directed_path_2_stdout(self, capsys):
        code, stdout, _ = run(capsys, "gen", "directed-path", "2")
        assert code == 0
        assert stdout == "2\n1 2\n"

    def test_augmented_6_rejected(self, capsys):
        code, _, err = run(capsys, "gen", "augmented", "6")
        assert code == 2
        assert "even n >= 8" in err

    def test_fixture_needs_no_n(self, capsys):
        code, stdout, _ = run(capsys, "gen", "fig3-tree-small")
        assert code == 0
        assert stdout == "4\n1 2\n1 3\n3 4\n"

    @pytest.mark.parametrize("name,n", [(name, n) for name in sorted(_FAMILY_NAMES) for n in (8, 12)]
                             + [("fig3-tree-small", None), ("fig3-tree-large", None)])
    def test_stdout_is_the_family_edge_list(self, capsys, name, n):
        family = _FAMILY_NAMES[name]
        code, stdout, _ = run(capsys, "gen", name, *([] if n is None else [str(n)]))
        assert code == 0
        assert stdout == to_edge_list(gen_family(family, n))

    @pytest.mark.parametrize("argv,message", [
        (["star"], "error: family 'star' requires a vertex count\n"),
        (["directed-path", "1"], "error: family 'directed_path' requires n >= 2, got 1\n"),
        (["augmented", "9"], "error: augmented source arc-path requires even n >= 8, got 9\n"),
    ])
    def test_error_text(self, capsys, argv, message):
        assert run(capsys, "gen", *argv) == (2, "", message)

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.g", tmp_path / "b.g"
        run(capsys, "gen", "augmented", "10", "-o", str(a))
        run(capsys, "gen", "augmented", "10", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestConstruct:
    @pytest.mark.parametrize("method,family,n", [
        ("pairing", "directed-path", 6),
        ("pairing", "star", 5),
        ("inductive", "directed-path", 6),
        ("inductive", "complete-dag", 5),
        ("closed-form", "source-arc-path", 6),
        ("closed-form", "augmented", 8),
    ])
    def test_round_trip_gen_construct_verify(self, capsys, tmp_path, method, family, n):
        g = tmp_path / "g.txt"
        r = tmp_path / "r.json"
        assert run(capsys, "gen", family, str(n), "-o", str(g))[0] == 0
        code, stdout, _ = run(capsys, "construct", str(g), "--method", method, "-o", str(r))
        assert code == 0
        palette = int(stdout.split("palette_size = ")[1].splitlines()[0])
        bound = int(stdout.split("bound = ")[1].splitlines()[0])
        assert palette <= bound
        code, stdout, _ = run(capsys, "verify", str(g), str(r))
        assert code == 0
        assert stdout.strip() == "VALID"

    def test_inductive_prints_bound_8_for_n4(self, capsys, tmp_path):
        g = tmp_path / "p4.g"
        g.write_text(to_edge_list(gen_family("directed_path", 4)))
        code, stdout, _ = run(capsys, "construct", str(g), "--method", "inductive")
        assert code == 0
        assert "bound = 8" in stdout
        palette = int(stdout.split("palette_size = ")[1].splitlines()[0])
        assert palette <= 8

    def test_closed_form_value_18(self, capsys, tmp_path):
        g = tmp_path / "sap6.g"
        g.write_text(to_edge_list(gen_family("source_arc_path", 6)))
        code, stdout, _ = run(capsys, "construct", str(g), "--method", "closed-form")
        assert code == 0
        assert "palette_size = 18" in stdout

    def test_closed_form_mismatch(self, capsys, tmp_path):
        g = tmp_path / "star5.g"
        g.write_text(to_edge_list(gen_family("star", 5)))
        code, stdout, err = run(capsys, "construct", str(g), "--method", "closed-form")
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: closed-form method requires")

    @pytest.mark.parametrize("n", [5, 7])
    def test_closed_form_odd_source_arc_path_names_its_domain(self, capsys, tmp_path, n):
        # the graph matches the family exactly; the closed form's own
        # domain error is what the user sees
        g = tmp_path / f"sap{n}.g"
        g.write_text(to_edge_list(gen_family("source_arc_path", n)))
        code, stdout, err = run(capsys, "construct", str(g), "--method", "closed-form")
        assert code == 2
        assert stdout == ""
        assert err == f"error: source arc-path closed form needs even n >= 4, got {n}\n"

    def test_closed_form_rejects_by_arc_count_first(self, capsys, tmp_path, monkeypatch):
        # the augmented family on 4,000 vertices has about a million arcs;
        # a path's arc count matches neither family, so neither is built
        def unbuilt(family, n):
            raise AssertionError(f"built {family} on {n} vertices")

        monkeypatch.setattr("dinrep.cli.gen_family", unbuilt)
        g = tmp_path / "p4000.g"
        g.write_text(to_edge_list(gen_family("directed_path", 4000)))
        code, stdout, err = run(capsys, "construct", str(g), "--method", "closed-form")
        assert code == 2
        assert stdout == ""
        assert err == ("error: closed-form method requires an exact source-arc-path "
                       "or augmented family match\n")

    def test_odd_n_logs_nothing(self, capsys, tmp_path, caplog):
        g = tmp_path / "p7.g"
        g.write_text(to_edge_list(gen_family("directed_path", 7)))
        for method in ("pairing", "inductive"):
            code, _, err = run(capsys, "construct", str(g), "--method", method)
            assert code == 0 and err == ""
        assert caplog.records == []

    def test_cyclic_input(self, capsys, tmp_path):
        g = tmp_path / "tri.g"
        g.write_text("3\n1 2\n2 3\n3 1\n")
        code, _, _ = run(capsys, "construct", str(g), "--method", "pairing")
        assert code == 3

    @pytest.mark.parametrize("method", ["pairing", "inductive"])
    def test_too_many_vertices_to_allocate(self, capsys, tmp_path, method):
        # a list of 2^62 entries overflows its size before any allocation
        # is tried, and 2^64 overflows an index, so neither asks for memory
        g = tmp_path / "huge.g"
        for n in (2 ** 62, 2 ** 64):
            g.write_text(f"{n}\n")
            code, stdout, err = run(capsys, "construct", str(g), "--method", method)
            assert code == 2, n
            assert stdout == ""
            assert err == "error: out of memory\n"

    def test_byte_identical_rep_files(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        g.write_text(to_edge_list(gen_family("source_arc_path", 8)))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "construct", str(g), "--method", "inductive", "-o", str(a))
        run(capsys, "construct", str(g), "--method", "inductive", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestVerifyCmd:
    def test_invalid_prints_violations(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        r = tmp_path / "r.json"
        g.write_text("2\n1 2\n")
        r.write_text('{"n": 2, "phi": {"1": [0, 1], "2": [0]}, "palette_size": 2}')
        code, stdout, _ = run(capsys, "verify", str(g), str(r))
        assert code == 1
        assert stdout.splitlines() == ["1 2 size-not-increasing", "2 1 false-arc-implied"]

    def test_parse_error_exit_2(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        r = tmp_path / "r.json"
        g.write_text("nonsense\n")
        r.write_text("{}")
        assert run(capsys, "verify", str(g), str(r))[0] == 2

    def test_empty_color_set_exit_2(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        r = tmp_path / "r.json"
        g.write_text("2\n1 2\n")
        r.write_text('{"n": 2, "phi": {"1": [], "2": [0]}, "palette_size": 1}')
        code, _, err = run(capsys, "verify", str(g), str(r))
        assert code == 2
        assert "empty" in err


DEEP = "[" * 100_000
GOOD_GRAPH = "2\n1 2\n"
GOOD_REP = '{"n": 2, "phi": {"1": [0], "2": [0, 1]}}'


class TestMalformedJson:
    """Malformed JSON input exits 2 with a one-line message, never 1."""

    @pytest.mark.parametrize("graph", [
        '{"n": 2, "arcs": 5}',
        '{"n": 3, "arcs": [[1, 2, 3]]}',
        '{"n": 2, "arcs": [[1, 2.7]]}',
        '{"n": 2, "arcs": ["12"]}',
        '{"n": "2", "arcs": [[1, 2]]}',
        '{"n": true, "arcs": []}',
        pytest.param('{"n": 2, "arcs": ' + DEEP, id="deeply-nested"),
    ])
    @pytest.mark.parametrize("command", [
        ["verify", "{graph}", "{rep}"],
        ["din", "{graph}"],
        ["construct", "{graph}", "--method", "pairing"],
    ], ids=["verify", "din", "construct"])
    def test_bad_graph(self, capsys, tmp_path, graph, command):
        self._expect_usage_error(capsys, tmp_path, graph, GOOD_REP, command)

    @pytest.mark.parametrize("graph,rep", [
        (GOOD_GRAPH, '{"n": 2, "phi": {"1": [0], "2": "01"}}'),
        (GOOD_GRAPH, '{"n": 2, "phi": {"1": [0], "2": [0, 1.7]}}'),
        (GOOD_GRAPH, '{"n": 2, "phi": {"1": [0], "2": [0, true]}}'),
        (GOOD_GRAPH, '{"n": 2, "phi": {"1": [0], "2": [0, 1], "3": [0, 1, 2]}}'),
        (GOOD_GRAPH, '{"n": 2, "phi": {"1": [0], "02": [0, 1]}}'),
        (GOOD_GRAPH, '{"n": 2, "phi": [[0], [0, 1]]}'),
        (GOOD_GRAPH, '{"n": "2", "phi": {"1": [0], "2": [0, 1]}}'),
        ("1\n", '{"n": true, "phi": {"1": [0]}}'),
        pytest.param(GOOD_GRAPH, '{"n": 2, "phi": ' + DEEP, id="deeply-nested"),
    ])
    def test_bad_representation(self, capsys, tmp_path, graph, rep):
        self._expect_usage_error(capsys, tmp_path, graph, rep, ["verify", "{graph}", "{rep}"])

    @pytest.mark.parametrize("graph,rep,command,message", [
        ('{"n": 3, "n": 2, "arcs": [[1, 2]]}', GOOD_REP, ["din", "{graph}"],
         "invalid JSON graph: duplicate key 'n'"),
        # the last of the two sets for vertex 3 would make a valid representation
        ("3\n1 2\n2 3\n", '{"n": 3, "phi": {"1": [0], "2": [0, 1], "3": [0], "3": [1, 2, 3]}}',
         ["verify", "{graph}", "{rep}"], "invalid representation JSON: duplicate key '3'"),
    ], ids=["din-graph", "verify-representation"])
    def test_duplicate_key(self, capsys, tmp_path, graph, rep, command, message):
        """A repeated JSON key is refused, not read as its last value."""
        err = self._expect_usage_error(capsys, tmp_path, graph, rep, command)
        assert err == f"error: {message}\n"

    @staticmethod
    def _expect_usage_error(capsys, tmp_path, graph, rep, command):
        g, r = tmp_path / "g", tmp_path / "r.json"
        g.write_text(graph)
        r.write_text(rep)
        argv = [a.format(graph=g, rep=r) for a in command]
        code, stdout, err = run(capsys, *argv)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err


class TestDin:
    def test_star5(self, capsys, tmp_path):
        g = tmp_path / "star5.g"
        g.write_text(to_edge_list(gen_family("star", 5)))
        code, stdout, _ = run(capsys, "din", str(g))
        assert code == 0
        assert stdout.strip() == "DIN = 2"

    def test_tree4(self, capsys, tmp_path):
        g = tmp_path / "tree4.g"
        g.write_text(to_edge_list(gen_family("fig3_tree_small")))
        code, stdout, _ = run(capsys, "din", str(g))
        assert code == 0
        assert stdout.strip() == "DIN = 5"

    def test_triangle_infeasible(self, capsys, tmp_path):
        g = tmp_path / "tri.g"
        g.write_text("3\n1 2\n2 3\n3 1\n")
        code, stdout, _ = run(capsys, "din", str(g))
        assert code == 3
        assert "INFEASIBLE (cyclic)" in stdout

    def test_budget_exhausted_exit_4(self, capsys, tmp_path):
        g = tmp_path / "sap6.g"
        g.write_text(to_edge_list(gen_family("source_arc_path", 6)))
        code, stdout, _ = run(capsys, "din", str(g), "--budget-nodes", "10")
        assert code == 4
        # every level below 18 is refuted at its root; the budget runs out in 18
        assert stdout == "UNKNOWN (budget), best upper bound 19, certified lower bound 18\n"

    def test_budget_exhausted_single_vertex(self, capsys, tmp_path):
        g = tmp_path / "one.g"
        g.write_text("1\n")
        code, stdout, _ = run(capsys, "din", str(g), "--budget-nodes", "1")
        assert code == 4
        assert stdout == "UNKNOWN (budget), best upper bound 1, certified lower bound 1\n"

    def test_budget_exhausted_json_best_upper(self, capsys, tmp_path):
        g = tmp_path / "sap8.g"
        g.write_text(to_edge_list(gen_family("source_arc_path", 8)))
        code, stdout, _ = run(capsys, "din", str(g), "--json", "--budget-nodes", "20")
        assert code == 4
        obj = json.loads(stdout)
        assert obj["status"] == "budget_exhausted" and obj["best_upper"] == 35
        assert obj["best_lower"] == obj["levels"][-1]["k"] == 32
        assert sum(level["nodes"] for level in obj["levels"]) == obj["nodes_explored"]

    def test_line_break_inside_a_line_exit_2(self, capsys, tmp_path):
        g = tmp_path / "vt.g"
        g.write_text("3\n1 2\x0b2 3\n")
        code, stdout, err = run(capsys, "din", str(g))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: line 2: expected 'tail head'")

    def test_too_many_vertices_exit_2(self, capsys, tmp_path):
        g = tmp_path / "empty1200.g"
        g.write_text("1200\n")
        code, stdout, err = run(capsys, "din", str(g))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: exact search handles at most")

    def test_too_many_vertices_wins_over_cyclic(self, capsys, tmp_path):
        g = tmp_path / "cycle.g"
        g.write_text(f"{max_search_vertices() + 1}\n1 2\n2 1\n")
        code, stdout, err = run(capsys, "din", str(g))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: exact search handles at most")

    def test_json_with_witness(self, capsys, tmp_path):
        g = tmp_path / "p3.g"
        w = tmp_path / "w.json"
        g.write_text(to_edge_list(gen_family("directed_path", 3)))
        code, stdout, _ = run(capsys, "din", str(g), "--json", "--witness", str(w))
        assert code == 0
        obj = json.loads(stdout)
        assert obj["status"] == "optimal" and obj["din"] == 4
        assert obj["best_upper"] is None and obj["best_lower"] is None
        assert [level["k"] for level in obj["levels"]] == [1, 2, 3, 4]
        assert set(obj["levels"][0]) == {"k", "nodes", "size_nodes", "size_functions", "seconds"}
        assert all(level["size_nodes"] <= level["nodes"] for level in obj["levels"])
        assert obj["levels"][-1]["size_nodes"] > 0
        assert json.loads(w.read_text())["n"] == 3

    def test_levels_are_the_level_records(self, capsys, tmp_path):
        D = gen_family("fig3_tree_large")
        g = tmp_path / "tree.g"
        g.write_text(to_edge_list(D))
        code, stdout, _ = run(capsys, "din", str(g), "--json")
        assert code == 0
        # the same fields and values; only the timings differ
        assert ([dict(level, seconds=0) for level in json.loads(stdout)["levels"]]
                == [level._replace(seconds=0)._asdict() for level in exact_din(D).levels])

    def test_witness_file_text_mode(self, capsys, tmp_path):
        g = tmp_path / "sap4.g"
        w = tmp_path / "w.json"
        g.write_text(to_edge_list(gen_family("source_arc_path", 4)))
        code, stdout, _ = run(capsys, "din", str(g), "-w", str(w))
        assert code == 0
        assert stdout == f"DIN = 8 (witness: {w})\n"
        code, stdout, _ = run(capsys, "verify", str(g), str(w))
        assert code == 0 and stdout == "VALID\n"

    def test_zero_budget_exit_2(self, capsys, tmp_path):
        g = tmp_path / "p3.g"
        g.write_text(to_edge_list(gen_family("directed_path", 3)))
        code, stdout, err = run(capsys, "din", str(g), "--budget-nodes", "0")
        assert code == 2 and stdout == ""
        assert err == "error: node budget must be a positive integer, got 0\n"

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("2\n1 2\n"))
        code, stdout, _ = run(capsys, "din", "-")
        assert code == 0
        assert stdout.strip() == "DIN = 2"


class TestExtremalCmd:
    def test_n2(self, capsys):
        code, stdout, _ = run(capsys, "extremal", "2")
        assert code == 0
        assert "max_din = 2" in stdout

    def test_n3_json(self, capsys):
        code, stdout, _ = run(capsys, "extremal", "3", "--json")
        assert code == 0
        obj = json.loads(stdout)
        assert obj["max_din"] == 4

    def test_budget_exhausted_exit_4(self, capsys):
        code, stdout, err = run(capsys, "extremal", "4", "--budget-nodes", "5")
        assert code == 4 and stdout == ""
        assert err == "error: budget exhausted on 64 of 64 digraphs (n=4)\n"

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one_exit_2(self, capsys, threads):
        code, stdout, err = run(capsys, "extremal", "3", "--threads", threads)
        assert code == 2 and stdout == ""
        assert err == f"error: workers must be at least 1, got {threads}\n"

    def test_n7_out_of_range(self, capsys):
        code, stdout, stderr = run(capsys, "extremal", "7")
        assert code == 2 and stdout == ""
        assert stderr == "error: extremal enumeration supports 2 <= n <= 6, got 7\n"


class TestBound:
    def test_all_applicable_at_6(self, capsys):
        code, stdout, _ = run(capsys, "bound", "6")
        assert code == 0
        lines = stdout.splitlines()
        assert "general 19" in lines
        assert "source-arc-path 18" in lines
        assert "directed-path 12" in lines

    def test_augmented_formula(self, capsys):
        code, stdout, _ = run(capsys, "bound", "8", "--formula", "augmented")
        assert code == 0
        assert stdout.strip() == "augmented 33"

    def test_p_intersection(self, capsys):
        code, stdout, _ = run(capsys, "bound", "8", "--formula", "p-intersection", "--p", "3")
        assert code == 0
        assert stdout.strip() == "p-intersection 10"

    def test_domain_error(self, capsys):
        assert run(capsys, "bound", "1")[0] == 2

    @pytest.mark.parametrize("formula", [[], ["--formula", "general"]])
    def test_p_without_p_intersection_exit_2(self, capsys, formula):
        code, stdout, err = run(capsys, "bound", "5", "--p", "3", *formula)
        assert code == 2 and stdout == ""
        assert err == "error: --p applies only to --formula p-intersection\n"


class TestBudgetDefault:
    @pytest.mark.parametrize("argv", [["din", "g.txt"], ["extremal", "5"]])
    def test_is_the_solver_default(self, argv):
        assert _build_parser().parse_args(argv).budget_nodes == DEFAULT_BUDGET.max_nodes


def _fresh_process(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(dinrep.__file__).parents[1]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


class TestStartup:
    """A plain run generates no code at import and loads no worker pool."""

    def test_cli_import_loads_no_heavy_module(self):
        # -S keeps site hooks from loading modules before dinrep does
        probe = ("import sys, dinrep.cli; "
                 "print(sorted({'multiprocessing', 'dataclasses', 'inspect'} & set(sys.modules)))")
        result = _fresh_process("-S", "-c", probe)
        assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


class TestParserReuse:
    """main builds its parser once per process; no call leaves state behind."""

    def test_built_once_on_the_first_call(self):
        assert _build_parser() is _build_parser()
        probe = "import dinrep.cli as c; print(c._build_parser.cache_info().currsize)"
        assert _fresh_process("-c", probe).stdout == "0\n"

    def test_no_argument_carries_over(self, capsys, tmp_path):
        g, w = tmp_path / "p3.g", tmp_path / "w.json"
        g.write_text(to_edge_list(gen_family("directed_path", 3)))
        code, stdout, _ = run(capsys, "din", str(g), "--json", "-w", str(w))
        assert code == 0 and json.loads(stdout)["din"] == 4 and w.exists()
        w.unlink()
        assert run(capsys, "din", str(g)) == (0, "DIN = 4\n", "")
        assert not w.exists()

    def test_usage_error_then_a_good_call(self, capsys, tmp_path):
        g = tmp_path / "sap4.g"
        g.write_text(to_edge_list(gen_family("source_arc_path", 4)))
        with pytest.raises(SystemExit) as exc:
            main(["din"])
        assert exc.value.code == 2
        assert "the following arguments are required: graph" in capsys.readouterr().err
        fresh = _fresh_process("-m", "dinrep", "din", str(g))
        assert run(capsys, "din", str(g)) == (fresh.returncode, fresh.stdout, fresh.stderr)

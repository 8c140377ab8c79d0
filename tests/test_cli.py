"""Command-line behavior: outputs, exit codes, round trips, determinism."""

import json

import pytest

from dinrep import gen_family, to_edge_list
from dinrep.cli import main


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
        code, stdout, _ = run(capsys, "din", str(g), "--budget-nodes", "40")
        assert code == 4
        assert "UNKNOWN (budget), best upper bound 19" in stdout

    def test_budget_exhausted_json_best_upper(self, capsys, tmp_path):
        g = tmp_path / "sap8.g"
        g.write_text(to_edge_list(gen_family("source_arc_path", 8)))
        code, stdout, _ = run(capsys, "din", str(g), "--json", "--budget-nodes", "100")
        assert code == 4
        obj = json.loads(stdout)
        assert obj["status"] == "budget_exhausted" and obj["best_upper"] == 35
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

    def test_json_with_witness(self, capsys, tmp_path):
        g = tmp_path / "p3.g"
        w = tmp_path / "w.json"
        g.write_text(to_edge_list(gen_family("directed_path", 3)))
        code, stdout, _ = run(capsys, "din", str(g), "--json", "--witness", str(w))
        assert code == 0
        obj = json.loads(stdout)
        assert obj["status"] == "optimal" and obj["din"] == 4
        assert [level["k"] for level in obj["levels"]] == [1, 2, 3, 4]
        assert set(obj["levels"][0]) == {"k", "nodes", "size_functions", "seconds"}
        assert json.loads(w.read_text())["n"] == 3

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

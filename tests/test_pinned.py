"""Outputs pinned byte for byte: the constructions, the CLI listings and the
exact search over fixed corpora.

The digests below were taken from the code before the constructors, the
solver's witness decoding and the CLI dispatch were merged into one path
each.  Colour ids, set contents, printed values and exit codes must all stay
as they were.
"""

import hashlib
import json
import random
from pathlib import Path

from dinrep import (
    Digraph,
    augmented_representation,
    exact_din,
    gen_family,
    inductive_construction,
    pairing_construction,
    rep_to_json,
    source_arc_path_representation,
    to_edge_list,
)
from dinrep import solver
from dinrep.cli import main
from corpus import all_forward_digraphs, connected_dag_corpus, random_dag

CONSTRUCTIONS_SHA256 = "5f5baf647b076b288d0e79af2184c005c720f897303cd2046244f035530d1a54"
BOUND_LISTING_SHA256 = "9889e696d78a79b88c7bafa46e0e722543275c280934e549e87395b18a628796"
CONSTRUCT_CLI_SHA256 = "00a487f49e35d6a321f7f1283c6fdad4843b82882ccab10bbb23ac0829e1d45f"
# din --json and its witness file without the node counts, taken before size
# enumeration checked the neighbourhood bound on partial neighbourhoods; the
# node counts alone, taken again after it, since that lowers only them
DIN_CLI_SHA256 = "e339515cfacef90bf94c692e940abe6252cdb132f591452db538c772d9f93a87"
DIN_CLI_NODES_SHA256 = "9d91aa675bfed1ba59545882dd78ccf19ab33ec48dac64a03a45e7842a5d8e53"
# taken before the constructions read arcs from per-position out-neighbour sets
N400_CONSTRUCTIONS_SHA256 = "6becade28142f3c1ff997f3544fbc4b64fb42069afe1067f6326e50251e49d61"
# exact_din over the search corpora without the node counts, and the node
# counts alone, taken before the class search spent each clique's slack in
# place of a demand list of its own
SEARCH_SHA256 = "973207fd23cba93ca3d51b7816558f2626bdd311b71247b61f47d8f834b1360c"
SEARCH_NODES_SHA256 = "3a76c4c950fff72eba66d868dd5f392d019a47a1ff4592b61a3b970ccc9a73af"

FORMULAS = (None, "general", "lemma", "directed-path", "source-arc-path", "augmented", "p-intersection")


def _fixed_larger_graphs():
    graphs = [gen_family(f, n) for f in ("directed_path", "source_arc_path", "complete_dag") for n in (7, 8, 11)]
    graphs.append(gen_family("augmented_source_arc_path", 12))
    for n, seed in ((7, 1), (9, 2), (40, 3), (41, 4)):
        graphs.extend(connected_dag_corpus(n, 3, seed))
    return graphs


def test_constructions():
    digest = hashlib.sha256()
    graphs = [D for n in range(2, 6) for D in all_forward_digraphs(n)] + _fixed_larger_graphs()
    for D in graphs:
        for build in (pairing_construction, inductive_construction):
            digest.update(rep_to_json(build(D)).encode())
    for n in range(4, 15, 2):
        digest.update(rep_to_json(source_arc_path_representation(n)).encode())
    for n in range(8, 17, 2):
        digest.update(rep_to_json(augmented_representation(n)).encode())
    assert digest.hexdigest() == CONSTRUCTIONS_SHA256


def test_constructions_n400():
    # about 8,000 arcs and 100,000 colours, an even and an odd n (the odd one
    # goes through the dummy vertex)
    digest = hashlib.sha256()
    for n in (400, 401):
        D = random_dag(random.Random(n), n, 0.1)
        for build in (pairing_construction, inductive_construction):
            digest.update(rep_to_json(build(D)).encode())
    assert digest.hexdigest() == N400_CONSTRUCTIONS_SHA256


def _transcript(capsys, argvs, with_stderr):
    digest = hashlib.sha256()
    for argv in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        digest.update(f"{code}\n{captured.out}".encode())
        if with_stderr:
            digest.update(captured.err.encode())
    return digest.hexdigest()


def test_bound_listing(capsys):
    argvs = []
    for n in range(13):
        for formula in FORMULAS:
            argvs.append(["bound", str(n)] + ([] if formula is None else ["--formula", formula]))
        argvs.append(["bound", str(n), "--formula", "p-intersection", "--p", "3"])
    assert _transcript(capsys, argvs, with_stderr=True) == BOUND_LISTING_SHA256


def test_construct_output(capsys, tmp_path):
    # stdout and exit codes only: the closed-form mismatch message is the
    # one line on stderr
    graphs = [gen_family("star", 2), gen_family("directed_path", 3)] + _fixed_larger_graphs()
    graphs += [gen_family("source_arc_path", n) for n in (4, 5, 6)]
    argvs = []
    for i, D in enumerate(graphs):
        path = tmp_path / f"g{i}.txt"
        path.write_text(to_edge_list(D))
        for method in ("pairing", "inductive", "closed-form"):
            argvs.append(["construct", str(path), "--method", method])
    transcript = _transcript(capsys, argvs, with_stderr=False)
    assert transcript == CONSTRUCT_CLI_SHA256


def test_din_output(capsys, tmp_path):
    # the exit code, the --json line and the -w witness file; the timings
    # (elapsed and each level's seconds) are dropped, and the node counts
    # (nodes_explored and each level's nodes and size_nodes) go to a digest
    # of their own
    graphs = list(all_forward_digraphs(4)) + [gen_family("fig3_tree_large")]
    graphs += [gen_family("directed_path", 8), gen_family("source_arc_path", 8)]
    graphs += connected_dag_corpus(7, 3, 1)
    digest, nodes = hashlib.sha256(), hashlib.sha256()
    g, w = tmp_path / "g.txt", tmp_path / "w.json"
    for D in graphs:
        g.write_text(to_edge_list(D))
        w.unlink(missing_ok=True)
        code = main(["din", str(g), "--json", "-w", str(w)])
        obj = json.loads(capsys.readouterr().out)
        del obj["elapsed"]
        counts = [obj.pop("nodes_explored")]
        for level in obj["levels"]:
            del level["seconds"]
            counts += level.pop("nodes"), level.pop("size_nodes")
        witness = w.read_text() if w.exists() else ""
        digest.update(f"{code}\n{json.dumps(obj, sort_keys=True)}\n{witness}".encode())
        nodes.update(f"{counts}\n".encode())
    assert digest.hexdigest() == DIN_CLI_SHA256
    assert nodes.hexdigest() == DIN_CLI_NODES_SHA256


def _search_corpora():
    """1,000 random 7-vertex forward DAGs; every sink extension of the
    6-vertex forward DAGs with DIN 18; directed paths, source arc-paths and
    two 7-vertex masks that once took millions of nodes."""
    rng = random.Random(7)
    graphs = [solver._graph_for_mask(7, rng.getrandbits(21)) for _ in range(1000)]
    frozen = json.loads((Path(__file__).parent / "frozen_din_n6.json").read_text())
    for mask, din in enumerate(frozen["din"]):
        if int(din, 36) == 18:
            arcs = solver._graph_for_mask(6, mask).arcs
            for in_set in range(64):
                graphs.append(Digraph(7, arcs | {(q, 7) for q in range(1, 7) if (in_set >> (q - 1)) & 1}))
    graphs += [gen_family("directed_path", n) for n in (12, 16, 20, 24)]
    graphs += [gen_family("source_arc_path", n) for n in (10, 12, 14, 16)]
    graphs += [solver._graph_for_mask(7, mask) for mask in (428602, 553213)]
    return graphs


def test_search_corpora():
    # status, DIN, each level's palette size and size functions and the
    # witness in one digest; nodes_explored and each level's nodes and
    # size_nodes in the other
    digest, nodes = hashlib.sha256(), hashlib.sha256()
    for D in _search_corpora():
        result = exact_din(D)
        witness = rep_to_json(result.witness) if result.witness else ""
        levels = [(lv.k, lv.size_functions) for lv in result.levels]
        digest.update(f"{result.status} {result.din} {levels}\n{witness}\n".encode())
        counts = [(lv.nodes, lv.size_nodes) for lv in result.levels]
        nodes.update(f"{result.nodes_explored} {counts}\n".encode())
    assert digest.hexdigest() == SEARCH_SHA256
    assert nodes.hexdigest() == SEARCH_NODES_SHA256

"""The benchmark calls dinrep by name; keep those names.

``perfbench/layers.py`` replaces each ``(module, attribute)`` in its
``WRAPPED`` table with a recording wrapper, and the workloads and the level
replay reach the API through a handle ``dr`` (``dr.pkg`` is the package,
``dr.<module>`` a submodule), so a rename or deletion here would make
``perfbench/run.py`` fail with ``AttributeError``.  The harness files are
only read, never changed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import dinrep

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = PERFBENCH / "layers.py"


def test_wrapped_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        f"dinrep.{module}.{attr}"
        for module, attrs in layers.WRAPPED.items()
        for attr in attrs
        if not callable(getattr(importlib.import_module(f"dinrep.{module}"), attr, None))
    ]
    assert layers.WRAPPED and missing == []


def _handle_module(node):
    """``x`` for an expression ``dr.x``, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "dr":
        return node.attr
    return None


def _harness_uses():
    """Every (module, name) the harness reads as ``dr.<module>.<name>``, or
    as ``<alias>.<name>`` after ``<alias> = dr.<module>`` in one function."""
    uses = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            aliases = {}
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        pairs = [(target, node.value)]
                        if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                            pairs = zip(target.elts, node.value.elts)
                        for name, value in pairs:
                            module = _handle_module(value)
                            if isinstance(name, ast.Name) and module is not None:
                                aliases[name.id] = module
            for node in ast.walk(func):
                if not isinstance(node, ast.Attribute) or node.attr.startswith("__"):
                    continue
                module = _handle_module(node.value)
                if module is None and isinstance(node.value, ast.Name):
                    module = aliases.get(node.value.id)
                if module is not None:
                    uses.add((module, node.attr))
    return uses


def test_harness_names_resolve():
    uses = _harness_uses()
    # the scan itself must see a direct use, a submodule use and an alias use
    assert {("pkg", "feasible_with_palette"), ("solver", "exact_din"), ("bounds", "augmented_din")} <= uses
    missing = []
    for module, name in sorted(uses):
        target = importlib.import_module("dinrep" if module == "pkg" else f"dinrep.{module}")
        if not hasattr(target, name):
            missing.append(f"dr.{module}.{name}")
    assert missing == []


def test_level_replay_result_fields():
    # perfbench/layers.level_profile reads these two fields per level
    D = dinrep.gen_family("directed_path", 4)
    result = dinrep.feasible_with_palette(D, 6, dinrep.SolveBudget(max_nodes=10_000))
    assert result.feasible is True
    assert isinstance(result.nodes_explored, int) and result.nodes_explored > 0

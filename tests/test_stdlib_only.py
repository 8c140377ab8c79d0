"""dinrep itself depends on nothing outside the standard library, its
source parses as the oldest Python that ``pyproject.toml`` claims, and no
module of it imports ``dataclasses``.

Test-only dependencies (hypothesis, scipy) must never leak into ``src/``.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dinrep"


def test_every_absolute_import_is_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}" for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_every_module_parses_as_python_3_10():
    # requires-python = ">=3.10"; feature_version refuses later grammar
    # such as except*
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_no_module_imports_dataclasses():
    # @dataclass writes and compiles methods when its module is imported;
    # value classes here are NamedTuples or subclass digraph._Frozen
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [path.name for alias in node.names if alias.name == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                found.append(path.name)
    assert found == []

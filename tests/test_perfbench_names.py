"""The traced benchmark wraps dinrep functions by name; keep those names.

``perfbench/layers.py`` replaces each ``(module, attribute)`` in its
``WRAPPED`` table with a recording wrapper, so a rename or deletion here
would make ``perfbench/run.py --trace 1`` fail with ``AttributeError``.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


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

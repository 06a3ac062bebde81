"""The benchmark's tracer wraps names where shiftcert's modules bind them.

``perfbench/spans.py`` lists, per calling module, the public names it
replaces during a traced run. A refactor that drops one of those imports
would make ``--trace 1`` fail at start-up, so every listed name must still
resolve in its caller, to the object its defining module exports.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_binding_resolves_in_its_caller():
    bindings = _load_spans().BINDINGS
    assert bindings
    for caller, names in bindings.items():
        module = importlib.import_module(f"shiftcert.{caller}")
        for qualified in names:
            defining, attr = qualified.split(".", 1)
            assert hasattr(module, attr), f"shiftcert.{caller} no longer binds {attr}"
            source = importlib.import_module(f"shiftcert.{defining}")
            assert getattr(module, attr) is getattr(source, attr), qualified

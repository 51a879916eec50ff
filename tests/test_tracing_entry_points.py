"""The benchmark's tracer wraps library functions by name: each name it lists
must exist, or a traced run fails where an untraced one passes."""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _tracing():
    # executed from its source, so no bytecode is written beside it
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_entry_point_resolves():
    entry_points = _tracing().ENTRY_POINTS
    assert entry_points
    missing = []
    for _, module, path in entry_points:
        obj = importlib.import_module("poissonenv." + module)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{module}.{path}")
    assert not missing, f"traced names missing from the package: {missing}"

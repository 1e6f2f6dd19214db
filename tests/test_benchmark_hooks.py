"""The benchmark's tracer wraps qmeter functions by module and name, and
reports a name it cannot find as a missing layer instead of failing.  So a
rename or deletion in qmeter would silently drop a layer from the benchmark
trace; this test fails instead."""
import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _hooks() -> list:
    """(layer, module, attribute) of ENTRY_POINTS and POOL_ENTRY, read from
    the tracer's source without importing it."""
    found = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in ("ENTRY_POINTS", "POOL_ENTRY"):
                    found[target.id] = ast.literal_eval(node.value)
    return [*found["ENTRY_POINTS"], found["POOL_ENTRY"]]


@pytest.mark.parametrize("layer,module,attr", _hooks(),
                         ids=lambda x: x if isinstance(x, str) else None)
def test_every_traced_entry_point_exists(layer, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), (layer, module, attr)

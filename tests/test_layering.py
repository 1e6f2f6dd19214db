"""The library core reads no oracle, battery or CLI module.

tensors, haar, comparison and simulate are the modules a campaign runs.
symmetry holds closed forms that only the verify battery reads, verify is
that battery, and cli is the front end over all of them.  An import of one
of these from the core would put oracle code back under the campaigns, so
this test reads the import statements of each core module with ast."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qmeter"
CORE = ("tensors", "haar", "comparison", "simulate")
OFF_CORE = {"symmetry", "verify", "cli"}


def _imported_modules(module: str) -> set:
    """The qmeter modules that `module` imports anywhere in its source, by a
    relative or an absolute import."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            paths = [["qmeter", *node.module.split(".")] if node.module
                     else ["qmeter", alias.name] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            parts = node.module.split(".")
            paths = [parts if len(parts) > 1 else [*parts, alias.name] for alias in node.names]
        else:
            continue
        found.update(path[1] for path in paths if path[0] == "qmeter" and len(path) > 1)
    return found


@pytest.mark.parametrize("module", CORE)
def test_the_core_imports_no_oracle_battery_or_cli_module(module):
    imported = _imported_modules(module)
    assert "errors" in imported  # the parse found the package imports
    assert not imported & OFF_CORE, (module, sorted(imported & OFF_CORE))

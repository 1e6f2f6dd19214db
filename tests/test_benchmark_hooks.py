"""Guards for the names that code outside the package reads.

The benchmark's tracer wraps qmeter functions by module and name, and
reports a name it cannot find as a missing layer instead of failing; the
benchmark's workloads call the public API by name, and a name or a keyword
parameter that is gone turns a benchmark run into a failed run.  So a rename
or deletion in qmeter would silently drop a layer or a run from the
benchmark; these tests fail instead.  The last test pins the public surface,
qmeter.__all__."""
import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import qmeter

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
#: the benchmark files that call qmeter
CALLERS = (PERFBENCH / "workloads.py", PERFBENCH / "worker.py")
#: public names taken out of qmeter.__all__, each with no export left behind
REMOVED = ("LabeledAverages", "labeled_outcome_probabilities", "labeled_outcome_distribution",
           "unlabeled_outcome_distribution", "labeled_fixed_pair_success",
           "fixed_pair_class_probability", "unlabeled_single_use_probability",
           "observable_pair_angle", "optimal_success_over_subspace", "zero", "vkron",
           "SPLITS", "split_pairs", "sym_dim", "phi_plus", "UnambiguityError",
           "singlet_pairing_state", "run_labeled_trial", "run_unlabeled_trial",
           "perm_operator", "swap", "symmetrizer", "pair_product", "phi_minus")


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


def _dotted(node: ast.AST) -> str:
    """"qmeter.cli.main" for the attribute chain qmeter.cli.main, else ""."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join(["qmeter", *reversed(parts)]) if (
        isinstance(node, ast.Name) and node.id == "qmeter" and parts) else ""


def _qmeter_reads(path: Path) -> set:
    """Every qmeter.<name> path that a benchmark file reads, from attribute
    chains and from string annotations such as "qmeter.Scenario"."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            found.add(_dotted(node))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(re.findall(r"^qmeter(?:\.\w+)+$", node.value))
    return found - {""}


def _resolve(path: str):
    """The object at a dotted qmeter path, importing submodules on the way."""
    obj = qmeter
    prefix = "qmeter"
    for part in path.split(".")[1:]:
        prefix += "." + part
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(prefix)
    return obj


@pytest.mark.parametrize("path", CALLERS, ids=lambda p: p.name)
def test_every_name_the_benchmark_reads_resolves(path):
    reads = _qmeter_reads(path)
    assert reads, path  # the parse found the calls
    missing = []
    for dotted in sorted(reads):
        try:
            _resolve(dotted)
        except (AttributeError, ImportError):
            missing.append(dotted)
    assert not missing, (path.name, missing)


def _qmeter_calls(path: Path) -> list:
    """(dotted qmeter path, positional count, keyword names) of every call in
    a benchmark file to a qmeter.<name> callable; the count is None where a
    *args makes it unknown, and a **kwargs adds no name."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and _dotted(node.func):
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            calls.append((_dotted(node.func), None if starred else len(node.args),
                          [kw.arg for kw in node.keywords if kw.arg is not None]))
    return calls


def test_every_call_the_benchmark_makes_binds():
    calls = [call for path in CALLERS for call in _qmeter_calls(path)]
    assert any(keywords for _, _, keywords in calls)  # the parse found keywords
    unbound = []
    for dotted, nargs, keywords in calls:
        try:
            inspect.signature(_resolve(dotted)).bind_partial(
                *[None] * (nargs or 0), **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append((dotted, str(exc)))
    assert not unbound


def test_the_public_surface_is_pinned():
    assert len(qmeter.__all__) == len(set(qmeter.__all__)) == 58
    assert [name for name in qmeter.__all__ if not hasattr(qmeter, name)] == []
    assert [name for name in REMOVED if hasattr(qmeter, name)] == []
    assert "outcome_table" in qmeter.__all__ and "class_probabilities" in qmeter.__all__

"""Guards for the names that code outside the package reads.

The benchmark's tracer wraps qmeter functions by module and name, and
reports a name it cannot find as a missing layer instead of failing; the
benchmark's workloads call the public API by name, and a name or a keyword
parameter that is gone turns a benchmark run into a failed run.  So a rename
or deletion in qmeter would silently drop a layer or a run from the
benchmark; these tests fail instead.  The next two tests pin the public
surface, qmeter.__all__, and the fields of its result types; the last one
pins what a fresh process loads and the lazy pool name the tracer wraps."""
import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from dataclasses import fields
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
           "perm_operator", "swap", "symmetrizer", "pair_product", "phi_minus",
           "haar_unitary")


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
    assert len(qmeter.__all__) == len(set(qmeter.__all__)) == 57
    assert [name for name in qmeter.__all__ if not hasattr(qmeter, name)] == []
    assert [name for name in REMOVED if hasattr(qmeter, name)] == []
    assert "outcome_table" in qmeter.__all__ and "class_probabilities" in qmeter.__all__


def test_each_result_fact_has_one_spelling():
    # a class is the key of its operators, a truth the key of its counts
    assert [f.name for f in fields(qmeter.SuccessReport)] == ["per_class", "total"]
    assert [f.name for f in fields(qmeter.ClassOperators)] == [
        "equal", "different", "support_equal", "no_error"]
    assert [f.name for f in fields(qmeter.TruthResult)] == [
        "trials", "class_counts", "different_verdicts"]
    assert not hasattr(qmeter.TestState, "from_matrix")
    # a state's dimension and slots are its matrix's, one overlap has one
    # expression, and the z axis is the meridian's pole
    assert not any(hasattr(qmeter.TestState, name) for name in ("d", "n"))
    assert not hasattr(qmeter.comparison, "_class_probability")
    assert not hasattr(qmeter.simulate, "_Z_TERMS")
    assert "out" not in inspect.signature(qmeter.haar.haar_vectors).parameters


#: a fresh interpreter that imports qmeter and its CLI, runs the analytic
#: checks and one analytic rate, then reads the pool class off simulate, and
#: last runs a campaign that times its first shard to price a pool
_LAZY_CHILD = """
import sys, time, types
import qmeter, qmeter.cli
from qmeter import simulate
qmeter.run_checks()
qmeter.analytic_success(qmeter.Scenario("unlabeled", 2))
print(sorted(m for m in ("concurrent.futures.process", "multiprocessing", "numpy.random")
             if m in sys.modules))
import concurrent.futures
print(getattr(simulate, "ProcessPoolExecutor") is concurrent.futures.ProcessPoolExecutor,
      "ProcessPoolExecutor" in vars(simulate))
loaded = []
def perf_counter():
    loaded.append("numpy.random" in sys.modules)
    return time.perf_counter()
simulate.time = types.SimpleNamespace(perf_counter=perf_counter)
simulate._usable_cpus = lambda: 2
simulate._POOL_START_S = float("inf")
simulate.run_campaign(simulate.CampaignConfig(qmeter.Scenario("labeled", 2),
                                              2 * simulate.SHARD_SIZE + 1, seed=1,
                                              ground_truth="different", workers=2))
print(loaded)
"""


def test_a_fresh_process_loads_the_pool_and_numpy_random_only_when_it_uses_them():
    # The pool class is bound in simulate's module dict on first access, where
    # the tracer finds it by identity and tests replace it; a lazy name that
    # never landed there would drop the simulate.pool layer from every trace.
    # numpy.random loads at the first seeded call, and a campaign loads it
    # before it times the first shard, whose time prices the pool.
    src = str(Path(qmeter.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    run = subprocess.run([sys.executable, "-c", _LAZY_CHILD], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": path,
                                           "OPENBLAS_NUM_THREADS": "1"})
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]", "True True", "[True, True]"], run.stdout

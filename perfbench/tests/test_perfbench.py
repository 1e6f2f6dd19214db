"""Self-tests of the benchmark: repeatable traces, a planted fault, the
missing-layer path and the output contract.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import qmeter  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def _run(tmp_root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tmp_root,
                          capture_output=True, text=True, timeout=180)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_and_cover_campaign_time():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = [_result(_run(ROOT, "--workload", "campaigns", "--seed", str(seed),
                         "--seconds", "1", "--trace", "1")) for seed in (3, 4)]
    for res in runs:
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for name in ("haar.matrices", "simulate.born.calls", "simulate.shard.calls",
                 "haar.calls", "simulate.sample.calls"):
        values = {res["metrics"][name]["value"] for res in runs}
        assert len(values) == 1 and values.pop() > 0, name
    shares = sum(v["value"] for k, v in runs[0]["metrics"].items() if k.endswith(".self_frac"))
    assert shares == pytest.approx(1.0, abs=1e-9)
    doc = json.loads((ROOT / ".perfbench" / "trace-campaigns-3.json").read_text())
    summary = doc["summary"]
    assert summary["campaign_wall_s"] > 0
    assert summary["campaign_layer_self_s"] == pytest.approx(summary["campaign_wall_s"], rel=0.05)


def _flip_one_equal_count(run_campaign):
    """Move one equal-truth trial into a conclusive class."""

    def faulty(config):
        result = run_campaign(config)
        eq = result.results["equal"]
        counts = dict(eq.class_counts)
        src = next(c for c in counts if c not in result.conclusive and counts[c] > 0)
        counts[src] -= 1
        counts[result.conclusive[0]] += 1
        bad = dataclasses.replace(eq, class_counts=counts,
                                  different_verdicts=eq.different_verdicts + 1)
        return dataclasses.replace(result, results={**result.results, "equal": bad})

    return faulty


def test_planted_fault_makes_failed_frac_positive(tmp_path, monkeypatch):
    wl.write_states(tmp_path, 7)
    setup = wl.set_up("campaigns", tmp_path)
    item = wl.items("campaigns")[0]

    clean = wl.Tally()
    item(setup, clean, 7, 0, tmp_path)
    assert (clean.attempted, clean.failed) == (1, 0)

    monkeypatch.setattr(qmeter, "run_campaign", _flip_one_equal_count(qmeter.run_campaign))
    faulty = wl.Tally()
    item(setup, faulty, 7, 0, tmp_path)
    assert faulty.failed / faulty.attempted > 0


def test_missing_entry_point_is_reported_not_fatal(tmp_path, monkeypatch):
    entries = tuple(e for e in tracer.ENTRY_POINTS if e[0] != "haar")
    monkeypatch.setattr(tracer, "ENTRY_POINTS",
                        entries + (("haar", "qmeter.haar", "no_such_sampler"),))
    tr = tracer.Tracer(tmp_path)
    original = qmeter.simulate.run_campaign
    with tr.active():
        assert qmeter.simulate.run_campaign is not original
        qmeter.analytic_success(qmeter.Scenario("labeled", 2))
    assert qmeter.simulate.run_campaign is original
    summary = tracer.summarize(tr, tr.collect_children())
    assert summary["missing_layers"] == ["haar"]
    assert summary["missing_entry_points"] == ["qmeter.haar.no_such_sampler"]
    assert summary["calls"]["comparison.analytic"] == 1


def test_operator_caches_clear_with_and_without_tracer(tmp_path):
    caches = (qmeter.labeled_class_operators, qmeter.unlabeled_operators)

    def filled_then_cleared():
        qmeter.conclusive_classes(qmeter.Scenario("labeled", 2),
                                  qmeter.optimal_test_state(qmeter.Scenario("labeled", 2)))
        qmeter.unlabeled_operators()
        assert all(fn.cache_info().currsize > 0 for fn in caches)
        wl.clear_operator_caches()
        return [fn.cache_info().currsize for fn in caches]

    assert filled_then_cleared() == [0, 0]
    with tracer.Tracer(tmp_path).active():
        assert filled_then_cleared() == [0, 0]


def test_output_matches_benchmark_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = _result(_run(ROOT, "--workload", "analytic", "--seed", "5", "--seconds", "1",
                       "--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "--workload", "campaigns", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_seconds_rescale_item_times():
    tally = wl.Tally()
    tally.ref_scale = 0.5  # the kernel ran twice as long as nominal
    tally.record("a", 10, 1.0)
    tally.record("a", 10, 3.0)
    assert tally.ref_seconds["a"] == pytest.approx([0.5, 1.5])
    assert tally.throughput() == pytest.approx(5.0)
    assert tally.throughput(normalized=True) == pytest.approx(10.0)
    assert set(wl.REFERENCE) == set(wl.WORKLOADS)
    assert all(kernel() > 0 for kernel, _ in wl.REFERENCE.values())

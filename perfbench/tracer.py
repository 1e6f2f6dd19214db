"""Span tracer that wraps qmeter's layer entry points from the outside.

Every entry point is wrapped at each name a caller looks up at call time:
the tracer finds the defining function (or class) and replaces every
attribute of every loaded ``qmeter`` module that is bound to that same
object.  ``simulate`` and ``comparison`` import helpers by name, so wrapping
only the defining module would miss their calls.

Spans (name, start, end, parent, campaign id) and counts stay in memory and
are written out once at the end.  Pool workers are forked from the traced
process and inherit the wrappers; each worker appends its own spans to a
``spans-<pid>.jsonl`` file in the run directory after every shard, and the
parent reads those files back with :meth:`Tracer.collect_children`.

An entry point that no longer exists is reported as a missing layer; the
run goes on without it.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: (layer, defining module, attribute) for every wrapped entry point
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("haar", "qmeter.haar", "haar_unitaries"),
    ("simulate.born", "qmeter.simulate", "_labeled_probs_generic"),
    ("simulate.born", "qmeter.simulate", "_labeled_probs_antisym"),
    ("simulate.born", "qmeter.simulate", "_unlabeled_probs"),
    ("simulate.sample", "qmeter.simulate", "_sample_rows"),
    ("simulate.shard", "qmeter.simulate", "_shard_counts"),
    ("simulate.campaign", "qmeter.simulate", "run_campaign"),
    ("simulate.sweep", "qmeter.simulate", "sweep_theta"),
    ("cli", "qmeter.cli", "main"),
    ("comparison.operators", "qmeter.comparison", "labeled_class_operators"),
    ("comparison.operators", "qmeter.comparison", "unlabeled_operators"),
    ("comparison.analytic", "qmeter.comparison", "analytic_success"),
    ("tensors.support_projector", "qmeter.tensors", "support_projector"),
    ("symmetry.symmetrizer", "qmeter.symmetry", "symmetrizer"),
    ("verify.run_checks", "qmeter.verify", "run_checks"),
)
#: the process pool is a class, wrapped by a subclass that spans its lifetime
POOL_ENTRY = ("simulate.pool", "qmeter.simulate", "ProcessPoolExecutor")

#: layers reported in the per-layer metrics, in report order
LAYERS: Tuple[str, ...] = (
    "haar", "simulate.born", "simulate.sample", "simulate.shard",
    "simulate.campaign", "simulate.pool", "simulate.sweep", "cli",
    "comparison.operators", "comparison.analytic", "tensors.support_projector",
    "symmetry.symmetrizer", "verify.run_checks",
)
ROOT = "bench"
CAMPAIGN = "simulate.campaign"
POOL = "simulate.pool"


class Tracer:
    """In-memory span recorder for one workload process and its pool workers."""

    def __init__(self, run_dir: Path):
        self.run_dir = Path(run_dir)
        self.pid = os.getpid()
        self.root_pid = self.pid
        # span: [name, start, end, parent index, campaign id, pid]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.matrices = 0  # Haar matrices drawn (in this process)
        self.pool_workers: Dict[int, int] = {}  # pool span index -> workers
        self.missing: List[Tuple[str, str]] = []  # (layer, "module.attr")
        self._sites: Optional[List[Tuple[object, str, object, object]]] = None
        self._next_cid = 0
        self._cid: Optional[int] = None
        self._flushed = 0  # spans a pool worker has written out so far

    # ------------------------------------------------------------ spans
    def open(self, name: str) -> int:
        if name == CAMPAIGN:
            self._cid = self._next_cid
            self._next_cid += 1
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._cid, self.pid])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")
        if self.spans[idx][0] == CAMPAIGN:
            self._cid = None

    def _enter_child(self) -> None:
        """First traced call in a forked pool worker: drop inherited state."""
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.matrices = 0
        self._flushed = 0

    def _flush_child(self) -> None:
        """Append the spans of the shard that just ended to this worker's file."""
        batch = self.spans[self._flushed:]
        # the shard's Haar matrix count rides on its first (root) span
        counts = [self.matrices] + [0] * (len(batch) - 1)
        with open(self.run_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            for span, m in zip(batch, counts):
                fh.write(json.dumps(span + [m]) + "\n")
        self._flushed = len(self.spans)
        self.matrices = 0

    # ---------------------------------------------------------- wrapping
    def _wrap_function(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._enter_child()
            idx = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
                if layer == "haar":
                    tracer.matrices += len(result)
                return result
            finally:
                tracer.close(idx)
                if tracer.pid != tracer.root_pid and not tracer.stack:
                    tracer._flush_child()

        return wrapper

    def _wrap_pool(self, cls):
        tracer = self

        class TracedPool(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._perfbench_span = tracer.open(POOL)
                tracer.pool_workers[self._perfbench_span] = self._max_workers

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    idx = getattr(self, "_perfbench_span", None)
                    if idx is not None:
                        self._perfbench_span = None
                        tracer.close(idx)

        TracedPool.__name__ = TracedPool.__qualname__ = cls.__name__
        return TracedPool

    @contextlib.contextmanager
    def active(self):
        """Trace the body of the with-block under one root span."""
        self.install()
        root = self.open(ROOT)
        try:
            yield
        finally:
            self.close(root)
            self.uninstall()

    def _binding_sites(self) -> List[Tuple[object, str, object, object]]:
        """(module, name, original, wrapper) for every qmeter name bound to
        an entry point.  Found on first use and reused, so installing the
        wrappers again costs only the attribute writes."""
        if self._sites is None:
            self._sites = []
            modules = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == "qmeter" or n.startswith("qmeter."))]
            entries = [(layer, mod, attr, False) for layer, mod, attr in ENTRY_POINTS]
            entries.append((*POOL_ENTRY, True))
            for layer, modname, attr, is_pool in entries:
                original = getattr(sys.modules.get(modname), attr, None)
                if original is None:
                    self.missing.append((layer, f"{modname}.{attr}"))
                    continue
                wrapper = (self._wrap_pool(original) if is_pool
                           else self._wrap_function(layer, original))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._sites.append((mod, key, original, wrapper))
        return self._sites

    def install(self) -> None:
        """Wrap every entry point at every qmeter name bound to it."""
        for mod, key, _, wrapper in self._binding_sites():
            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original, _ in self._binding_sites():
            setattr(mod, key, original)

    # ---------------------------------------------------------- results
    def collect_children(self) -> List[list]:
        """Spans written by pool workers, as [.., pid, matrices] rows."""
        rows = []
        for path in sorted(self.run_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                rows.extend(json.loads(line) for line in fh if line.strip())
        return rows


def _self_times(spans: List[list]) -> List[float]:
    """Duration of each span minus the time covered by its direct children.

    ``spans`` come from one process, where calls nest strictly.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def summarize(tracer: Tracer, child_rows: List[list]) -> dict:
    """Per-layer calls, self seconds and shares from parent and child spans.

    Shares divide by the summed root-span time of every process (the
    benchmark's root span in the workload process, each shard in a pool
    worker), so that all shares, ``bench`` included, add up to 1.
    """
    per_pid: Dict[int, List[list]] = {}
    matrices = tracer.matrices
    for row in child_rows:
        span, m = row[:6], row[6]
        per_pid.setdefault(span[5], []).append(span)
        matrices += m
    calls = {layer: 0 for layer in LAYERS + (ROOT,)}
    self_s = {layer: 0.0 for layer in LAYERS + (ROOT,)}
    campaign_self = 0.0
    campaign_wall = 0.0
    root_total = 0.0
    child_busy = 0.0
    child_tasks = 0
    processes = [tracer.spans] + list(per_pid.values())
    for k, spans in enumerate(processes):
        selfs = _self_times(spans)
        for s, own in zip(spans, selfs):
            calls[s[0]] += 1
            self_s[s[0]] += own
            if s[3] is None:
                root_total += s[2] - s[1]
                if k:
                    child_busy += s[2] - s[1]
                    child_tasks += 1
            if s[4] is not None and k == 0:
                campaign_self += own
            if s[0] == CAMPAIGN and k == 0:
                campaign_wall += s[2] - s[1]
    pool_capacity = sum(
        tracer.pool_workers[i] * (tracer.spans[i][2] - tracer.spans[i][1])
        for i in tracer.pool_workers
    )
    return {
        "calls": calls,
        "self_s": self_s,
        "self_frac": {k: (v / root_total if root_total else 0.0) for k, v in self_s.items()},
        "haar_matrices": matrices,
        "pool_busy_s": child_busy,
        "pool_idle_frac": (1.0 - child_busy / pool_capacity) if pool_capacity else 0.0,
        "pool_tasks": child_tasks,
        "root_total_s": root_total,
        "campaign_wall_s": campaign_wall,
        "campaign_layer_self_s": campaign_self,
        "missing_entry_points": [name for _, name in tracer.missing],
        "missing_layers": missing_layers(tracer.missing),
        "spans": len(tracer.spans) + len(child_rows),
    }


def missing_layers(missing: List[Tuple[str, str]]) -> List[str]:
    """Layers none of whose entry points could be wrapped."""
    gone = {name for _, name in missing}
    return [layer for layer in LAYERS
            if all(f"{mod}.{attr}" in gone
                   for owner, mod, attr in ENTRY_POINTS + (POOL_ENTRY,) if owner == layer)]


def dump(path: Path, tracer: Tracer, child_rows: List[list], extra: dict) -> None:
    """Write the summary, the environment and every span as one JSON file."""
    spans = [
        {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "campaign": s[4], "pid": s[5]}
        for s in tracer.spans + [row[:6] for row in child_rows]
    ]
    doc = dict(extra)
    doc["spans"] = spans
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")

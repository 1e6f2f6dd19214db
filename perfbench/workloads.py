"""The two benchmark workloads, their inputs and their correctness gate.

Everything here runs inside the workload process and calls qmeter only
through its public API (``qmeter.*`` and ``qmeter.cli.main``).  Trial counts
are literal numbers: each is a whole number of 65,536-trial shards with at
least two shards per ground-truth stream, so a change of the program's shard
size does not change the work measured.  Campaign seeds are derived from the
benchmark seed, never from the clock.
"""
from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import qmeter
import qmeter.cli

#: test-state files the benchmark writes into its run directory
ANTISYM_FILE = "antisym_d3.npy"
KAPPA_MIX_FILE = "kappa_mix.npy"

#: (label, scenario kind, dim, test-state spec or file, trials per truth)
LABELED = (
    ("labeled_d2", "labeled", 2, "optimal", 131_072),
    ("labeled_d3", "labeled", 3, "optimal", 131_072),
    ("labeled_d4", "labeled", 4, "optimal", 131_072),
    ("labeled_d5", "labeled", 5, "optimal", 131_072),
    ("labeled_d3_custom", "labeled", 3, ANTISYM_FILE, 131_072),
)
UNLABELED = (
    ("unlabeled_optimal", "unlabeled", 2, "optimal", 131_072),
    ("unlabeled_kappa2", "unlabeled", 2, "kappa:2", 131_072),
    ("unlabeled_kappa_mix", "unlabeled", 2, KAPPA_MIX_FILE, 131_072),
)
#: the CLI pair of the campaigns workload: the same unlabeled campaign
#: through ``qmeter.cli.main`` once per worker count
PARALLEL = ("parallel_optimal", "unlabeled", 2, "optimal", 131_072)
PARALLEL_WORKERS = (1, 2)
#: exact conclusive rates: 1/d labeled, 4/9 optimal unlabeled, 1/9 kappa span
EXPECTED_RATE = {
    "labeled_d2": 1 / 2, "labeled_d3": 1 / 3, "labeled_d4": 1 / 4,
    "labeled_d5": 1 / 5, "labeled_d3_custom": 1 / 3,
    "unlabeled_optimal": 4 / 9, "unlabeled_kappa2": 1 / 9,
    "unlabeled_kappa_mix": 1 / 9,
}
SWEEP_POINTS = 33
SWEEP_TRIALS = 65_536
#: rounds of a traced run (fixed, so its counts repeat exactly)
TRACED_ROUNDS = {"campaigns": 1, "analytic": 40}

RATE_TOL = 1e-10
#: a campaign class count may miss its exact law by this many standard errors
SE_LIMIT = 5.0
#: the same for a sweep point; wider because a run checks 33 points in each
#: of hundreds of passes, and 5 SE would then fail a correct run about once
#: in a hundred (7 SE: under once in ten million runs)
SWEEP_SE_LIMIT = 7.0
WORKLOADS = ("campaigns", "analytic")


def plan(workload: str) -> Tuple[tuple, ...]:
    """Campaign entries whose test states the workload resolves at set-up."""
    if workload == "campaigns":
        return LABELED + UNLABELED + (PARALLEL,)
    if workload == "analytic":
        return LABELED + UNLABELED
    raise ValueError(f"unknown workload {workload!r}")


def derived_seed(seed: int, *path: int) -> int:
    """A campaign seed that depends only on the benchmark seed and `path`."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


# ------------------------------------------------------------------ inputs

def write_states(run_dir: Path, seed: int) -> None:
    """Write the two .npy test states, built from the public API.

    - a pure antisymmetric vector at d = 3 (a seeded Gaussian vector
      projected by ``antisymmetrizer`` and normalized), which takes the
      generic Born path in both ground-truth streams;
    - a rank-3 mixture of the ``basis_family("kappa")`` vectors with seeded
      weights, each at least 1/5, which takes three Born passes per chunk.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA5]))
    anti = qmeter.antisymmetrizer((1, 2), 2, 3).mat
    g = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    v = anti @ g
    np.save(run_dir / ANTISYM_FILE, v / np.linalg.norm(v))

    weights = rng.uniform(1.0, 2.0, size=3)
    weights /= weights.sum()
    fam = qmeter.basis_family("kappa")
    rho = sum(w * vec.projector().mat for w, vec in zip(weights, fam))
    np.save(run_dir / KAPPA_MIX_FILE, rho)


@dataclass
class Setup:
    """Test states resolved and conclusive classes known: trials can start."""

    scenarios: Dict[str, "qmeter.Scenario"] = field(default_factory=dict)
    states: Dict[str, "qmeter.TestState"] = field(default_factory=dict)
    specs: Dict[str, str] = field(default_factory=dict)


def set_up(workload: str, run_dir: Path) -> Setup:
    out = Setup()
    for label, kind, dim, spec, _ in plan(workload):
        scen = qmeter.Scenario(kind, dim)
        full = str(run_dir / spec) if spec.endswith(".npy") else spec
        state = qmeter.resolve_test_state(full, scen)
        qmeter.conclusive_classes(scen, state)
        out.scenarios[label] = scen
        out.states[label] = state
        out.specs[label] = full
    return out


def clear_operator_caches() -> None:
    """Empty the operator caches, also from behind the tracer's wrappers."""
    for fn in (qmeter.labeled_class_operators, qmeter.unlabeled_operators):
        while fn is not None and not hasattr(fn, "cache_clear"):
            fn = getattr(fn, "__wrapped__", None)
        if fn is not None:
            fn.cache_clear()


# ------------------------------------------------------ reference kernels
#
# Each workload has a fixed kernel that shares no code with qmeter and does
# in small what the workload does.  Timed right before each item, it slows
# with the host as the item does, so item time over kernel time stays put
# while the host's speed wanders.  No call in either kernel is large enough
# for BLAS to use threads, so the program's thread settings do not change
# its time.


@functools.lru_cache(maxsize=None)
def _campaign_reference_inputs() -> tuple:
    rng = np.random.default_rng(0)
    mats = rng.standard_normal((2, 9216, 4, 4)) + 1j * rng.standard_normal((2, 9216, 4, 4))
    cdf = np.cumsum(rng.random(64))
    return mats[0, :1024], mats[1], cdf / cdf[-1], rng.random(100_000)


def campaign_reference() -> float:
    """Interpreted Python, batched 4x4 QR (LAPACK), batched 4x4 products
    and inverse-CDF sampling with a bincount; returns its wall time."""
    qr_in, prod_in, cdf, u = _campaign_reference_inputs()
    t0 = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i
    np.linalg.qr(qr_in)
    for _ in range(3):
        np.einsum("bij,bjk->bik", prod_in, prod_in)
    np.bincount(np.searchsorted(cdf, u), minlength=cdf.size + 1)
    return time.perf_counter() - t0


def analytic_reference() -> float:
    """Many small numpy calls, as the operator layer makes them (Kronecker
    products, reshapes and transposes of 2x2 and 4x4 arrays); returns its
    wall time."""
    a = np.eye(2, dtype=complex) + 0.5j
    t0 = time.perf_counter()
    for _ in range(600):
        m = np.kron(a, a).reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        np.expand_dims(m, 0).sum()
    return time.perf_counter() - t0


#: each workload's reference kernel and its typical wall time on the machine
#: the benchmark was tuned on (2-vCPU Xeon virtual machine, numpy 2.4 with
#: OpenBLAS); reference seconds are scaled to that time
REFERENCE = {
    "campaigns": (campaign_reference, 0.035),
    "analytic": (analytic_reference, 0.025),
}


# --------------------------------------------------------- correctness gate

def _class_operators(scen) -> dict:
    if scen.kind == "labeled":
        return qmeter.labeled_class_operators(scen.dim)
    return qmeter.unlabeled_operators(scen.dim)


def _count_ok(count: int, n: int, p: float, limit: float = SE_LIMIT) -> bool:
    p = min(max(p, 0.0), 1.0)
    se = math.sqrt(n * p * (1.0 - p))
    return abs(count - n * p) <= limit * se + 1e-6


def check_campaign(doc: dict, scen, state) -> List[str]:
    """Problems with one campaign's result document (empty when correct).

    The equal-truth block must hold no "different" verdict, and every class
    count under both hypotheses must lie within 5 SE of its exact law
    tr(rho O_c), with O_c from the public class operators.
    """
    problems = []
    ops = _class_operators(scen)
    rho = state.rho.mat
    results = doc["results"]
    for truth in ("different", "equal"):
        block = results.get(truth)
        if block is None:
            problems.append(f"no {truth} block")
            continue
        n = block["trials"]
        counts = block["class_counts"]
        if sum(counts.values()) != n:
            problems.append(f"{truth}: counts sum to {sum(counts.values())}, not {n}")
        for name, cls in ops.items():
            op = cls.equal if truth == "equal" else cls.different
            p = float(np.trace(rho @ op.mat).real)
            if not _count_ok(counts.get(name, 0), n, p):
                problems.append(f"{truth}/{name}: count {counts.get(name, 0)} vs law {n * p:.1f}")
    if results.get("equal", {}).get("different_verdicts", 0) != 0:
        problems.append(f"equal truth gave {results['equal']['different_verdicts']} "
                        "'different' verdicts")
    return problems


def _report(label: str, problems: List[str]) -> None:
    for msg in problems:
        print(f"check failed [{label}]: {msg}", file=sys.stderr)


# ------------------------------------------------------------------ runners

@dataclass
class Tally:
    """Attempts, failures and the wall time of each kind of work item.

    Before an item runs, the caller may set ``ref_scale`` to the nominal
    over the measured time of a fresh reference-kernel run; the item's time
    is then also kept in reference seconds, ``dt * ref_scale``.
    """

    attempted: int = 0
    failed: int = 0
    seconds: Dict[str, List[float]] = field(default_factory=dict)
    ref_seconds: Dict[str, List[float]] = field(default_factory=dict)
    work: Dict[str, int] = field(default_factory=dict)  # units per item
    ref_scale: float = 0.0

    def record(self, key: str, units: int, dt: float) -> None:
        self.seconds.setdefault(key, []).append(dt)
        if self.ref_scale > 0:
            self.ref_seconds.setdefault(key, []).append(dt * self.ref_scale)
        self.work[key] = units

    def throughput(self, normalized: bool = False) -> float:
        """Units per second of one item of every kind, at each kind's median
        time (in reference seconds when `normalized`); 0 when no item
        succeeded."""
        times = self.ref_seconds if normalized else self.seconds
        if not times:
            return 0.0
        return sum(self.work[k] for k in times) / sum(statistics.median(v) for v in times.values())


def _campaign(index: int, entry: tuple):
    """The work item that runs one labeled or unlabeled campaign entry."""
    label, _kind, _dim, _spec, trials = entry

    def run(setup: Setup, tally: Tally, seed: int, rnd: int, run_dir: Path) -> None:
        tally.attempted += 1
        scen, state = setup.scenarios[label], setup.states[label]
        config = qmeter.CampaignConfig(
            scenario=scen, trials=trials, seed=derived_seed(seed, rnd, index),
            ground_truth="both", test_state=setup.specs[label], workers=1,
        )
        try:
            t0 = time.perf_counter()
            result = qmeter.run_campaign(config)
            dt = time.perf_counter() - t0
            problems = check_campaign(result.to_json_dict(), scen, state)
        except Exception as exc:  # a raised error is a failed campaign
            problems = [f"raised {exc!r}"]
        if problems:
            tally.failed += 1
            _report(label, problems)
        else:
            tally.record(label, 2 * trials, dt)

    return run


def _parallel_pair(setup: Setup, tally: Tally, seed: int, rnd: int, run_dir: Path) -> None:
    """One CLI campaign per worker count, on the same seed; outputs must match."""
    label, kind, dim, _spec, trials = PARALLEL
    scen, state = setup.scenarios[label], setup.states[label]
    campaign_seed = derived_seed(seed, rnd, len(LABELED) + len(UNLABELED))
    outputs = {}
    for workers in PARALLEL_WORKERS:
        tally.attempted += 1
        out = run_dir / f"campaign-w{workers}.json"
        argv = ["simulate", "--scenario", kind, "--dim", str(dim),
                "--trials", str(trials), "--seed", str(campaign_seed),
                "--ground-truth", "both", "--test-state", setup.specs[label],
                "--workers", str(workers), "--out", str(out)]
        try:
            t0 = time.perf_counter()
            code = qmeter.cli.main(argv)
            dt = time.perf_counter() - t0
            if code != 0:
                problems = [f"exit code {code}"]
            else:
                outputs[workers] = out.read_bytes()
                problems = check_campaign(json.loads(outputs[workers]), scen, state)
        except Exception as exc:
            problems = [f"raised {exc!r}"]
        if workers != PARALLEL_WORKERS[0] and not problems:
            if outputs.get(workers) != outputs.get(PARALLEL_WORKERS[0]):
                problems = [f"campaign JSON differs between --workers "
                            f"{PARALLEL_WORKERS[0]} and {workers}"]
        if problems:
            tally.failed += 1
            _report(f"{label} workers={workers}", problems)
        else:
            tally.record(f"w{workers}", 2 * trials, dt)


def analytic_pass(setup: Setup, seed: int, index: int) -> List[str]:
    """One cold analytic pass; returns its problems (empty when correct)."""
    problems = []
    clear_operator_caches()
    for label, state in setup.states.items():
        total = qmeter.analytic_success(setup.scenarios[label], state).total
        if abs(total - EXPECTED_RATE[label]) > RATE_TOL:
            problems.append(f"{label}: rate {total!r}, expected {EXPECTED_RATE[label]!r}")
    if not qmeter.all_passed(qmeter.run_checks()):
        problems.append("verify battery failed")
    thetas = np.linspace(0.0, math.pi / 2, SWEEP_POINTS)
    for pt in qmeter.sweep_theta(thetas, SWEEP_TRIALS, derived_seed(seed, index, 1)):
        if not _count_ok(round(pt.empirical * pt.trials), pt.trials, pt.analytic,
                         SWEEP_SE_LIMIT):
            problems.append(f"sweep theta={pt.theta:.4f}: {pt.empirical} vs {pt.analytic}")
    return problems


def _analytic_item(setup: Setup, tally: Tally, seed: int, rnd: int, run_dir: Path) -> None:
    tally.attempted += 1
    try:
        t0 = time.perf_counter()
        problems = analytic_pass(setup, seed, rnd)
        dt = time.perf_counter() - t0
    except Exception as exc:
        problems = [f"raised {exc!r}"]
    if problems:
        tally.failed += 1
        _report(f"analytic pass {rnd}", problems)
    else:
        tally.record("pass", 1, dt)


def items(workload: str) -> list:
    """The work items of one round, each called as
    ``item(setup, tally, seed, round, run_dir)``: every in-process campaign
    once and then one --workers 1/--workers 2 CLI pair, or one analytic
    pass."""
    if workload == "analytic":
        return [_analytic_item]
    return [_campaign(i, entry) for i, entry in enumerate(LABELED + UNLABELED)] + [_parallel_pair]


def speedup(tally: Tally) -> float:
    """Throughput at the largest worker count over that at one worker."""
    w1, wn = (f"w{w}" for w in (PARALLEL_WORKERS[0], PARALLEL_WORKERS[-1]))
    return statistics.median(tally.seconds[w1]) / statistics.median(tally.seconds[wn])

"""qmeter benchmark: campaign throughput and cold analytic passes, two workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload campaigns --seed 1 --seconds 45 --trace 0

Workloads: campaigns, analytic (see perfbench/README.md).
With --trace 0 the last line of standard output is one JSON object holding
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run, whose spans are written to
.perfbench/trace-<workload>-<seed>.json.  The lines before it are a readable
summary.

Every workload process is a fresh interpreter started with ``src`` on
PYTHONPATH and with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS removed from its environment, so the program's own
threading choice is what gets measured.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("campaigns", "analytic")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: fresh interpreters timed for setup_s, half before and half after the
#: measured window so that both ends of the run are sampled; the median is
#: reported
SETUP_PROBES = 10
#: the whole run must end within this many seconds
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("QMETER_SEED", None)
    return env


def call_worker(mode: str, args, run_dir: Path, deadline: float, *extra: str) -> dict:
    """Run worker.py in a fresh interpreter and parse its last output line."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", str(run_dir), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} step")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=str(ROOT), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} step timed out after {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} step exited with code {proc.returncode}")
    return json.loads(lines[-1])


def setup_seconds(args, run_dir: Path, deadline: float, probes: int) -> list:
    """Time from starting a fresh interpreter until its first trial could run."""
    times = []
    for _ in range(probes):
        t0 = time.monotonic()
        ready = call_worker("setup", args, run_dir, deadline)["ready"]
        times.append(ready - t0)
    return times


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "qmeter" / "__init__.py").is_file():
        raise BenchError(f"no qmeter sources under {ROOT / 'src'}")
    OUT_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        prep = call_worker("prepare", args, run_dir, deadline)
        env = dict(prep["environment"])
        env["blas_thread_vars_removed"] = {k: os.environ.get(k) for k in BLAS_VARS}
        print(f"environment: {json.dumps(env, sort_keys=True)}")
        print(f"qmeter {prep['qmeter']}; workload {args.workload}; seed {args.seed}")
        if args.trace:
            trace_file = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
            res = call_worker("measure", args, run_dir, deadline, "--trace-file", str(trace_file))
            metrics = {
                name: metric(value, _layer_unit(name)) for name, value in res["metrics"].items()
            }
            print(f"trace written to {trace_file.relative_to(ROOT)}")
            if res["missing_layers"]:
                print(f"missing layers: {', '.join(res['missing_layers'])}")
            print(f"campaign wall {res['campaign_wall_s']:.4f} s; "
                  f"layer self time inside campaigns {res['campaign_layer_self_s']:.4f} s")
        else:
            setups = setup_seconds(args, run_dir, deadline, SETUP_PROBES // 2)
            res = call_worker("measure", args, run_dir, deadline)
            setups += setup_seconds(args, run_dir, deadline, SETUP_PROBES - SETUP_PROBES // 2)
            metrics = {
                "norm_throughput": metric(res["norm_throughput"], "1/s"),
                "setup_s": metric(statistics.median(setups), "s"),
                "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
            }
            _print_summary(args.workload, res, setups)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted, failed = res["attempted"], res["failed"]
    print(f"failed_frac {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _layer_unit(name: str) -> str:
    return "frac" if name.endswith("_frac") else "count"


def _print_summary(workload: str, res: dict, setups: list) -> None:
    unit = "passes" if workload == "analytic" else "trials"
    print(f"{unit}_per_s {res['throughput']:.6g} 1/s  ({res['rounds']} rounds in {res['window_s']:.2f} s)")
    print(f"norm_throughput {res['norm_throughput']:.6g} {unit} per reference second  "
          f"(reference kernel p50 {res['reference_s_p50']:.6g} s, nominal {res['reference_s_nominal']} s)")
    print(f"setup_s {statistics.median(setups):.6g} s  (median of {len(setups)} fresh interpreters)")
    print(f"peak_rss_mb {res['peak_rss_mb']:.6g} MB")
    if "speedup_w2" in res:
        print(f"speedup_w2 {res['speedup_w2']:.6g}  (--workers 2 over --workers 1)")
    if "analytic_pass_s_p50" in res:
        print(f"analytic_pass_s_p50 {res['analytic_pass_s_p50']:.6g} s, "
              f"analytic_pass_s_p90 {res['analytic_pass_s_p90']:.6g} s "
              f"(n = {res['analytic_passes']} passes)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

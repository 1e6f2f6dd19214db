"""Workload process: set-up probes and the measured (or traced) run.

Started by ``run.py`` in a fresh interpreter with ``src`` on PYTHONPATH and
the BLAS thread variables removed from the environment.  The last line of
standard output is one JSON object for ``run.py`` to read.

Modes:
  prepare   write the seeded .npy test states and report the environment
  setup     import qmeter, resolve the workload's test states and their
            conclusive classes, then report CLOCK_MONOTONIC
  measure   set up, then run work items until --seconds have passed
            (--trace 0), or a fixed number of rounds, each item once
            untraced and once traced (--trace 1)
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import qmeter

import workloads as wl
from tracer import LAYERS, ROOT, Tracer, dump, summarize


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def _blas_name() -> str:
    try:
        cfg = np.show_config(mode="dicts")
        return str(cfg["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):
        return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        # the caller removes these; any listed here leaked through
        "blas_thread_vars_set": sorted(
            k for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        ),
    }


def peak_rss_mb(workload: str) -> float:
    """Peak RSS of this process, plus for ``campaigns`` the largest pool
    worker's peak times the number of workers running at once.

    Forked pool workers share pages with this process, so the sum is an upper
    bound on the resident memory the workload held at once.
    """
    pool_workers = max(wl.PARALLEL_WORKERS) if workload == "campaigns" else 0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / 1024.0


def _measure(args, run_dir: Path) -> dict:
    """Run work items round-robin until --seconds have passed and at least
    one whole round is done, each right after a reference-kernel run;
    report throughput in wall and in reference seconds."""
    setup = wl.set_up(args.workload, run_dir)
    its = wl.items(args.workload)
    tally = wl.Tally()
    kernel, nominal_s = wl.REFERENCE[args.workload]
    refs = []
    start = time.perf_counter()
    done = 0
    while done < len(its) or time.perf_counter() - start < args.seconds:
        rnd, i = divmod(done, len(its))
        refs.append(kernel())
        tally.ref_scale = nominal_s / refs[-1]
        its[i](setup, tally, args.seed, rnd, run_dir)
        done += 1
    out = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "rounds": done / len(its),
        "window_s": time.perf_counter() - start,
        "throughput": tally.throughput(),
        "norm_throughput": tally.throughput(normalized=True),
        "reference_s_p50": statistics.median(refs),
        "reference_s_nominal": nominal_s,
        "peak_rss_mb": peak_rss_mb(args.workload),
    }
    if args.workload == "campaigns" and all(f"w{w}" in tally.seconds for w in wl.PARALLEL_WORKERS):
        out["speedup_w2"] = wl.speedup(tally)
    if args.workload == "analytic" and len(tally.seconds.get("pass", ())) >= 2:
        times = tally.seconds["pass"]
        out["analytic_pass_s_p50"] = statistics.median(times)
        out["analytic_pass_s_p90"] = statistics.quantiles(times, n=10)[-1]
        out["analytic_passes"] = len(times)
    return out


def _trace(args, run_dir: Path, trace_path: Path, env: dict) -> dict:
    """A fixed amount of work, each item run once untraced and once traced.

    Set-up is traced too, so the layers it uses show up.  Pairing each
    traced item with an untraced run of the same item right before it keeps
    machine drift out of ``trace.overhead_frac``.
    """
    its = wl.items(args.workload)
    tally = wl.Tally()
    tracer = Tracer(run_dir)
    with tracer.active():
        setup = wl.set_up(args.workload, run_dir)
    untraced = traced = 0.0
    for k in range(wl.TRACED_ROUNDS[args.workload] * len(its)):
        rnd, i = divmod(k, len(its))
        t0 = time.perf_counter()
        its[i](setup, tally, args.seed, rnd, run_dir)
        t1 = time.perf_counter()
        with tracer.active():
            its[i](setup, tally, args.seed, rnd, run_dir)
        untraced += t1 - t0
        traced += time.perf_counter() - t1
    children = tracer.collect_children()
    summary = summarize(tracer, children)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = summary["calls"][layer]
        metrics[f"{layer}.self_frac"] = summary["self_frac"][layer]
    metrics["bench.self_frac"] = summary["self_frac"][ROOT]
    metrics["haar.matrices"] = summary["haar_matrices"]
    metrics["simulate.pool.tasks"] = summary["pool_tasks"]
    metrics["simulate.pool.idle_frac"] = summary["pool_idle_frac"]
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    metrics["trace.missing_layers"] = len(summary["missing_layers"])
    dump(trace_path, tracer, children, {
        "workload": args.workload, "seed": args.seed, "environment": env,
        "untraced_s": untraced, "traced_s": traced, "summary": summary,
        "metrics": metrics,
    })
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "missing_layers": summary["missing_layers"],
        "campaign_wall_s": summary["campaign_wall_s"],
        "campaign_layer_self_s": summary["campaign_layer_self_s"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "setup", "measure"))
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)
    run_dir = Path(args.run_dir)

    if args.mode == "prepare":
        wl.write_states(run_dir, args.seed)
        out = {"environment": environment(), "qmeter": qmeter.__version__}
    elif args.mode == "setup":
        wl.set_up(args.workload, run_dir)
        out = {"ready": time.monotonic()}
    elif args.trace:
        out = _trace(args, run_dir, Path(args.trace_file), environment())
    else:
        out = _measure(args, run_dir)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

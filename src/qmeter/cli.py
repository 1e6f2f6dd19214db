"""Command-line interface.

Subcommands:
  verify    run the analytic identity battery and report pass/fail
  simulate  run a shot-level measurement-comparison campaign
  sweep     empirical vs analytic success across observable-pair angles
  report    render a saved campaign JSON or sweep CSV as text
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import List, Optional

import numpy as np

from .comparison import Scenario
from .errors import ConfigError, QmeterError
from .haar import _MAX_DRAW_ENTRIES
from .simulate import CAMPAIGN_FORMAT, CampaignConfig, run_campaign, sweep_theta, sweep_to_csv
from .verify import all_passed, render_report, run_checks

DEFAULT_THETA_GRID = "0:1.5707963267948966:33"
#: top-level keys every campaign JSON carries (the "required" list of
#: docs/campaign_result.schema.json)
CAMPAIGN_KEYS = ("format", "version", "scenario", "seed", "trials", "ground_truth",
                 "test_state", "shard_size", "conclusive_classes", "results")
#: campaign formats `report` reads: qmeter.campaign/N for N = 1 up to the
#: current format, in decimal without a leading zero; they differ in the
#: random stream behind the counts, not in the document layout
_FORMAT_PREFIX, _FORMAT_NUMBER = CAMPAIGN_FORMAT.rsplit("/", 1)
REPORT_FORMATS = tuple(f"{_FORMAT_PREFIX}/{n}" for n in range(1, int(_FORMAT_NUMBER) + 1))


def _require_seed(args) -> int:
    if args.seed is None:
        raise ConfigError("a seed is required: pass --seed")
    return args.seed


def parse_theta_grid(spec: str) -> np.ndarray:
    """Parse 'start:stop:count' or a comma-separated list of angles; sweep_theta
    rejects a non-finite one."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"theta grid must be start:stop:count, got {spec!r}")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise ConfigError(f"could not parse theta grid {spec!r}")
        if count < 2:
            raise ConfigError("theta grid needs at least 2 points")
        if count > _MAX_DRAW_ENTRIES:
            raise ConfigError(f"theta grid of {count} points cannot be built: "
                              f"one array stops at {_MAX_DRAW_ENTRIES} entries")
        with np.errstate(invalid="ignore"):  # an infinite end gives NaN steps
            return np.linspace(start, stop, count)
    try:
        values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"could not parse theta grid {spec!r}")
    if not values:
        raise ConfigError("theta grid is empty")
    return np.asarray(values)


def _write_or_print(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_verify(args) -> int:
    results = run_checks()
    sys.stdout.write(render_report(results))
    if args.out is not None:
        payload = {"format": "qmeter.verify/1",
                   "passed": all_passed(results),
                   "checks": [asdict(r) for r in results]}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if all_passed(results) else 1


def _cmd_simulate(args) -> int:
    scenario = Scenario(args.scenario, args.dim)
    config = CampaignConfig(
        scenario=scenario,
        trials=args.trials,
        seed=_require_seed(args),
        ground_truth=args.ground_truth,
        test_state=args.test_state,
        workers=args.workers,
    )
    result = run_campaign(config)
    _write_or_print(result.to_json(), args.out)
    return 0


def _cmd_sweep(args) -> int:
    thetas = parse_theta_grid(args.theta_grid)
    points = sweep_theta(thetas, trials=args.trials, seed=_require_seed(args))
    _write_or_print(sweep_to_csv(points), args.out)
    return 0


def _render_campaign(doc: dict) -> str:
    lines = [
        f"campaign: {doc['scenario']['kind']} comparison, d={doc['scenario']['dim']}",
        f"test state: {doc['test_state']}   seed: {doc['seed']}   "
        f"trials per ground truth: {doc['trials']}",
        f"conclusive classes: {', '.join(doc['conclusive_classes'])}",
    ]
    results = doc["results"]
    if "different" in results:
        block = results["different"]
        est = block["success_estimate"]
        se = block["success_stderr"]
        lines.append(f"ground truth different: {block['different_verdicts']} conclusive "
                     f"of {block['trials']}  (success {est:.6f} +/- {se:.6f})")
        lines.append(f"  class counts: {block['class_counts']}")
    if "equal" in results:
        block = results["equal"]
        lines.append(f"ground truth equal: {block['false_positives']} false positives "
                     f"of {block['trials']}")
        lines.append(f"  class counts: {block['class_counts']}")
    return "\n".join(lines) + "\n"


def _render_sweep(text: str) -> str:
    import csv
    import io

    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise ConfigError("sweep CSV has no data rows")
    lines = [f"{'theta':>10}  {'empirical':>10}  {'analytic':>10}  {'stderr':>9}"]
    worst = 0.0
    for row in rows:
        emp = float(row["empirical"])
        ana = float(row["analytic"])
        worst = max(worst, abs(emp - ana))
        lines.append(f"{float(row['theta']):10.4f}  {emp:10.6f}  {ana:10.6f}  "
                     f"{float(row['stderr']):9.6f}")
    lines.append(f"max |empirical - analytic| = {worst:.6f} over {len(rows)} points")
    return "\n".join(lines) + "\n"


def _render_report(text: str) -> str:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        if doc.get("format") not in REPORT_FORMATS:
            raise ConfigError(f"unrecognized JSON format: {doc.get('format')!r}")
        missing = [key for key in CAMPAIGN_KEYS if key not in doc]
        if missing:
            raise ConfigError(f"campaign JSON lacks {', '.join(missing)}")
        if not isinstance(doc["results"], dict):
            raise ConfigError("campaign results are not an object")
        return _render_campaign(doc)
    if stripped.startswith("theta,"):
        return _render_sweep(text)
    raise ConfigError("not a campaign JSON or sweep CSV")


def _cmd_report(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            rendered = _render_report(fh.read())
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        # ConfigError, UnicodeDecodeError and JSONDecodeError are ValueErrors
        # too; json.loads raises RecursionError on a deeply nested document
        raise ConfigError(f"{args.file}: {type(exc).__name__}: {exc}") from exc
    sys.stdout.write(rendered)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmeter",
        description="Unambiguous comparison of sharp quantum measurements: "
                    "analytic identities and shot-level simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the analytic identity battery")
    p_verify.add_argument("--out", help="also write a JSON report to this path")
    p_verify.set_defaults(func=_cmd_verify)

    p_sim = sub.add_parser("simulate", help="run a shot-level comparison campaign")
    p_sim.add_argument("--scenario", required=True, choices=("labeled", "unlabeled"))
    p_sim.add_argument("--dim", type=int, default=2,
                       help="Hilbert-space dimension (unlabeled supports 2)")
    p_sim.add_argument("--trials", type=int, default=100_000,
                       help="trials per ground truth (default 100000)")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="campaign seed (required)")
    p_sim.add_argument("--ground-truth", default="both",
                       choices=("different", "equal", "both"))
    p_sim.add_argument("--test-state", default="optimal",
                       help="'optimal', 'kappa' / 'kappa:J' (unlabeled), or a .npy file")
    p_sim.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                       help="the most worker processes to use, capped at the usable CPUs; "
                            "a pool starts only when the first drawn shard, "
                            "run and timed in this process, says it pays "
                            "(results are identical for any count)")
    p_sim.add_argument("--out", help="write campaign JSON here instead of stdout")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="success probability vs observable angle")
    p_sweep.add_argument("--theta-grid", default=DEFAULT_THETA_GRID,
                         help="start:stop:count or comma-separated angles "
                              f"(default {DEFAULT_THETA_GRID})")
    p_sweep.add_argument("--trials", type=int, default=100_000,
                         help="shots per grid point (default 100000)")
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="sweep seed (required)")
    p_sweep.add_argument("--out", help="write CSV here instead of stdout")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_rep = sub.add_parser("report", help="render a saved campaign or sweep as text")
    p_rep.add_argument("file", help="campaign .json or sweep .csv")
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QmeterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Checks of the benchmark against BENCHMARK.json, as the driver makes them.

  check.py validate [--smoke]   one run per workload and trace mode: every listed
                                metric present with its unit, none unlisted, names
                                well-formed, nothing failed, trace files sound
  check.py spread [--runs N]    N runs per workload, each with another seed: the
                                quartile spread of every end-to-end metric as a
                                share of its median, against the metric's bound
  check.py selfcheck            the whole benchmark twice on one seed: every
                                end-to-end metric within its bound, every exact
                                count identical; writes bench/out/selfcheck.json

Run from the repository root. Each subcommand exits non-zero on a violation.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# Counts that are a pure function of seed and schedule: selfcheck wants them identical.
EXACT = [
    "plan_cost_ratio",
    "tier_lag_epochs",
    "consolidate.merged_size_ratio",
    "consolidate.full_tier_share",
    "consolidate.delta_pairs_recomputed",
    "plan-cache.hit_share",
    "naiad-lite.prefilter_skip_share",
    "udf-serve.journal_frames",
    "udf-serve.sequential_epoch_share",
    "udf-serve.deferred_churn_ops",
    "udf-serve.frames_replayed",
]


def run(workload, seed, seconds, trace, extra=()):
    """One driver-style run; returns the parsed last line of standard output."""
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)}: exit code {done.returncode}")
    return json.loads(lines[-1])


def worse_by(metric, first, second):
    """Share of `first` by which `second` is worse (negative: better)."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def validate(args):
    problems = []
    seconds = 2 if args.smoke else SPEC["run_seconds"]
    extra = ["--smoke"] if args.smoke else []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            result = run(workload, 42, seconds, trace, extra)
            where = f"{workload} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            units = {m["name"]: m["unit"] for m in listed}
            got = result["metrics"]
            for name in sorted(set(units) - set(got)):
                problems.append(f"{where}: {name} is listed and was not reported")
            for name in sorted(set(got) - set(units)):
                problems.append(f"{where}: {name} was reported and is not listed")
            for name, m in got.items():
                if not NAME.match(name):
                    problems.append(f"{where}: malformed metric name {name!r}")
                if name in units and m["unit"] != units[name]:
                    problems.append(f"{where}: {name} has unit {m['unit']}, listed {units[name]}")
                if trace == 0 and not m["value"] > 0:
                    problems.append(f"{where}: end-to-end metric {name} is {m['value']}")
        spans = json.loads((ROOT / "bench/out" / f"{workload}.trace.json").read_text())
        ids = {s["id"] for s in spans}
        orphans = [s["id"] for s in spans if s["parent"] is not None and s["parent"] not in ids]
        if not spans or orphans:
            problems.append(f"{workload}: {len(spans)} spans, orphans {orphans[:5]}")
    for p in problems:
        print("FAIL", p)
    print(f"validate: {len(problems)} problems")
    return not problems


def spread(args):
    ok = True
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        runs = [run(workload, args.first_seed + i, args.seconds, 0) for i in range(args.runs)]
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            within = share <= metric["bound"] or metric["name"] == "setup_s"
            ok &= within
            mark = "ok " if share <= metric["bound"] / 3 else ("wide" if within else "FAIL")
            print(f"{mark:<5}{workload:<13}{metric['name']:<15} median {median:<14.6g} "
                  f"spread {share:7.2%}  bound {metric['bound']:.0%}  "
                  f"min {min(values):.6g} max {max(values):.6g}", flush=True)
    return ok


def selfcheck(args):
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}, "violations": []}
    for workload in (w["name"] for w in SPEC["workloads"]):
        sets = [
            {**run(workload, args.seed, args.seconds, 0)["metrics"],
             **run(workload, args.seed, args.seconds, 1)["metrics"]}
            for _ in range(2)
        ]
        rows = {}
        for metric in SPEC["end_to_end"]:
            first, second = (s[metric["name"]]["value"] for s in sets)
            worse = worse_by(metric, first, second)
            rows[metric["name"]] = {"first": first, "second": second, "worse_by": worse,
                                    "bound": metric["bound"]}
            if abs(worse) > metric["bound"]:
                report["violations"].append(f"{workload} {metric['name']}: {first} vs {second}")
        for name in EXACT:
            first, second = (s[name]["value"] for s in sets)
            rows[name] = {"first": first, "second": second, "exact": first == second}
            if first != second:
                report["violations"].append(f"{workload} {name}: {first} vs {second} (exact)")
        report["workloads"][workload] = rows
    out = ROOT / "bench/out/selfcheck.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    for v in report["violations"]:
        print("FAIL", v)
    print(f"selfcheck: {len(report['violations'])} violations, written to {out}")
    return not report["violations"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("validate")
    p.add_argument("--smoke", action="store_true")
    p.set_defaults(fn=validate)
    p = sub.add_parser("spread")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--workload", action="append")
    p.set_defaults(fn=spread)
    p = sub.add_parser("selfcheck")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.set_defaults(fn=selfcheck)
    args = parser.parse_args()
    sys.exit(0 if args.fn(args) else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload once per seed (untraced) from the repository root and
prints, per end-to-end metric, the median of the runs and the distance
between the first and third quartile as a share of that median -- the
spread each metric's bound in BENCHMARK.json must cover.

    python3 perfbench/steadiness.py --workloads cold_build,sweep --seeds 1-10

Every result line is also appended to --raw (JSON lines) so that two
sets of runs can be compared afterwards:

    python3 perfbench/steadiness.py --compare set1.jsonl set2.jsonl

prints each (workload, metric) pair's spread in both sets and how much
worse the second set's median is than the first's, and exits 1 if a
spread (other than setup_s's) or a worsening exceeds the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

BENCH = json.load(open("BENCHMARK.json"))


def spread(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def load(path):
    values = {}
    for line in open(path):
        row = json.loads(line)
        for name, metric in row["result"]["metrics"].items():
            values.setdefault((row["workload"], name), []).append(metric["value"])
    return values


def compare(first, second):
    a, b = load(first), load(second)
    bad = 0
    for workload in (w["name"] for w in BENCH["workloads"]):
        for metric in BENCH["end_to_end"]:
            key = (workload, metric["name"])
            if len(a.get(key, [])) < 2 or len(b.get(key, [])) < 2:
                continue
            ratio = statistics.median(b[key]) / statistics.median(a[key])
            worse = ratio - 1 if metric["better"] == "lower" else 1 / ratio - 1
            s1, s2 = spread(a[key]), spread(b[key])
            fail = worse > metric["bound"] or (
                metric["name"] != "setup_s" and max(s1, s2) > metric["bound"])
            bad += fail
            print(f"{workload:13} {metric['name']:16} spread {s1:7.2%} {s2:7.2%}  "
                  f"worse {worse:+7.2%} (bound {metric['bound']:.0%}){'  <-- FAILS' if fail else ''}")
    return bad


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--raw", default=None, help="append result lines here")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare two --raw files instead of running")
    args = ap.parse_args()
    if args.compare:
        sys.exit(1 if compare(*args.compare) else 0)

    failures = 0
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            cmd = BENCH["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(BENCH["run_seconds"]), "--trace", "0",
            ]
            started = time.monotonic()
            run = subprocess.run(cmd, capture_output=True, text=True)
            wall_s = time.monotonic() - started
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr}", file=sys.stderr)
                failures += 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: checks failed\n{run.stderr}", file=sys.stderr)
                failures += 1
            if args.raw:
                with open(args.raw, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall_s,
                                        "result": result,
                                        "stderr": run.stderr.strip().splitlines()}) + "\n")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for metric in BENCH["end_to_end"]:
            vals = values.get(metric["name"], [])
            if len(vals) < 2:
                continue
            med, s = statistics.median(vals), spread(vals)
            flag = "" if s < metric["bound"] / 3 else "  <-- above a third of the bound"
            print(f"{workload:13} {metric['name']:16} median {med:14.6g} {metric['unit']:4} "
                  f"spread {s:7.2%} (bound {metric['bound']:.0%}){flag}", flush=True)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

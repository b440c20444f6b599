"""Run-to-run spread of the end-to-end metrics, and the bounds it implies.

    python3 perfbench/calibrate.py --seeds 1-10 [--workloads deep_book,panel] [--sets 2]

Runs perfbench/run.py once per workload and seed (and set), from the root
of the checkout, with BENCHMARK.json's run_seconds. For each metric it
reports the median over seeds, the quartiles, and the spread (q3 - q1) /
median; a spread above a tenth is flagged. The suggested bound is four
times the largest spread over the workloads, rounded up to a hundredth and
kept between 0.05 and 0.24; setup_s gets 0.25, the largest bound. With
`--sets 2` the second set's medians are compared with the first's. The
table goes to standard output and everything to .perfbench/calibration.json.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FLAG_SPREAD = 0.10
SPREAD_TO_BOUND = 4.0
BOUND_RANGE = (0.05, 0.24)
SETUP_BOUND = 0.25


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict | None:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if out.returncode != 0:
        print(out.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread_stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None, help="comma list (default: all in BENCHMARK.json)")
    p.add_argument("--sets", type=int, default=1)
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sign = {m["name"]: 1 if m["better"] == "lower" else -1 for m in spec["end_to_end"]}

    runs: dict = {}
    for s in range(args.sets):
        for workload in workloads:
            for seed in seeds:
                result = run_once(workload, seed, spec["run_seconds"])
                if result is None or not result["correct"]:
                    print(f"set {s} {workload} seed {seed}: FAILED {result}", file=sys.stderr)
                    return 1
                runs.setdefault(str(s), {}).setdefault(workload, []).append(result)
                print(f"set {s} {workload} seed {seed}: failed {result['failed']}/"
                      f"{result['attempted']}", file=sys.stderr, flush=True)

    table: dict = {}
    suggested: dict = {}
    for s, by_workload in runs.items():
        for workload, results in by_workload.items():
            for name in bounds:
                st = spread_stats([r["metrics"][name]["value"] for r in results])
                st["flag"] = st["spread"] > FLAG_SPREAD
                table.setdefault(s, {}).setdefault(workload, {})[name] = st
                suggested[name] = max(suggested.get(name, 0.0), st["spread"])
    for name, spread in suggested.items():
        bound = math.ceil(100 * SPREAD_TO_BOUND * spread) / 100
        suggested[name] = SETUP_BOUND if name == "setup_s" else min(max(bound, BOUND_RANGE[0]), BOUND_RANGE[1])

    print("| set | workload | metric | median | q1 | q3 | spread | bound | flag |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for s, by_workload in table.items():
        for workload, metrics in by_workload.items():
            for name, st in metrics.items():
                print(f"| {s} | {workload} | {name} | {st['median']:.4g} | {st['q1']:.4g} | "
                      f"{st['q3']:.4g} | {st['spread']:.3f} | {bounds[name]} | "
                      f"{'SPREAD > 0.10' if st['flag'] else ''} |")
    drift = {}
    if "1" in table:
        for workload in table["0"]:
            for name in bounds:
                first, second = table["0"][workload][name]["median"], table["1"][workload][name]["median"]
                drift[f"{workload}/{name}"] = sign[name] * (second - first) / first
        print("\nsecond set vs first (share of first median, positive = worse):")
        for key, value in drift.items():
            name = key.split("/")[1]
            print(f"  {key}: {value:+.3f} {'OVER BOUND' if value > bounds[name] else ''}")
    print("\nsuggested bounds:", json.dumps(suggested))
    os.makedirs(".perfbench", exist_ok=True)
    with open(os.path.join(".perfbench", "calibration.json"), "w", encoding="utf-8") as fh:
        json.dump({"seeds": seeds, "runs": runs, "table": table, "drift": drift,
                   "suggested_bounds": suggested}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

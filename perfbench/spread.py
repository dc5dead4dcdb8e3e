"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload quotes --seeds 1-10 [--out FILE]

Each run lasts BENCHMARK.json's `run_seconds`, untraced.  For every metric
it prints the median, the quartiles (as `statistics.quantiles(values, n=4)`
gives them) and the spread (q3 - q1) / median, the figure the bounds in
BENCHMARK.json are held to.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = os.path.join(ROOT, ".perfbench-out", f"{workload}-seed{seed}-trace0.json")
    with open(record, encoding="utf-8") as handle:
        result["report"] = json.load(handle).get("report", {})
    return result


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
                     "values": values}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="comma-separated workloads")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workload.split(","):
        results = [run_once(workload, seed, spec["run_seconds"]) for seed in args.seeds]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        report = {name: statistics.median(r["report"][name] for r in results)
                  for name in results[0]["report"]}
        summary[workload] = {"seeds": args.seeds, "attempted": attempted, "failed": failed,
                             "metrics": summarize(results), "report_medians": report}
        print(f"{workload}: {len(results)} runs, {failed}/{attempted} failed")
        for name, m in summary[workload]["metrics"].items():
            bound = bounds.get(name)
            note = f"  bound {bound:g}" if bound is not None else ""
            print(f"  {name:32s} median {m['median']:.6g} {m['unit']:8s} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.4f}{note}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

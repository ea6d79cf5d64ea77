#!/usr/bin/env python3
"""Summarize the runs recorded under ``.bench_out/`` across seeds.

    python3 benchmarks/summarize.py [--out FILE]

For every workload and mode (``trace0``/``trace1``) it prints, per metric,
the median over the recorded seeds, the quartiles and the spread
(interquartile range over median, from ``statistics.quantiles(n=4)``), and
for end-to-end runs the median p50 of every op class.  ``--out`` also writes
the summary as JSON.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_FILE = re.compile(r"(?P<workload>.+)-seed(?P<seed>-?\d+)-trace(?P<trace>[01])\.json$")


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "n": len(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)

    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(ROOT, ".bench_out", "*.json"))):
        match = RUN_FILE.match(os.path.basename(path))
        if match:
            with open(path, encoding="utf-8") as handle:
                runs.setdefault((match["workload"], f"trace{match['trace']}"), []).append(
                    (int(match["seed"]), json.load(handle))
                )
    if not runs:
        print("no runs recorded under .bench_out/", file=sys.stderr)
        return 1

    summary: dict = {}
    for (workload, mode), recorded in sorted(runs.items()):
        recorded.sort()
        entry = {"seeds": [seed for seed, _ in recorded], "env": recorded[-1][1]["env"], "metrics": {}}
        print(f"{workload} {mode}: seeds {entry['seeds']}")
        for key in recorded[0][1]["result"]["metrics"]:
            stats = summarize([run["result"]["metrics"][key]["value"] for _, run in recorded])
            stats["unit"] = recorded[0][1]["result"]["metrics"][key]["unit"]
            entry["metrics"][key] = stats
            print(f"  {key:36s} median {stats['median']:12.6g} {stats['unit']:8s} spread {stats['spread']:.4f}")
        if mode == "trace0":
            labels = recorded[0][1]["details"]["classes"]
            entry["class_p50_ms"] = {
                label: statistics.median(run["details"]["classes"][label]["p50_ms"] for _, run in recorded)
                for label in labels
            }
            for label, p50 in entry["class_p50_ms"].items():
                print(f"  class {label:30s} median p50 {p50:10.2f} ms")
        summary[f"{workload} {mode}"] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

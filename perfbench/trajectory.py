#!/usr/bin/env python3
"""Appends one entry to perfbench/trajectory.json.

The entry summarizes the untraced results that perfbench/run.py left in
.bench_build/results/. For each workload and end-to-end metric it records
the median and the quartiles over the runs, and the spread: the distance
between the quartiles as a share of the median. It also records the runs'
provenance. A typical use, after ten seeds of every workload:

    for w in build_paper serve_lookup serve_join; do
      for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload $w --seed $s --seconds 16 --trace 0
      done
    done
    python3 perfbench/trajectory.py --label "what changed"
"""
import argparse
import glob
import json
import os
import statistics
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS = os.path.join(ROOT, ".bench_build", "results")
TRAJECTORY = os.path.join(BENCH_DIR, "trajectory.json")


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0], None, values[0]))
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "runs": len(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="what this entry measures")
    args = parser.parse_args()

    runs = {}
    provenance = None
    for path in sorted(glob.glob(os.path.join(RESULTS, "*-trace0.json"))):
        with open(path) as handle:
            result = json.load(handle)
        prov = result["provenance"]
        if not result["correct"]:
            raise SystemExit("refusing an incorrect run: " + path)
        runs.setdefault(prov["workload"], []).append(result)
        provenance = provenance or prov
    if not runs:
        raise SystemExit("no untraced results under " + RESULTS)

    workloads = {}
    for workload, results in sorted(runs.items()):
        names = list(results[0]["metrics"])
        workloads[workload] = {
            "seeds": sorted(r["provenance"]["seed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "sizes": {k: v for k, v in results[0]["details"].items()
                      if k.split(".")[0] in ("world", "kb", "workload")},
            "metrics": {
                name: dict(summarize([r["metrics"][name]["value"]
                                      for r in results]),
                           unit=results[0]["metrics"][name]["unit"])
                for name in names},
        }
    entry = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "revision": provenance["revision"],
        "nproc": provenance["nproc"],
        "build_type": provenance["build_type"],
        "compiler": provenance["compiler"],
        "seconds": provenance["seconds"],
        "workloads": workloads,
    }
    trajectory = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY) as handle:
            trajectory = json.load(handle)
    trajectory.append(entry)
    with open(TRAJECTORY, "w") as handle:
        json.dump(trajectory, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for workload, summary in workloads.items():
        for name, metric in summary["metrics"].items():
            print("%-13s %-16s median %12.6g %-6s spread %.3f (%d runs)"
                  % (workload, name, metric["median"], metric["unit"],
                     metric["spread"] or 0.0, metric["runs"]))


if __name__ == "__main__":
    main()

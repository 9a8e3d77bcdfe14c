#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload build_paper --seed 1 --seconds 16 --trace 0

Run from the root of the source tree. It builds akb_cli and the harness
(perfbench/CMakeLists.txt, Release) into .bench_build/, runs one workload,
prints a metric table with units on stderr, writes the full result with
its provenance to .bench_build/results/, and prints as the last line of
stdout one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones and writes a Chrome trace file.

--smoke runs tiny world and KB sizes (the benchmark's own test uses it).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("build_paper", "serve_lookup", "serve_join")
# Compilers and the harness keep their temporary files in the checkout.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
HARNESS_TIMEOUT_S = 170


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configures once, then rebuilds only what changed."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("tools", "akb_cli.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s under %s: run from the root of the akb source tree"
                 % (needed, ROOT))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs(), "--target",
                  "perfbench_harness", "akb_cli"])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=ENV)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return (os.path.join(BUILD_DIR, "perfbench_harness"),
            os.path.join(BUILD_DIR, "akb", "tools", "akb_cli"))


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sha256:" + digest.hexdigest()


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def check_metrics(result, trace):
    """Every declared metric, by name, with its declared unit, and no other."""
    problems = []
    metrics = result["metrics"]
    declared = declared_metrics(trace)
    for metric in declared:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append("metric %s missing" % metric["name"])
        elif got.get("unit") != metric["unit"]:
            problems.append("metric %s has unit %r, declared %r"
                            % (metric["name"], got.get("unit"),
                               metric["unit"]))
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append("undeclared metrics: " + ", ".join(sorted(extra)))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny world and KB sizes")
    parser.add_argument("--inject", choices=("output", "response"),
                        help="corrupt one output, to test the checks")
    args = parser.parse_args()

    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    harness, akb_cli = build()
    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                   "-smoke" if args.smoke else "")
    workdir = os.path.join(BUILD_DIR, "work", tag)
    os.makedirs(workdir, exist_ok=True)
    command = [harness, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace, "--workdir=" + workdir,
               "--akb-cli=" + akb_cli]
    if args.smoke:
        command.append("--smoke")
    if args.inject:
        command.append("--inject=" + args.inject)
    started = time.time()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, env=ENV,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness did not finish within %d s" % HARNESS_TIMEOUT_S)
    # Snapshots are large and only the run that wrote them reads them.
    for name in os.listdir(workdir):
        if name.endswith(".akbsnap"):
            os.remove(os.path.join(workdir, name))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("harness exited with code %d" % done.returncode)
    result = json.loads(lines[-1])

    problems = check_metrics(result, args.trace)
    if problems:
        for problem in problems:
            print("check failed: " + problem, file=sys.stderr)
        result["correct"] = False
        result["errors"] = result.get("errors", []) + problems

    result["provenance"].update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "revision": source_revision(), "host": os.uname().nodename,
        "wall_s": round(time.time() - started, 3),
    })
    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, tag + ".json"), "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)

    print("%s seed=%d trace=%d correct=%s attempted=%d failed=%d"
          % (args.workload, args.seed, args.trace, result["correct"],
             result["attempted"], result["failed"]), file=sys.stderr)
    for name, metric in result["metrics"].items():
        print("  %-34s %14.6g %s" % (name, metric["value"], metric["unit"]),
              file=sys.stderr)
    if result.get("trace_file"):
        print("  trace: " + result["trace_file"], file=sys.stderr)

    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The benchmark's own test. Run from the root of the source tree:

    python3 perfbench/test_perfbench.py

Runs every workload in smoke mode (tiny world and KB), traced and
untraced, and checks the result line against BENCHMARK.json: every
declared metric is printed by name with its declared unit. A corrupted
build output and a corrupted serve response must each fail the
correctness check, and the benchmark must refuse to run without the
program's sources.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run(workload, trace=0, inject=None, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke"]
    if inject:
        command += ["--inject", inject]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_line(done):
    if done.returncode != 0:
        raise AssertionError("run.py exited %d:\n%s"
                             % (done.returncode, done.stderr[-3000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkSpecTest(unittest.TestCase):
    def test_spec_follows_the_contract(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in s["workloads"]],
                         ["build_paper", "serve_lookup", "serve_join"])
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        names += [w["name"] for w in s["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for metric in s["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
        for metric in s["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in s["end_to_end"]))


class SmokeRunTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in declared])
        for metric in declared:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(got["value"]), metric["name"])

    def test_every_workload_prints_every_metric_with_its_unit(self):
        s = spec()
        for workload in [w["name"] for w in s["workloads"]]:
            with self.subTest(workload=workload, trace=0):
                result = result_line(run(workload, trace=0))
                self.check_metrics(result, s["end_to_end"])
                for metric in s["end_to_end"]:
                    self.assertGreater(result["metrics"][metric["name"]]
                                       ["value"], 0, metric["name"])
            with self.subTest(workload=workload, trace=1):
                done = run(workload, trace=1)
                self.check_metrics(result_line(done), s["per_layer"])
                trace = re.search(r"trace: (\S+)", done.stderr).group(1)
                with open(trace) as handle:
                    events = json.load(handle)
                self.assertGreater(len(events), 0)
                self.assertTrue(all(e["ph"] == "X" for e in events))

    def test_corrupted_build_output_fails_the_check(self):
        result = result_line(run("build_paper", inject="output"))
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_corrupted_serve_response_fails_the_check(self):
        for workload in ("serve_lookup", "serve_join"):
            with self.subTest(workload=workload):
                result = result_line(run(workload, inject="response"))
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


class NoSourcesTest(unittest.TestCase):
    def test_refuses_to_run_without_the_program_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run("build_paper", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            for line in done.stdout.splitlines():
                self.assertNotIn('"correct"', line)


if __name__ == "__main__":
    unittest.main()

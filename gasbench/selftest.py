#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 gasbench/selftest.py

Checks the shape of BENCHMARK.json (keys, names, units, bounds),
the result line run.py prints (every declared metric with its unit,
nothing undeclared), and runs the Rust unit tests of the gasbench helper:
nearest-rank percentiles, the seeded request mix, the reference tables.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkJson(unittest.TestCase):
    def test_keys(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(s["paths"], ["gasbench"])
        self.assertTrue(1 <= s["run_seconds"] <= 60)

    def test_names_and_units_are_valid_and_unique(self):
        s = spec()
        names = [w["name"] for w in s["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for m in s[group]:
                names.append(m["name"])
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(set(run.WORKLOADS), {w["name"] for w in s["workloads"]})

    def test_bounds(self):
        e2e = {m["name"]: m for m in spec()["end_to_end"]}
        self.assertEqual((e2e["setup_s"]["unit"], e2e["setup_s"]["better"]), ("s", "lower"))
        for m in e2e.values():
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        self.assertEqual(e2e["setup_s"]["bound"], max(m["bound"] for m in e2e.values()))


class ResultLine(unittest.TestCase):
    def test_prints_every_declared_metric_with_its_unit(self):
        for trace in (0, 1):
            units = run.declared(trace)
            line = run.result(10, 0, {k: 1.5 for k in units}, units)
            self.assertEqual(set(line["metrics"]), set(units))
            for k, v in line["metrics"].items():
                self.assertEqual(v["unit"], units[k])

    def test_refuses_missing_extra_or_non_numeric_metrics(self):
        units = run.declared(0)
        full = {k: 1.0 for k in units}
        missing = dict(full)
        missing.pop(next(iter(units)))
        for bad in (missing, dict(full, undeclared=1.0), dict(full, p50_ms="x")):
            with self.assertRaises(run.Failed):
                run.result(10, 0, bad, units)

    def test_refuses_a_p50_above_the_p99(self):
        units = run.declared(0)
        metrics = dict({k: 1.0 for k in units}, p50_ms=2.0, p99_ms=1.0)
        with self.assertRaises(run.Failed):
            run.result(10, 0, metrics, units)

    def test_refuses_failed_operations(self):
        units = run.declared(0)
        with self.assertRaises(run.Failed):
            run.result(10, 1, {k: 1.0 for k in units}, units)


class RustUnitTests(unittest.TestCase):
    def test_cargo_test(self):
        env = dict(os.environ, CARGO_TARGET_DIR=run.target_dir())
        done = subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                               "--manifest-path", os.path.join(HERE, "Cargo.toml")],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        self.assertEqual(done.returncode, 0, done.stdout[-3000:])


if __name__ == "__main__":
    unittest.main()

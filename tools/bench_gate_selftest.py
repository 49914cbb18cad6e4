#!/usr/bin/env python3
"""Self-test for tools/bench_gate.py: every rule must be able to fail.

Builds temporary baseline/fresh BENCH_*.json pairs and runs the gate's CLI
on them:

  * one pair per rule in which only that rule's field regressed — the gate
    must fail and name exactly that field;
  * one pair per rule checking when it applies: a conditional rule stays
    off when the baseline does not enable it, an unconditional one trips
    even without a baseline value;
  * a pair regressed within every tolerance — the gate must pass;
  * the scale-mismatch skip, the threads-mismatch wall-time skip, the
    google-benchmark skip and the missing-fresh-file failure.

A rule that can no longer trip, or a rule added to or dropped from the
table without a case here, fails the test.

Usage: python3 tools/bench_gate_selftest.py
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

TOOLS = pathlib.Path(__file__).resolve().parent
GATE = TOOLS / "bench_gate.py"
sys.path.insert(0, str(TOOLS))
sys.dont_write_bytecode = True  # Leave no __pycache__ in the source tree.
import bench_gate  # noqa: E402

# A baseline on which every rule applies.
BASE = {
    "name": "selftest",
    "scale": 0.05,
    "threads": 1,
    "wall_time_s": 10.0,
    "mean_messages": 100.0,
    "messages_per_query": 50.0,
    "bytes_per_peer": 100.0,
    "world_build_peak_rss_mb": 100.0,
    "steady_state_allocs_per_event": 0.0,
    "p99_query_wall_ms": 1000.0,
    "deadline_hit_rate": 0.1,
    "events_per_sec": 1000000.0,
    "churned_events_per_sec": 500000.0,
    "churned_drain_ratio": 0.5,
    "churn_epoch_us": 100.0,
    "cpu_time_s": 2.0,
}

# Per field: a value that must trip the rule on BASE, and a regression the
# default tolerances must absorb.
TRIP = {
    "mean_messages": 112.0,
    "messages_per_query": 57.0,
    "bytes_per_peer": 111.0,
    "world_build_peak_rss_mb": 116.0,
    "steady_state_allocs_per_event": 0.001,
    "p99_query_wall_ms": 1101.0,
    "deadline_hit_rate": 0.121,
    "events_per_sec": 749000.0,
    "churned_events_per_sec": 374000.0,
    "churned_drain_ratio": 0.374,
    "churn_epoch_us": 251.0,
    "cpu_time_s": 3.21,
    "wall_time_s": 13.1,
}
TOLERATED = {
    "mean_messages": 110.0,
    "messages_per_query": 55.0,
    "bytes_per_peer": 109.0,
    "world_build_peak_rss_mb": 114.0,
    "steady_state_allocs_per_event": 0.0,
    "p99_query_wall_ms": 1099.0,
    "deadline_hit_rate": 0.119,
    "events_per_sec": 751000.0,
    "churned_events_per_sec": 376000.0,
    "churned_drain_ratio": 0.376,
    "churn_epoch_us": 249.0,
    "cpu_time_s": 3.19,
    "wall_time_s": 12.9,
}

# When each rule applies, pinned here rather than read from the table: the
# baseline change that switches a conditional rule off (None = drop the
# field), or ALWAYS for a rule that must trip even without a baseline value.
ALWAYS = "always"
SWITCH_OFF = {
    "mean_messages": ALWAYS,
    "messages_per_query": 0.0,
    "bytes_per_peer": 0.0,
    "world_build_peak_rss_mb": 0.0,
    "steady_state_allocs_per_event": None,
    "p99_query_wall_ms": 0.0,
    "deadline_hit_rate": 0.0,
    "events_per_sec": 0.0,
    "churned_events_per_sec": 0.0,
    "churned_drain_ratio": 0.0,
    "churn_epoch_us": 0.0,
    "cpu_time_s": 0.0,
    "wall_time_s": ALWAYS,
}
# Floors (a 0 is the far losing side), and the wall-clock rules, compared
# only when the thread counts match.
FLOORS = {"events_per_sec", "churned_events_per_sec", "churned_drain_ratio"}
WALL_CLOCK = FLOORS | {"churn_epoch_us", "cpu_time_s", "wall_time_s"}


class BenchGateSelfTest(unittest.TestCase):

    def run_gate(self, baselines, fresh):
        """Writes {file name: doc} maps and returns (exit code, output)."""
        with tempfile.TemporaryDirectory() as tmp:
            base_dir = pathlib.Path(tmp) / "baselines"
            fresh_dir = pathlib.Path(tmp) / "fresh"
            base_dir.mkdir()
            fresh_dir.mkdir()
            for directory, docs in ((base_dir, baselines), (fresh_dir, fresh)):
                for name, doc in docs.items():
                    (directory / name).write_text(json.dumps(doc))
            done = subprocess.run(
                [sys.executable, str(GATE), "--fresh", str(fresh_dir),
                 "--baselines", str(base_dir)],
                capture_output=True, text=True, check=False)
            return done.returncode, done.stdout + done.stderr

    def gate_pair(self, fresh_changes, base_changes=None):
        base = dict(BASE, **(base_changes or {}))
        for field, value in list(base.items()):
            if value is None:
                del base[field]
        fresh = dict(base, **fresh_changes)
        return self.run_gate({"BENCH_selftest.json": base},
                             {"BENCH_selftest.json": fresh})

    def test_every_rule_has_a_case(self):
        self.assertEqual({rule[0] for rule in bench_gate.RULES}, set(TRIP))
        self.assertEqual(set(TRIP), set(TOLERATED))
        self.assertEqual(set(TRIP), set(SWITCH_OFF))

    def assert_trips(self, out, field):
        failures = [line for line in out.splitlines()
                    if line.startswith("  BENCH_selftest.json: ")]
        self.assertEqual(len(failures), 1, out)
        self.assertIn(f" {field} ", failures[0])

    def test_unchanged_and_tolerated_pairs_pass(self):
        code, out = self.gate_pair({})
        self.assertEqual(code, 0, out)
        code, out = self.gate_pair(TOLERATED)
        self.assertEqual(code, 0, out)
        self.assertIn("bench_gate: OK", out)

    def test_each_rule_trips_on_its_own(self):
        for field, value in TRIP.items():
            with self.subTest(field=field):
                code, out = self.gate_pair({field: value})
                self.assertEqual(code, 1, out)
                self.assert_trips(out, field)

    def test_rules_apply_exactly_when_the_baseline_enables_them(self):
        for field, off in SWITCH_OFF.items():
            with self.subTest(field=field):
                if off == ALWAYS:
                    code, out = self.gate_pair({field: TRIP[field]},
                                               base_changes={field: None})
                    self.assertEqual(code, 1, out)
                    self.assert_trips(out, field)
                    continue
                # Far past the bound in the losing direction (a 0 for a
                # floor, which a 0 baseline could not trip anyway).
                worse = 0.0 if field in FLOORS else 1e9
                code, out = self.gate_pair({field: worse},
                                           base_changes={field: off})
                self.assertEqual(code, 0, out)

    def test_scale_mismatch_skips_the_file(self):
        regressed = dict(TRIP, scale=1.0)
        code, out = self.gate_pair(regressed)
        self.assertEqual(code, 0, out)
        self.assertIn("SKIP (scale", out)

    def test_threads_mismatch_skips_only_wall_clock_rules(self):
        for field, value in TRIP.items():
            with self.subTest(field=field):
                code, out = self.gate_pair({"threads": 4, field: value})
                if field in WALL_CLOCK:
                    self.assertEqual(code, 0, out)
                    self.assertIn("wall-time SKIP (threads", out)
                else:
                    # Deterministic fields are gated across thread counts.
                    self.assertEqual(code, 1, out)
                    self.assert_trips(out, field)

    def test_google_benchmark_reports_are_skipped(self):
        report = {"context": {}, "benchmarks": []}
        code, out = self.run_gate({"BENCH_micro.json": report},
                                  {"BENCH_micro.json": report})
        self.assertEqual(code, 0, out)
        self.assertIn("google-benchmark", out)
        code, out = self.run_gate({"BENCH_selftest.json": BASE},
                                  {"BENCH_selftest.json": report})
        self.assertEqual(code, 0, out)
        self.assertIn("fresh file is a google-benchmark report", out)

    def test_missing_fresh_file_fails(self):
        code, out = self.run_gate({"BENCH_selftest.json": BASE}, {})
        self.assertEqual(code, 1, out)
        self.assertIn("fresh telemetry missing", out)


if __name__ == "__main__":
    unittest.main()

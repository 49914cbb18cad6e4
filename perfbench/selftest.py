#!/usr/bin/env python3
"""Self-test of the benchmark itself, on a tiny run of every workload.

    python3 perfbench/selftest.py

Asserts that:
  * every metric BENCHMARK.json names is emitted with its unit and
    direction, end-to-end metrics by --trace 0 and per-layer ones by
    --trace 1;
  * two runs at one seed agree exactly on every deterministic metric;
  * the output check can fail: a corrupted answer turns the run incorrect
    and counts as a failed query;
  * the digest comparison can fail: a corrupted replay digest turns the
    run incorrect and its exit code nonzero.
Exits nonzero on the first violated assertion.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
DETERMINISTIC = ("messages_per_query", "sample_tuples_per_query",
                 "makespan_ms_p50", "makespan_ms_p99", "mean_error",
                 "within_req_frac", "answered_frac")


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--tiny"] + list(extra)
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("%s: no output\n%s" % (command, done.stderr))
    result = json.loads(lines[-1])
    # Human-readable lines: "<name> <value> <unit> better=<dir> samples=<n>".
    directions = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 5 and fields[3].startswith("better="):
            directions[fields[0]] = fields[3][len("better="):]
    return done.returncode, result, directions


def check(condition, message):
    if not condition:
        raise AssertionError(message)
    print("ok   " + message)


def check_metrics(workload, trace, result, directions, declared):
    emitted = result["metrics"]
    check(set(emitted) == {m["name"] for m in declared},
          "%s --trace %d emits exactly the declared metrics" %
          (workload, trace))
    for metric in declared:
        name = metric["name"]
        check(emitted[name]["unit"] == metric["unit"],
              "%s %s unit %s" % (workload, name, metric["unit"]))
        check(directions.get(name) == metric["better"],
              "%s %s direction %s" % (workload, name, metric["better"]))


def main():
    for workload in [w["name"] for w in SPEC["workloads"]]:
        code, first, directions = run(workload, 0)
        check(code == 0 and first["correct"] and first["failed"] == 0,
              "%s tiny run is correct" % workload)
        check_metrics(workload, 0, first, directions, SPEC["end_to_end"])
        _, second, _ = run(workload, 0)
        for name in DETERMINISTIC:
            check(first["metrics"][name] == second["metrics"][name],
                  "%s %s repeats exactly at one seed" % (workload, name))

        code, traced, directions = run(workload, 1)
        check(code == 0 and traced["correct"],
              "%s tiny traced run is correct" % workload)
        check_metrics(workload, 1, traced, directions, SPEC["per_layer"])

        code, corrupted, _ = run(workload, 0, "--corrupt", "answer")
        check(code != 0 and not corrupted["correct"] and
              corrupted["failed"] >= 1,
              "%s corrupted answer fails the output check" % workload)
        code, corrupted, _ = run(workload, 0, "--corrupt", "digest")
        check(code != 0 and not corrupted["correct"],
              "%s corrupted digest fails the replay check" % workload)
    print("selftest passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as error:
        print("FAIL " + str(error))
        sys.exit(1)

#!/usr/bin/env python3
"""Perf-regression gate over the repo's BENCH_*.json telemetry.

Compares freshly generated BENCH_<name>.json files (written by the figure
binaries when --json / P2PAQP_BENCH_JSON is set, see bench/harness.cc)
against the committed reference files in bench/baselines/ and fails when a
benchmark regressed. Every gated field is one row of RULES below:

  field                          bound (defaults)            checked when
  mean_messages                  <= base * 1.10 + 1          always
  messages_per_query             <= base * 1.10 + 1          baseline > 0
  bytes_per_peer                 <= base * 1.10              baseline > 0
  world_build_peak_rss_mb        <= base * 1.15              baseline > 0
  steady_state_allocs_per_event  == 0 (no tolerance knob)    baseline has it
  p99_query_wall_ms              <= base * 1.10              baseline > 0
  deadline_hit_rate              <= base + 0.02              baseline > 0
  events_per_sec                 >= base * 0.75              baseline > 0,
                                                             same threads
  churned_events_per_sec         >= base * 0.75              baseline > 0,
                                                             same threads
  churned_drain_ratio            >= base * 0.75              baseline > 0,
                                                             same threads
  churn_epoch_us                 <= base * 2.0 + 50 us       baseline > 0,
                                                             same threads
  cpu_time_s                     <= base * 1.6               baseline > 0,
                                                             same threads
  wall_time_s                    <= base * 1.25 + 0.5 s      same threads

Message counts, layout sizes, allocation counts and the simulated p99 and
deadline share come out of the deterministic simulation (bit-identical for
any P2PAQP_THREADS), so they are compared regardless of thread count; the
drain rate, the churn epoch and wall time are wall-clock quantities,
compared only when `threads` matches the baseline's. The churn epoch's
wide band still fails a return to a per-peer epoch scan, which costs
several times the bound at every scale tier; the churned drain's floors
fail a return to materialising each holder's live neighbours. Its rate
alone lets a fast-running process of the old code through on a host
whose speed swings, and its ratio to the same process's all-alive drain
rate cancels that swing but not a swing within one run; together they
caught every run of the old code measured. The
wall-time bound's 0.5 s floor keeps sub-second binaries from flapping, but
it also lets them slow down many times over; their process CPU time
(`cpu_time_s`, which a busy host inflates far less than wall time) has no
floor, so doubling such a binary's work trips it. The 10M series (bench/baselines/scale/10m,
run at P2PAQP_SCALE=10 with P2PAQP_BUILD_SPILL_EDGES set) exists mostly for
the RSS bound: it proves a ten-million-peer world builds inside the spilling
builder's memory budget.

Comparison rules:

  * A fresh file is only compared when its `scale` matches the baseline's —
    telemetry at a different P2PAQP_SCALE measures a different world.
  * google-benchmark report files (e.g. BENCH_micro_benchmarks.json, which
    have a top-level "context" key) use a different schema and are skipped.
  * A baseline with no matching fresh file fails the gate: a deleted or
    silently-not-run benchmark must be an explicit baseline change.

tools/bench_gate_selftest.py trips every rule on its own.

Usage:
  python3 tools/bench_gate.py --fresh <dir> [--baselines bench/baselines]
"""

import argparse
import json
import pathlib
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def is_google_benchmark(doc):
    return "context" in doc and "benchmarks" in doc


# The gate, one row per BENCH field. Columns:
#   field      BENCH_*.json key (a missing fresh value reads as 0).
#   better     "lower": fresh must not exceed the limit;
#              "higher": fresh must not fall below the floor.
#   tolerance  relative band around the baseline: the name of the argparse
#              option holding it, a fixed fraction (0.0 for none: limit =
#              baseline + slack), or None for an absolute limit that
#              ignores the baseline.
#   slack      absolute slack added to the limit (subtracted from a floor):
#              a number or the name of an argparse option.
#   applies    "always", "present" (the baseline carries the field) or
#              "nonzero" (the baseline value is > 0).
#   threads    True for wall-clock quantities, compared only when `threads`
#              matches the baseline's.
RULES = (
    # Deterministic message counts: any growth is a real cost change. The
    # scheduler's amortized per-query count lives in messages_per_query.
    ("mean_messages", "lower", "messages_tolerance", 1.0, "always", False),
    ("messages_per_query", "lower", "messages_tolerance", 1.0, "nonzero",
     False),
    # Deterministic layout: resident bytes per peer, peak RSS after build.
    ("bytes_per_peer", "lower", "bytes_tolerance", 0.0, "nonzero", False),
    ("world_build_peak_rss_mb", "lower", "rss_tolerance", 0.0, "nonzero",
     False),
    # The warm drain allocates nothing by contract: exactly 0, no knob.
    ("steady_state_allocs_per_event", "lower", None, 0.0, "present", False),
    # Simulated straggler tail and deadline-degraded share (event clock).
    ("p99_query_wall_ms", "lower", "p99_tolerance", 0.0, "nonzero", False),
    ("deadline_hit_rate", "lower", 0.0, "deadline_hit_slack", "nonzero",
     False),
    # Wall-clock quantities.
    ("events_per_sec", "higher", "events_tolerance", 0.0, "nonzero", True),
    # The same drain with peers down (walker hops through the liveness
    # filter), as a rate and as a share of the all-alive rate.
    ("churned_events_per_sec", "higher", "events_tolerance", 0.0, "nonzero",
     True),
    ("churned_drain_ratio", "higher", "events_tolerance", 0.0, "nonzero",
     True),
    # A revert to a per-peer epoch scan costs several times this band.
    ("churn_epoch_us", "lower", 1.0, 50.0, "nonzero", True),
    # Whole-binary CPU time, no absolute floor: a 2x slowdown trips it.
    ("cpu_time_s", "lower", 0.6, 0.0, "nonzero", True),
    ("wall_time_s", "lower", "wall_tolerance", "wall_floor", "always", True),
)


def knob(value, args):
    return getattr(args, value) if isinstance(value, str) else value


def applies(when, base, field):
    if when == "always":
        return True
    if when == "present":
        return field in base
    return base.get(field, 0.0) > 0.0


def check(name, rule, base, fresh, args):
    """Returns (failed, message) for one rule that applies."""
    field, better, tolerance, slack, _, _ = rule
    base_value = base.get(field, 0.0)
    fresh_value = fresh.get(field, 0.0)
    tol = knob(tolerance, args)
    slack = knob(slack, args)
    anchor = 0.0 if tol is None else base_value
    sign = 1.0 if better == "lower" else -1.0
    bound = anchor * (1.0 + sign * (tol or 0.0)) + sign * slack
    failed = fresh_value > bound if better == "lower" else fresh_value < bound
    band = "" if tol is None else f" {sign * tol:+.0%}"
    if slack:
        band += f" {sign * slack:+g} slack"
    if failed:
        op = ">" if better == "lower" else "<"
        return True, (f"{name}: {field} {fresh_value:g} {op} {bound:g} "
                      f"(baseline {base_value:g}{band})")
    return False, f"{name}: {field} {fresh_value:g} vs baseline " \
                  f"{base_value:g} OK"


def compare(name, base, fresh, args):
    """Returns a list of failure strings and a list of info strings."""
    failures, notes = [], []
    if base.get("scale") != fresh.get("scale"):
        notes.append(
            f"{name}: SKIP (scale {fresh.get('scale')} != baseline "
            f"{base.get('scale')})")
        return failures, notes
    threads_match = base.get("threads") == fresh.get("threads")
    if not threads_match:
        notes.append(
            f"{name}: wall-time SKIP (threads {fresh.get('threads')} != "
            f"baseline {base.get('threads')})")
    for rule in RULES:
        field, _, _, _, when, threads = rule
        if (threads and not threads_match) or not applies(when, base, field):
            continue
        failed, message = check(name, rule, base, fresh, args)
        (failures if failed else notes).append(message)
    return failures, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", required=True,
                        help="directory holding freshly generated "
                             "BENCH_*.json files")
    parser.add_argument("--baselines", default="bench/baselines",
                        help="directory holding reference BENCH_*.json files")
    parser.add_argument("--wall-tolerance", type=float, default=0.25,
                        help="allowed fractional wall-time growth")
    parser.add_argument("--wall-floor", type=float, default=0.5,
                        help="absolute wall-time slack in seconds")
    parser.add_argument("--messages-tolerance", type=float, default=0.10,
                        help="allowed fractional message-count growth")
    parser.add_argument("--bytes-tolerance", type=float, default=0.10,
                        help="allowed fractional bytes_per_peer growth")
    parser.add_argument("--events-tolerance", type=float, default=0.25,
                        help="allowed fractional events_per_sec drop")
    parser.add_argument("--rss-tolerance", type=float, default=0.15,
                        help="allowed fractional world_build_peak_rss_mb "
                             "growth")
    parser.add_argument("--p99-tolerance", type=float, default=0.10,
                        help="allowed fractional p99_query_wall_ms growth")
    parser.add_argument("--deadline-hit-slack", type=float, default=0.02,
                        help="allowed absolute deadline_hit_rate growth")
    args = parser.parse_args()

    baseline_dir = pathlib.Path(args.baselines)
    fresh_dir = pathlib.Path(args.fresh)
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"bench_gate: no baselines under {baseline_dir}",
              file=sys.stderr)
        return 2

    all_failures = []
    for baseline_path in baselines:
        name = baseline_path.name
        base = load(baseline_path)
        if is_google_benchmark(base):
            print(f"{name}: SKIP (google-benchmark report schema)")
            continue
        fresh_path = fresh_dir / name
        if not fresh_path.exists():
            all_failures.append(
                f"{name}: fresh telemetry missing under {fresh_dir} "
                f"(benchmark not run?)")
            continue
        fresh = load(fresh_path)
        if is_google_benchmark(fresh):
            print(f"{name}: SKIP (fresh file is a google-benchmark report)")
            continue
        failures, notes = compare(name, base, fresh, args)
        for note in notes:
            print(note)
        all_failures.extend(failures)

    if all_failures:
        print("\nbench_gate: PERF REGRESSION", file=sys.stderr)
        for failure in all_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nbench_gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

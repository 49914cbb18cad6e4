#!/usr/bin/env python3
"""Builds the p2paqp benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call configures and
builds the library and the benchmark binary (Release) under .bench_build/;
later calls reuse that build. Build output goes to stderr; stdout is the
binary's, whose last line is the result object. Extra flags (--tiny,
--corrupt) pass through to the binary; see perfbench/README.md.
"""
import fcntl
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-scratch")
BINARY = os.path.join(BUILD, "p2paqp_perfbench")
# A hung run is killed after this; a normal one ends well before it.
RUN_TIMEOUT_S = 170


def source_id():
    """Digest of every source file the build reads: it names the code under
    test even where no version-control metadata is at hand."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", os.path.join("bench", "harness.cc"),
                os.path.join("bench", "harness.h")):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            if "__pycache__" in name:
                continue
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "-j4"], check=True,
                       stdout=sys.stderr)


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no p2paqp sources under %s" % ROOT, file=sys.stderr)
        return 1
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1
    os.makedirs(SCRATCH, exist_ok=True)
    command = [BINARY] + argv + ["--scratch", SCRATCH,
                                 "--source-id", source_id()]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

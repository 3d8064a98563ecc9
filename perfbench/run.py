#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is built from source into
.bench_build/perfbench (Release, Ninja when available), its self-test runs,
and then one workload. Build output goes to stderr; the last stdout line is
the workload's JSON result. Exits nonzero, without a result, when the build
or the self-test fails, and nonzero after the result when an output check
failed.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "perfbench-work")
WORKLOADS = ("table1_even", "serve_evict")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)


def source_digest():
    """SHA-256 over the library sources and the benchmark, in path order."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2
    try:
        selftest = subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_selftest")],
            stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        log("self-test did not run: %s" % e)
        return 2
    if selftest.returncode != 0:
        log("self-test failed")
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    print("# provenance " + json.dumps({
        "git_sha": git_sha(), "source_digest": source_digest(),
        "cpu_count": os.cpu_count()}), flush=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench_workloads"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload timed out after %d s" % RUN_TIMEOUT_S)
        return 3
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

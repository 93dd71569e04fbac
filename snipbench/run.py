#!/usr/bin/env python3
"""Build and run snipr's benchmark.

    python3 snipbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 snipbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 snipbench/run.py --self-test

Run from the repository root. The benchmark is built from source into
.bench_build (a CMake project of its own, see CMakeLists.txt), then the
snipbench program runs the workload. With --trace 0 the last stdout line
holds every end-to-end metric of BENCHMARK.json, with --trace 1 every
per-layer metric; the spans of a traced run are written to
.bench_build/out. The exit code is 0 only when every correctness check
passed. README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
OUT_DIR = os.path.join(BUILD_DIR, "out")
BENCH_DIR = os.path.dirname(os.path.relpath(os.path.abspath(__file__)))
# The benchmark is capped at four workers so results from hosts with more
# cores stay comparable; the thread count is part of the host fingerprint.
MAX_THREADS = 4
# Fresh processes whose median set-up time is reported. Set-up takes well
# under a millisecond of cold code, whose speed shifts by a third between
# CPUs and from one second to the next on a shared host, so the samples
# are spread over every CPU, half before and half after the timed run.
SETUP_SAMPLES = 16
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the sources the benchmark builds, for the fingerprint
    when no git metadata is present."""
    digest = hashlib.sha256()
    roots = ["CMakeLists.txt", "src", "include", BENCH_DIR]
    for root in roots:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(root) for f in files)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def revision():
    rev = "nogit"
    if os.path.isdir(".git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
        try:
            rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, env=env,
                                 timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = "nogit"
    return f"{rev}+src.{source_digest()}"


def build(target, threads):
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   "include"):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a snipr checkout")
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")) and \
            shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "--target", target,
                            "-j", str(threads)]):
        # Build chatter goes to stderr: stdout is the benchmark's.
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out", 1)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 1)


def expected_metrics(trace):
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(cmd, deadline, cpu=None):
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              preexec_fn=pin,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("benchmark timed out", 1)


def setup_samples(cmd, deadline, count):
    """Set-up seconds of `count` fresh processes, pinned round-robin to the
    CPUs this process may use."""
    cpus = sorted(os.sched_getaffinity(0))
    samples = []
    for i in range(count):
        done = run(cmd + ["--setup-only"], deadline, cpus[i % len(cpus)])
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            fail("set-up failed", 1)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed < 0
                               or args.seconds < 1):
        parser.error("--workload, a non-negative --seed and --seconds >= 1 "
                     "are required")

    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    target = "snipbench_test" if args.self_test else "snipbench"
    build(target, threads)
    os.makedirs(OUT_DIR, exist_ok=True)
    program = os.path.join(BUILD_DIR, target)
    if args.self_test:
        sys.exit(subprocess.run([program, OUT_DIR], timeout=RUN_TIMEOUT_S).returncode)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(threads), "--out", OUT_DIR,
           "--revision", revision()]
    sample_setup = args.trace == 0 and args.workload != "all"
    setup = []
    if sample_setup:
        setup += setup_samples(cmd, deadline, SETUP_SAMPLES // 2)

    done = run(cmd, deadline)
    sys.stderr.write(done.stderr)
    if sample_setup and done.returncode == 0:
        setup += setup_samples(cmd, deadline, SETUP_SAMPLES - len(setup))
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail(f"snipbench exited {done.returncode} without a result", 1)
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    if args.workload != "all":
        expected = expected_metrics(args.trace)
        got = {name: m["unit"] for name, m in metrics.items()}
        if got != expected:
            print(json.dumps(result))
            fail(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(expected.items()))}", 1)
    if len(setup) == SETUP_SAMPLES:
        metrics["setup_s"]["value"] = statistics.median(setup)
        print(f"setup_s: median of {len(setup)} set-up-only processes")
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

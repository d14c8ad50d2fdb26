#!/usr/bin/env python3
"""Builds the e2ebench package (Release) and runs one workload.

    python3 e2ebench/run.py --workload ft2_local --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR when it
is set (relative paths are taken from the repository root), else to
.bench_build; the first run configures and compiles, later runs only
re-check the build. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Each run writes its data under
<build>/runs/ and removes it afterwards; a traced run leaves its Chrome
trace in <build>/traces/.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ft2_local", "ft2_socket", "graph_reach")
# A run must end well inside three minutes, set-up and warm-up included.
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def check(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        log("failed: " + " ".join(cmd))
        sys.exit(1)


def build(out, target):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        check(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    check(["cmake", "--build", out, "--target", target, "-j", jobs])
    return os.path.join(out, target)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        top, rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            return rev
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "e2ebench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(base) for f in files)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the tests of the benchmark's own logic")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)

    out = build_dir()
    if args.self_test:
        binary = build(out, "e2ebench_test")
        return subprocess.run([binary]).returncode

    binary = build(out, "e2ebench")
    data_dir = os.path.join(out, "runs", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(data_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir, "--commit", source_id()]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]

    child = subprocess.Popen(cmd)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("the run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        if child.poll() is None:
            child.terminate()  # its handler kills the paxml_site peers
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

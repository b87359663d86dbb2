#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload point_read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest        # the harness's unit tests

Run from the repository root. The first call configures and builds the
library and the benchmark (Release) under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls rebuild incrementally. Each
run gets its own uniquely named scratch directory under the build root,
removed on every exit path. Build output goes to stderr; the benchmark's
own output goes to stdout, whose last line is the JSON result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


# The child process running now and the run's scratch directory, so a
# signal can stop the one and remove the other before exiting.
_child = None
_scratch = None


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _stop(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.terminate()
        _child.wait()
    if _scratch is not None:
        shutil.rmtree(_scratch, ignore_errors=True)
    sys.exit(128 + signum)


def call(cmd, timeout, **kwargs):
    """Runs `cmd` to completion (killed after `timeout` s); returns
    (returncode, stdout)."""
    global _child
    _child = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _child.kill()
        _child.wait()
        fail(f"{os.path.basename(cmd[0])} exceeded {timeout}s")
    return _child.returncode, out


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "ltm.h")):
        fail(f"library sources not found under {ROOT}/src")
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if call(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)[0] != 0:
            fail("cmake configure failed")
    if call(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S,
            stdout=sys.stderr)[0] != 0:
        fail("build failed")


def source_id():
    """The git commit of ROOT, or "unknown" outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def run(args, build_dir):
    global _scratch
    runs = os.path.join(build_root(), "runs")
    os.makedirs(runs, exist_ok=True)
    _scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", _scratch, "--commit", source_id()]
    try:
        code, out = call(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(_scratch, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write(out)
        fail(f"benchmark exited with {code}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(out)
        fail("benchmark printed no result line")
    sys.stdout.write(out)
    sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["point_read", "bulk_ingest", "mixed_feed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness unit tests")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    build_dir = os.path.join(build_root(), "perfbench")
    try:
        build(build_dir)
    except OSError as e:
        fail(f"build failed: {e}")
    if args.selftest:
        sys.exit(call([os.path.join(build_dir, "perfbench_tests")],
                      RUN_TIMEOUT_S, stdout=sys.stderr)[0])
    if args.workload is None:
        fail("--workload is required")
    if args.seconds < 1:
        fail("--seconds must be >= 1")
    run(args, build_dir)


if __name__ == "__main__":
    main()

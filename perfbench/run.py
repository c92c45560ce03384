#!/usr/bin/env python3
"""Builds and runs the anmat end-to-end benchmark.

Run from the root of an anmat checkout:

    python3 perfbench/run.py --workload batch_clean|stream_feed|daemon_rw \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds the library and anmat_perfbench
(Release) under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later calls rebuild only what changed. anmat_perfbench's stdout is passed
through: one line per metric, then the result line as the last line. The
exit status is anmat_perfbench's (0 only when every output check passed); a
failed build exits 2 without printing a result. See perfbench/NOTES.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("batch_clean", "stream_feed", "daemon_rw")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(root, build_dir, targets):
    """Configures (once) and builds `targets`; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  *targets])
    for step in steps:
        done = subprocess.run(step, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def git_sha(root):
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the tests of the benchmark's "
                             "own helpers")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src", "perfbench"):
        if not os.path.exists(os.path.join(root, needed)):
            log(f"{needed} not found in {root}: run from the root of an "
                "anmat checkout")
            return 2
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"), "perfbench")

    if args.self_test:
        if not build(root, build_dir, ["perfbench_selftest"]):
            return 2
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest")]).returncode

    if not build(root, build_dir, ["anmat_perfbench"]):
        return 2

    # A relative work directory inside the checkout keeps the daemon's unix
    # socket path short.
    work_dir = os.path.join(".bench_work", f"{args.workload}-{os.getpid()}")
    command = [os.path.join(build_dir, "anmat_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--git-sha", git_sha(root)]
    bench = subprocess.Popen(command, cwd=root)
    try:
        code = bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        bench.kill()
        bench.wait()
        log(f"anmat_perfbench exceeded {RUN_TIMEOUT_S} s and was stopped")
        code = 3
    finally:
        shutil.rmtree(os.path.join(root, work_dir), ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".bench_work"))
        except OSError:
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())

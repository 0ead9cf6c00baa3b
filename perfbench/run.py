#!/usr/bin/env python3
"""Builds the program and runs one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The repository is built through its own CMake build (library targets only),
then the benchmark binary (grsbench) in perfbench/ is built against them.
Build output goes to $CARGO_TARGET_DIR (default .bench_build) and to stderr;
grsbench's last stdout line is the result JSON object.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["corpus-sweep", "grs-generated", "worker-pool", "daemon-jobs"]
LIB_TARGETS = ["grs_svc", "grs_sweep", "grs_lang", "grs_corpus", "grs_inject",
               "grs_trace", "grs_pipeline", "grs_rt", "grs_obs", "grs_race",
               "grs_support"]
# Headroom for set-up and teardown on top of the measured seconds. The
# benchmark exits on its own well before; this only stops a hung process.
RUN_SLACK_SECONDS = 60


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_step(cmd):
    log(" ".join(cmd))
    # Build chatter goes to stderr so stdout carries only the result.
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    repo_build = os.path.join(build_dir, "repo")
    bench_build = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(repo_build, "CMakeCache.txt")):
        run_step(["cmake", "-S", root, "-B", repo_build, *generator,
                  "-DCMAKE_BUILD_TYPE=Release"])
    run_step(["cmake", "--build", repo_build, "-j", jobs,
              "--target", *LIB_TARGETS])
    if not os.path.exists(os.path.join(bench_build, "CMakeCache.txt")):
        run_step(["cmake", "-S", os.path.join(root, "perfbench"),
                  "-B", bench_build, *generator,
                  "-DCMAKE_BUILD_TYPE=Release",
                  f"-DGRS_SOURCE_DIR={root}",
                  f"-DGRS_BUILD_DIR={repo_build}"])
    run_step(["cmake", "--build", bench_build, "-j", jobs])
    return os.path.join(bench_build, "grsbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show every correctness oracle rejecting a wrong input")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(root, "src", "rt", "Runtime.h"))):
        log(f"no gorace-study source tree at {root}; nothing to build")
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    # Scratch space of this run (the sweep service's state directory lives
    # here); removed whatever way the run ends.
    work_dir = os.path.join(build_dir, "run", str(os.getpid()))
    if args.self_test:
        cmd = [binary, "--self-test"]
        limit = 170
    else:
        trace_out = os.path.join(build_dir, "traces",
                                 f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--trace-out", trace_out]
        limit = args.seconds + RUN_SLACK_SECONDS
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        code = proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        log(f"grsbench still running after {limit}s; killing it")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3
    finally:
        # Pool workers die with their parent (PR_SET_PDEATHSIG); anything
        # left in the process group is killed here as well.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work_dir, ignore_errors=True)
    log(f"grsbench exited with {code} after {time.monotonic() - start:.1f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs the svx serving benchmark.

Builds this directory as its own CMake project -- the library sources under
src/ and serve_bench.cc, optimized -- into .bench_build/servebench, runs
one workload with serve_bench and relays its result. Run from the repository
root:

    python3 servebench/run.py --workload update --seed 1 --seconds 45 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Without the library sources, or when the
build or the run fails, it exits non-zero and prints no result. Everything
it writes (build tree, compiler temporaries, the view store) stays under
.bench_build/.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(WORK_DIR, "servebench")
TMP_DIR = os.path.join(WORK_DIR, "tmp")
WORKLOADS = ("update", "sharded")
# A first build compiles the whole library; later runs only check it.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 160
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and returns (exit code, stdout).

    On a timeout or an interrupt the whole group is killed and waited for.
    """
    env = dict(os.environ, TMPDIR=TMP_DIR)
    proc = subprocess.Popen(cmd, start_new_session=True, env=env, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    """Configures once, then builds; returns serve_bench's path or None."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code, _ = run(cmd, BUILD_TIMEOUT_S, stdout=log,
                              stderr=subprocess.STDOUT)
            except (OSError, subprocess.TimeoutExpired) as e:
                print("servebench: build failed: %s" % e, file=sys.stderr)
                return None
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                print("servebench: build failed, log in " + log_path,
                      file=sys.stderr)
                return None
    return os.path.join(BUILD_DIR, "serve_bench")


def main():
    parser = argparse.ArgumentParser(description="svx serving benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops and waits for the process group it runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    sources = os.path.join(ROOT, "src", "viewstore", "view_catalog.h")
    if not os.path.isfile(sources):
        print("servebench: no library sources under " +
              os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    os.makedirs(TMP_DIR, exist_ok=True)
    binary = build()
    if binary is None:
        return 1
    store = os.path.join(WORK_DIR, "store-%d" % os.getpid())
    shutil.rmtree(store, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--store", store]
    try:
        code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("servebench: the run took over %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(store, ignore_errors=True)

    lines = out.splitlines()
    result = None
    if code == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        print("servebench: serve_bench exited with %d and no result" % code,
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

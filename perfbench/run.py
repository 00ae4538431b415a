#!/usr/bin/env python3
"""Build and run the measured benchmark of distributed training.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the adaqp library and the benchmark from source (Release, into
.bench_build/ at the repository root; a no-op when nothing changed), then
runs one workload in a single process and passes its output through: the
last line of standard output is the JSON result. Build output goes to
standard error. Any other flag is handed to the benchmark (see README.md).
--selftest builds and runs the tests of the benchmark's own code instead.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
RUN_TIMEOUT_S = 170  # a run must end within 180 s; a hung one is killed


def build(target):
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} of the adaqp sources is missing from {ROOT}")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, target)


def main(argv):
    try:
        if argv == ["--selftest"]:
            return subprocess.run([build("perfbench_selftest")]).returncode
        binary = build("perfbench")
    except subprocess.CalledProcessError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary, "--out", OUT_DIR] + argv,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run killed after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

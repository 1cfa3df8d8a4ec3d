#!/usr/bin/env python3
"""Build the library and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload warm_steady --seed 1 --seconds 10 --trace 0

Builds perfbench/build (CMake release configuration; only rebuilds what
changed) and runs the perfbench binary. Build output goes to standard
error; the binary's standard output is passed through, and its last line is
the JSON result. The exit code is the binary's: 0 when every response was
correct and every accounting identity held. Without the library sources
next to this directory it exits 2 before building anything.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("warm_steady", "azure_open", "chain_fused")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: library sources not found under %s\n" % ROOT)
        return 2
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return 2
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", BUILD, "--target", "perfbench",
                        "-j", jobs], stdout=sys.stderr) != 0:
        return 2
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--inject-wrong", type=int, default=0,
                        help="corrupt every Nth body response (self-test)")
    args = parser.parse_args()

    status = build()
    if status != 0:
        return status
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", os.path.join(BUILD, "spans")]
    if args.inject_wrong:
        command += ["--inject-wrong", str(args.inject_wrong)]
    sys.stdout.flush()
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main())

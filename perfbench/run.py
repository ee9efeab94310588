#!/usr/bin/env python3
"""Builds perfbench from source (Release) and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The build lives in $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; build output goes to stderr so
the benchmark's last stdout line stays its JSON result.  Exits non-zero
without a result when the library sources are missing or the build
fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the perfbench target; returns the
    binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main(argv):
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "rtl", "simulator.hpp")):
        print("perfbench: no library sources next to %s" % HERE,
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    out_dir = os.path.join(build_dir, "out")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    return subprocess.run([binary, *argv, "--out-dir", out_dir]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

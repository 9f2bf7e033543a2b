#!/usr/bin/env python3
r"""Builds the end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 cfxbench/run.py --workload batch-cold --seed 1 --seconds 25 \
        --trace 0

The first call configures and builds a Release copy of the product
library (../src) and the harness under .bench_build/cfxbench; later calls
only rebuild what changed. Build output goes to stderr, so the last line
of stdout is the harness's JSON result. Session directories and trace
files go to .bench_build/out. Any argument after the four the harness
requires (for instance --scale, used by the self-test) is passed through.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cfxbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")


def source_id():
    """The git sha when the checkout is a git repository; otherwise a
    digest of the product sources, so results still name what ran."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "nogit-src-sha256:" + digest.hexdigest()[:16]


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("cfxbench: no src/ under %s; run from the repository root"
              % ROOT, file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("cfxbench: build failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 2
    binary = os.path.join(BUILD_DIR, "cfxbench")
    cmd = [binary] + argv + [
        "--workloads-dir", os.path.join(HERE, "workloads"),
        "--out-dir", OUT_DIR,
        "--git-sha", source_id(),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Builds the qabench benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 qabench/run.py --workload cold_answer --seed 1 --seconds 10 --trace 0

The first call configures and compiles qabench/ (which compiles ../src)
into .bench_build/ (or $CARGO_TARGET_DIR, when set); later calls rebuild
incrementally. The benchmark's self-tests run before every measurement.
Build output goes to stderr, so the last line of stdout is the result JSON
that qabench prints. The exit code is qabench's: 0 only when every
correctness check passed.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    out = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(out):
        out = os.path.join(ROOT, out)
    return os.path.join(out, "qabench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_quiet(configure):
            shutil.rmtree(out, ignore_errors=True)
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    return run_quiet(["cmake", "--build", out, "-j", jobs])


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()[:12]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "qabench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in sorted(os.walk(base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src:" + digest.hexdigest()[:12]


def main():
    out = build_dir()
    if not build(out):
        print("qabench: build failed", file=sys.stderr)
        return 1
    if not run_quiet([os.path.join(out, "qabench_selftest"), "--gtest_brief=1"]):
        print("qabench: self-tests failed", file=sys.stderr)
        return 1
    work = os.path.join(os.path.dirname(out), "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "qabench")] + sys.argv[1:] + [
        "--work-dir", work, "--source-id", source_id()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the end-to-end CARBON/COBRA benchmark.

Run from the repository root:

    python3 e2e_bench/run.py --workload carbon_n500_m30_p4 --seed 0 \
        --seconds 30 --trace 0
    python3 e2e_bench/run.py --smoke

The first call configures and builds e2e_bench (and the solver libraries
it links, from this checkout's sources) in a Release build under
$CARGO_TARGET_DIR/e2e_bench, or .bench_build/e2e_bench when that variable
is unset; later calls only rebuild what changed. Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. Traced runs write their spans under the build directory.
"""
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2e_bench")


def build(out):
    """Configures and builds the benchmark; returns its path or None."""
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "Makefile")):
        configure += ["-G", "Ninja"]
    with open(os.path.join(out, "build.lock"), "w") as lock:
        # Concurrent invocations build once.
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (configure,
                    ["cmake", "--build", out, "--target", "e2e_bench",
                     "-j", jobs]):
            if subprocess.run(cmd, stdout=sys.stderr,
                              stderr=sys.stderr).returncode != 0:
                return None
    return os.path.join(out, "e2e_bench")


def main():
    out = build_dir()
    binary = build(out)
    if binary is None:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--trace" in args and "--smoke" not in args:
        args += ["--spans-dir", os.path.join(out, "spans")]
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

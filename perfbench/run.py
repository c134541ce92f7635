#!/usr/bin/env python3
"""Build the zerodeg benchmark from source and run one workload.

    python3 perfbench/run.py --workload archive|traffic|campaign \
        --seed N --seconds S --trace 0|1 [--base-seed B]

Run it from the root of a checkout.  It configures and builds
perfbench/CMakeLists.txt (the simulator's libraries from src/ plus the
benchmark program zerodeg_bench) into $CARGO_TARGET_DIR, or .bench_build
when that is unset, then runs zerodeg_bench.  Build output goes to stderr;
the last line of stdout is the JSON result.  The exit code is non-zero when
the build fails, the run fails, or an output check fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run itself is bounded well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no src/ beside perfbench/; nothing to build", file=sys.stderr)
        return False
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir],
        ["cmake", "--build", build_dir, "-j", "3", "--target", "zerodeg_bench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(build_dir)
    if not build(build_dir):
        return 1
    # Relative paths keep the campaign's socket paths short.
    work = os.path.relpath(os.path.join(build_dir, "work"))
    cmd = [os.path.join(build_dir, "zerodeg_bench")] + sys.argv[1:] + [
        "--pins", os.path.relpath(os.path.join(HERE, "pins")),
        "--work-dir", work,
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark overran %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build hima_e2e from source, then run it with the given arguments.

Run from the repository root:

    python3 bench/e2e/run.py --workload local_short --seed 1 --seconds 20 --trace 0

The build tree is $CARGO_TARGET_DIR/e2e when that variable is set, and
build-e2e otherwise; it is configured on first use and brought up to date
on every call. Build output goes to stderr, so the last stdout line stays
the benchmark's result JSON. Unix socket endpoints and trace files go to
the build tree too. A failed build exits nonzero without printing a result.
"""

import os
import subprocess
import sys

SOURCE_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    return os.path.join(target, "e2e") if target else "build-e2e"


def build(out):
    """Configure (first use) and build hima_e2e; returns the binary path."""
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = subprocess.run(
            ["cmake", "-S", SOURCE_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if configure.returncode != 0:
            if os.path.exists(cache):  # configure again next time
                os.remove(cache)
            raise subprocess.CalledProcessError(configure.returncode, configure.args)
    subprocess.run(["cmake", "--build", out, "-j4", "--target", "hima_e2e"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "hima_e2e")


def main():
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: cannot build hima_e2e: {err}", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--run-dir" not in args:
        args += ["--run-dir", out]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of xmlac: builds the driver, runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The driver (perfbench/CMakeLists.txt) is
built from the sources under src/ into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; the first run builds,
later runs only check that the build is current.  Build output goes to
stderr; the driver's last stdout line, one JSON object, is printed as the
last line of this script's stdout.  See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_driver")


def main(argv):
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        print("perfbench: xmlac sources not found under " + REPO,
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.abspath(os.path.join(REPO, target))
    try:
        driver = build(os.path.join(build_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    cmd = [driver] + argv + ["--work-dir", os.path.join(build_root, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""One-command entry point of the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/bench.exe from source with
dune (inside the checkout: no shared dune cache), then runs it with the
same arguments; its stdout ends with one JSON result line.  Exits non-zero
without a result when the build or the run fails.  See perfbench/README.md.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("run.py: run from the repository root (dune-project and lib/ are missing)\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=850,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stderr.decode(errors="replace"))
        sys.stderr.write("run.py: build failed\n")
        return 1
    return subprocess.run([EXE] + sys.argv[1:], timeout=175).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the benchmark and the agp daemon from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload road-bfs --seed 42 --seconds 20 --trace 0

Build output goes to stderr.  The last line of stdout is the JSON result
(see perfbench/README.md).  Exits non-zero when the build fails, for
instance outside a full checkout of the repository.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main():
    if not os.path.isfile("dune-project"):
        print("perfbench: run from the root of a checkout (no dune-project here)", file=sys.stderr)
        return 2
    # the shared dune cache lives outside the checkout; keep the build inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe", "./bin/agp_cli.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 trussbench/run.py --workload build --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and every scratch file stay under
.bench_build/ in the repository root. Arguments are passed through to the
benchmark binary, whose last line of standard output is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")


def main():
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(OUT, "gocache"),
        GOPATH=os.path.join(OUT, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(OUT, "trussbench")
    build = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr, timeout=840,
    )
    if build.returncode != 0:
        print("trussbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run(
        [binary, "-work", OUT] + sys.argv[1:], cwd=ROOT, env=env, timeout=900,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

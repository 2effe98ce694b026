#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload session_long --seed 1 --seconds 10 --trace 0

The benchmark is its own Go module (perfbench/go.mod) that imports the
repository's packages through a replace directive, so it always measures
the source tree it sits in. Everything the build and the run write stays
under .bench_build/ in the repository root: the Go build cache, the
binary, temporary files, flight recordings and the traced run's span
files. Build output goes to standard error; the benchmark's result is the
last line of standard output.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    # HOME and the XDG directories point into .bench_build too, so nothing
    # the go command keeps per user (telemetry counters, config) lands
    # outside the checkout.
    env.update(
        HOME=os.path.join(build, "home"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    ran = subprocess.run([binary, *sys.argv[1:], "--workdir", build], env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())

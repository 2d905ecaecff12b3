"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload table-sweep --seed 0 --seconds 30 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that uses the
simulator through a replace directive pointing at the repository root.
It is built from source on every run, with the build cache, the binary
and the benchmark's scratch files kept under .bench_build/ in the
repository, and then run from the repository root with the arguments
given. The last line the benchmark prints is its JSON result.
"""

import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    # Keep everything the go command writes (build cache, temporary
    # files, its own configuration and counters) inside the repository.
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())

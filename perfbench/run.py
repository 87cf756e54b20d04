#!/usr/bin/env python3
"""Build perfbench from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload tree-steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py -out report.json

Every argument goes to the perfbench binary (see README.md). The Go
build cache, module cache, temporary files and the binary all stay under
.bench_build/ in the current directory, and the build never touches the
network. A failed build exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys


def main():
    build = os.path.abspath(".bench_build")
    src = os.path.dirname(os.path.abspath(__file__))
    go = shutil.which("go")
    if go is None:
        sys.exit("perfbench: the go toolchain is not on PATH")

    env = dict(os.environ)
    for var, sub in [
        ("HOME", "home"),
        ("XDG_CONFIG_HOME", "home/.config"),
        ("XDG_CACHE_HOME", "home/.cache"),
        ("GOPATH", "gopath"),
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gopath/pkg/mod"),
        ("TMPDIR", "tmp"),
        ("GOTMPDIR", "tmp"),
    ]:
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOFLAGS="", GOWORK="off", GOTOOLCHAIN="local", GOPROXY="off")

    binary = os.path.join(build, "bin", "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit("perfbench: build failed")
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build castd and the benchmark from this checkout, then run one workload.

    python3 perfbench/run.py --workload cast-skim --seed 1 --seconds 10 --trace 0

Run from the repository root. Everything the build and the run write goes
under .bench_build/ (Go build cache, binaries, castd logs, artifact stores,
span dumps), so the run touches nothing outside the checkout. Arguments are
passed to the benchmark binary unchanged; its last line of output is the
JSON result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        # The go command keeps telemetry counters under the user config
        # directory; point it (and HOME) into the build directory.
        HOME=os.path.join(BUILD, "home"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "home", ".config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "home", ".cache"),
    )
    return env


def build(env, cwd, out, pkg):
    r = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        sys.exit("run.py: building %s failed" % pkg)


def main():
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    castd = os.path.join(BUILD, "castd")
    bench = os.path.join(BUILD, "perfbench")
    build(env, ROOT, castd, "./cmd/castd")
    build(env, os.path.join(ROOT, "perfbench"), bench, ".")
    args = [bench] + sys.argv[1:] + ["--castd", castd, "--workdir", os.path.join(BUILD, "work")]
    sys.exit(subprocess.run(args, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()

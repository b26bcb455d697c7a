#!/usr/bin/env python3
"""Build the mpxbench benchmark from source and run one workload.

Usage (from anywhere; paths resolve against this file):

    python3 mpxbench/run.py --workload build-rmat --seed 1 --seconds 10 --trace 0

The Go build cache, temp files, the binary and the run's scratch files all
live under .bench_build/ at the repository root. The benchmark module
(mpxbench/go.mod) replaces module mpx with the repository root, so the
build fails, and this script exits non-zero without printing a result,
when the repository sources are absent.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    return env


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return ""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def main(argv):
    binary = os.path.join(BUILD, "mpxbench", "mpxbench")
    os.makedirs(os.path.dirname(binary), exist_ok=True)
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(),
                           stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 2
    cmd = [binary, *argv, "--root", ROOT, "--commit", commit()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

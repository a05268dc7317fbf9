#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload hold|fill|sssp --seed N \
        --seconds S --trace 0|1

Builds perfbench/main.exe from source in dune's release profile, into
_perfbench_build/ at the repository root, then runs it with the given
arguments. Its output passes through unchanged: a provenance block, one
line per metric, and as the last line the JSON result. The exit status
is the benchmark's own: non-zero when the build fails, a correctness
oracle fails, or the run exceeds its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "_perfbench_build")
EXE = os.path.join(BUILD, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def build(*targets):
    """Build [targets] in the release profile; True on success. Dune's
    shared cache is off so the build reads and writes only the tree."""
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release",
           "--build-dir", BUILD] + list(targets)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return False
    return r.returncode == 0


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if r.returncode != 0:
        return "unknown"
    return r.stdout.strip() + (" (modified)" if dirty.stdout.strip() else "")


def run(args, timeout=RUN_TIMEOUT_S, **kw):
    """Run the benchmark binary; the CompletedProcess, or None on
    timeout (the process is killed and reaped first)."""
    # runtime-event rings of the traced run live in the build directory
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=BUILD)
    cmd = [EXE] + list(args) + ["--commit", commit()]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout, **kw)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout} s", file=sys.stderr)
        return None


def main():
    if not build("./perfbench/main.exe"):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    r = run(sys.argv[1:])
    return 1 if r is None else r.returncode


if __name__ == "__main__":
    sys.exit(main())

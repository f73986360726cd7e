#!/usr/bin/env python3
"""Build flash_serve and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload hot_small --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Everything the run writes
(dune's _build, the seeded docroot, spans and result records) stays
inside the checkout: _build/ and .perfbench-run/.  The last line of
standard output is the result as one JSON object.
"""

import argparse
import os
import signal
import subprocess
import sys

def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def revision():
    """The git commit of the checkout, or "unknown" outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "bin/flash_serve.ml", "lib/live/server.ml"):
        if not os.path.exists(need):
            die("%s not found: run from the root of a flash source checkout" % need)

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/flash_serve.exe",
         "./perfbench/flashbench.exe"],
        stdout=sys.stderr, env=env, timeout=850)
    if build.returncode != 0:
        die("build failed", 1)

    # The run, server and generators alike, shares one CPU.  On a small
    # shared VM, a request that crosses vCPUs waits for the host to
    # schedule the other one, so a run's speed followed the neighbours:
    # cold_miss req/s moved 49% (IQR / median over 5 seeds) unpinned,
    # 20% with server and generators on CPUs of their own, and 11% on
    # one CPU.  On one CPU, every request costs its CPU time and no
    # wake-up latency.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    cmd = ["_build/default/perfbench/flashbench.exe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve", "_build/default/bin/flash_serve.exe",
           "--workdir", ".perfbench-run", "--rev", revision()]
    # Its own process group, so a timeout also stops the flash_serve
    # children it started.
    run = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = run.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        die("run timed out", 1)
    sys.exit(code)


if __name__ == "__main__":
    main()

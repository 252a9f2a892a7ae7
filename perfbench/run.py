#!/usr/bin/env python3
"""Loopback end-to-end benchmark for `gpp serve` and `gpp gateway`.

Builds the `gpp` binary and the perfbench harness from the checkout this
file lives in, then runs one measurement:

    python3 perfbench/run.py --workload hot --seed 1 --seconds 10 --trace 0

The last line of standard output is the harness's JSON result; build output
and the human-readable summary go to standard error. Workloads, metrics and
the trace format are described in perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("hot", "miss", "gateway")

# A run measures for --seconds (at most 60) plus set-up, warm-up and, when
# traced, the probes and the replay; a harness still running after this
# is hung.
HARNESS_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
        os.path.join(root, "crates", "cli")
    ):
        print("perfbench: no gpp workspace next to perfbench/", file=sys.stderr)
        return 2

    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "gpp-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    )
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--gpp", os.path.join(release, "gpp"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # A process group of its own, so a hung harness and every server it
    # started are stopped together.
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: the harness timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: the harness exited with {proc.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(out.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())

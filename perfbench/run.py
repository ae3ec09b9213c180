#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload sweep|flood|testnet --seed N \
        --seconds S --trace 0|1 [--scale full|tiny]

Run from the root of a checkout. Builds the release `setagree-node`
binary and the `perfbench` package into `$CARGO_TARGET_DIR` (default
`.bench_build`), prints the machine record, then runs `perfbench`,
whose last stdout line is the JSON result. See perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import platform
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Each run must end well within 180 s; the measuring loop itself takes
# --seconds plus set-up and probes.
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    for manifest, extra in (
        ("Cargo.toml", ["--bin", "setagree-node"]),
        (os.path.join("perfbench", "Cargo.toml"), []),
    ):
        if not os.path.isfile(os.path.join(ROOT, manifest)):
            fail(f"{manifest} is missing: run from a full checkout of the repository")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + extra
        env = dict(os.environ, CARGO_TARGET_DIR=target)
        result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if result.returncode != 0:
            fail(f"`{' '.join(cmd)}` failed with exit code {result.returncode}")


def command_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def reap_group(pgid):
    """Kills whatever is left of the benchmark's process group and reaps
    every child, including orphaned grandchildren adopted as subreaper."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "flood", "testnet"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--scale", default="full", choices=["full", "tiny"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    build(target)
    bench = os.path.join(target, "release", "perfbench")
    node = os.path.join(target, "release", "setagree-node")
    out_dir = os.path.join(ROOT, ".bench_out")

    print(f"seed: {args.seed}")
    print(f"nproc: {os.cpu_count()}")
    print(f"cpu: {cpu_model()}")
    print(f"rustc: {command_line(['rustc', '-V'])}")
    print(f"git: {command_line(['git', 'rev-parse', 'HEAD'])}")
    print(f"node binary: {os.path.relpath(node, ROOT)}")
    sys.stdout.flush()

    # Orphaned node processes of a killed testnet are re-parented here,
    # so they can be reaped.
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--node-bin", node, "--out-dir", out_dir, "--scale", args.scale]
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(child.pid)
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    finally:
        reap_group(child.pid)
    sys.stdout.write(out)
    if child.returncode != 0:
        fail(f"perfbench exited with code {child.returncode}")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("perfbench printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys: {sorted(result)}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the WASABI benchmark.

    python3 perfbench/run.py --workload campaign-paper --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is a cargo package of its own
(perfbench/Cargo.toml) built against the workspace crates; the build goes to
$CARGO_TARGET_DIR, or .bench_build when that is unset. Every argument other
than --self-test is handed to the benchmark binary (see perfbench/src/main.rs);
with --trace 1 its spans are written next to the build as
spans-<workload>-<seed>.jsonl.

--self-test checks that each ground-truth check can fail: on its own workload
and scale, one pass each, a clean run must report failed == 0 and a run with
one corrupted label or verdict must report failed > 0.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Each workload and the corruptions (--corrupt) that break its truth checks.
CORRUPTIONS = {
    "campaign-paper": ["structure"],
    "lint-paper": ["policy", "amp"],
    "repair-small": ["fixed"],
}


def build():
    """Builds the benchmark binary and returns its path, or None."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("perfbench: the WASABI workspace crates are missing", file=sys.stderr)
        return None
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    command = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "wasabi-perfbench")


def flag(args, name):
    if name in args:
        index = args.index(name)
        if index + 1 < len(args):
            return args[index + 1]
    return None


def self_test(binary):
    """Runs each workload clean and under each corruption; returns an exit code."""
    status = 0
    for workload, corruptions in CORRUPTIONS.items():
        for corrupt in [None] + corruptions:
            args = [binary, "--workload", workload, "--seed", "0", "--seconds", "1",
                    "--trace", "0"]
            if corrupt:
                args += ["--corrupt", corrupt]
            done = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            if result is None:
                ok = False
            elif corrupt:
                ok = result["failed"] > 0 and not result["correct"]
            else:
                ok = result["failed"] == 0 and result["correct"]
            share = "-" if result is None else f"{result['failed']}/{result['attempted']}"
            label = corrupt or "clean"
            print(f"{workload:<15} {label:<9} failed {share:<7} {'ok' if ok else 'FAIL'}",
                  flush=True)
            status |= 0 if ok else 1
    return status


def main():
    args = sys.argv[1:]
    binary = build()
    if binary is None:
        return 2
    if args == ["--self-test"]:
        return self_test(binary)
    if flag(args, "--trace") == "1":
        target = os.path.dirname(os.path.dirname(binary))
        name = f"spans-{flag(args, '--workload')}-{flag(args, '--seed')}.jsonl"
        args = args + ["--spans-out", os.path.join(target, name)]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())

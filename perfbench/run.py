#!/usr/bin/env python3
"""Builds the `dts` CLI and the perfbench binary from source, then runs one
workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The last line of standard output is the benchmark's JSON result; build
output and the run summary go to standard error. Builds land in
$CARGO_TARGET_DIR (default `.bench_build`), inputs and spans in
`.bench_out`, both at the repository root. `--self-test` runs every
workload briefly against a deliberately wrong reference and checks that
the result reports failed ops instead of passing.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["run_md200k", "sweep_paper", "serve_hits", "serve_mixed"]


def build(manifest, package, binary):
    """Builds one release binary and returns its path."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked",
        "--manifest-path", str(manifest), "-p", package, "--bin", binary,
        "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"run.py: building {binary} failed")
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == binary:
            return msg["executable"]
    sys.exit(f"run.py: cargo reported no executable for {binary}")


def run_bench(exe, dts, args):
    """Runs the benchmark binary; returns its exit code and last stdout line."""
    cmd = [exe, *args, "--dts", dts, "--out", str(ROOT / ".bench_out")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines[-1] if lines else ""


def self_test(exe, dts):
    """Each workload, with a planted wrong reference, must report failures."""
    ok = True
    for workload in WORKLOADS:
        code, line = run_bench(exe, dts, [
            "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0",
            "--plant-wrong-reference",
        ])
        result = json.loads(line) if code == 0 and line else None
        caught = result is not None and result["correct"] is False and result["failed"] > 0
        print(f"self-test {workload}: "
              f"{'caught' if caught else 'NOT CAUGHT'} ({line or f'exit {code}'})",
              file=sys.stderr)
        ok = ok and caught
    print(json.dumps({"self_test": "passed" if ok else "failed"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    manifest = ROOT / "Cargo.toml"
    if not manifest.is_file() or not (ROOT / "crates" / "cli").is_dir():
        sys.exit(f"run.py: {ROOT} holds no dts workspace to build")
    os.environ.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    dts = build(manifest, "dts_cli", "dts")
    exe = build(ROOT / "perfbench" / "Cargo.toml", "perfbench", "perfbench")

    if args.self_test:
        return self_test(exe, dts)
    code, line = run_bench(exe, dts, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
    ])
    if code == 0:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

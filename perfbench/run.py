#!/usr/bin/env python3
"""Build and run the DGFIndex benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload agg_fine --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The first form builds the `dgf-perfbench` package (release, offline) and
runs one workload; the last line of its standard output is the result
object. `--smoke` runs every workload named in BENCHMARK.json at its tiny
size, traced and untraced, and fails unless every answer is correct and
every metric BENCHMARK.json names is emitted.

Build output goes to $CARGO_TARGET_DIR (default `.bench_build`); run
scratch goes to `.bench_work`. Both are relative to the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def git_rev():
    """HEAD's commit id, read from .git without leaving the repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    """Build the benchmark binary and return its path."""
    if not os.path.exists(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("the DGFIndex sources (crates/) are not beside perfbench/")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if proc.returncode != 0:
        fail("build failed")
    binary = os.path.join(ROOT, target, "release", "dgf-perfbench")
    if not os.path.exists(binary):
        fail(f"built binary not found at {binary}")
    return binary


def run(binary, argv):
    """Run the binary from the repository root; return (code, stdout)."""
    env = dict(os.environ, PERFBENCH_GIT_REV=git_rev())
    try:
        proc = subprocess.run(
            [binary] + argv,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"run timed out after {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        "0": {m["name"] for m in spec["end_to_end"]},
        "1": {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in ("0", "1"):
            argv = ["--workload", w["name"], "--seed", "7", "--seconds", "1", "--trace", trace, "--tiny"]
            code, out = run(binary, argv)
            label = f"{w['name']} trace={trace}"
            if code != 0:
                problems.append(f"{label}: exit code {code}")
                continue
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} operations failed")
            got = set(result["metrics"])
            if got != wanted[trace]:
                problems.append(
                    f"{label}: missing {sorted(wanted[trace] - got)}, unexpected {sorted(got - wanted[trace])}"
                )
            print(f"{label}: {result['attempted']} operations, {len(got)} metrics")
    if problems:
        fail("smoke failed:\n  " + "\n  ".join(problems))
    print("smoke passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--tiny", action="store_true", help="run the smoke-size configuration")
    ap.add_argument("--smoke", action="store_true", help="check every workload at tiny size")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if args.smoke:
        smoke(binary)
        return
    argv = ["--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace]
    if args.tiny:
        argv.append("--tiny")
    code, out = run(binary, argv)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        sys.exit(code)


if __name__ == "__main__":
    main()

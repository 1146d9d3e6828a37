#!/usr/bin/env python3
"""Build and run the CTCP benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold-long --seed 1 --seconds 15 --trace 0

Builds the benchmark binary (perfbench/Cargo.toml) and the `ctcp` daemon
binary from source into $CARGO_TARGET_DIR (default .bench_build), then runs
one workload. The last line of stdout is the JSON result object; the exit
code is non-zero when a build fails or an output check fails.

    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

runs every workload in turn, prefixing each output line with the workload's
name; its last line merges the three result objects (metrics named
<workload>.<metric>).

    python3 perfbench/run.py --self-test

checks that a corrupted committed digest is caught: the run must report
correct=false and exit non-zero, while the true digests pass.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("cold-long", "warm-grid", "serve-mixed")
RUN_TIMEOUT_S = 170


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Builds both binaries; returns their paths or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "ctcp-cli", "--bin", "ctcp"],
    ]
    for cmd in steps:
        if not os.path.exists(cmd[cmd.index("--manifest-path") + 1]):
            print(f"run.py: missing {cmd[cmd.index('--manifest-path') + 1]}",
                  file=sys.stderr)
            return None
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "ctcp-perfbench"), os.path.join(release, "ctcp")


def run(bench, ctcp, workload, seed, seconds, trace, digests=None):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--ctcp", ctcp]
    if digests:
        cmd += ["--digests", digests]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1, []
    return proc.returncode, out.splitlines()


def self_test(bench, ctcp):
    """A corrupted digest must fail the run; the committed ones must pass."""
    good = os.path.join("perfbench", "digests.json")
    bad = os.path.join("perfbench", "out", "digests-corrupted.json")
    os.makedirs(os.path.dirname(bad), exist_ok=True)
    with open(good) as f:
        doc = json.load(f)
    first = doc["cold-long"]["cells"][0]
    doc["cold-long"]["cells"][0] = ("0" if first[0] != "0" else "1") + first[1:]
    with open(bad, "w") as f:
        json.dump(doc, f)
    ok = True
    for digests, want in ((bad, False), (good, True)):
        code, lines = run(bench, ctcp, "cold-long", 1, 1, 0, digests)
        result = json.loads(lines[-1]) if lines else {}
        passed = result.get("correct") is want and (code == 0) is want
        print(f"self-test digests={digests}: correct={result.get('correct')} "
              f"exit={code} -> {'ok' if passed else 'FAIL'}")
        ok &= passed
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")
    built = build()
    if built is None:
        return 1
    bench, ctcp = built
    if a.self_test:
        return self_test(bench, ctcp)
    if a.workload != "all":
        code, lines = run(bench, ctcp, a.workload, a.seed, a.seconds, a.trace)
        for line in lines:
            print(line)
        if not lines or not lines[-1].startswith("{"):
            print("run.py: the benchmark printed no result", file=sys.stderr)
            return code or 1
        return code
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, lines = run(bench, ctcp, w, a.seed, a.seconds, a.trace)
        for line in lines[:-1]:
            print(f"[{w}] {line}")
        if not lines or not lines[-1].startswith("{"):
            print(f"run.py: {w} printed no result", file=sys.stderr)
            return code or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{w}.{name}"] = metric
        worst = max(worst, code)
    print(json.dumps(merged))
    return worst


if __name__ == "__main__":
    sys.exit(main())

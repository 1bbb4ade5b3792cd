#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload <rpc_small|fanout|discovery> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The benchmark is built from source with
cargo (release profile, offline) into $CARGO_TARGET_DIR, or `.bench_build`
when that is unset.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  A traced run also writes its spans to
<target dir>/perfbench-traces/<workload>-seed<n>.jsonl.  The exit code
is 0 only when the build succeeded and every op passed its check.

An untraced run is split into PROCESSES processes of equal length, run
one after another, each set up afresh; every metric is the median of
theirs.  Thread placement and memory layout are fixed for the life of a
process and moved one process's figures by about 10% from the next, so
the median of several processes is what makes a run repeatable.  Their
tables go to standard error.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rpc_small", "fanout", "discovery")
PROCESSES = 12
BUILD_LIMIT_S = 850
RUN_LIMIT_S = 170
ROW = re.compile(r"^  (\S+)\s+(-?[0-9.]+) (\S+)\s+\(n=(\d+)\)$")


def run_one(cmd, limit_s):
    """Run the benchmark binary once: (exit code, stdout, summary or None)."""
    ran = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=limit_s)
    lines = ran.stdout.rstrip("\n").split("\n")
    try:
        summary = json.loads(lines[-1])
    except (ValueError, IndexError):
        summary = None
    return ran.returncode, ran.stdout, summary


def combine(workload, a, outs, summaries):
    """The median table and summary line of several processes' runs."""
    rows = {}
    for out in outs:
        for line in out.split("\n"):
            m = ROW.match(line)
            if m:
                name, value, unit, n = m.groups()
                row = rows.setdefault(name, (unit, [], [0]))
                row[1].append(float(value))
                row[2][0] += int(n)
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    text = [f"workload={workload} seed={a.seed} seconds={a.seconds} trace={a.trace} "
            f"processes={len(outs)} attempted={attempted} failed={failed}"]
    for name, (unit, values, n) in rows.items():
        text.append(f"  {name:<32} {statistics.median(values):>16.4f} {unit:<6} "
                    f"(n={n[0]}, median of {len(values)} processes)")
    metrics = {
        name: {"value": statistics.median(s["metrics"][name]["value"] for s in summaries),
               "unit": m["unit"]}
        for name, m in summaries[0]["metrics"].items()
    }
    correct = failed == 0 and all(s.get("correct") is True for s in summaries)
    text.append(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                            "metrics": metrics}))
    return "\n".join(text) + "\n", correct


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "perfbench")
    processes = 1 if a.trace else PROCESSES
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds / processes), "--trace", str(a.trace)]
    if a.trace:
        cmd += ["--trace-out",
                os.path.join(target, "perfbench-traces", f"{a.workload}-seed{a.seed}.jsonl")]
    outs, summaries = [], []
    for _ in range(processes):
        try:
            code, out, summary = run_one(cmd, RUN_LIMIT_S / processes)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: run did not finish: {e}", file=sys.stderr)
            return 1
        if summary is None or code != 0 or summary.get("correct") is not True:
            sys.stderr.write(out)
            print(f"perfbench: run failed (exit {code})", file=sys.stderr)
            return 1
        outs.append(out)
        summaries.append(summary)
    if processes == 1:
        sys.stdout.write(outs[0])
        return 0
    for out in outs:
        sys.stderr.write(out)
    text, correct = combine(a.workload, a, outs, summaries)
    sys.stdout.write(text)
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

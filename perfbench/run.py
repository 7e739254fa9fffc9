#!/usr/bin/env python3
"""Build the benchmark, generate one workload's data, and measure it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Cargo builds into $CARGO_TARGET_DIR
(default `.bench_build`); generated data and saved models go to
`.bench_data`. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA_DIR = ".bench_data"
RSS_RUNS = 3


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail("the benchmark did not build")
    exe = str(target / "release" / "perfbench")
    common = ["--workload", a.workload, "--seed", str(a.seed), "--dir", DATA_DIR]

    # Data generation is a process of its own, so that neither its time
    # nor its memory is measured.
    if subprocess.run([exe, "gen", *common], stdout=sys.stderr).returncode != 0:
        fail("data generation failed")

    child = subprocess.run(
        [exe, "run", *common, "--seconds", str(a.seconds), "--trace", a.trace],
        stdout=subprocess.PIPE, text=True)
    lines = child.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        fail(f"the measurement printed no result (exit code {child.returncode})")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    code = child.returncode
    if a.trace == "0":
        # Peak memory of single runs, each in a process that makes only that
        # run (wait4 reports the child's own peak); the median over three
        # data sets.
        peaks = []
        for data_set in range(RSS_RUNS):
            once = subprocess.Popen([exe, "once", *common, "--set", str(data_set)])
            _, status, usage = os.wait4(once.pid, 0)
            once.returncode = os.waitstatus_to_exitcode(status)
            result["attempted"] += 1
            if once.returncode != 0:
                result["failed"] += 1
                result["correct"] = False
                code = code or 1
            peaks.append(usage.ru_maxrss * 1024 / 1e6)  # ru_maxrss is in KiB
        peak_mb = statistics.median(peaks)
        result["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
        print(f"{'peak_rss_mb':<28} {peak_mb:>16.6f} MB  (median of {RSS_RUNS})")
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()

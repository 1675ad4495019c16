"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload sweep --seeds 1-10 --seconds 20 [--trace 0]

For every metric it prints the median over the runs and the distance
between the first and third quartiles as a share of that median, the
figure that BENCHMARK.json's bounds are compared against.  Run it from the
root of a checkout; each run is a separate ``perfbench/run.py`` process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += list(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        argv = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
                "--seconds", args.seconds, "--trace", args.trace]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        summary = "" if args.trace == "1" else " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {summary}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2 and median:
            q1, _, q3 = statistics.quantiles(series, n=4)
            print(f"{name:<42} median {median:<14.6g} spread {(q3 - q1) / abs(median):.4f}")
        else:
            print(f"{name:<42} median {median:<14.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the output references that run.py checks every call against.

    python3 perfbench/record.py --seeds 0-19

Run from the root of a checkout.  Each workload's calls run once per seed
and their observations go to ``perfbench/references/<workload>.json``.
Re-record only when a change is meant to alter seeded outputs, and say so
where the change is described.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import run
from harness import run_call
from spread import parse_seeds
from workloads import WORKLOADS, calls_for


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-19")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    args = parser.parse_args()
    root = Path.cwd()
    agelab, cli = run.import_agelab(root)
    revision = run.machine_info(root, agelab)["git_revision"]
    work_dir = root / run.OUTPUT_DIR / "record"
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            seeds = {}
            for seed in parse_seeds(args.seeds):
                observed = {}
                for call in calls_for(workload, seed):
                    outcome = run_call(cli, call, work_dir)
                    if outcome.error is not None:
                        print(f"{workload} seed {seed} {call.name}: {outcome.error}", file=sys.stderr)
                        return 1
                    observed[call.name] = outcome.observation
                seeds[str(seed)] = observed
                print(f"{workload} seed {seed}: {len(observed)} calls", flush=True)
            path = run.REFERENCE_DIR / f"{workload}.json"
            body = ",\n".join(f" {json.dumps(seed)}: {json.dumps(obs, separators=(',', ':'))}"
                              for seed, obs in seeds.items())
            path.write_text(f'{{"revision": {json.dumps(revision)},\n "seeds": {{\n{body}\n}}}}\n')
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

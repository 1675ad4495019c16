"""agelab benchmark: drives ``agelab.cli.main`` in process on seeded workloads.

Run from the root of a checkout (the directory holding ``src/agelab``):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` rotates untraced, span-only and fully counted passes and
reports the per-layer metrics, plus the tracing overhead.  Every call's outputs are
checked against the recorded references (``perfbench/references``) when the
seed has one, and against the run's first pass otherwise.  The last stdout
line is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "references"
OUTPUT_DIR = ".perfbench_out"  # under the checkout root; results, spans, scratch

sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, calls_for  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 8  # set-up probes per run, spread over its measured passes
MIN_PASSES = 3
# traced runs rotate through these; see tracing.SPAN_TIMED
PASS_MODES = ("untraced", "spans", "counted")

# Timed in a fresh interpreter: importing the package and generating inputs.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import agelab.cli
import workloads
workloads.calls_for(sys.argv[3], int(sys.argv[4]))
print(repr(time.perf_counter() - start))
"""


class SetupError(Exception):
    """The checkout cannot be benchmarked (no source tree, bad arguments)."""


def per_layer_unit(name: str) -> str:
    if "_ns_per_step" in name:
        return "ns/step"
    for suffix, unit in (("_ns", "ns"), ("_ms", "ms"), ("_us", "us"), ("_s", "s")):
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def import_agelab(root: Path):
    """Import the package from the checkout's own source tree, nowhere else."""
    src = root / "src"
    if not (src / "agelab" / "__init__.py").is_file():
        raise SetupError(f"no agelab source tree at {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import agelab
    import agelab.cli

    if src.resolve() not in Path(agelab.__file__).resolve().parents:
        raise SetupError(f"agelab imported from {agelab.__file__}, not from {src}")
    return agelab, agelab.cli


def setup_probe(root: Path, workload: str, seed: int) -> float:
    """Seconds to import agelab and build the inputs, in a fresh interpreter."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(root / "src"), str(BENCH_DIR), workload, str(seed)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise SetupError(f"setup probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def machine_info(root: Path, agelab) -> dict:
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "agelab": getattr(agelab, "__version__", None),
        "git_revision": None,
        "git_dirty": None,
    }
    if (root / ".git").exists() and shutil.which("git"):
        rev = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30)
        if rev.returncode == 0:
            info["git_revision"] = rev.stdout.strip()
            info["git_dirty"] = bool(status.stdout.strip()) if status.returncode == 0 else None
    return info


def load_references(workload: str, seed: int) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


class Checker:
    """Counts attempted and failed calls and keeps the first few failures."""

    def __init__(self, references: dict | None) -> None:
        self.references = references
        self.first_seen: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, outcome: harness.Outcome) -> None:
        self.attempted += 1
        problem = outcome.error
        if problem is None:
            if self.references is None:
                expected = self.first_seen.setdefault(outcome.name, outcome.observation)
            else:
                expected = self.references.get(outcome.name)
            problem = "no reference" if expected is None else harness.mismatch(expected, outcome.observation)
        if problem is not None:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{outcome.name}: {problem}")


def run_workload(root: Path, cli, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Replay the workload's calls for ``seconds`` after one warm-up pass.

    Untraced, a set-up probe runs after the pass that crosses each
    SETUP_REPEATS-th of the run, so set-up time is sampled across the run
    like the passes are.  Traced,
    passes rotate between untraced, spans only and fully counted.
    """
    calls = calls_for(workload, seed)
    references = load_references(workload, seed)
    checker = Checker(references)
    tracer = tracing.Tracer()
    work_dir = root / OUTPUT_DIR / f"work-{os.getpid()}-{workload}"
    modes = PASS_MODES if trace else PASS_MODES[:1]
    passes: dict[str, list[dict]] = {mode: [] for mode in modes}
    setup: list[float] = []
    spans_out: list[list] = []

    def one_pass(mode: str) -> None:
        if mode != "untraced":
            tracer.install(counted=mode == "counted")
        try:
            outcomes = [harness.run_call(cli, call, work_dir) for call in calls]
        finally:
            tracer.uninstall()
        for outcome in outcomes:
            checker.check(outcome)
        latencies = [o.seconds for o in outcomes]
        record = {"wall_s": sum(latencies), "latencies": latencies}
        if mode != "untraced":
            spans, counters, tallies = tracer.take()
            record["layers"] = tracing.layer_metrics(spans, counters, tallies)
            spans_out.append([mode, [list(span) for span in spans]])
        passes[mode].append(record)

    try:
        if not trace:
            setup_probe(root, workload, seed)  # compiles bytecode in a fresh checkout
        one_pass("untraced")  # warm-up: lazy imports, allocator, caches
        passes["untraced"].clear()
        start = time.perf_counter()
        while True:
            for mode in modes:
                one_pass(mode)
            elapsed = time.perf_counter() - start
            if not trace and elapsed >= len(setup) * seconds / SETUP_REPEATS:
                setup.append(setup_probe(root, workload, seed))
            if elapsed >= seconds and len(passes["untraced"]) >= MIN_PASSES:
                break
        while not trace and len(setup) < SETUP_REPEATS:
            setup.append(setup_probe(root, workload, seed))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    plain = passes["untraced"]
    # each call's latency is its median over the passes, so a burst of host
    # load in one pass cannot carry a call across a gap in the distribution
    latencies_ms = [1e3 * statistics.median(call) for call in zip(*(p["latencies"] for p in plain))]
    wall = statistics.median(p["wall_s"] for p in plain)
    sim_steps = sum(call.sim_steps for call in calls)
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "reference": "recorded" if references is not None else "first pass",
        "passes": {mode: len(done) for mode, done in passes.items()},
        "calls_per_pass": len(calls),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.messages,
        "sim_steps_per_pass": sim_steps,
        "pass_wall_s": {mode: [p["wall_s"] for p in done] for mode, done in passes.items()},
        "setup_samples": setup,
        "samples": {"wall_s": len(plain), "call_ms": len(latencies_ms), "setup_s": len(setup)},
        "end_to_end": {
            "wall_s": wall,
            "call_ms_p50": tracing.percentile(latencies_ms, 0.5),
            "call_ms_p90": tracing.percentile(latencies_ms, 0.9),
            "sim_steps_per_s": sim_steps / wall,
            "error_rate": checker.failed / checker.attempted,
        },
    }
    if setup:
        result["end_to_end"]["setup_s"] = statistics.median(setup)
    if trace:
        layers = tracing.median_metrics(
            [p["layers"] for p in passes["spans"]], [p["layers"] for p in passes["counted"]]
        )
        for mode, name in (("spans", "trace.span_overhead_s"), ("counted", "trace.overhead_s")):
            layers[name] = statistics.median(p["wall_s"] for p in passes[mode]) - wall
        result["per_layer"] = layers
        result["spans"] = spans_out
    return result


def print_report(result: dict, info: dict) -> None:
    counts = ", ".join(f"{n} {mode}" for mode, n in result["passes"].items())
    print(
        f"perfbench {result['workload']} seed={result['seed']} trace={int(result['trace'])}: "
        f"passes of {result['calls_per_pass']} calls after one warm-up: {counts}; "
        f"outputs checked against {result['reference']}"
    )
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    e2e = result["end_to_end"]
    samples = result["samples"]
    rows = [
        ("setup_s", e2e.get("setup_s"), "s", f"median of {samples['setup_s']} fresh interpreters"),
        ("wall_s", e2e["wall_s"], "s", f"median of {samples['wall_s']} passes"),
        ("sim_steps_per_s", e2e["sim_steps_per_s"] or None, "1/s",
         f"{result['sim_steps_per_pass']} requested steps per pass / wall_s"),
        ("call_ms_p50", e2e["call_ms_p50"], "ms",
         f"of {samples['call_ms']} calls, each a median of {samples['wall_s']} passes"),
        ("call_ms_p90", e2e["call_ms_p90"], "ms",
         f"of {samples['call_ms']} calls, each a median of {samples['wall_s']} passes"),
        ("peak_rss_mb", e2e.get("peak_rss_mb"), "MB", "process high-water mark"),
        ("error_rate", e2e["error_rate"], "ratio",
         f"{result['failed']} failed of {result['attempted']} calls"),
    ]
    for name, value, unit, note in rows:
        if value is not None:
            print(f"  {name:<40} {value:>14.6g} {unit:<8} {note}")
    for name, value in sorted(result.get("per_layer", {}).items()):
        print(f"  {name:<40} {value:>14.6g} {per_layer_unit(name)}")
    for message in result["failures"]:
        print(f"  FAILED {message}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        agelab, cli = import_agelab(root)
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    info = machine_info(root, agelab)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        try:
            results.append(run_workload(root, cli, workload, args.seed, args.seconds, bool(args.trace)))
        except SetupError as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 2
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info.update(seed=args.seed, load_start=load_start[0], load_end=os.getloadavg()[0])

    out_dir = root / OUTPUT_DIR
    out_dir.mkdir(exist_ok=True)
    metrics = {}
    for result in results:
        result["end_to_end"]["peak_rss_mb"] = peak_mb
        result["machine"] = info
        print_report(result, info)
        prefix = "" if len(results) == 1 else result["workload"] + "."
        if args.trace:
            chosen = {k: (v, per_layer_unit(k)) for k, v in result["per_layer"].items()}
        else:
            chosen = {k: (result["end_to_end"][k], u) for k, u in END_TO_END_UNITS.items()}
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in chosen.items()})
        stem = f"{result['workload']}-seed{args.seed}-trace{args.trace}"
        spans = result.pop("spans", None)
        (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
        if spans is not None:
            fields = ["trace_id", "span_id", "parent_id", "name", "start_ns", "end_ns", "child_ns", "info"]
            body = {"span_fields": fields, "passes": [{"mode": m, "spans": p} for m, p in spans]}
            (out_dir / f"{stem}-spans.json").write_text(json.dumps(body) + "\n")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark: inputs, reference checks, tracing, metric names.

    python3 -m pytest perfbench/tests -q

Run from the root of the repository; they take about half a minute.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, calls_for, closed_form_points  # noqa: E402

_, CLI = run.import_agelab(ROOT)


def cheapest_closed_form_call():
    # the top rung has the fastest channel; its analytic call takes milliseconds
    return [c for c in calls_for("closed_form", 0) if c.name.startswith("analytic_")][-1]


def learn_call(name):
    return next(c for c in calls_for("learn", 0) if c.name == name)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert calls_for(workload, 5) == calls_for(workload, 5)
    assert calls_for(workload, 5) != calls_for(workload, 6)


def test_closed_form_grid_stays_in_range():
    for seed in range(20):
        for p, lam in closed_form_points(seed):
            assert 0.12 <= min(p, lam) and max(p, lam) <= 1.0


def test_recorded_references_hold(tmp_path):
    checker = run.Checker(run.load_references("learn", 0))
    for call in calls_for("learn", 0):
        if call.name != "fig8":
            checker.check(harness.run_call(CLI, call, tmp_path))
    assert checker.attempted == 2 and checker.failed == 0, checker.messages


@pytest.mark.parametrize(
    "call, corrupt",
    [
        (cheapest_closed_form_call(), lambda obs: obs["floats"].__setitem__(0, "1.5")),
        (cheapest_closed_form_call(), lambda obs: obs.__setitem__("code", 2)),
        (learn_call("train_qaoi"), lambda obs: obs["files"].__setitem__("qtable_qaoi.csv", "0" * 16)),
        (learn_call("train_qaoi"), lambda obs: obs.__setitem__("stdout", "0" * 16)),
    ],
)
def test_corrupted_reference_fails_the_call(tmp_path, call, corrupt):
    outcome = harness.run_call(CLI, call, tmp_path)
    assert outcome.error is None
    expected = copy.deepcopy(outcome.observation)
    corrupt(expected)
    checker = run.Checker({call.name: expected})
    checker.check(outcome)
    assert checker.failed == 1 and checker.messages


def test_corrupted_reference_gives_error_rate(monkeypatch):
    reference = run.load_references("learn", 0)
    broken = copy.deepcopy(reference)
    broken["fig4"]["files"]["fig4.csv"] = "0" * 16
    monkeypatch.setattr(run, "load_references", lambda workload, seed: broken)
    result = run.run_workload(ROOT, CLI, "learn", 0, 0.0, trace=False)
    assert result["end_to_end"]["error_rate"] > 0
    assert result["failed"] == result["passes"]["untraced"] + 1  # every pass, warm-up too
    assert all(m.startswith("fig4: files differs") for m in result["failures"])


def test_float_tolerance():
    assert harness._close("3.5103851582980443", "3.510385158298045")
    assert harness._close("0.012345678", "0.012345679")  # rounding of a .9f column
    assert not harness._close("0.0123", "0.0124")
    assert not harness._close("2.0", "2.1")


def test_validation_rejects_a_bad_table(tmp_path):
    call = learn_call("train_qaoi")
    wrong = dataclasses.replace(call, rows=call.rows + 1)
    assert "rows, expected" in harness.run_call(CLI, wrong, tmp_path).error


def test_traced_and_untraced_outputs_agree(tmp_path):
    calls = [learn_call("fig4"), learn_call("train_qaoi"), cheapest_closed_form_call()]
    plain = [harness.run_call(CLI, c, tmp_path).observation for c in calls]
    tracer = tracing.Tracer()
    main_before = CLI.main
    tracer.install()
    try:
        traced = [harness.run_call(CLI, c, tmp_path).observation for c in calls]
    finally:
        tracer.uninstall()
    assert CLI.main is main_before
    assert traced == plain
    spans, counters, tallies = tracer.take()
    layers = tracing.layer_metrics(spans, counters, tallies)
    assert layers["cli.invocations"] == 3
    assert layers["env.steps"] == sum(c.sim_steps for c in calls)
    assert layers["learning.train_calls"] == 2 * 2 + 1
    assert layers["analytic.risky_frequency_ms.p50"] > 0
    # every span's parent is in the same trace, and each CLI call is one trace
    by_id = {s[1]: s for s in spans}
    for trace_id, _, parent, name, *_ in spans:
        if name == "cli.main":
            assert parent is None
        else:
            assert by_id[parent][0] == trace_id
    assert len({s[0] for s in spans}) == 3


def test_benchmark_json_lists_what_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    emitted = {name: run.per_layer_unit(name) for name in tracing.layer_metrics([], {}, {})}
    emitted["trace.span_overhead_s"] = emitted["trace.overhead_s"] = "s"
    assert declared == emitted
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout

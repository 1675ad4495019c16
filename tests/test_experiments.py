"""Seeded evaluation harness: pairing, sweeps, comparisons and CSV output."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from agelab import (
    AoiEnv,
    AoiiEnv,
    EnvSpec,
    ExperimentConfig,
    LearningParams,
    QuerySpec,
    RiskSpec,
    SourceSpec,
    SystemParams,
    evaluate,
    learning_comparison,
    threshold_sweep,
)
from agelab.experiments import (
    CSV_COLUMNS,
    RunStats,
    comparison_rows,
    emit_plot_data,
    emit_results,
    format_summary,
    query_prob_sweep,
    sweep_rows,
)
from agelab.strategy import AoiiThresholdPolicy, RandomPolicy, ThresholdPolicy

FAST = ExperimentConfig(
    learning=LearningParams(steps=3000, a_max=32),
    test_steps=2000,
    runs=3,
    base_seed=5,
)


def test_env_spec_builds_each_metric():
    assert isinstance(EnvSpec("aoi").build(0), AoiEnv)
    gated = EnvSpec("qaoi").build(0)
    assert gated.metric == "qaoi"
    assert gated.query.q == 0.2
    mismatch = EnvSpec("aoii").build(0)
    assert isinstance(mismatch, AoiiEnv)
    assert mismatch.source.num_states == 10
    with pytest.raises(ValueError):
        EnvSpec("foo")


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(test_steps=0)
    with pytest.raises(ValueError):
        ExperimentConfig(runs=0)


def test_run_stats_aggregation():
    stats = RunStats.from_runs([1.0, 2.0, 3.0], [0.1, 0.2, 0.3], [0.5, 0.5, 0.5])
    assert stats.mean_cost == pytest.approx(2.0)
    assert stats.std_cost == pytest.approx(np.std([1.0, 2.0, 3.0], ddof=1))
    assert stats.mean_risky_freq == pytest.approx(0.2)
    assert stats.costs == (1.0, 2.0, 3.0)
    single = RunStats.from_runs([4.0], [0.0], [1.0])
    assert single.std_cost == 0.0


def test_evaluate_exact_in_deterministic_limit():
    """Certain arrivals and deliveries pin the age at one and the cost at four."""
    spec = EnvSpec("aoi", params=SystemParams(p=1.0, lam=1.0))
    stats = evaluate(ThresholdPolicy(1), spec, test_steps=500, runs=4, base_seed=0)
    assert stats.mean_cost == pytest.approx(4.0)
    assert stats.std_cost == 0.0
    assert stats.mean_risky_freq == 0.0
    assert stats.mean_send_rate == 1.0


def test_evaluate_is_deterministic():
    spec = EnvSpec("aoi")
    a = evaluate(ThresholdPolicy(2), spec, test_steps=1500, runs=4, base_seed=9)
    b = evaluate(ThresholdPolicy(2), spec, test_steps=1500, runs=4, base_seed=9)
    assert a == b


def test_evaluate_policy_factory_gets_per_run_seeds():
    spec = EnvSpec("aoi")

    def factory(seed):
        return RandomPolicy(0.5, np.random.default_rng(seed))

    a = evaluate(factory, spec, test_steps=1500, runs=4, base_seed=9)
    b = evaluate(factory, spec, test_steps=1500, runs=4, base_seed=9)
    assert a == b
    # distinct per-run streams: not all runs produce identical costs
    assert len(set(a.costs)) > 1


def test_threshold_sweep_structure():
    sweep = threshold_sweep("aoi", [3, 1, 2], FAST)
    assert sweep.variable == "n"
    assert [point.value for point in sweep.points] == [1, 2, 3]
    assert sweep.best_value == 2
    for point in sweep.points:
        assert point.analytic_cost is not None
        assert point.stats.mean_cost == pytest.approx(point.analytic_cost, rel=0.1)
        assert point.analytic_risky is not None


def test_threshold_sweep_mismatch_metric_has_no_overlay():
    sweep = threshold_sweep("aoii", [0, 1, 2], FAST)
    assert sweep.variable == "theta"
    for point in sweep.points:
        assert point.analytic_cost is None
        assert point.analytic_risky is None


def test_threshold_sweep_rejects_empty():
    with pytest.raises(ValueError):
        threshold_sweep("aoi", [], FAST)


def test_learning_comparison_structure_and_pairing():
    comparison = learning_comparison("aoi", 3000, FAST)
    assert set(comparison) == {"random", "threshold", "qlearn", "qlearn_risk"}
    assert comparison.metric == "aoi"
    assert comparison.learn_steps == 3000
    assert comparison.threshold == 2  # analytic optimum fills the default
    assert comparison.send_prob == 0.5  # arrival probability fills the default
    assert comparison.rho == 2.0
    # every strategy faced the same evaluation environments: the threshold
    # row must agree exactly with a standalone evaluation at the same seed
    direct = evaluate(ThresholdPolicy(2), EnvSpec("aoi"), FAST.test_steps, FAST.runs, FAST.base_seed)
    assert comparison["threshold"] == direct


def test_learning_comparison_mismatch_adds_always_send():
    comparison = learning_comparison("aoii", 3000, FAST)
    assert "always_send" in set(comparison)
    assert comparison["always_send"].mean_send_rate == 1.0


def test_mismatch_baselines_come_from_the_threshold_sweep(monkeypatch):
    """Without a configured theta the aoii baselines are read off the sweep
    that picks theta, which ran on the same evaluation seeds; they equal
    fresh evaluations, and no rollout is spent on them twice."""
    config = ExperimentConfig(
        learning=LearningParams(steps=500, a_max=32), test_steps=400, runs=2, base_seed=7
    )
    steps = 0
    plain_step = AoiiEnv.step

    def counted_step(self, action):
        nonlocal steps
        steps += 1
        return plain_step(self, action)

    monkeypatch.setattr(AoiiEnv, "step", counted_step)
    comparison = learning_comparison("aoii", 500, config)
    # 7 swept thresholds, two learners and three greedy/random rollouts per run
    assert steps == 7 * 2 * 400 + 2 * (2 * 500 + 3 * 400)
    monkeypatch.undo()
    spec = EnvSpec("aoii")
    for name, theta in (("threshold", comparison.threshold), ("always_send", 0)):
        direct = evaluate(AoiiThresholdPolicy(theta), spec, 400, 2, 7)
        assert comparison[name] == direct


def test_learning_comparison_takes_rho_from_the_learning_parameters():
    config = ExperimentConfig(
        learning=LearningParams(steps=2000, a_max=32, rho=3.0),
        test_steps=1000,
        runs=2,
        base_seed=1,
    )
    comparison = learning_comparison("aoi", 2000, config)
    assert comparison.rho == 3.0
    doubled = learning_comparison(
        "aoi", 2000, replace(config, learning=LearningParams(steps=2000, a_max=32))
    )
    assert doubled.rho == 2.0
    assert comparison["qlearn"] == doubled["qlearn"]  # the plain learner always runs at 1
    assert comparison["qlearn_risk"] != doubled["qlearn_risk"]


def test_learning_comparison_respects_overrides():
    config = ExperimentConfig(
        learning=LearningParams(steps=3000, a_max=32),
        threshold=4,
        test_steps=1000,
        runs=2,
        base_seed=1,
    )
    comparison = learning_comparison("aoi", 3000, config)
    assert comparison.threshold == 4


def test_query_sweep_points_carry_analytic_optimum():
    config = ExperimentConfig(
        learning=LearningParams(steps=2000, a_max=32),
        test_steps=1000,
        runs=2,
        base_seed=3,
    )
    result = query_prob_sweep([1.0, 0.2], config)
    assert [point.q for point in result.points] == [0.2, 1.0]
    assert result.points[0].best_threshold == 5
    assert result.points[1].best_threshold == 2
    with pytest.raises(ValueError):
        query_prob_sweep([], config)


def test_comparison_rows_and_csv(tmp_path):
    comparison = learning_comparison("aoi", 3000, FAST)
    rows = comparison_rows("compare-aoi", comparison, FAST)
    assert [row.strategy for row in rows] == ["qlearn", "qlearn_risk", "random", "threshold"]
    by_name = {row.strategy: row for row in rows}
    assert by_name["random"].param == "send_prob=0.5"
    assert by_name["threshold"].param == "threshold=2"
    assert by_name["qlearn"].param == "rho=1"
    assert by_name["qlearn_risk"].param == "rho=2"
    assert by_name["random"].learn_steps is None
    assert by_name["qlearn"].learn_steps == 3000

    path = tmp_path / "results.csv"
    emit_results(rows, path)
    with open(path, newline="") as handle:
        records = list(csv.DictReader(handle))
    assert list(records[0]) == CSV_COLUMNS
    assert len(records) == 4
    for record, row in zip(records, rows):
        # repr floats reload without loss
        assert float(record["mean_cost"]) == row.mean_cost
        assert record["learn_steps"] == ("" if row.learn_steps is None else str(row.learn_steps))

    second = tmp_path / "again.csv"
    emit_results(rows, second)
    assert path.read_bytes() == second.read_bytes()


def test_sweep_rows_name_the_variable(tmp_path):
    sweep = threshold_sweep("aoii", [0, 1], FAST)
    rows = sweep_rows("sweep-aoii", "aoii", sweep, FAST)
    assert [row.param for row in rows] == ["theta=0", "theta=1"]
    assert all(row.learn_steps is None for row in rows)
    summary = format_summary(rows)
    assert "theta=0" in summary and "aoii" in summary


def test_emit_plot_data(tmp_path):
    path = tmp_path / "plot.dat"
    emit_plot_data(path, [(1.0, 2.5, 0.1), (2.0, 3.5, 0.2)])
    lines = path.read_text().splitlines()
    assert lines[0] == "# x y yerr"
    assert lines[1].split() == ["1", "2.5", "0.1"]

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
    cost_breakdown,
    evaluate,
    learning_comparison,
    optimal_threshold,
    threshold_sweep,
)
from agelab import env as env_module
from agelab.cli import main
from agelab.experiments import (
    CSV_COLUMNS,
    RunStats,
    _namespaces,
    comparison_rows,
    emit_plot_data,
    emit_results,
    format_summary,
    query_prob_sweep,
    sweep_rows,
)
from agelab.learning import train
from agelab.strategy import AoiiThresholdPolicy, GreedyPolicy, RandomPolicy, ThresholdPolicy

FAST = ExperimentConfig(
    learning=LearningParams(steps=3000, a_max=32),
    test_steps=2000,
    runs=3,
    base_seed=5,
)


def test_env_spec_builds_each_metric():
    plain = EnvSpec("aoi").build(0)
    assert isinstance(plain, AoiEnv)
    assert plain.metric == "aoi" and plain.query is None
    gated = EnvSpec("qaoi").build(0)
    assert gated.metric == "qaoi"
    assert gated.query.q == 0.2
    mismatch = EnvSpec("aoii").build(0)
    assert isinstance(mismatch, AoiiEnv)
    assert mismatch.source.num_states == 10
    with pytest.raises(ValueError):
        EnvSpec("foo")
    # the query gate: 1 (ungated) unless the metric is qaoi
    assert [EnvSpec(metric).q for metric in ("aoi", "qaoi", "aoii")] == [1.0, 0.2, 1.0]


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


def test_evaluate_needs_a_run():
    with pytest.raises(ValueError, match="runs must be at least 1, got 0"):
        evaluate(ThresholdPolicy(1), EnvSpec("aoi"), test_steps=10, runs=0)


def test_evaluate_is_deterministic():
    spec = EnvSpec("aoi")
    a = evaluate(ThresholdPolicy(2), spec, test_steps=1500, runs=4, base_seed=9)
    b = evaluate(ThresholdPolicy(2), spec, test_steps=1500, runs=4, base_seed=9)
    assert a == b


def test_evaluate_policy_factory_gets_per_run_seeds():
    spec = EnvSpec("aoi")
    seeds = np.random.SeedSequence(3).spawn(4)

    def factory(i):
        return RandomPolicy(0.5, np.random.default_rng(seeds[i]))

    a = evaluate(factory, spec, test_steps=1500, runs=4, base_seed=9)
    b = evaluate(factory, spec, test_steps=1500, runs=4, base_seed=9)
    assert a == b
    # distinct per-run streams: not all runs produce identical costs
    assert len(set(a.costs)) > 1

    # a comparison's learners are such factories: one greedy policy per run,
    # trained on that run's training and exploration seeds
    comparison = learning_comparison("aoi", 3000, FAST)
    _, _, train_ns, explore_ns = _namespaces(FAST.base_seed)
    train_seeds, explore_seeds = train_ns.spawn(FAST.runs), explore_ns.spawn(FAST.runs)
    plain = replace(FAST.learning, steps=3000, rho=1.0)

    def learner(i):
        report = train(spec.build(train_seeds[i]), plain, explore_seeds[i])
        return GreedyPolicy(report.table)

    direct = evaluate(learner, spec, FAST.test_steps, FAST.runs, FAST.base_seed)
    assert comparison["qlearn"] == direct


def test_threshold_sweep_structure():
    sweep = threshold_sweep("aoi", [3, 1, 2], FAST)
    assert sweep.variable == "n"
    assert [point.value for point in sweep.points] == [1, 2, 3]
    assert sweep.best_value == 2
    for point in sweep.points:
        # the closed-form cost that the fig3a preset overlays on the measured one
        overlay = cost_breakdown(point.value, FAST.env.params).total
        assert point.stats.mean_cost == pytest.approx(overlay, rel=0.1)


def test_threshold_sweep_mismatch_metric_has_no_overlay(tmp_path):
    sweep = threshold_sweep("aoii", [0, 1, 2], FAST)
    assert sweep.variable == "theta"
    assert [point.value for point in sweep.points] == [0, 1, 2]
    # the mismatch metric has no closed form, so its preset writes no overlay
    assert main(["reproduce", "fig3d", "--runs", "1", "--test-steps", "50",
                 "--out-dir", str(tmp_path)]) == 0
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == ["fig3d.csv", "fig3d_cost.dat", "fig3d_risky.dat"]


def test_threshold_sweep_rejects_empty():
    with pytest.raises(ValueError):
        threshold_sweep("aoi", [], FAST)


@pytest.mark.parametrize(
    "metric, values, message",
    [("aoi", [2, 0], "threshold must be at least 1, got 0"),
     ("aoii", [1, -1], "theta must be nonnegative, got -1")],
)
def test_threshold_sweep_validates_thresholds_before_any_draw(monkeypatch, metric, values, message):
    def no_draws(seed):
        raise AssertionError("events were drawn")

    monkeypatch.setattr(env_module, "_substreams", no_draws)
    with pytest.raises(ValueError, match=message):
        threshold_sweep(metric, values, FAST)


@pytest.mark.parametrize("metric, values", [("aoi", [1, 3]), ("qaoi", [2, 4]), ("aoii", [0, 2])])
def test_threshold_sweep_points_equal_evaluate(metric, values):
    sweep = threshold_sweep(metric, values, FAST)
    spec = replace(FAST.env, metric=metric)
    for point in sweep.points:
        policy = AoiiThresholdPolicy(point.value) if metric == "aoii" else ThresholdPolicy(point.value)
        assert point.stats == evaluate(policy, spec, FAST.test_steps, FAST.runs, FAST.base_seed)


def test_learning_comparison_structure_and_pairing():
    comparison = learning_comparison("aoi", 3000, FAST)
    assert set(comparison) == {"random", "threshold", "qlearn", "qlearn_risk"}
    assert comparison.threshold == 2  # analytic optimum fills the default
    rows = {row.strategy: row for row in comparison_rows("c", "aoi", 3000, comparison, FAST)}
    assert {row.metric for row in rows.values()} == {"aoi"}
    assert rows["qlearn"].learn_steps == rows["qlearn_risk"].learn_steps == 3000
    assert rows["random"].param == "send_prob=0.5"  # arrival probability fills the default
    assert rows["qlearn_risk"].param == "rho=2"
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
    fresh evaluations, and no rollout is spent on them twice.  The sweep
    rolls its thresholds out together without stepping an env, so only the
    learners and the greedy/random rollouts step one."""
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
    # two learners and three greedy/random rollouts per run
    assert steps == 2 * (2 * 500 + 3 * 400)
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
    doubled_config = replace(config, learning=LearningParams(steps=2000, a_max=32))
    doubled = learning_comparison("aoi", 2000, doubled_config)
    for result, cfg, label in ((comparison, config, "rho=3"), (doubled, doubled_config, "rho=2")):
        rows = {row.strategy: row for row in comparison_rows("c", "aoi", 2000, result, cfg)}
        assert rows["qlearn_risk"].param == label
        assert rows["qlearn"].param == "rho=1"
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
    assert list(result) == [0.2, 1.0]
    # without a configured threshold each baseline is the optimum at its q,
    # the threshold fig7's overlay is computed at
    assert [comparison.threshold for comparison in result.values()] == [5, 2]
    assert [optimal_threshold(config.env.params, q=q) for q in result] == [5, 2]
    with pytest.raises(ValueError):
        query_prob_sweep([], config)


def test_comparison_rows_and_csv(tmp_path):
    comparison = learning_comparison("aoi", 3000, FAST)
    rows = comparison_rows("compare-aoi", "aoi", 3000, comparison, FAST)
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

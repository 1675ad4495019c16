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
    SystemParams,
    cost_breakdown,
    evaluate,
    learning_comparison,
    optimal_threshold,
    run_policy,
    threshold_sweep,
)
from agelab import experiments, kernels
from agelab.cli import main
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
from agelab.learning import train
from agelab.strategy import (
    AoiiThresholdPolicy,
    GreedyPolicy,
    RandomPolicy,
    ThresholdPolicy,
    threshold_policy,
)

FAST = ExperimentConfig(
    learning=LearningParams(steps=3000, a_max=32),
    test_steps=2000,
    runs=3,
    base_seed=5,
)


def with_metric(config, metric):
    return replace(config, env=replace(config.env, metric=metric))


def test_env_spec_builds_each_metric():
    # which settings each environment reads, and how, is pinned step by step
    # by tests/test_env.py::test_step_equals_a_replay_of_single_draws
    plain = EnvSpec("aoi").build(0)
    assert isinstance(plain, AoiEnv) and plain.metric == "aoi"
    gated = EnvSpec("qaoi").build(0)
    assert isinstance(gated, AoiEnv) and gated.metric == "qaoi"
    mismatch = EnvSpec("aoii").build(0)
    assert isinstance(mismatch, AoiiEnv) and mismatch.metric == "aoii"
    with pytest.raises(ValueError):
        EnvSpec("foo")
    # the query gate: 1 (ungated) unless the metric is qaoi
    assert [EnvSpec(metric).q for metric in ("aoi", "qaoi", "aoii")] == [1.0, 0.2, 1.0]


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(test_steps=0)
    with pytest.raises(ValueError):
        ExperimentConfig(runs=0)
    with pytest.raises(ValueError, match="base_seed must be nonnegative, got -1"):
        ExperimentConfig(base_seed=-1)


def test_library_entry_points_name_a_negative_seed():
    """A negative seed is refused where it enters numpy."""
    with pytest.raises(ValueError, match="^seed must be nonnegative, got -3$"):
        AoiEnv(EnvSpec(), seed=-3)
    with pytest.raises(ValueError, match="^seed must be nonnegative, got -3$"):
        AoiiEnv(EnvSpec("aoii"), seed=-3)
    with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
        train(EnvSpec("aoi").build(0), LearningParams(steps=10), seed=-1)


def test_run_stats_aggregation():
    stats = RunStats.from_runs([1.0, 2.0, 3.0], [0.1, 0.2, 0.3], [0.5, 0.5, 0.5])
    assert stats.mean_cost == pytest.approx(2.0)
    assert stats.std_cost == pytest.approx(np.std([1.0, 2.0, 3.0], ddof=1))
    assert stats.mean_risky_freq == pytest.approx(0.2)
    single = RunStats.from_runs([4.0], [0.0], [1.0])
    assert single.std_cost == 0.0


def test_evaluate_exact_in_deterministic_limit():
    """Certain arrivals and deliveries pin the age at one and the cost at four."""
    spec = EnvSpec("aoi", params=SystemParams(p=1.0, lam=1.0))
    stats = evaluate(ThresholdPolicy(1), ExperimentConfig(spec, test_steps=500, runs=4))
    assert stats.mean_cost == pytest.approx(4.0)
    assert stats.std_cost == 0.0
    assert stats.mean_risky_freq == 0.0
    assert stats.mean_send_rate == 1.0


def test_evaluate_needs_a_run():
    """The config refuses zero runs, so no evaluation is ever asked for none."""
    with pytest.raises(ValueError, match="^runs must be at least 1, got 0$"):
        evaluate(ThresholdPolicy(1), replace(FAST, runs=0))


def test_evaluate_is_deterministic():
    config = ExperimentConfig(EnvSpec("aoi"), test_steps=1500, runs=4, base_seed=9)
    a = evaluate(ThresholdPolicy(2), config)
    b = evaluate(ThresholdPolicy(2), config)
    assert a == b


def test_evaluate_policy_factory_gets_per_run_seeds():
    spec = EnvSpec("aoi")
    seeds = np.random.SeedSequence(3).spawn(4)

    def factory(i):
        return RandomPolicy(0.5, np.random.default_rng(seeds[i]))

    config = ExperimentConfig(spec, test_steps=1500, runs=4, base_seed=9)
    a = evaluate(factory, config)
    b = evaluate(factory, config)
    assert a == b
    # distinct per-run streams: not all runs produce identical costs
    assert a.std_cost > 0.0

    # a comparison's learners are such factories: one greedy policy per run,
    # trained on that run's training and exploration seeds
    comparison = learning_comparison(FAST)
    # run i's training and exploration seeds: children i of the base seed's
    # third and fourth children
    _, _, train_ns, explore_ns = np.random.SeedSequence(FAST.base_seed).spawn(4)
    train_seeds, explore_seeds = train_ns.spawn(FAST.runs), explore_ns.spawn(FAST.runs)
    plain = replace(FAST.learning, rho=1.0)

    def learner(i):
        report = train(spec.build(train_seeds[i]), plain, explore_seeds[i])
        return GreedyPolicy(report.table)

    direct = evaluate(learner, FAST)
    assert comparison["qlearn"] == direct


def test_threshold_sweep_structure():
    sweep = threshold_sweep([3, 1, 2], FAST)
    assert list(sweep) == [1, 2, 3]
    assert min(sweep, key=lambda n: sweep[n].mean_cost) == 2
    assert [row.param for row in sweep_rows("s", sweep, FAST)] == ["n=1", "n=2", "n=3"]
    for n, stats in sweep.items():
        # the closed-form cost that the fig3a preset overlays on the measured one
        overlay = cost_breakdown(n, FAST.env).total
        assert stats.mean_cost == pytest.approx(overlay, rel=0.1)


def test_threshold_sweep_keeps_one_entry_per_threshold():
    assert list(threshold_sweep([2, 1, 2], FAST)) == [1, 2]


def test_threshold_sweep_mismatch_metric_has_no_overlay(tmp_path):
    sweep = threshold_sweep([0, 1, 2], with_metric(FAST, "aoii"))
    assert list(sweep) == [0, 1, 2]
    # the mismatch metric has no closed form, so its preset writes no overlay
    assert main(["reproduce", "fig3d", "--runs", "1", "--test-steps", "50",
                 "--out-dir", str(tmp_path)]) == 0
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == ["fig3d.csv", "fig3d_cost.dat", "fig3d_risky.dat"]


def test_threshold_sweep_rejects_empty():
    with pytest.raises(ValueError):
        threshold_sweep([], FAST)


@pytest.mark.parametrize(
    "metric, values, message",
    [("aoi", [2, 0], "threshold must be at least 1, got 0"),
     ("aoii", [1, -1], "theta must be nonnegative, got -1")],
)
def test_threshold_sweep_validates_thresholds_before_any_draw(monkeypatch, metric, values, message):
    def no_draws(seed):
        raise AssertionError("events were drawn")

    monkeypatch.setattr(kernels, "_substreams", no_draws)
    with pytest.raises(ValueError, match=message):
        threshold_sweep(values, with_metric(FAST, metric))


@pytest.mark.parametrize("metric", ["aoi", "qaoi", "aoii"])
def test_threshold_sweep_derives_each_run_substreams_once(monkeypatch, metric):
    """A sweep run draws its events from one set of substreams; no
    environment is built beside it."""
    derived = []
    derive = kernels._substreams

    def counted(seed):
        derived.append(seed)
        return derive(seed)

    monkeypatch.setattr(kernels, "_substreams", counted)
    threshold_sweep([1, 2], with_metric(FAST, metric))
    assert len(derived) == FAST.runs


def _one_strategy(experiment, runs):
    """A one-strategy experiment's result at the aoi defaults, one step per run."""
    config = ExperimentConfig(EnvSpec("aoi"), test_steps=1, runs=runs)
    if experiment == "evaluate":
        return evaluate(ThresholdPolicy(2), config)
    return threshold_sweep([2], config)


@pytest.mark.parametrize("experiment", ["evaluate", "threshold_sweep"])
def test_memory_grows_by_three_floats_per_run(experiment):
    """While an experiment runs, each finished run is held as its cost, risky
    frequency and send rate (a float and its list entry take 32 B), so the
    traced peak of a one-strategy experiment grows by at most 160 B per run."""
    import tracemalloc

    def traced_peak(runs):
        tracemalloc.start()
        try:
            _one_strategy(experiment, runs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _one_strategy(experiment, 2)  # warm-up: lazy imports and caches
    small, large = traced_peak(1000), traced_peak(3000)
    assert (large - small) / 2000 <= 160


@pytest.mark.parametrize("experiment", ["evaluate", "threshold_sweep"])
def test_a_finished_result_keeps_nothing_per_run(experiment):
    """Once an experiment returns, its result holds the reported floats
    alone: the memory still traced while the result is held is the same at
    200 and at 2,000 runs, to within 1 KB."""
    import tracemalloc

    def retained(runs):
        tracemalloc.start()
        try:
            held = _one_strategy(experiment, runs)  # noqa: F841 (held while measured)
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    _one_strategy(experiment, 2)  # warm-up: lazy imports and caches
    assert retained(2000) - retained(200) <= 1024


@pytest.mark.parametrize("metric, values", [("aoi", [1, 3]), ("qaoi", [2, 4]), ("aoii", [0, 2])])
def test_threshold_sweep_points_equal_evaluate(metric, values):
    """Every run of a sweep equals its threshold policy's run_policy rollout
    at that run's evaluation seed, so each point equals ``evaluate``."""
    config = with_metric(FAST, metric)
    policies = [threshold_policy(metric, value) for value in values]
    # run i's evaluation seed: child i of the base seed's first child
    seeds = np.random.SeedSequence(config.base_seed).spawn(4)[0].spawn(config.runs)
    for seed in seeds:
        lanes = kernels.threshold_rollouts(config.env, seed, values, config.test_steps)
        direct = [run_policy(config.env.build(seed), p, config.test_steps) for p in policies]
        assert lanes == direct
    sweep = threshold_sweep(values, config)
    assert list(sweep) == values
    for stats, policy in zip(sweep.values(), policies):
        assert stats == evaluate(policy, config)


def test_learning_comparison_structure_and_pairing():
    comparison = learning_comparison(FAST)
    assert set(comparison) == {"random", "threshold", "qlearn", "qlearn_risk"}
    assert comparison.threshold == 2  # analytic optimum fills the default
    rows = {row.strategy: row for row in comparison_rows("c", comparison, FAST)}
    assert {row.metric for row in rows.values()} == {"aoi"}
    assert rows["qlearn"].learn_steps == rows["qlearn_risk"].learn_steps == 3000
    assert rows["random"].param == "send_prob=0.5"  # arrival probability fills the default
    assert rows["qlearn_risk"].param == "rho=2"
    # every strategy faced the same evaluation environments: the threshold
    # row must agree exactly with a standalone evaluation at the same seed
    direct = evaluate(ThresholdPolicy(2), FAST)
    assert comparison["threshold"] == direct


def test_learning_comparison_mismatch_adds_always_send():
    comparison = learning_comparison(with_metric(FAST, "aoii"))
    assert "always_send" in set(comparison)
    assert comparison["always_send"].mean_send_rate == 1.0


def count_calls(monkeypatch, owner, name):
    """A list that grows by one at each call of ``owner.name``."""
    calls = []
    plain = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return plain(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_mismatch_baselines_come_from_the_threshold_sweep(monkeypatch):
    """Without a configured theta the aoii baselines are read off the sweep
    that picks theta, which ran on the same evaluation seeds; they equal
    fresh evaluations, and no rollout is spent on them twice.  The sweep
    rolls its thresholds out together, the learners advance the chain
    themselves, and the greedy and random strategies are kernel lanes, so
    no env is stepped."""
    config = ExperimentConfig(
        env=EnvSpec("aoii"),
        learning=LearningParams(steps=500, a_max=32),
        test_steps=400,
        runs=2,
        base_seed=7,
    )
    steps = count_calls(monkeypatch, AoiiEnv, "step")
    comparison = learning_comparison(config)
    assert len(steps) == 0
    monkeypatch.undo()
    for name, theta in (("threshold", comparison.threshold), ("always_send", 0)):
        direct = evaluate(AoiiThresholdPolicy(theta), config)
        assert comparison[name] == direct


def test_mismatch_comparison_with_a_theta_steps_no_env(monkeypatch):
    """With theta configured there is no sweep: all five strategies are
    lanes of one kernel call per run, and each equals its evaluate."""
    config = ExperimentConfig(
        env=EnvSpec("aoii"),
        learning=LearningParams(steps=500, a_max=32),
        threshold=2,
        test_steps=400,
        runs=2,
        base_seed=7,
    )
    steps = count_calls(monkeypatch, AoiiEnv, "step")
    rollouts = count_calls(monkeypatch, experiments, "run_policy")
    comparison = learning_comparison(config)
    assert (len(steps), len(rollouts)) == (0, 0)
    monkeypatch.undo()
    spec = config.env
    # run i's policy, training and exploration seeds: children i of the base
    # seed's second, third and fourth children
    _, policy_ns, train_ns, explore_ns = np.random.SeedSequence(config.base_seed).spawn(4)
    policy_seeds, train_seeds, explore_seeds = (ns.spawn(config.runs) for ns in (policy_ns, train_ns, explore_ns))

    def learner(params):
        def trained(i):
            return GreedyPolicy(train(spec.build(train_seeds[i]), params, explore_seeds[i]).table)

        return trained

    expected = {
        "random": lambda i: RandomPolicy(spec.params.lam, np.random.default_rng(policy_seeds[i])),
        "threshold": AoiiThresholdPolicy(2),
        "qlearn": learner(replace(config.learning, rho=1.0)),
        "qlearn_risk": learner(config.learning),
        "always_send": AoiiThresholdPolicy(0),
    }
    assert comparison.threshold == 2
    assert list(comparison) == list(expected)
    for name, policy in expected.items():
        assert comparison[name] == evaluate(policy, config), name


def test_learning_comparison_takes_rho_from_the_learning_parameters():
    config = ExperimentConfig(
        learning=LearningParams(steps=2000, a_max=32, rho=3.0),
        test_steps=1000,
        runs=2,
        base_seed=1,
    )
    comparison = learning_comparison(config)
    doubled_config = replace(config, learning=LearningParams(steps=2000, a_max=32))
    doubled = learning_comparison(doubled_config)
    for result, cfg, label in ((comparison, config, "rho=3"), (doubled, doubled_config, "rho=2")):
        rows = {row.strategy: row for row in comparison_rows("c", result, cfg)}
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
    comparison = learning_comparison(config)
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
    gated = [replace(config.env, metric="qaoi", query=QuerySpec(q)) for q in result]
    assert [optimal_threshold(spec) for spec in gated] == [5, 2]
    with pytest.raises(ValueError):
        query_prob_sweep([], config)


def test_comparison_rows_and_csv(tmp_path):
    comparison = learning_comparison(FAST)
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
    config = with_metric(FAST, "aoii")
    sweep = threshold_sweep([0, 1], config)
    rows = sweep_rows("sweep-aoii", sweep, config)
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

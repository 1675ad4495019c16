"""Seeded multi-run experiments: sweeps, learner comparisons and result files.

Every seed comes from one tree over the base seed, and ``_run_seeds``
derives run i's seed in a namespace when that run starts.  The evaluation
seeds are shared across strategies, so reported differences between
strategies are paired rather than noise from different event sequences.
``evaluate`` runs one policy per seed through ``run_policy``, and
``threshold_sweep`` runs every threshold of a sweep on each seed's events at
once through ``kernels.threshold_rollouts``, which gives the same numbers
bit for bit; both reduce each finished run to its cost, risky frequency
and send rate, and a finished strategy keeps only the five floats of its
``RunStats``.
An experiment reads every setting from its ``ExperimentConfig`` alone: the
metric and system from ``config.env``, the training length from
``config.learning.steps`` and the run profile from the config itself; a
caller that wants another metric or length passes a config changed with
``replace``.  An experiment returns only what it measured and the choices
it made (a baseline threshold); closed-form overlays and row labels are
left to the caller.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .analytic import optimal_threshold
from .env import EnvSpec, Policy, TrajectoryStats, _child, _seed_sequence, run_policy
from .kernels import threshold_rollouts
from .learning import LearningParams, train
from .params import QuerySpec
from .strategy import AoiiThresholdPolicy, GreedyPolicy, RandomPolicy, threshold_policy

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EnvSpec",
    "ExperimentConfig",
    "RunStats",
    "ComparisonResult",
    "ResultRow",
    "evaluate",
    "threshold_sweep",
    "learning_comparison",
    "query_prob_sweep",
    "comparison_rows",
    "sweep_rows",
    "emit_results",
    "emit_plot_data",
    "format_summary",
]

@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's environment, strategies and run profile.

    threshold None means: use the analytically optimal threshold for the
    age metrics, or pick the mismatch threshold empirically by a small
    sweep.
    """

    env: EnvSpec = EnvSpec()
    learning: LearningParams = LearningParams()
    threshold: int | None = None
    test_steps: int = 10_000
    runs: int = 100
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.test_steps < 1:
            raise ValueError(f"test_steps must be at least 1, got {self.test_steps}")
        if self.runs < 1:
            raise ValueError(f"runs must be at least 1, got {self.runs}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be nonnegative, got {self.base_seed}")


@dataclass(frozen=True)
class RunStats:
    """Cross-run means and sample standard deviations of one strategy's runs."""

    mean_cost: float
    std_cost: float
    mean_risky_freq: float
    std_risky_freq: float
    mean_send_rate: float

    @classmethod
    def from_runs(
        cls, costs: list[float], risky: list[float], send_rates: list[float]
    ) -> RunStats:
        import numpy as np

        def std(values: list[float]) -> float:
            return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0

        return cls(
            mean_cost=float(np.mean(costs)),
            std_cost=std(costs),
            mean_risky_freq=float(np.mean(risky)),
            std_risky_freq=std(risky),
            mean_send_rate=float(np.mean(send_rates)),
        )


EVALUATION, POLICY, TRAINING, EXPLORATION = range(4)


def _run_seeds(base_seed: int, namespace: int) -> Callable[[int], np.random.SeedSequence]:
    """i -> SeedSequence(base_seed).spawn(4)[namespace].spawn(runs)[i], each derived on its own."""
    return partial(_child, _child(_seed_sequence(base_seed), namespace))


def _fold_runs(
    rollout: Callable[..., Sequence[TrajectoryStats]], lanes: int, config: ExperimentConfig
) -> list[RunStats]:
    """Per-lane aggregates of ``rollout(seed, i)``, one trajectory per lane, on
    each of the config's runs i at its evaluation seed; a run is reduced to
    three floats per lane as soon as it finishes, and those are dropped once
    the lane's RunStats is built."""
    evaluation_seed = _run_seeds(config.base_seed, EVALUATION)
    columns = [([], [], []) for _ in range(lanes)]
    for i in range(config.runs):
        for (costs, risky, send_rates), lane in zip(columns, rollout(evaluation_seed(i), i)):
            costs.append(lane.avg_cost)
            risky.append(lane.risky_freq)
            send_rates.append(lane.send_count / lane.steps)
    return [RunStats.from_runs(*column) for column in columns]


PolicyLike = Policy | Callable[[int], Policy]


def evaluate(policy: PolicyLike, config: ExperimentConfig) -> RunStats:
    """Run a policy on ``config.runs`` seeded environments of ``config.env``
    for ``config.test_steps`` steps each, and aggregate.

    ``policy`` is either a fixed policy reused across runs or a callable
    that builds the policy for run index i (a random sender on its own
    stream, a learner trained for that run).  The environment seeds come
    from the EVALUATION namespace and depend only on the config's base seed
    and the run index, so every strategy evaluated with the same base seed,
    and every point of a ``threshold_sweep`` with it, faces identical events.
    """
    spec, horizon = config.env, config.test_steps

    def rollout(seed: np.random.SeedSequence, i: int) -> list[TrajectoryStats]:
        return [run_policy(spec.build(seed), policy(i) if callable(policy) else policy, horizon)]

    return _fold_runs(rollout, 1, config)[0]


def threshold_sweep(thresholds: list[int], config: ExperimentConfig) -> dict[int, RunStats]:
    """Each distinct threshold's statistics, in ascending order, for the
    threshold policies of ``config.env``'s metric on shared evaluation seeds.

    Each entry equals ``evaluate`` of its threshold policy under the same
    config; all thresholds are rolled out together on each run's events.
    """
    if not thresholds:
        raise ValueError("thresholds must be a nonempty list")
    values = sorted(set(thresholds))

    # the first run's rollout rejects an invalid threshold before any draw
    def rollout(seed: np.random.SeedSequence, i: int) -> list[TrajectoryStats]:
        return threshold_rollouts(config.env, seed, values, config.test_steps)

    return dict(zip(values, _fold_runs(rollout, len(values), config)))


class ComparisonResult(dict[str, RunStats]):
    """Per-strategy statistics plus the baseline threshold that was chosen."""

    def __init__(self, results: dict[str, RunStats], threshold: int) -> None:
        super().__init__(results)
        self.threshold = threshold


def learning_comparison(config: ExperimentConfig) -> ComparisonResult:
    """Train both learners fresh per run on ``config.env`` for
    ``config.learning.steps`` and evaluate them against baselines.

    Strategies: "random" (sends with the arrival probability), "threshold"
    (fixed benchmark threshold), "qlearn" (plain learner, rho forced to 1),
    "qlearn_risk" (risk-scaled learner, rho from ``config.learning``) and,
    for the mismatch metric, "always_send".  The plain and risk-scaled
    learners share training seeds per run, and all strategies share
    evaluation seeds per run.
    """
    import numpy as np

    spec = config.env
    policy_seed = _run_seeds(config.base_seed, POLICY)
    train_seed = _run_seeds(config.base_seed, TRAINING)
    explore_seed = _run_seeds(config.base_seed, EXPLORATION)

    # The baseline threshold is the configured one, else the closed-form
    # optimum.  The aoii metric has no closed form: its baseline is the
    # cheapest threshold of a small sweep, the way it is tuned by hand.  The
    # sweep runs on the same evaluation seeds, so its points for that
    # threshold and for theta = 0 (always send) are those strategies' results.
    known: dict[str, RunStats] = {}
    threshold = config.threshold
    if threshold is None and spec.metric == "aoii":
        sweep = threshold_sweep(list(range(0, 7)), config)
        threshold = min(sweep, key=lambda theta: sweep[theta].mean_cost)
        known = {"threshold": sweep[threshold], "always_send": sweep[0]}
    elif threshold is None:
        threshold = optimal_threshold(spec)

    def learner(params: LearningParams) -> Callable[[int], Policy]:
        def trained(i: int) -> Policy:
            report = train(spec.build(train_seed(i)), params, explore_seed(i))
            return GreedyPolicy(report.table)

        return trained

    # Each strategy's values depend only on its own seeds, so the strategies
    # can be evaluated one after another.
    strategies: dict[str, PolicyLike] = {
        "random": lambda i: RandomPolicy(spec.params.lam, np.random.default_rng(policy_seed(i))),
        "threshold": threshold_policy(spec.metric, threshold),
        "qlearn": learner(replace(config.learning, rho=1.0)),
        "qlearn_risk": learner(config.learning),
    }
    if spec.metric == "aoii":
        strategies["always_send"] = AoiiThresholdPolicy(0)
    results = {
        name: known[name] if name in known else evaluate(policy, config)
        for name, policy in strategies.items()
    }
    return ComparisonResult(results, threshold)


def query_prob_sweep(
    q_values: list[float], config: ExperimentConfig
) -> dict[float, ComparisonResult]:
    """The query-gated comparison at each query probability, in ascending q.

    Each comparison trains for ``config.learning.steps``; without a
    configured threshold its baseline is the optimum at that q.
    """
    if not q_values:
        raise ValueError("q_values must be a nonempty list")
    return {
        q: learning_comparison(
            replace(config, env=replace(config.env, metric="qaoi", query=QuerySpec(q)))
        )
        for q in sorted(q_values)
    }


@dataclass(frozen=True)
class ResultRow:
    """One line of the results CSV."""

    experiment_id: str
    metric: str
    strategy: str
    param: str
    learn_steps: int | None
    test_steps: int
    runs: int
    mean_cost: float
    std_cost: float
    mean_risky_freq: float
    std_risky_freq: float

    @classmethod
    def from_stats(
        cls, experiment_id: str, strategy: str, param: str, stats: RunStats, config: ExperimentConfig
    ) -> ResultRow:
        """A row for one strategy's statistics under the config's metric and
        run profile; only a learner's row ("qlearn*") carries its training length."""
        return cls(
            experiment_id=experiment_id,
            metric=config.env.metric,
            strategy=strategy,
            param=param,
            learn_steps=config.learning.steps if strategy.startswith("qlearn") else None,
            test_steps=config.test_steps,
            runs=config.runs,
            mean_cost=stats.mean_cost,
            std_cost=stats.std_cost,
            mean_risky_freq=stats.mean_risky_freq,
            std_risky_freq=stats.std_risky_freq,
        )


CSV_COLUMNS = [f.name for f in fields(ResultRow)]


def comparison_rows(
    experiment_id: str, comparison: ComparisonResult, config: ExperimentConfig
) -> list[ResultRow]:
    """One row per strategy, sorted by name; send_prob and rho come from the config."""
    params = {
        "random": f"send_prob={config.env.params.lam:g}",
        "threshold": f"threshold={comparison.threshold}",
        "always_send": "threshold=0",
        "qlearn": "rho=1",
        "qlearn_risk": f"rho={config.learning.rho:g}",
    }
    return [
        ResultRow.from_stats(experiment_id, name, params[name], stats, config)
        for name, stats in sorted(comparison.items())
    ]


def sweep_rows(
    experiment_id: str, sweep: Mapping[int, RunStats], config: ExperimentConfig
) -> list[ResultRow]:
    """One row per threshold, labelled n= (theta= for aoii)."""
    variable = "theta" if config.env.metric == "aoii" else "n"
    return [
        ResultRow.from_stats(experiment_id, "threshold", f"{variable}={value}", stats, config)
        for value, stats in sweep.items()
    ]


def emit_results(rows: list[ResultRow], path: str | Path) -> None:
    """Write the results CSV in ``ResultRow``'s field order.

    csv.writer writes floats as their repr and None as an empty cell.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(astuple(row) for row in rows)


def emit_plot_data(path: str | Path, triples: list[tuple[float, float, float]]) -> None:
    """Write whitespace-separated (x, y, yerr) lines for plotting tools."""
    with open(path, "w") as handle:
        handle.write("# x y yerr\n")
        for x, y, yerr in triples:
            handle.write(f"{x:g} {y!r} {yerr!r}\n")


def format_summary(rows: list[ResultRow]) -> str:
    """Human-readable digest of result rows, one line each."""
    lines = []
    for row in rows:
        steps = f", learn={row.learn_steps}" if row.learn_steps is not None else ""
        lines.append(
            f"{row.experiment_id} {row.metric} {row.strategy} [{row.param}]"
            f" cost {row.mean_cost:.4f} +- {row.std_cost:.4f},"
            f" risky {row.mean_risky_freq:.4f} +- {row.std_risky_freq:.4f}"
            f" ({row.runs} runs x {row.test_steps} steps{steps})"
        )
    return "\n".join(lines)

"""Seeded multi-run experiments: sweeps, learner comparisons and result files.

Every experiment derives its per-run seeds from one base seed, and the
evaluation seeds are shared across strategies within a comparison, so
reported differences between strategies are paired rather than noise from
different event sequences.  ``_evaluation_seeds`` is the one place those
seeds come from, for both rollout paths: ``evaluate`` runs one policy per
seed through ``run_policy``, and ``threshold_sweep`` runs every threshold
of a sweep on each seed's events at once through ``threshold_rollouts``,
which gives the same numbers bit for bit.  An experiment returns only what
it measured and the choices it made (a baseline threshold); closed-form
overlays and row labels are left to the caller.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .analytic import optimal_threshold
from .env import AoiEnv, AoiiEnv, Policy, TrajectoryStats, run_policy, threshold_rollouts
from .learning import LearningParams, train
from .params import QuerySpec, RiskSpec, SourceSpec, SystemParams
from .strategy import AoiiThresholdPolicy, GreedyPolicy, RandomPolicy, ThresholdPolicy

__all__ = [
    "EnvSpec",
    "ExperimentConfig",
    "RunStats",
    "SweepPoint",
    "SweepResult",
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

METRICS = ("aoi", "qaoi", "aoii")


@dataclass(frozen=True)
class EnvSpec:
    """Everything needed to build identical environments from fresh seeds.

    ``query`` only shapes qaoi environments and ``source`` only aoii ones,
    so a spec can be switched to another metric with ``replace`` and keep
    every setting that metric reads.
    """

    metric: str = "aoi"
    params: SystemParams = SystemParams()
    risk: RiskSpec = RiskSpec()
    query: QuerySpec = QuerySpec()
    source: SourceSpec = SourceSpec()

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")

    @property
    def q(self) -> float:
        """The query probability that gates the metric; 1 (ungated) unless it is qaoi."""
        return self.query.q if self.metric == "qaoi" else 1.0

    def build(self, seed: int | np.random.SeedSequence) -> AoiEnv | AoiiEnv:
        if self.metric == "aoii":
            return AoiiEnv(self.params, self.source, self.risk.zeta_aoii, seed=seed)
        query = self.query if self.metric == "qaoi" else None
        return AoiEnv(self.params, self.risk.zeta, query=query, seed=seed)


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


@dataclass(frozen=True)
class RunStats:
    """Cross-run aggregates plus the raw per-run values behind them."""

    mean_cost: float
    std_cost: float
    mean_risky_freq: float
    std_risky_freq: float
    mean_send_rate: float
    costs: tuple[float, ...]
    risky_freqs: tuple[float, ...]
    send_rates: tuple[float, ...]

    @classmethod
    def from_runs(
        cls, costs: list[float], risky: list[float], send_rates: list[float]
    ) -> RunStats:
        def std(values: list[float]) -> float:
            return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0

        return cls(
            mean_cost=float(np.mean(costs)),
            std_cost=std(costs),
            mean_risky_freq=float(np.mean(risky)),
            std_risky_freq=std(risky),
            mean_send_rate=float(np.mean(send_rates)),
            costs=tuple(costs),
            risky_freqs=tuple(risky),
            send_rates=tuple(send_rates),
        )

    @classmethod
    def from_trajectories(cls, runs: Sequence[TrajectoryStats]) -> RunStats:
        """Aggregates of one policy's per-run trajectories, in run order."""
        return cls.from_runs(
            [run.avg_cost for run in runs],
            [run.risky_freq for run in runs],
            [run.send_count / run.steps for run in runs],
        )


def _namespaces(base_seed: int) -> tuple[np.random.SeedSequence, ...]:
    # order: evaluation envs, policy rngs, training envs, exploration
    return tuple(np.random.SeedSequence(base_seed).spawn(4))


def _evaluation_seeds(base_seed: int, runs: int) -> list[np.random.SeedSequence]:
    """The environment seed of each run; every rollout from base_seed uses these."""
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    return _namespaces(base_seed)[0].spawn(runs)


PolicyLike = Policy | Callable[[int], Policy]


def evaluate(
    policy: PolicyLike,
    env_spec: EnvSpec,
    test_steps: int = 10_000,
    runs: int = 100,
    base_seed: int = 0,
) -> RunStats:
    """Run a policy over independent seeded environments and aggregate.

    ``policy`` is either a fixed policy reused across runs or a callable
    that builds the policy for run index i (a random sender on its own
    stream, a learner trained for that run).  The environment seeds come
    from ``_evaluation_seeds`` and depend only on base_seed and the run
    index, so every strategy evaluated with the same base seed, and every
    point of a ``threshold_sweep`` with it, faces identical events.
    """
    return RunStats.from_trajectories([
        run_policy(env_spec.build(env_seed), policy(i) if callable(policy) else policy, test_steps)
        for i, env_seed in enumerate(_evaluation_seeds(base_seed, runs))
    ])


@dataclass(frozen=True)
class SweepPoint:
    value: int
    stats: RunStats


@dataclass(frozen=True)
class SweepResult:
    """Per-threshold statistics and the cheapest value."""

    variable: str
    points: tuple[SweepPoint, ...]
    best_value: int


def _threshold_policy(metric: str, value: int) -> Policy:
    if metric == "aoii":
        return AoiiThresholdPolicy(value)
    return ThresholdPolicy(value)


def threshold_sweep(metric: str, thresholds: list[int], config: ExperimentConfig) -> SweepResult:
    """Evaluate threshold policies in ascending order on shared evaluation seeds.

    Each point equals ``evaluate`` of its threshold policy under the
    config's run profile; all thresholds are rolled out together on each
    run's events.
    """
    if not thresholds:
        raise ValueError("thresholds must be a nonempty list")
    values = sorted(thresholds)
    for value in values:
        _threshold_policy(metric, value)  # rejects an invalid threshold before any draw
    spec = replace(config.env, metric=metric)
    runs = [
        threshold_rollouts(spec.build(env_seed), values, config.test_steps)
        for env_seed in _evaluation_seeds(config.base_seed, config.runs)
    ]
    points = [
        SweepPoint(value, RunStats.from_trajectories([run[i] for run in runs]))
        for i, value in enumerate(values)
    ]
    return SweepResult(
        variable="theta" if metric == "aoii" else "n",
        points=tuple(points),
        best_value=min(points, key=lambda p: p.stats.mean_cost).value,
    )


class ComparisonResult(Mapping[str, RunStats]):
    """Per-strategy statistics plus the baseline threshold that was chosen."""

    def __init__(self, results: dict[str, RunStats], threshold: int) -> None:
        self.results = results
        self.threshold = threshold

    def __getitem__(self, key: str) -> RunStats:
        return self.results[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


def learning_comparison(
    metric: str, learn_steps: int, config: ExperimentConfig
) -> ComparisonResult:
    """Train both learners fresh per run and evaluate them against baselines.

    Strategies: "random" (sends with the arrival probability), "threshold"
    (fixed benchmark threshold), "qlearn" (plain learner, rho forced to 1),
    "qlearn_risk" (risk-scaled learner, rho from ``config.learning``) and,
    for the mismatch metric, "always_send".  The plain and risk-scaled
    learners share training seeds per run, and all strategies share
    evaluation seeds per run.
    """
    spec = replace(config.env, metric=metric)
    _, pol_ns, train_ns, explore_ns = _namespaces(config.base_seed)
    pol_seeds = pol_ns.spawn(config.runs)
    train_seeds = train_ns.spawn(config.runs)
    explore_seeds = explore_ns.spawn(config.runs)

    # The baseline threshold is the configured one, else the closed-form
    # optimum.  The aoii metric has no closed form: its baseline is the
    # cheapest threshold of a small sweep, the way it is tuned by hand.  The
    # sweep runs on the same evaluation seeds, so its points for that
    # threshold and for theta = 0 (always send) are those strategies' results.
    known: dict[str, RunStats] = {}
    threshold = config.threshold
    if threshold is None and metric == "aoii":
        sweep = threshold_sweep("aoii", list(range(0, 7)), config)
        threshold = sweep.best_value
        by_value = {point.value: point.stats for point in sweep.points}
        known = {"threshold": by_value[threshold], "always_send": by_value[0]}
    elif threshold is None:
        threshold = optimal_threshold(spec.params, q=spec.q)
    lp_risk = replace(config.learning, steps=learn_steps)
    lp_plain = replace(lp_risk, rho=1.0)

    def learner(params: LearningParams) -> Callable[[int], Policy]:
        def trained(i: int) -> Policy:
            report = train(spec.build(train_seeds[i]), params, explore_seeds[i])
            return GreedyPolicy(report.table)

        return trained

    # Each strategy's values depend only on its own seeds, so the strategies
    # can be evaluated one after another.
    strategies: dict[str, PolicyLike] = {
        "random": lambda i: RandomPolicy(spec.params.lam, np.random.default_rng(pol_seeds[i])),
        "threshold": _threshold_policy(metric, threshold),
        "qlearn": learner(lp_plain),
        "qlearn_risk": learner(lp_risk),
    }
    if metric == "aoii":
        strategies["always_send"] = AoiiThresholdPolicy(0)
    results = {
        name: known[name]
        if name in known
        else evaluate(policy, spec, config.test_steps, config.runs, config.base_seed)
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
            "qaoi",
            config.learning.steps,
            replace(config, env=replace(config.env, metric="qaoi", query=QuerySpec(q))),
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
        cls,
        experiment_id: str,
        metric: str,
        strategy: str,
        param: str,
        learn_steps: int | None,
        stats: RunStats,
        config: ExperimentConfig,
    ) -> ResultRow:
        """A row for one strategy's statistics under the config's run profile."""
        return cls(
            experiment_id=experiment_id,
            metric=metric,
            strategy=strategy,
            param=param,
            learn_steps=learn_steps,
            test_steps=config.test_steps,
            runs=config.runs,
            mean_cost=stats.mean_cost,
            std_cost=stats.std_cost,
            mean_risky_freq=stats.mean_risky_freq,
            std_risky_freq=stats.std_risky_freq,
        )


CSV_COLUMNS = [f.name for f in fields(ResultRow)]


def comparison_rows(
    experiment_id: str,
    metric: str,
    learn_steps: int,
    comparison: ComparisonResult,
    config: ExperimentConfig,
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
        ResultRow.from_stats(
            experiment_id,
            metric,
            name,
            params[name],
            learn_steps if name.startswith("qlearn") else None,
            stats,
            config,
        )
        for name, stats in sorted(comparison.items())
    ]


def sweep_rows(
    experiment_id: str, metric: str, sweep: SweepResult, config: ExperimentConfig
) -> list[ResultRow]:
    return [
        ResultRow.from_stats(
            experiment_id,
            metric,
            "threshold",
            f"{sweep.variable}={point.value}",
            None,
            point.stats,
            config,
        )
        for point in sweep.points
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

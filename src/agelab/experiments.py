"""Seeded multi-run experiments: sweeps, learner comparisons and result files.

Every experiment derives its per-run seeds from one base seed, and the
evaluation seeds are shared across strategies within a comparison, so
reported differences between strategies are paired rather than noise from
different event sequences.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Mapping

import numpy as np

from .analytic import (
    AnalyticInapplicableError,
    InfeasibleRiskBudgetError,
    optimal_threshold,
    risky_frequency,
    threshold_cost_aoi,
    threshold_cost_qaoi,
)
from .env import AoiEnv, AoiiEnv, Policy, run_policy
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
    "QuerySweepPoint",
    "QuerySweepResult",
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
    sweep.  send_prob None means the random baseline sends with the
    arrival probability.
    """

    env: EnvSpec = EnvSpec()
    learning: LearningParams = LearningParams()
    threshold: int | None = None
    send_prob: float | None = None
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


def _namespaces(base_seed: int) -> tuple[np.random.SeedSequence, ...]:
    # order: evaluation envs, policy rngs, training envs, exploration
    return tuple(np.random.SeedSequence(base_seed).spawn(4))


PolicyLike = Policy | Callable[[np.random.SeedSequence], Policy]


def evaluate(
    policy: PolicyLike,
    env_spec: EnvSpec,
    test_steps: int = 10_000,
    runs: int = 100,
    base_seed: int = 0,
) -> RunStats:
    """Run a policy over independent seeded environments and aggregate.

    ``policy`` is either a fixed policy reused across runs or a callable
    that builds one per run from a seed (needed for random policies).  The
    environment seeds depend only on base_seed and the run index, so two
    strategies evaluated with the same base seed face identical events.
    """
    eval_ns, pol_ns = _namespaces(base_seed)[:2]
    env_seeds = eval_ns.spawn(runs)
    pol_seeds = pol_ns.spawn(runs)
    costs: list[float] = []
    risky: list[float] = []
    send_rates: list[float] = []
    for i in range(runs):
        run_policy_obj = policy(pol_seeds[i]) if callable(policy) else policy
        env = env_spec.build(env_seeds[i])
        stats = run_policy(env, run_policy_obj, test_steps)
        costs.append(stats.avg_cost)
        risky.append(stats.risky_freq)
        send_rates.append(stats.send_count / stats.steps)
    return RunStats.from_runs(costs, risky, send_rates)


@dataclass(frozen=True)
class SweepPoint:
    value: int
    stats: RunStats
    analytic_cost: float | None
    analytic_risky: float | None


@dataclass(frozen=True)
class SweepResult:
    """Per-threshold statistics, cheapest value and budget feasibility."""

    variable: str
    points: tuple[SweepPoint, ...]
    budget: float | None
    best_value: int
    feasible_value: int | None

    def best_feasible(self) -> int:
        if self.budget is None:
            return self.best_value
        if self.feasible_value is None:
            min_risk = min(p.stats.mean_risky_freq for p in self.points)
            raise InfeasibleRiskBudgetError(self.budget, min_risk)
        return self.feasible_value


def _threshold_policy(metric: str, value: int) -> Policy:
    if metric == "aoii":
        return AoiiThresholdPolicy(value)
    return ThresholdPolicy(value)


def threshold_sweep(
    metric: str,
    thresholds: list[int],
    config: ExperimentConfig,
    risk_budget: float | None = None,
) -> SweepResult:
    """Evaluate threshold policies in ascending order with analytic overlays.

    With a risk budget the ascent stops right after the first threshold
    whose measured risky frequency exceeds the budget; higher thresholds
    are only riskier.  The cheapest feasible value is reported, or None
    when nothing tested fits the budget.
    """
    if not thresholds:
        raise ValueError("thresholds must be a nonempty list")
    spec = replace(config.env, metric=metric)
    params = spec.params
    points: list[SweepPoint] = []
    for value in sorted(thresholds):
        policy = _threshold_policy(metric, value)
        stats = evaluate(policy, spec, config.test_steps, config.runs, config.base_seed)
        analytic_cost: float | None = None
        analytic_risky: float | None = None
        if metric == "aoi":
            analytic_cost = threshold_cost_aoi(value, params)
        elif metric == "qaoi":
            analytic_cost = threshold_cost_qaoi(value, params, spec.query.q)
        if metric != "aoii":
            try:
                q = spec.query.q if metric == "qaoi" else None
                analytic_risky = risky_frequency(value, spec.risk.zeta, params, q=q)
            except AnalyticInapplicableError:
                analytic_risky = None
        points.append(SweepPoint(value, stats, analytic_cost, analytic_risky))
        if risk_budget is not None and stats.mean_risky_freq > risk_budget:
            break
    best = min(points, key=lambda p: p.stats.mean_cost).value
    feasible_value: int | None = None
    if risk_budget is not None:
        feasible = [p for p in points if p.stats.mean_risky_freq <= risk_budget]
        if feasible:
            feasible_value = min(feasible, key=lambda p: p.stats.mean_cost).value
    return SweepResult(
        variable="theta" if metric == "aoii" else "n",
        points=tuple(points),
        budget=risk_budget,
        best_value=best,
        feasible_value=feasible_value,
    )


def _baseline_threshold(spec: EnvSpec, config: ExperimentConfig) -> int:
    """The configured threshold, else the analytic optimum of the age metrics.

    The mismatch metric has no closed form; ``learning_comparison`` picks its
    threshold by a sweep.
    """
    if config.threshold is not None:
        return config.threshold
    q = spec.query.q if spec.metric == "qaoi" else None
    return optimal_threshold(spec.metric, spec.params, q=q)


class ComparisonResult(Mapping[str, RunStats]):
    """Per-strategy statistics plus the choices made to produce them."""

    def __init__(
        self,
        results: dict[str, RunStats],
        metric: str,
        learn_steps: int,
        threshold: int,
        send_prob: float,
        rho: float,
    ) -> None:
        self.results = results
        self.metric = metric
        self.learn_steps = learn_steps
        self.threshold = threshold
        self.send_prob = send_prob
        self.rho = rho

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

    Strategies: "random" (sends with the arrival probability unless
    configured otherwise), "threshold" (fixed benchmark threshold),
    "qlearn" (plain learner, rho forced to 1), "qlearn_risk" (risk-scaled
    learner, rho from ``config.learning``) and, for the mismatch metric,
    "always_send".  The plain and risk-scaled learners share training seeds
    per run, and all strategies share evaluation seeds per run.
    """
    spec = replace(config.env, metric=metric)
    eval_ns, pol_ns, train_ns, explore_ns = _namespaces(config.base_seed)
    runs = config.runs
    env_seeds = eval_ns.spawn(runs)
    pol_seeds = pol_ns.spawn(runs)
    train_seeds = train_ns.spawn(runs)
    explore_seeds = explore_ns.spawn(runs)

    strategies = ["random", "threshold", "qlearn", "qlearn_risk"]
    if metric == "aoii":
        strategies.append("always_send")
    # Statistics known before the loop.  Without a configured threshold the
    # aoii baseline is the cheapest one of a small sweep, the way it is tuned
    # by hand.  The sweep runs on the same evaluation seeds, so its points for
    # that threshold and for theta = 0 (always send) are those strategies' results.
    known: dict[str, RunStats] = {}
    if metric == "aoii" and config.threshold is None:
        sweep = threshold_sweep("aoii", list(range(0, 7)), config)
        threshold = sweep.best_value
        by_value = {point.value: point.stats for point in sweep.points}
        known = {"threshold": by_value[threshold], "always_send": by_value[0]}
    else:
        threshold = _baseline_threshold(spec, config)
    send_prob = config.send_prob if config.send_prob is not None else spec.params.lam
    lp_risk = replace(config.learning, steps=learn_steps)
    lp_plain = replace(lp_risk, rho=1.0)

    tb_policy = _threshold_policy(metric, threshold)
    rollouts = [name for name in strategies if name not in known]
    samples: dict[str, tuple[list[float], list[float], list[float]]] = {
        name: ([], [], []) for name in rollouts
    }
    for i in range(runs):
        plain_report = train(spec.build(train_seeds[i]), lp_plain, explore_seeds[i])
        risk_report = train(spec.build(train_seeds[i]), lp_risk, explore_seeds[i])
        policies: dict[str, Policy] = {
            "random": RandomPolicy(send_prob, np.random.default_rng(pol_seeds[i])),
            "threshold": tb_policy,
            "qlearn": GreedyPolicy(plain_report.table),
            "qlearn_risk": GreedyPolicy(risk_report.table),
        }
        if metric == "aoii":
            policies["always_send"] = AoiiThresholdPolicy(0)
        for name in rollouts:
            env = spec.build(env_seeds[i])
            stats = run_policy(env, policies[name], config.test_steps)
            costs, risky, send_rates = samples[name]
            costs.append(stats.avg_cost)
            risky.append(stats.risky_freq)
            send_rates.append(stats.send_count / stats.steps)
    results = {
        name: known[name] if name in known else RunStats.from_runs(*samples[name])
        for name in strategies
    }
    return ComparisonResult(
        results=results,
        metric=metric,
        learn_steps=learn_steps,
        threshold=threshold,
        send_prob=send_prob,
        rho=lp_risk.rho,
    )


@dataclass(frozen=True)
class QuerySweepPoint:
    q: float
    comparison: ComparisonResult
    best_threshold: int
    analytic_cost: float


@dataclass(frozen=True)
class QuerySweepResult:
    points: tuple[QuerySweepPoint, ...]


def query_prob_sweep(q_values: list[float], config: ExperimentConfig) -> QuerySweepResult:
    """Repeat the query-gated comparison for each query probability.

    Each point also carries the analytically optimal threshold and its
    cost; at q = 1 these coincide with the plain age metric's values.
    """
    if not q_values:
        raise ValueError("q_values must be a nonempty list")
    points: list[QuerySweepPoint] = []
    for q in sorted(q_values):
        spec = replace(config.env, metric="qaoi", query=QuerySpec(q))
        cfg = replace(config, env=spec)
        comparison = learning_comparison("qaoi", config.learning.steps, cfg)
        best_n = optimal_threshold("qaoi", spec.params, q=q)
        points.append(
            QuerySweepPoint(
                q=q,
                comparison=comparison,
                best_threshold=best_n,
                analytic_cost=threshold_cost_qaoi(best_n, spec.params, q),
            )
        )
    return QuerySweepResult(points=tuple(points))


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


CSV_COLUMNS = [
    "experiment_id",
    "metric",
    "strategy",
    "param",
    "learn_steps",
    "test_steps",
    "runs",
    "mean_cost",
    "std_cost",
    "mean_risky_freq",
    "std_risky_freq",
]


def comparison_rows(
    experiment_id: str, comparison: ComparisonResult, config: ExperimentConfig
) -> list[ResultRow]:
    params = {
        "random": f"send_prob={comparison.send_prob:g}",
        "threshold": f"threshold={comparison.threshold}",
        "always_send": "threshold=0",
        "qlearn": "rho=1",
        "qlearn_risk": f"rho={comparison.rho:g}",
    }
    return [
        ResultRow.from_stats(
            experiment_id,
            comparison.metric,
            name,
            params[name],
            comparison.learn_steps if name.startswith("qlearn") else None,
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
    """Write the results CSV with a fixed column order and repr floats."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.experiment_id,
                    row.metric,
                    row.strategy,
                    row.param,
                    "" if row.learn_steps is None else row.learn_steps,
                    row.test_steps,
                    row.runs,
                    repr(row.mean_cost),
                    repr(row.std_cost),
                    repr(row.mean_risky_freq),
                    repr(row.std_risky_freq),
                ]
            )


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

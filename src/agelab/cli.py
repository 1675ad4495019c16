"""Command-line laboratory around the library.

Subcommands: ``analytic`` (closed-form threshold evaluation), ``optimize``
(threshold search, optionally under a risk budget), ``simulate`` (seeded
policy rollouts), ``train`` (one learning run with a table dump) and
``reproduce`` (canned experiment presets writing CSV and plot data).

Exit codes: 0 success, 1 usage or validation error, 2 infeasible risk
budget, 3 file I/O error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from .analytic import (
    N_MAX,
    AnalyticInapplicableError,
    InfeasibleRiskBudgetError,
    cost_breakdown,
    evaluate_threshold,
    optimal_threshold,
    risk_constrained_threshold,
    risky_frequency,
)
from .env import _child, _seed_sequence
from .experiments import (
    EnvSpec,
    ExperimentConfig,
    ResultRow,
    comparison_rows,
    emit_plot_data,
    emit_results,
    format_summary,
    learning_comparison,
    query_prob_sweep,
    sweep_rows,
    threshold_sweep,
)
from .learning import A_MAX_LIMIT, LearningParams, train
from .params import QuerySpec, RiskSpec, SourceSpec, SystemParams

__all__ = [
    "UsageError",
    "parse_config_text",
    "main",
]


class UsageError(Exception):
    """Bad flags, bad config keys or invalid value combinations."""


# Every key a configuration file may set, with its type and help.  Each key
# is also a flag, --key with dashes for underscores, and a flag wins over
# the file.  A key set by neither is not passed on, so the dataclass
# default applies.
CONFIG_KEYS: tuple[tuple[str, type, str], ...] = (
    ("metric", str, "age metric: aoi, qaoi or aoii"),
    ("p", float, "channel success probability"),
    ("lambda", float, "arrival probability"),
    ("nu", float, "energy per attempt"),
    ("alpha", float, "age cost weight"),
    ("beta", float, "energy cost weight"),
    ("q", float, "query probability (qaoi)"),
    ("p_r", float, "source stay probability (aoii)"),
    ("num_states", int, "source alphabet size (aoii)"),
    ("zeta", int, "risky age level (aoi/qaoi)"),
    ("zeta_aoii", int, "risky mismatch level"),
    ("rho", float, "risky-cost multiplier for learning"),
    ("gamma", float, "discount factor"),
    ("epsilon0", float, "initial exploration rate"),
    ("delta", float, "exploration decay per step"),
    ("epsilon_min", float, "exploration floor"),
    ("learn_steps", int, "training steps"),
    ("test_steps", int, "evaluation steps per run"),
    ("runs", int, "evaluation runs; nothing caps them, and each holds about 100 B "
     "per strategy (per threshold in a sweep) while the experiment runs, none after"),
    ("a_max", int, f"state clamp for learning (at most {A_MAX_LIMIT})"),
    ("seed", int, "base seed for all streams"),
    ("threshold", int, "send threshold n (or mismatch theta)"),
)
CONFIG_SCHEMA: dict[str, type] = {key: kind for key, kind, _ in CONFIG_KEYS}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; unknown keys are hard errors."""
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_SCHEMA:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        caster = CONFIG_SCHEMA[key]
        try:
            cfg[key] = caster(value)
        except ValueError:
            raise UsageError(
                f"config line {lineno}: key {key!r} needs a {caster.__name__}, got {value!r}"
            ) from None
    return cfg


def _given_keys(args: argparse.Namespace) -> dict:
    """The config keys set by a flag or by the --config file."""
    keys = parse_config_text(Path(args.config).read_text()) if args.config else {}
    for key in CONFIG_SCHEMA:
        flag = getattr(args, key)
        if flag is not None:
            keys[key] = flag
    return keys


def _experiment_config(args: argparse.Namespace, keys: dict) -> ExperimentConfig:
    """Fill the experiment dataclasses from the given keys; the rest keep their defaults."""

    def given(*names: str, **renamed: str) -> dict:
        fields = {name: name for name in names} | renamed
        return {field: keys[key] for field, key in fields.items() if key in keys}

    env = EnvSpec(
        **given("metric"),
        params=SystemParams(**given("p", "nu", "alpha", "beta", lam="lambda")),
        risk=RiskSpec(**given("zeta", "zeta_aoii")),
        query=QuerySpec(**given("q")),
        source=SourceSpec(**given("num_states", "p_r")),
    )
    learning = LearningParams(
        **given("gamma", "epsilon0", "delta", "epsilon_min", "rho", "a_max", steps="learn_steps")
    )
    return ExperimentConfig(
        env=env,
        learning=learning,
        **given("threshold", "test_steps", "runs", base_seed="seed"),
    )


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """The run's configuration: flags over the config file over the defaults."""
    return _experiment_config(args, _given_keys(args))


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise UsageError(message)


def _common_flags() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    group = common.add_argument_group("model and run configuration")
    group.add_argument("--config", help="key = value configuration file")
    for key, kind, text in CONFIG_KEYS:
        group.add_argument("--" + key.replace("_", "-"), type=kind, help=text)
    return common


# Built on the first main() call and reused by every later one in the
# process; parse_args gives each call a fresh Namespace.
@functools.cache
def build_parser() -> _Parser:
    keys = ", ".join(sorted(CONFIG_SCHEMA))
    parser = _Parser(
        prog="agelab",
        description="Risk-sensitive scheduling laboratory for age-based update metrics.",
        epilog="configuration file keys (flags of the same name override them):\n  " + keys,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common = _common_flags()
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    analytic = sub.add_parser(
        "analytic", parents=[common], help="closed-form threshold evaluation"
    )
    analytic.add_argument("--k-max", dest="k_max", type=int, help="age table display bound")
    analytic.set_defaults(func=cmd_analytic)

    optimize = sub.add_parser(
        "optimize", parents=[common], help="find the cheapest threshold, optionally under a risk budget"
    )
    optimize.add_argument(
        "--risk-budget", dest="risk_budget", type=float,
        help="largest allowed frequency of ages >= zeta; exit 2 if no threshold meets it",
    )
    optimize.add_argument(
        "--n-max", dest="n_max", type=int, default=N_MAX,
        help="largest threshold searched (default %(default)s)",
    )
    optimize.set_defaults(func=cmd_optimize)

    simulate = sub.add_parser(
        "simulate", parents=[common], help="seeded rollouts of a threshold policy"
    )
    simulate.add_argument("--out", help="write per-strategy CSV here")
    simulate.set_defaults(func=cmd_simulate)

    train_cmd = sub.add_parser(
        "train", parents=[common], help="one learning run, dumping the value table"
    )
    train_cmd.add_argument("--out", help="value table CSV path (default qtable_<metric>.csv)")
    train_cmd.set_defaults(func=cmd_train)

    reproduce = sub.add_parser(
        "reproduce", parents=[common], help="canned experiments writing CSV and plot data"
    )
    reproduce.add_argument("figure", help="one of " + ", ".join(sorted(FIGURES)))
    reproduce.add_argument("--out-dir", dest="out_dir", default=".")
    reproduce.set_defaults(func=cmd_reproduce)
    return parser


def cmd_analytic(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    spec = config.env
    if config.threshold is None:
        raise UsageError("analytic needs --threshold")
    result = evaluate_threshold(config.threshold, spec, k_max=args.k_max)
    breakdown = result.breakdown
    label = f"{spec.metric} threshold {config.threshold}"
    if spec.metric == "qaoi":
        label += f", q={spec.q:g}"
    print(label)
    print(f"average cost        {breakdown.total!r}")
    print(f"  age part          {breakdown.age_cost!r}")
    print(f"  energy part       {breakdown.energy_cost!r}")
    print(f"period length       {breakdown.period_length!r}")
    print(f"attempts per period {breakdown.attempts!r}")
    print("age frequencies:")
    for k in sorted(result.freq):
        print(f"  {k:3d}  {result.freq[k]:.9f}")
    print(f"risky frequency (age >= {spec.risk.zeta}): {result.risky_freq!r}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    spec = resolve_config(args).env
    budget = args.risk_budget
    if budget is None:
        best = optimal_threshold(spec, n_max=args.n_max)
        heading = "optimal threshold"
    else:
        best = risk_constrained_threshold(budget, spec, n_max=args.n_max)
        heading = f"optimal threshold under risk budget {budget:g}"
    # the risky closed form covers only thresholds below zeta; any other
    # refusal surfaces before a line is printed, as it does for analytic
    cost = cost_breakdown(best, spec).total
    risk = risky_frequency(best, spec) if best < spec.risk.zeta else None
    print(f"{heading}: {best}")
    print(f"average cost     {cost!r}")
    if risk is not None:
        print(f"risky frequency  {risk!r}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    threshold = config.threshold
    if threshold is None:
        if config.env.metric == "aoii":
            raise UsageError("simulate needs --threshold for the aoii metric")
        threshold = optimal_threshold(config.env)
    sweep = threshold_sweep([threshold], config)
    rows = sweep_rows("simulate", sweep, config)
    print(format_summary(rows))
    print(f"mean send rate {sweep[threshold].mean_send_rate:.4f}")
    if args.out:
        emit_results(rows, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    metric = config.env.metric
    root = _seed_sequence(config.base_seed)
    report = train(config.env.build(_child(root, 0)), config.learning, _child(root, 1))
    out = args.out or f"qtable_{metric}.csv"
    report.table.dump_csv(out)
    print(f"trained {metric} for {config.learning.steps} steps (rho={config.learning.rho:g})")
    print(f"final epsilon      {report.final_epsilon!r}")
    print(f"risky transitions  {report.risky_transitions}")
    print(f"table entries      {report.table.values.size}")
    print(f"wrote {out}")
    return 0


# A preset runs with the resolved config, the learn_steps key if one was
# given (None otherwise) and the output directory, and returns its rows.
# Its own metric replaces the config's, whatever --metric says.


def _sweep_figure(figure: str, metric: str, values: list[int]):
    """A threshold sweep over ascending values, overlaid with the closed forms
    of the age metrics (the risky one only below zeta)."""

    def run(config: ExperimentConfig, learn_steps: int | None, out_dir: Path) -> list[ResultRow]:
        config = replace(config, env=replace(config.env, metric=metric))
        sweep = threshold_sweep(values, config)
        rows = sweep_rows(figure, sweep, config)
        emit_results(rows, out_dir / f"{figure}.csv")
        emit_plot_data(
            out_dir / f"{figure}_cost.dat",
            [(n, stats.mean_cost, stats.std_cost) for n, stats in sweep.items()],
        )
        emit_plot_data(
            out_dir / f"{figure}_risky.dat",
            [(n, stats.mean_risky_freq, stats.std_risky_freq) for n, stats in sweep.items()],
        )
        if metric == "aoii":
            return rows
        spec = config.env
        emit_plot_data(
            out_dir / f"{figure}_cost_analytic.dat",
            [(n, cost_breakdown(n, spec).total, 0.0) for n in values],
        )
        risky = [(n, risky_frequency(n, spec), 0.0) for n in values if n < spec.risk.zeta]
        if risky:
            emit_plot_data(out_dir / f"{figure}_risky_analytic.dat", risky)
        return rows

    return run


def _comparison_figure(figure: str, metric: str, steps_list: list[int]):
    """A learner comparison at each of the preset's training lengths, or
    only at learn_steps when that key is given."""

    def run(config: ExperimentConfig, learn_steps: int | None, out_dir: Path) -> list[ResultRow]:
        config = replace(config, env=replace(config.env, metric=metric))
        rows: list[ResultRow] = []
        for steps in steps_list if learn_steps is None else [learn_steps]:
            at_steps = replace(config, learning=replace(config.learning, steps=steps))
            comparison = learning_comparison(at_steps)
            block = comparison_rows(figure, comparison, at_steps)
            rows.extend(block)
            triples = [
                (i, row.mean_risky_freq, row.std_risky_freq) for i, row in enumerate(block)
            ]
            emit_plot_data(out_dir / f"{figure}_risky_{steps}.dat", triples)
        emit_results(rows, out_dir / f"{figure}.csv")
        return rows

    return run


def _query_sweep_figure(figure: str, q_values: list[float]):
    """The query-gated comparison at each q, overlaid with the closed-form
    cost of the optimal threshold at that q, whatever the baseline used."""

    def run(config: ExperimentConfig, learn_steps: int | None, out_dir: Path) -> list[ResultRow]:
        config = replace(config, env=replace(config.env, metric="qaoi"))
        by_q = query_prob_sweep(q_values, config)
        # one block per query probability, labelled by q
        rows = [
            replace(row, param=f"q={q:g}")
            for q, comparison in by_q.items()
            for row in comparison_rows(figure, comparison, config)
        ]
        emit_results(rows, out_dir / f"{figure}.csv")
        for name in sorted(next(iter(by_q.values()))):
            triples = [(q, c[name].mean_cost, c[name].std_cost) for q, c in by_q.items()]
            emit_plot_data(out_dir / f"{figure}_cost_{name}.dat", triples)
        specs = {q: replace(config.env, query=QuerySpec(q)) for q in by_q}
        emit_plot_data(
            out_dir / f"{figure}_cost_analytic.dat",
            [(q, cost_breakdown(optimal_threshold(s), s).total, 0.0) for q, s in specs.items()],
        )
        return rows

    return run


FIGURES = {
    "fig3a": _sweep_figure("fig3a", "aoi", list(range(1, 9))),
    "fig3c": _sweep_figure("fig3c", "qaoi", list(range(1, 9))),
    "fig3d": _sweep_figure("fig3d", "aoii", list(range(0, 7))),
    "fig4": _comparison_figure("fig4", "aoi", [100_000]),
    "fig5": _comparison_figure("fig5", "aoi", [1_000_000]),
    "fig6": _comparison_figure("fig6", "qaoi", [100_000, 1_000_000]),
    "fig7": _query_sweep_figure("fig7", [0.2, 0.4, 0.6, 0.8, 1.0]),
    "fig8": _comparison_figure("fig8", "aoii", [100_000, 1_000_000]),
}


def cmd_reproduce(args: argparse.Namespace) -> int:
    if args.figure not in FIGURES:
        raise UsageError(
            f"unknown figure {args.figure!r}; choose from " + ", ".join(sorted(FIGURES))
        )
    keys = _given_keys(args)
    config = _experiment_config(args, keys)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = FIGURES[args.figure](config, keys.get("learn_steps"), out_dir)
    print(format_summary(rows))
    print(f"wrote {out_dir / (args.figure + '.csv')}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except InfeasibleRiskBudgetError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 2
    except (UsageError, AnalyticInapplicableError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

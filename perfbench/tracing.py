"""Spans and counters recorded around agelab's layers from outside the package.

``Tracer.install`` replaces the public functions of each module (and the
``step``/``decide`` methods) with timing wrappers, in every agelab module
namespace that holds them, and ``uninstall`` puts the originals back.
Nothing under ``src/`` changes.

Coarse calls (a CLI call, an experiment, a rollout, a training run, a
closed-form evaluation) become spans: name, start, end, parent span and a
trace id shared by everything under one ``cli.main`` call.  Hot calls
(``env.step``, ``decide``, the inner analytic series) run up to millions of
times per pass, so they are only counted and timed in aggregate.  Both kinds
keep a frame on one stack, so every span knows how much of its time its
children took and self time per layer falls out by subtraction.  Timers
around hot calls slow the spans enclosing them, so span durations are
taken from passes that wrap the span functions alone.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

METRICS = ("aoi", "qaoi", "aoii")

# layer -> public functions recorded as spans
SPAN_FUNCTIONS = {
    "cli": ("main",),
    "experiments": ("evaluate", "threshold_sweep", "learning_comparison", "query_prob_sweep"),
    "learning": ("train",),
    "env": ("run_policy",),
    "analytic": (
        "optimal_threshold",
        "risk_constrained_threshold",
        "evaluate_threshold",
        "risky_frequency",
        "threshold_cost_aoi",
        "threshold_cost_qaoi",
        "cost_breakdown",
    ),
}
# layer -> functions called per series term, counted only
COUNTED_FUNCTIONS = {"analytic": ("age_frequency", "reach_probability")}
# strategy class -> metric key suffix
POLICIES = {
    "ThresholdPolicy": "threshold",
    "AoiiThresholdPolicy": "aoii_threshold",
    "GreedyPolicy": "greedy",
    "RandomPolicy": "random",
}


def _rollout_info(arguments, result) -> dict:
    bound = arguments()
    return {"metric": bound["env"].metric, "steps": bound["horizon"]}


def _train_info(arguments, result) -> dict:
    bound = arguments()
    info = {"metric": bound["env"].metric, "steps": bound["params"].steps}
    if result is not None:
        info["table_bytes"] = result.table.values.nbytes + result.visits.nbytes
    return info


def _breakdown_info(arguments, result) -> dict | None:
    return None if result is None else {"terms": result.terms}


# what a span records beyond its timing; arguments() binds the call's arguments
SPAN_INFO = {
    "env.run_policy": _rollout_info,
    "learning.train": _train_info,
    "analytic.cost_breakdown": _breakdown_info,
}

# Metrics read from passes that record spans only.  With env.step, decide
# and the analytic series wrapped too, their timers would inflate every
# enclosing span; the counted calls' own numbers come from those passes.
SPAN_TIMED = {
    "cli.main_s",
    "experiments.threshold_sweep_s",
    "experiments.learning_comparison_s",
    "experiments.evaluate_s",
    *(f"env.run_policy_ns_per_step.{m}" for m in METRICS),
    *(f"learning.train_ns_per_step.{m}" for m in METRICS),
    "analytic.risky_frequency_ms.p50",
    "analytic.risky_frequency_ms.p90",
    "analytic.optimal_threshold_ms",
    "analytic.risk_constrained_threshold_ms",
    "analytic.cost_breakdown_us",
}


class Tracer:
    """Collects spans and counters while installed.

    spans:    (trace_id, span_id, parent_id, name, start_ns, end_ns, child_ns, info)
    counters: name -> [calls, total_ns, child_ns]
    tallies:  event counts observed on return values (sends, deliveries)
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.tallies: dict[str, int] = defaultdict(int)
        # frames are [child_ns, span_id]; the bottom one belongs to no span
        self._stack: list[list] = [[0, None]]
        self._trace_id = 0
        self._span_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # collection

    def take(self) -> tuple[list[tuple], dict[str, list[int]], dict[str, int]]:
        """Hand over what was recorded since the last take and start afresh."""
        taken = (self.spans, dict(self.counters), dict(self.tallies))
        self.spans = []
        self.counters.clear()
        self.tallies.clear()
        return taken

    def _span(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter_ns
        signature = inspect.signature(fn)
        describe = SPAN_INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if len(stack) == 1:
                self._trace_id += 1
            self._span_id += 1
            frame = [0, self._span_id]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                parent[0] += end - start
                info = None
                if describe is not None:
                    info = describe(lambda: signature.bind(*args, **kwargs).arguments, result)
                self.spans.append(
                    (self._trace_id, frame[1], parent[1], name, start, end, frame[0], info)
                )

        return wrapper

    def _counted(self, name: str, fn, key=None, after=None):
        stack, clock, counters = self._stack, time.perf_counter_ns, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0, stack[-1][1]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat = counters[name if key is None else key(args)]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[0]
            if after is not None:
                after(result)
            return result

        return wrapper

    def _after_step(self, outcome) -> None:
        if outcome.sent:
            self.tallies["env.sends"] += 1
            if outcome.success:
                self.tallies["env.deliveries"] += 1

    # installation

    def install(self, counted: bool = True) -> None:
        """Wrap the traced functions of the imported agelab package.

        With ``counted`` false only the span functions are wrapped.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {
            name: module
            for name, module in sys.modules.items()
            if module is not None and (name == "agelab" or name.startswith("agelab."))
        }
        tables = [(self._span, SPAN_FUNCTIONS)]
        if counted:
            tables.append((self._counted, COUNTED_FUNCTIONS))
        for wrap, table in tables:
            for layer, names in table.items():
                home = modules[f"agelab.{layer}"]
                for name in names:
                    original = getattr(home, name)
                    self._replace(modules, original, wrap(f"{layer}.{name}", original))
        if not counted:
            return
        env = modules["agelab.env"]
        for cls in (env.AoiEnv, env.AoiiEnv):
            self._patch(cls, "step", self._counted(
                "env.step", cls.step, key=lambda args: "env.step." + args[0].metric,
                after=self._after_step,
            ))
        strategy = modules["agelab.strategy"]
        for cls_name, kind in POLICIES.items():
            cls = getattr(strategy, cls_name)
            self._patch(cls, "decide", self._counted(f"strategy.decide.{kind}", cls.decide))

    def _replace(self, modules: dict, original, wrapper) -> None:
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated q-quantile (0 <= q <= 1); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def layer_metrics(spans: list[tuple], counters: dict, tallies: dict) -> dict[str, float]:
    """Per-layer numbers of one pass from its spans and counters.

    Self time of a layer is the time its spans and counted calls took minus
    the time of the calls made from inside them.
    """
    durations: dict[str, list[tuple[int, int, dict | None]]] = defaultdict(list)
    self_ns: dict[str, int] = defaultdict(int)
    for _, _, _, name, start, end, child, info in spans:
        durations[name].append((end - start, child, info))
        self_ns[name.split(".")[0]] += end - start - child
    for name, (_, total, child) in counters.items():
        self_ns[name.split(".")[0]] += total - child

    def total_s(name: str) -> float:
        return sum(d for d, _, _ in durations[name]) / 1e9

    def per_call(name: str, scale: float) -> list[float]:
        return [d / scale for d, _, _ in durations[name]]

    def mean_ns(key: str) -> float:
        calls, total, _ = counters.get(key, (0, 0, 0))
        return total / calls if calls else 0.0

    def by_metric(name: str, metric: str, self_only: bool = False) -> float:
        rows = [(d - c if self_only else d, i["steps"]) for d, c, i in durations[name]
                if i["metric"] == metric or metric == "*"]
        steps = sum(s for _, s in rows)
        return sum(d for d, _ in rows) / steps if steps else 0.0

    out: dict[str, float] = {
        "cli.main_s": total_s("cli.main"),
        "cli.self_s": self_ns["cli"] / 1e9,
        "cli.invocations": len(durations["cli.main"]),
    }
    for name in ("threshold_sweep", "learning_comparison", "evaluate"):
        out[f"experiments.{name}_s"] = total_s(f"experiments.{name}")
    out["experiments.self_s"] = self_ns["experiments"] / 1e9

    for metric in METRICS:
        out[f"env.step_ns.{metric}"] = mean_ns(f"env.step.{metric}")
    for metric in METRICS:
        out[f"env.run_policy_ns_per_step.{metric}"] = by_metric("env.run_policy", metric)
    sends = tallies.get("env.sends", 0)
    out["env.steps"] = sum(counters.get(f"env.step.{m}", (0,))[0] for m in METRICS)
    out["env.sends"] = sends
    out["env.delivery_ratio"] = tallies.get("env.deliveries", 0) / sends if sends else 0.0
    out["env.self_s"] = self_ns["env"] / 1e9

    for kind in POLICIES.values():
        out[f"strategy.decide_ns.{kind}"] = mean_ns(f"strategy.decide.{kind}")
    out["strategy.decide_calls"] = sum(
        counters.get(f"strategy.decide.{kind}", (0,))[0] for kind in POLICIES.values()
    )
    out["strategy.self_s"] = self_ns["strategy"] / 1e9

    for metric in METRICS:
        out[f"learning.train_ns_per_step.{metric}"] = by_metric("learning.train", metric)
    out["learning.self_ns_per_step"] = by_metric("learning.train", "*", self_only=True)
    out["learning.train_calls"] = len(durations["learning.train"])
    out["learning.table_bytes"] = max(
        (i.get("table_bytes", 0) for _, _, i in durations["learning.train"]), default=0
    )

    risky_ms = per_call("analytic.risky_frequency", 1e6)
    out["analytic.risky_frequency_ms.p50"] = percentile(risky_ms, 0.5)
    out["analytic.risky_frequency_ms.p90"] = percentile(risky_ms, 0.9)
    out["analytic.optimal_threshold_ms"] = percentile(per_call("analytic.optimal_threshold", 1e6), 0.5)
    out["analytic.risk_constrained_threshold_ms"] = percentile(
        per_call("analytic.risk_constrained_threshold", 1e6), 0.5
    )
    out["analytic.cost_breakdown_us"] = percentile(per_call("analytic.cost_breakdown", 1e3), 0.5)
    out["analytic.age_frequency_calls"] = counters.get("analytic.age_frequency", (0,))[0]
    out["analytic.reach_probability_calls"] = counters.get("analytic.reach_probability", (0,))[0]
    out["analytic.series_terms"] = sum(
        i["terms"] for _, _, i in durations["analytic.cost_breakdown"] if i
    )
    out["analytic.self_s"] = self_ns["analytic"] / 1e9
    return out


def median_metrics(span_passes: list[dict[str, float]], counted_passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median, over span-only passes for SPAN_TIMED metrics and
    over fully traced passes for the rest."""
    return {
        name: statistics.median(p[name] for p in (span_passes if name in SPAN_TIMED else counted_passes))
        for name in counted_passes[0]
    }

"""Seeded inputs of the three benchmark workloads.

A workload is a list of command lines for ``agelab.cli.main``.  Each
generator takes the workload seed; the program only ever sees the flags.
Every pass of a run replays the same list, so the spread between passes is
machine noise, while the spread between seeds is the inputs' own.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Replaced by the call's own scratch directory before the call runs.
OUT = "{out}"

WORKLOADS = ("sweep", "learn", "closed_form")


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what the benchmark expects of it.

    sim_steps:  env steps the flags request (from the inputs, not counted)
    exact:      outputs must match byte for byte; otherwise floats in the
                text are compared to a relative 1e-9 and the rest exactly
    ok_codes:   exit codes that are valid results
    rows:       rows the call's result CSV or value table must have
    """

    name: str
    argv: tuple[str, ...]
    sim_steps: int = 0
    exact: bool = True
    ok_codes: tuple[int, ...] = (0,)
    rows: int | None = None


# sweep: rollouts of threshold policies, three metrics.  Small enough that a
# pass takes about two seconds, so a run holds several passes.
SWEEP_RUNS = 4
SWEEP_TEST_STEPS = 5_000
SWEEP_FIGURES = {"fig3a": 8, "fig3c": 8, "fig3d": 7}  # thresholds per figure

# learn: the fig4/fig8 learning comparisons and one qaoi table dump, scaled
# down from the acceptance fixtures (1e5-1e6 steps, 20-100 runs).
LEARN_RUNS = 2
LEARN_STEPS = 12_000
LEARN_TEST_STEPS = 3_000
AOII_BASELINE_THRESHOLDS = 7  # empirical sweep behind fig8's threshold baseline

# closed_form: a jittered ladder of min(p, lambda) values, see
# closed_form_points.
CF_RUNGS = 10
CF_MIN = 0.12
CF_JITTER = 0.02  # share of a stratum's width the seed may move a value by
GOLDEN = (5 ** 0.5 - 1) / 2


def _cli_seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def sweep_calls(seed: int) -> list[Call]:
    """fig3a/fig3c/fig3d threshold sweeps at reduced runs and horizon."""
    rng = random.Random(f"sweep/{seed}")
    calls = []
    for figure, thresholds in SWEEP_FIGURES.items():
        argv = (
            "reproduce", figure,
            "--runs", str(SWEEP_RUNS),
            "--test-steps", str(SWEEP_TEST_STEPS),
            "--seed", _cli_seed(rng),
            "--out-dir", OUT,
        )
        steps = thresholds * SWEEP_RUNS * SWEEP_TEST_STEPS
        calls.append(Call(figure, argv, sim_steps=steps, rows=thresholds))
    return calls


def learn_calls(seed: int) -> list[Call]:
    """fig4 (aoi) and fig8 (aoii) comparisons plus one qaoi training dump."""
    rng = random.Random(f"learn/{seed}")
    runs, learn, test = LEARN_RUNS, LEARN_STEPS, LEARN_TEST_STEPS
    profile = ("--runs", str(runs), "--learn-steps", str(learn), "--test-steps", str(test))
    # each run trains the plain and the risk-scaled learner, then evaluates
    # random/threshold/qlearn/qlearn_risk (and always_send for aoii)
    fig4 = runs * (2 * learn + 4 * test)
    fig8 = runs * (2 * learn + 5 * test) + AOII_BASELINE_THRESHOLDS * runs * test
    return [
        Call("fig4", ("reproduce", "fig4", *profile, "--seed", _cli_seed(rng), "--out-dir", OUT),
             sim_steps=fig4, rows=4),
        Call("fig8", ("reproduce", "fig8", *profile, "--seed", _cli_seed(rng), "--out-dir", OUT),
             sim_steps=fig8, rows=5),
        # the table covers sender ages 0..128 x receiver ages 1..128 x 2 actions
        Call("train_qaoi", ("train", "--metric", "qaoi", "--learn-steps", str(learn),
                            "--seed", _cli_seed(rng), "--out", OUT + "/qtable_qaoi.csv"),
             sim_steps=learn, rows=129 * 128 * 2),
    ]


def closed_form_points(seed: int) -> list[tuple[float, float]]:
    """Seeded (p, lambda) pairs, a stratified log-uniform sample of [CF_MIN, 1]^2.

    The cost of the closed forms is set mostly by min(p, lambda): it grows
    about as its -3.3th power, so on a plain random grid the one slowest
    point would decide a pass's wall time and its spread between seeds.
    Instead the minimum walks a log-spaced ladder, one rung per pair of
    points, and the other coordinate sits at a fixed low-discrepancy share
    of the log-distance from the rung to 1.  The seed moves every point
    within CF_JITTER of its stratum, so seeds give different inputs of
    nearly equal cost.  Each rung gives one point with a slow channel
    (small p) and one with rare arrivals (small lambda), which cost
    differently.
    """
    rng = random.Random(f"closed_form/{seed}")
    span = -math.log10(CF_MIN)

    def jitter() -> float:
        return CF_JITTER * (rng.random() - 0.5)

    # point k takes the share stratum ranked by the golden-ratio sequence
    count = 2 * CF_RUNGS
    order = sorted(range(count), key=lambda k: (k * GOLDEN) % 1.0)
    stratum = {k: rank for rank, k in enumerate(order)}
    points = []
    for i in range(CF_RUNGS):
        for side in (0, 1):
            low = CF_MIN * 10 ** (span * (i + 0.5 + jitter()) / CF_RUNGS)
            share = (stratum[2 * i + side] + 0.5 + jitter()) / count
            other = low * (1.0 / low) ** share
            points.append((low, other) if side == 0 else (other, low))
    return points


def closed_form_calls(seed: int) -> list[Call]:
    """optimize (aoi, qaoi, risk budget) and analytic at every point.

    The budget is stratified like the points, and the threshold cycles
    with the point, so that seeds differ in their values but not in which
    calls are costly.
    """
    rng = random.Random(f"closed_form-flags/{seed}")
    calls = []
    for j, (p, lam) in enumerate(closed_form_points(seed)):
        model = ("--p", repr(p), "--lambda", repr(lam))
        share = (j * GOLDEN) % 1.0 + CF_JITTER * (rng.random() - 0.5)
        budget = 10 ** (-2.0 + 1.5 * share)
        threshold = 1 + j % 4  # below the default zeta = 5
        calls += [
            Call(f"optimize_aoi_{j}", ("optimize", *model), exact=False),
            Call(f"optimize_qaoi_{j}", ("optimize", "--metric", "qaoi", *model), exact=False),
            # exit 2 (infeasible budget) is a valid answer
            Call(f"optimize_budget_{j}", ("optimize", "--risk-budget", repr(budget), *model),
                 exact=False, ok_codes=(0, 2)),
            Call(f"analytic_{j}", ("analytic", "--threshold", str(threshold), *model),
                 exact=False),
        ]
    return calls


GENERATORS = {"sweep": sweep_calls, "learn": learn_calls, "closed_form": closed_form_calls}


def calls_for(workload: str, seed: int) -> list[Call]:
    return GENERATORS[workload](seed)

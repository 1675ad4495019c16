"""Acceptance tier: slow, full-scale checks of the whole pipeline.

Each check prints one ``ACCEPT <n>`` verdict line past output capture so
the verdicts always reach the terminal. Two target bands are recorded as
strict expected failures: this implementation measurably cannot land in
them, and the printed lines carry the measured values.
"""

from collections import Counter

import numpy as np
import pytest

from agelab import (
    AoiEnv,
    AoIIState,
    AoIState,
    EnvSpec,
    ExperimentConfig,
    LearningParams,
    RiskSpec,
    SystemParams,
    age_frequency,
    aoi_transition,
    aoii_transition,
    evaluate,
    learning_comparison,
    optimal_threshold,
    reach_probability,
    risky_frequency,
    run_policy,
    start_age_weight,
    threshold_cost_aoi,
    threshold_cost_qaoi,
    threshold_sweep,
    train,
)
from agelab.strategy import ThresholdPolicy
from oracles import iterate_outcomes

# the whole module is the slow tier; `pytest -m "not acceptance"` leaves it out
pytestmark = pytest.mark.acceptance

DEFAULTS = SystemParams()


def announce(capsys, tag, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPT {tag}: {verdict} {detail}", flush=True)


@pytest.fixture(scope="module")
def compare_aoi_short():
    config = ExperimentConfig(test_steps=10_000, runs=20, base_seed=1)
    return learning_comparison("aoi", 100_000, config)


@pytest.fixture(scope="module")
def compare_aoi_long():
    config = ExperimentConfig(test_steps=10_000, runs=10, base_seed=1)
    return learning_comparison("aoi", 1_000_000, config)


@pytest.fixture(scope="module")
def compare_aoii_long():
    config = ExperimentConfig(test_steps=10_000, runs=20, base_seed=1)
    return learning_comparison("aoii", 1_000_000, config)


def test_accept_1_closed_form_cost_matches_long_simulation(capsys):
    """Every grid point: analytic threshold cost within 2% of a 1e6-step run."""
    worst = (0.0, None)
    index = 0
    for lam in (0.3, 0.5, 0.8):
        for p in (0.5, 0.9):
            params = SystemParams(p=p, lam=lam)
            for n in range(1, 9):
                env = AoiEnv(params, zeta=5, seed=100 + index)
                index += 1
                stats = run_policy(env, ThresholdPolicy(n), 1_000_000)
                exact = threshold_cost_aoi(n, params)
                rel = abs(stats.avg_cost - exact) / exact
                if rel > worst[0]:
                    worst = (rel, (n, lam, p))
    ok = worst[0] <= 0.02
    announce(capsys, 1, ok, f"worst relative gap {worst[0]:.4%} at (n, lam, p)={worst[1]}")
    assert ok


def test_accept_2_optimal_thresholds_on_the_default_grid(capsys):
    plain = optimal_threshold(DEFAULTS)
    gated = {q: optimal_threshold(DEFAULTS, q=q) for q in (0.2, 0.4, 0.6, 0.8)}
    expected = {0.2: 5, 0.4: 3, 0.6: 3, 0.8: 2}
    ok = plain == 2 and gated == expected
    announce(capsys, 2, ok, f"age optimum n={plain}, query optima {gated}")
    assert plain == 2
    assert gated == expected


def test_accept_3_age_frequencies_match_a_ten_million_step_run(capsys):
    steps = 10_000_000
    stats = run_policy(AoiEnv(DEFAULTS, zeta=5, seed=3), ThresholdPolicy(2), steps)
    # the same events again, counting how often each receiver age is visited
    visits = Counter(
        out.next_state.aoi_rx
        for out in iterate_outcomes(AoiEnv(DEFAULTS, zeta=5, seed=3), ThresholdPolicy(2), steps)
    )
    gaps = {}
    for k in range(3, 11):
        exact = age_frequency(k, 2, DEFAULTS)
        tol = max(0.1 * exact, 0.002)
        gaps[k] = (abs(visits[k] / steps - exact), tol)
    tail_exact = risky_frequency(2, 5, DEFAULTS)
    tail_measured = stats.risky_freq  # steps at age >= zeta = 5
    ok = (
        all(gap <= tol for gap, tol in gaps.values())
        and abs(tail_exact - 0.092) <= 0.02
        and abs(tail_measured - 0.092) <= 0.02
    )
    worst_k = max(gaps, key=lambda k: gaps[k][0] / gaps[k][1])
    announce(
        capsys,
        3,
        ok,
        f"worst frequency gap {gaps[worst_k][0]:.2e} (tol {gaps[worst_k][1]:.2e}) at k={worst_k}, "
        f"tail frequency {tail_measured:.4f} vs {tail_exact:.4f}",
    )
    assert ok


def test_accept_4_mismatch_sweep_selects_threshold_one(capsys):
    config = ExperimentConfig(test_steps=10_000, runs=20, base_seed=1)
    sweep = threshold_sweep("aoii", list(range(0, 7)), config)
    costs = {point.value: round(point.stats.mean_cost, 4) for point in sweep.points}
    ok = sweep.best_value == 1
    announce(capsys, 4, ok, f"best theta={sweep.best_value}, sweep costs {costs}")
    assert sweep.best_value == 1


def test_accept_5_short_training_risk_profile(compare_aoi_short, capsys):
    risk = compare_aoi_short["qlearn_risk"]
    plain = compare_aoi_short["qlearn"]
    rand = compare_aoi_short["random"]
    base = compare_aoi_short["threshold"]
    ordered = risk.mean_risky_freq < plain.mean_risky_freq < rand.mean_risky_freq
    risk_in_band = 0.072 <= risk.mean_risky_freq <= 0.112
    plain_in_band = 0.115 <= plain.mean_risky_freq <= 0.155
    cost_close = risk.mean_cost <= 1.05 * base.mean_cost
    ok = ordered and risk_in_band and plain_in_band and cost_close
    announce(
        capsys,
        5,
        ok,
        f"risky: risk-averse {risk.mean_risky_freq:.4f} < plain {plain.mean_risky_freq:.4f} "
        f"< random {rand.mean_risky_freq:.4f}; cost {risk.mean_cost:.4f} vs baseline "
        f"{base.mean_cost:.4f} (random band checked separately)",
    )
    assert ordered
    assert risk_in_band
    assert plain_in_band
    assert cost_close


@pytest.mark.xfail(
    reason="the random policy's risky frequency has the exact stationary value 0.2220 "
    "at these parameters, outside the 0.199 +- 0.02 target band",
    strict=True,
)
def test_accept_5_random_risky_band(compare_aoi_short, capsys):
    measured = compare_aoi_short["random"].mean_risky_freq
    ok = 0.179 <= measured <= 0.219
    announce(
        capsys,
        "5 (random band)",
        ok,
        f"measured {measured:.4f}, target 0.199 +- 0.02, exact stationary value 0.2220",
    )
    assert ok


def test_accept_6_long_training_cuts_risk_below_both_baselines(compare_aoi_long, capsys):
    risk = compare_aoi_long["qlearn_risk"].mean_risky_freq
    plain = compare_aoi_long["qlearn"].mean_risky_freq
    base = compare_aoi_long["threshold"].mean_risky_freq
    in_band = 0.045 <= risk <= 0.105
    below = risk < plain and risk < base
    ok = in_band and below
    announce(
        capsys,
        6,
        ok,
        f"risk-averse {risk:.4f} (band 0.075 +- 0.03) vs plain {plain:.4f} and threshold {base:.4f}",
    )
    assert in_band
    assert below


def test_accept_7_mismatch_learning_operating_point(compare_aoii_long, capsys):
    risk = compare_aoii_long["qlearn_risk"]
    base = compare_aoii_long["threshold"]
    always = compare_aoii_long["always_send"]
    risk_cost_ok = abs(risk.mean_cost - 1.4778) <= 0.05 * 1.4778
    base_cost_ok = abs(base.mean_cost - 1.4763) <= 0.05 * 1.4763
    rare = risk.mean_risky_freq < 0.01
    always_far = always.mean_cost > 2.0 * risk.mean_cost
    ok = risk_cost_ok and base_cost_ok and rare and always_far
    announce(
        capsys,
        7,
        ok,
        f"risk-averse cost {risk.mean_cost:.4f} (target 1.4778 +- 5%), baseline "
        f"{base.mean_cost:.4f} (target 1.4763 +- 5%), risky {risk.mean_risky_freq:.4f}, "
        f"always-send {always.mean_cost:.4f} (plain-learner band checked separately)",
    )
    assert risk_cost_ok
    assert base_cost_ok
    assert rare
    assert always_far


@pytest.mark.xfail(
    reason="the plain learner's mismatch cost settles near 1.56 over many seeds, "
    "several standard errors below the 1.6978 +- 5% target band. Its greedy tables "
    "wait at mismatch age 1 in all 20 runs and first send from age 2 in 18 of them "
    "(age 3 in 2), so it lands near theta = 2's exact cost 1.564 rather than "
    "theta = 1's 1.460; the rho = 2 learner first sends from age 1 in 19 of 20 runs",
    strict=True,
)
def test_accept_7_plain_learner_cost_band(compare_aoii_long, capsys):
    measured = compare_aoii_long["qlearn"].mean_cost
    ok = abs(measured - 1.6978) <= 0.05 * 1.6978
    announce(
        capsys,
        "7 (plain learner band)",
        ok,
        f"measured {measured:.4f}, target 1.6978 +- 5%",
    )
    assert ok


def test_accept_8_model_invariants(capsys):
    # transition kernels are probability distributions over valid states
    for state in (AoIState(0, 1), AoIState(2, 5)):
        for action in (0, 1):
            total = 0.0
            for arrival in (False, True):
                for success in (False, True):
                    weight = (DEFAULTS.lam if arrival else 1 - DEFAULTS.lam) * (
                        DEFAULTS.p if success else 1 - DEFAULTS.p
                    )
                    nxt = aoi_transition(state, action, arrival, success)
                    assert 0 <= nxt.aoi_tx <= nxt.aoi_rx
                    total += weight
            assert total == pytest.approx(1.0)
    for state in (AoIIState(True, 0), AoIIState(False, 3)):
        for action in (0, 1):
            for event in (False, True):
                for success in (False, True):
                    nxt = aoii_transition(state, action, event, success)
                    assert nxt.aoii == 0 or nxt.aoii == state.aoii + 1
                    assert nxt.synced == (nxt.aoii == 0)

    # start-age weights telescope to one minus the tail mass
    for params in (DEFAULTS, SystemParams(p=0.5, lam=0.3)):
        g = (1 - params.lam) * (1 - params.p)
        total = sum(start_age_weight(r, params) for r in range(1, 61))
        assert total == pytest.approx(1 - g**60, rel=1e-12)

    # reach probabilities are monotone probabilities ending at certainty
    reach = [reach_probability(r, 12, 3, DEFAULTS) for r in range(1, 13)]
    assert all(0.0 <= v <= 1.0 for v in reach)
    assert all(a <= b + 1e-15 for a, b in zip(reach, reach[1:]))
    assert reach[-1] == 1.0

    # a certain query recovers the plain age cost exactly
    for n in range(1, 9):
        assert threshold_cost_qaoi(n, DEFAULTS, 1.0) == threshold_cost_aoi(n, DEFAULTS)

    # the risky multiplier is inert when no state can reach the risky level
    spec = EnvSpec("aoi", risk=RiskSpec(zeta=10_000))
    cautious = train(spec.build(0), LearningParams(steps=20_000, rho=2.0, a_max=64), 7)
    neutral = train(spec.build(0), LearningParams(steps=20_000, rho=1.0, a_max=64), 7)
    assert np.array_equal(cautious.table.values, neutral.table.values)

    # exploration decay follows its closed form
    report = train(EnvSpec("aoi").build(0), LearningParams(steps=5000, a_max=32), 1)
    assert report.final_epsilon == 0.9 * 0.999**5000

    # cost is unimodal in the threshold on the default grid
    costs = [threshold_cost_aoi(n, DEFAULTS) for n in range(1, 31)]
    rises = [a < b for a, b in zip(costs, costs[1:])]
    assert rises == sorted(rises)  # once rising, never falls again

    # risky frequency never decreases with a laxer threshold
    for zeta in (5, 8):
        freqs = [risky_frequency(n, zeta, DEFAULTS) for n in range(1, zeta - 1)]
        assert all(a <= b + 1e-15 for a, b in zip(freqs, freqs[1:]))

    # the whole harness replays bit-identically from a seed
    spec = EnvSpec("aoi")
    assert evaluate(ThresholdPolicy(2), spec, 2000, 3, 9) == evaluate(
        ThresholdPolicy(2), spec, 2000, 3, 9
    )
    config = ExperimentConfig(
        learning=LearningParams(steps=2000, a_max=32), test_steps=1000, runs=2, base_seed=4
    )
    first = learning_comparison("aoi", 2000, config)
    second = learning_comparison("aoi", 2000, config)
    assert dict(first) == dict(second)

    announce(capsys, 8, True, "kernel, weight, reach, gating, learning and replay invariants hold")

"""Closed forms pinned three ways: hand arithmetic, exact chains, simulation.

The scalar expectations below were frozen after the chain oracle (linear
solve of the truncated transition matrix, see oracles.py) reproduced every
one of them to at least 1e-12; the cleanest cases are also derivable by
hand and the derivation is noted inline.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agelab import SystemParams
from agelab.analytic import (
    AnalyticInapplicableError,
    CostBreakdown,
    InfeasibleRiskBudgetError,
    age_frequency,
    attempts_per_period,
    cost_breakdown,
    evaluate_threshold,
    mean_period_length,
    optimal_threshold,
    period_age_sum,
    reach_probability,
    risk_constrained_threshold,
    risky_frequency,
    start_age_weight,
    threshold_cost_aoi,
    threshold_cost_qaoi,
)
from oracles import (
    aoi_age_marginal,
    aoi_long_run,
    period_records,
    threshold_rule,
)

DEFAULTS = SystemParams()  # p=0.9, lam=0.5

params_strategy = st.builds(
    SystemParams,
    p=st.floats(min_value=0.1, max_value=1.0),
    lam=st.floats(min_value=0.1, max_value=1.0),
)


# --- frozen scalar values ------------------------------------------------


def test_start_age_weights_defaults():
    # g = (1-lam)(1-p) = 0.05; w_r = g^(r-1) - g^r
    assert start_age_weight(1, DEFAULTS) == pytest.approx(0.95)
    assert start_age_weight(2, DEFAULTS) == pytest.approx(0.0475)
    assert start_age_weight(3, DEFAULTS) == pytest.approx(0.002375)
    with pytest.raises(ValueError):
        start_age_weight(0, DEFAULTS)


def test_period_age_sum_defaults():
    # n=2 leaves only the 1/lam^2 + 1/(lam p) + 1/p^2 part: 4 + 20/9 + 100/81
    assert period_age_sum(2, DEFAULTS) == pytest.approx(604 / 81)
    assert period_age_sum(1, DEFAULTS) == pytest.approx(4.345679012345679)
    with pytest.raises(ValueError):
        period_age_sum(0, DEFAULTS)


def test_period_age_sum_degenerate_limit():
    # lam = p = 1: a period is a single step at age one
    assert period_age_sum(1, SystemParams(p=1.0, lam=1.0)) == pytest.approx(1.0)


def test_mean_period_length_defaults():
    assert mean_period_length(1, DEFAULTS) == pytest.approx(19 / 9)
    # l(2) = l(1) + w_1 * 1
    assert mean_period_length(2, DEFAULTS) == pytest.approx(19 / 9 + 0.95)


def test_attempts_per_period_is_inverse_channel():
    assert attempts_per_period(DEFAULTS) == pytest.approx(1 / 0.9)
    assert attempts_per_period(SystemParams(p=0.5)) == pytest.approx(2.0)


def test_threshold_costs_defaults():
    assert threshold_cost_aoi(1, DEFAULTS) == pytest.approx(3.6900584795321603, rel=1e-12)
    assert threshold_cost_aoi(2, DEFAULTS) == pytest.approx(3.5103851582980443, rel=1e-12)
    assert threshold_cost_aoi(3, DEFAULTS) == pytest.approx(3.6580278177020356, rel=1e-12)


def test_threshold_cost_degenerate_limit():
    # every step: age one plus one paid attempt per one-step period
    assert threshold_cost_aoi(1, SystemParams(p=1.0, lam=1.0)) == pytest.approx(4.0)


def test_reach_probability_values():
    # one step short of k the period survives unless an armed delivery occurs
    assert reach_probability(4, 5, 2, DEFAULTS) == pytest.approx(1 - 0.5 * 0.9)
    assert reach_probability(2, 5, 2, DEFAULTS) == pytest.approx(0.1405)
    # openings below the threshold climb to it first
    assert reach_probability(1, 5, 2, DEFAULTS) == reach_probability(2, 5, 2, DEFAULTS)
    assert reach_probability(5, 5, 2, DEFAULTS) == 1.0
    assert reach_probability(9, 5, 2, DEFAULTS) == 0.0


def test_reach_probability_needs_band_above_threshold():
    with pytest.raises(AnalyticInapplicableError):
        reach_probability(1, 2, 2, DEFAULTS)


def test_age_frequency_values():
    assert age_frequency(3, 2, DEFAULTS) == pytest.approx(0.18)
    assert age_frequency(5, 2, DEFAULTS) == pytest.approx(0.04602413793103447, rel=1e-12)
    with pytest.raises(AnalyticInapplicableError):
        age_frequency(2, 2, DEFAULTS)


def test_risky_frequency_values():
    assert risky_frequency(2, 5, DEFAULTS) == pytest.approx(0.09208620689650669, rel=1e-10)
    assert risky_frequency(1, 5, DEFAULTS) == pytest.approx(0.0703, rel=1e-10)


def test_risky_frequency_needs_zeta_above_threshold():
    with pytest.raises(AnalyticInapplicableError):
        risky_frequency(5, 5, DEFAULTS)
    with pytest.raises(AnalyticInapplicableError):
        risky_frequency(6, 5, DEFAULTS)


def test_query_gated_cost_value():
    assert threshold_cost_qaoi(3, DEFAULTS, 0.2) == pytest.approx(1.3886447805686735, rel=1e-12)
    with pytest.raises(ValueError):
        threshold_cost_qaoi(3, DEFAULTS, 1.2)


def test_cost_breakdown_parts_sum():
    breakdown = cost_breakdown(2, DEFAULTS)
    assert isinstance(breakdown, CostBreakdown)
    assert breakdown.total == breakdown.age_cost + breakdown.energy_cost
    assert breakdown.period_length == pytest.approx(mean_period_length(2, DEFAULTS))
    # energy: beta*nu attempts per period, 1/p of them, spread over the length
    assert breakdown.energy_cost == pytest.approx(3.0 / (0.9 * breakdown.period_length))
    assert breakdown.terms >= 2


# --- cross-checks against the exact chain --------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cost_and_risk_match_exact_chain_defaults(n):
    chain_cost, chain_risky = aoi_long_run(threshold_rule(n), DEFAULTS, zeta=5, cap=120)
    assert threshold_cost_aoi(n, DEFAULTS) == pytest.approx(chain_cost, rel=1e-10)
    if n < 5:
        assert risky_frequency(n, 5, DEFAULTS) == pytest.approx(chain_risky, rel=1e-9)


@pytest.mark.parametrize("lam,p,n", [(0.3, 0.5, 1), (0.8, 0.9, 4)])
def test_cost_matches_exact_chain_off_defaults(lam, p, n):
    params = SystemParams(p=p, lam=lam)
    chain_cost, _ = aoi_long_run(threshold_rule(n), params, zeta=5, cap=140)
    assert threshold_cost_aoi(n, params) == pytest.approx(chain_cost, rel=1e-9)


def test_query_gated_cost_matches_exact_chain():
    chain_cost, chain_risky = aoi_long_run(threshold_rule(3), DEFAULTS, zeta=5, cap=120, q=0.2)
    assert threshold_cost_qaoi(3, DEFAULTS, 0.2) == pytest.approx(chain_cost, rel=1e-10)
    assert risky_frequency(3, 5, DEFAULTS, q=0.2) == pytest.approx(chain_risky, rel=1e-9)


def test_age_frequencies_match_exact_chain_marginal():
    marginal = aoi_age_marginal(threshold_rule(2), DEFAULTS, cap=120)
    for k in range(3, 11):
        assert age_frequency(k, 2, DEFAULTS) == pytest.approx(marginal[k], rel=1e-10)


# --- cross-checks against period simulation ------------------------------


@pytest.fixture(scope="module")
def periods():
    return period_records(DEFAULTS, n=2, periods=200_000, seed=7)


def test_period_length_matches_simulation(periods):
    lengths = np.array([length for _, length in periods])
    assert lengths.mean() == pytest.approx(mean_period_length(2, DEFAULTS), abs=0.03)


def test_start_age_distribution_matches_simulation(periods):
    starts = np.array([start for start, _ in periods])
    for r in (1, 2, 3):
        assert (starts == r).mean() == pytest.approx(start_age_weight(r, DEFAULTS), abs=0.003)


def test_reach_probability_matches_simulation(periods):
    starts = np.array([start for start, _ in periods])
    tops = starts + np.array([length for _, length in periods]) - 1
    below = starts <= 2
    for k in (4, 5, 7):
        empirical = (tops[below] >= k).mean()
        assert reach_probability(2, k, 2, DEFAULTS) == pytest.approx(empirical, abs=0.005)


# --- structural properties ------------------------------------------------


@given(params=params_strategy, horizon=st.integers(min_value=1, max_value=60))
def test_start_age_weights_telescope(params, horizon):
    g = (1 - params.lam) * (1 - params.p)
    total = sum(start_age_weight(r, params) for r in range(1, horizon + 1))
    assert total == pytest.approx(1 - g**horizon, abs=1e-12)


@given(params=params_strategy, n=st.integers(min_value=1, max_value=50))
def test_period_age_sum_increments(params, n):
    """Raising the send age by one adds one wait step, one attempt row and n-1 aging steps."""
    expected = 1 / params.lam + 1 / params.p + (n - 1)
    assert period_age_sum(n + 1, params) - period_age_sum(n, params) == pytest.approx(expected)


@given(
    params=params_strategy,
    n=st.integers(min_value=1, max_value=8),
    k=st.integers(min_value=9, max_value=25),
)
def test_reach_probability_bounds_and_monotonicity(params, n, k):
    values = [reach_probability(r, k, n, params) for r in range(1, k + 1)]
    for value in values:
        assert -1e-12 <= value <= 1.0 + 1e-12
    for earlier, later in zip(values, values[1:]):
        assert later >= earlier - 1e-12


@given(params=params_strategy, n=st.integers(min_value=1, max_value=12))
def test_query_probability_one_is_plain_cost(params, n):
    assert threshold_cost_qaoi(n, params, 1.0) == threshold_cost_aoi(n, params)


def test_query_scaling_of_risky_frequency():
    assert risky_frequency(2, 5, DEFAULTS, q=0.2) == 0.2 * risky_frequency(2, 5, DEFAULTS)


def test_cost_curve_unimodal_on_default_grid():
    costs = [threshold_cost_aoi(n, DEFAULTS) for n in range(1, 31)]
    best = costs.index(min(costs))
    for i in range(best):
        assert costs[i] > costs[i + 1]
    for i in range(best, len(costs) - 1):
        assert costs[i] < costs[i + 1]


def test_risky_frequency_nondecreasing_in_threshold():
    for zeta in (4, 5, 8):
        risks = [risky_frequency(n, zeta, DEFAULTS) for n in range(1, zeta)]
        assert risks == sorted(risks)


# --- optimizers ------------------------------------------------------------


def test_optimal_threshold_defaults():
    assert optimal_threshold("aoi", DEFAULTS) == 2


@pytest.mark.parametrize("q,expected", [(0.2, 5), (0.4, 3), (0.6, 3), (0.8, 2), (1.0, 2)])
def test_optimal_threshold_query_grid(q, expected):
    assert optimal_threshold("qaoi", DEFAULTS, q=q) == expected


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("p", [0.5, 0.9])
def test_optimal_threshold_matches_full_scan(lam, p):
    params = SystemParams(p=p, lam=lam)
    costs = {n: threshold_cost_aoi(n, params) for n in range(1, 65)}
    brute = min(costs, key=costs.get)
    assert optimal_threshold("aoi", params) == brute


def test_optimal_threshold_validation():
    with pytest.raises(ValueError):
        optimal_threshold("aoi", DEFAULTS, n_max=0)
    with pytest.raises(ValueError):
        optimal_threshold("qaoi", DEFAULTS)  # needs q
    with pytest.raises(ValueError):
        optimal_threshold("aoii", DEFAULTS)  # no closed form


def test_risk_constrained_threshold_defaults():
    # generous budget: the cost optimum is feasible
    assert risk_constrained_threshold(1.0, 5, DEFAULTS) == 2
    # tight budget: forced below the cost optimum
    assert risk_constrained_threshold(0.08, 5, DEFAULTS) == 1


def test_risk_constrained_threshold_infeasible():
    with pytest.raises(InfeasibleRiskBudgetError) as info:
        risk_constrained_threshold(0.05, 5, DEFAULTS)
    assert info.value.budget == 0.05
    assert info.value.min_risk == pytest.approx(0.0703, rel=1e-9)
    assert "minimum achievable" in str(info.value)


def test_risk_constrained_threshold_no_candidates():
    with pytest.raises(AnalyticInapplicableError):
        risk_constrained_threshold(0.5, 1, DEFAULTS)
    with pytest.raises(ValueError):
        risk_constrained_threshold(-0.1, 5, DEFAULTS)


def test_risk_constrained_threshold_query_gated():
    # gating scales every risk down by q, widening the feasible set
    plain = risk_constrained_threshold(0.02, 5, DEFAULTS, q=0.2)
    assert plain == 2
    with pytest.raises(InfeasibleRiskBudgetError):
        risk_constrained_threshold(0.002, 5, DEFAULTS, q=0.2)


# --- bundled evaluation ----------------------------------------------------


def test_evaluate_threshold_bundle():
    result = evaluate_threshold(2, DEFAULTS, zeta=5)
    assert result.threshold == 2
    assert result.breakdown == cost_breakdown(2, DEFAULTS)
    assert result.breakdown.total == pytest.approx(threshold_cost_aoi(2, DEFAULTS))
    assert result.breakdown.period_length == pytest.approx(mean_period_length(2, DEFAULTS))
    assert result.breakdown.attempts == pytest.approx(1 / 0.9)
    assert sorted(result.freq) == list(range(3, 11))
    assert result.risky_freq == pytest.approx(0.09208620689650669, rel=1e-10)


def test_evaluate_threshold_query_scales_frequencies():
    plain = evaluate_threshold(2, DEFAULTS, zeta=5)
    gated = evaluate_threshold(2, DEFAULTS, zeta=5, q=0.2)
    for k, value in plain.freq.items():
        assert gated.freq[k] == pytest.approx(0.2 * value)
    assert gated.risky_freq == pytest.approx(0.2 * plain.risky_freq)


def test_evaluate_threshold_explicit_band():
    result = evaluate_threshold(2, DEFAULTS, zeta=5, k_max=15)
    assert sorted(result.freq) == list(range(3, 16))

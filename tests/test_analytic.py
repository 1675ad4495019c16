"""Closed forms pinned three ways: hand arithmetic, exact chains, simulation.

The scalar expectations below were frozen after the chain oracle (linear
solve of the truncated transition matrix, see oracles.py) reproduced every
one of them to at least 1e-12; the cleanest cases are also derivable by
hand and the derivation is noted inline.
"""

import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agelab import EnvSpec, QuerySpec, RiskSpec, SystemParams
from agelab import analytic
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
    series_age_frequency,
    series_reach_probability,
    series_risky_frequency,
    threshold_rule,
)

DEFAULTS = SystemParams()  # p=0.9, lam=0.5
SLOW = SystemParams(p=0.05, lam=0.07)  # a risky tail of about 600 ages


def spec(params=DEFAULTS, zeta=5, q=None):
    """The closed forms' input: aoi, or qaoi when a query probability is given."""
    if q is None:
        return EnvSpec("aoi", params, RiskSpec(zeta=zeta))
    return EnvSpec("qaoi", params, RiskSpec(zeta=zeta), QuerySpec(q))


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
    assert risky_frequency(2, spec()) == pytest.approx(0.09208620689650669, rel=1e-10)
    assert risky_frequency(1, spec()) == pytest.approx(0.0703, rel=1e-10)


def test_risky_frequency_needs_zeta_above_threshold():
    with pytest.raises(AnalyticInapplicableError):
        risky_frequency(5, spec())
    with pytest.raises(AnalyticInapplicableError):
        risky_frequency(6, spec())


def test_query_gated_cost_value():
    assert threshold_cost_qaoi(3, DEFAULTS, 0.2) == pytest.approx(1.3886447805686735, rel=1e-12)
    assert cost_breakdown(3, spec(q=0.2)).total == threshold_cost_qaoi(3, DEFAULTS, 0.2)
    with pytest.raises(ValueError):
        threshold_cost_qaoi(3, DEFAULTS, 1.2)


def test_cost_breakdown_parts_sum():
    breakdown = cost_breakdown(2, spec())
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
        assert risky_frequency(n, spec()) == pytest.approx(chain_risky, rel=1e-9)


@pytest.mark.parametrize("lam,p,n", [(0.3, 0.5, 1), (0.8, 0.9, 4)])
def test_cost_matches_exact_chain_off_defaults(lam, p, n):
    params = SystemParams(p=p, lam=lam)
    chain_cost, _ = aoi_long_run(threshold_rule(n), params, zeta=5, cap=140)
    assert threshold_cost_aoi(n, params) == pytest.approx(chain_cost, rel=1e-9)


def test_query_gated_cost_matches_exact_chain():
    chain_cost, chain_risky = aoi_long_run(threshold_rule(3), DEFAULTS, zeta=5, cap=120, q=0.2)
    assert threshold_cost_qaoi(3, DEFAULTS, 0.2) == pytest.approx(chain_cost, rel=1e-10)
    assert risky_frequency(3, spec(q=0.2)) == pytest.approx(chain_risky, rel=1e-9)


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
    assert risky_frequency(2, spec(q=0.2)) == 0.2 * risky_frequency(2, spec())


def test_cost_curve_unimodal_on_default_grid():
    costs = [threshold_cost_aoi(n, DEFAULTS) for n in range(1, 31)]
    best = costs.index(min(costs))
    for i in range(best):
        assert costs[i] > costs[i + 1]
    for i in range(best, len(costs) - 1):
        assert costs[i] < costs[i + 1]


@settings(deadline=None, max_examples=30)
@given(
    p=st.floats(min_value=0.05, max_value=1.0),
    lam=st.floats(min_value=0.05, max_value=1.0),
    zeta=st.integers(min_value=2, max_value=9),
)
def test_risky_frequency_nondecreasing_in_threshold(p, lam, zeta):
    # Where the exact risk is far below 1e-15 (p = 1, lam close to 1) the
    # closed form returns rounding noise of about 1e-15, in either order.
    params = SystemParams(p=p, lam=lam)
    risks = [risky_frequency(n, spec(params, zeta)) for n in range(1, zeta)]
    for earlier, later in zip(risks, risks[1:]):
        assert later >= earlier - 1e-12


def test_risky_frequency_increasing_in_threshold_at_defaults():
    for zeta in (4, 5, 8):
        risks = [risky_frequency(n, spec(zeta=zeta)) for n in range(1, zeta)]
        assert risks == sorted(risks)


# --- bit-identity with the term-by-term series -----------------------------
#
# The closed forms share one table of opening weights and reach
# probabilities; oracles.py sums the same series term by term in O(K^3).
# Both must give the same floats, so these compare with ==, not approx.


def assert_series_identical(n, zeta, params, q, k):
    risky = series_risky_frequency(n, zeta, params, q)
    assert risky_frequency(n, spec(params, zeta, q)) == risky
    assert age_frequency(k, n, params) == series_age_frequency(k, n, params)
    for r in range(1, k + 2):
        assert reach_probability(r, k, n, params) == series_reach_probability(r, k, n, params)
    result = evaluate_threshold(n, spec(params, zeta, q))
    assert result.freq == {
        j: q * series_age_frequency(j, n, params) for j in range(n + 1, max(n + 8, zeta + 4) + 1)
    }
    assert result.risky_freq == risky


@settings(deadline=None, max_examples=20)
@given(
    p=st.floats(min_value=0.1, max_value=1.0),
    lam=st.floats(min_value=0.1, max_value=1.0),
    n=st.integers(min_value=1, max_value=6),
    zeta_above=st.integers(min_value=1, max_value=6),
    q=st.floats(min_value=0.0, max_value=1.0),
    k_above=st.integers(min_value=1, max_value=12),
)
def test_closed_forms_equal_the_series_bit_for_bit(p, lam, n, zeta_above, q, k_above):
    assert_series_identical(n, n + zeta_above, SystemParams(p=p, lam=lam), q, n + k_above)


@pytest.mark.parametrize("p,lam", [(1.0, 0.5), (0.9, 1.0), (1.0, 1.0)])
@pytest.mark.parametrize("n,zeta", [(1, 2), (2, 5), (3, 9)])
def test_closed_forms_equal_the_series_in_the_deterministic_limits(p, lam, n, zeta):
    assert_series_identical(n, zeta, SystemParams(p=p, lam=lam), 0.7, zeta + 3)


def test_repeated_terms_end_the_risky_sum():
    # the reach probabilities cancel to a constant 1.1e-16 past about ten
    # ages, so the terms repeat; without the repeat stop this never returned
    params = SystemParams(p=1.0, lam=0.969945730993683)
    value = risky_frequency(4, spec(params, 9))
    assert value == series_risky_frequency(4, 9, params)
    assert 0.0 < value < 1e-8


def test_slow_channel_is_fast_and_equals_the_series():
    start = time.perf_counter()
    risky = risky_frequency(1, spec(SLOW))
    assert time.perf_counter() - start < 0.5  # about 4 s through the term-by-term series
    assert risky == series_risky_frequency(1, 5, SLOW)
    result = evaluate_threshold(1, spec(SLOW))
    assert result.risky_freq == risky
    assert result.freq == {k: series_age_frequency(k, 1, SLOW) for k in range(2, 10)}
    assert reach_probability(3, 600, 2, SLOW) == series_reach_probability(3, 600, 2, SLOW)


def test_risk_constrained_threshold_on_a_slow_channel_reuses_the_risks():
    start = time.perf_counter()
    with pytest.raises(InfeasibleRiskBudgetError) as info:
        risk_constrained_threshold(0.0, spec(SLOW))
    assert time.perf_counter() - start < 1.0
    assert info.value.min_risk == min(risky_frequency(n, spec(SLOW)) for n in range(1, 5))


def test_slow_channel_budget_keeps_every_point_down_to_a_thousandth(monkeypatch):
    # The counted series lengths fall as p or lam rises, so p = lam = 1e-3 is
    # the longest point kept.  Its cost series runs; its risky series takes
    # over a minute, so a stand-in that ends at once shows only that the
    # budget lets it start.
    corner = spec(SystemParams(p=1e-3, lam=1e-3))
    assert 10_000 < cost_breakdown(1, corner).terms < analytic._MAX_TERMS
    monkeypatch.setattr(analytic, "_age_frequencies", lambda *args: iter([0.0] * 20))
    assert risky_frequency(1, corner) == 0.0


# the entry points that meet each series first
FIRST_TO_RUN = {
    "risky": (risky_frequency, evaluate_threshold, lambda n, s: risk_constrained_threshold(0.5, s)),
    "cost": (cost_breakdown, evaluate_threshold, lambda n, s: optimal_threshold(s)),
}


@pytest.mark.parametrize("params, series, message", [
    (SystemParams(p=5e-4, lam=5e-4), "risky", "about 8.56e+04 terms at p=0.0005, lambda=0.0005"),
    (SystemParams(p=2e-4, lam=1.0), "risky", "about 1.81e+05 terms at p=0.0002, lambda=1"),
    (SystemParams(p=1e-4, lam=2e-4), "cost", "about 9.21e+04 terms at p=0.0001, lambda=0.0002"),
], ids=["risky_p_lam_5e-4", "risky_p_2e-4", "cost_p_1e-4"])
def test_slow_channel_past_the_budget_is_refused_before_the_series_runs(params, series, message):
    start = time.perf_counter()
    expected = re.escape(f"the {series} series needs {message}, more than the 50000 allowed")
    for call in FIRST_TO_RUN[series]:
        with pytest.raises(AnalyticInapplicableError, match=expected):
            call(1, spec(params))
    assert time.perf_counter() - start < 0.5


def test_underflowing_squares_are_refused():
    for params in (SystemParams(p=1e-160), SystemParams(lam=1e-155)):
        with pytest.raises(AnalyticInapplicableError, match=r"p\*\*2 and lambda\*\*2"):
            optimal_threshold(spec(params))
    # the square of 1.5e-154 is still a normal float
    assert optimal_threshold(spec(SystemParams(p=1.5e-154))) == 1


@pytest.mark.parametrize("call", [
    lambda s: cost_breakdown(1, s),
    lambda s: risky_frequency(1, s),
    lambda s: evaluate_threshold(1, s),
    lambda s: optimal_threshold(s),
    lambda s: risk_constrained_threshold(0.5, s),
], ids=["cost_breakdown", "risky_frequency", "evaluate_threshold", "optimal_threshold",
        "risk_constrained_threshold"])
def test_every_closed_form_refuses_the_mismatch_metric(call):
    with pytest.raises(AnalyticInapplicableError, match="no closed form for the mismatch metric"):
        call(EnvSpec("aoii"))


def test_long_age_table_is_quadratic_and_equals_the_series():
    start = time.perf_counter()
    result = evaluate_threshold(2, spec(), k_max=600)
    assert time.perf_counter() - start < 0.5  # minutes at k_max = 2000 through the series
    assert sorted(result.freq) == list(range(3, 601))
    # the series costs O(k^2) per age, so it checks a spread of ages
    for k in (*range(3, 600, 41), 599, 600):
        assert result.freq[k] == series_age_frequency(k, 2, DEFAULTS)


# --- optimizers ------------------------------------------------------------


def test_optimal_threshold_defaults():
    assert optimal_threshold(spec()) == 2


@pytest.mark.parametrize(
    "q,expected", [(0.05, 11), (0.2, 5), (0.4, 3), (0.6, 3), (0.8, 2), (1.0, 2)]
)
def test_optimal_threshold_query_grid(q, expected):
    assert optimal_threshold(spec(q=q)) == expected


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("p", [0.5, 0.9])
def test_optimal_threshold_matches_full_scan(lam, p):
    params = SystemParams(p=p, lam=lam)
    costs = {n: threshold_cost_aoi(n, params) for n in range(1, 65)}
    brute = min(costs, key=costs.get)
    assert optimal_threshold(spec(params)) == brute


@settings(deadline=None)
@given(
    p=st.floats(min_value=0.05, max_value=1.0),
    lam=st.floats(min_value=0.05, max_value=1.0),
    q=st.floats(min_value=0.01, max_value=1.0),
)
def test_optimal_threshold_is_the_exhaustive_argmin(p, lam, q):
    """The early-stopping scan finds the first minimum over all of n = 1..64."""
    params = SystemParams(p=p, lam=lam)
    costs = [cost_breakdown(n, spec(params, q=q)).total for n in range(1, 65)]
    assert optimal_threshold(spec(params, q=q)) == 1 + costs.index(min(costs))


def test_optimal_threshold_validation():
    with pytest.raises(ValueError):
        optimal_threshold(spec(), n_max=0)
    # the query probability is checked once, where the spec is built
    with pytest.raises(ValueError, match="q must be in"):
        optimal_threshold(spec(q=1.5))


def test_risk_constrained_threshold_defaults():
    # generous budget: the cost optimum is feasible
    assert risk_constrained_threshold(1.0, spec()) == 2
    # tight budget: forced below the cost optimum
    assert risk_constrained_threshold(0.08, spec()) == 1


def test_risk_constrained_threshold_infeasible():
    with pytest.raises(InfeasibleRiskBudgetError) as info:
        risk_constrained_threshold(0.05, spec())
    assert info.value.budget == 0.05
    assert info.value.min_risk == pytest.approx(0.0703, rel=1e-9)
    assert "minimum achievable" in str(info.value)


def test_risk_constrained_threshold_no_candidates():
    with pytest.raises(AnalyticInapplicableError):
        risk_constrained_threshold(0.5, spec(zeta=1))
    # a nan budget is refused too, not reported as infeasible
    for budget in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            risk_constrained_threshold(budget, spec())


def test_risk_constrained_threshold_query_gated():
    # gating scales every risk down by q, widening the feasible set
    plain = risk_constrained_threshold(0.02, spec(q=0.2))
    assert plain == 2
    with pytest.raises(InfeasibleRiskBudgetError):
        risk_constrained_threshold(0.002, spec(q=0.2))


# --- bundled evaluation ----------------------------------------------------


def test_evaluate_threshold_bundle():
    result = evaluate_threshold(2, spec())
    assert result.breakdown == cost_breakdown(2, spec())
    assert result.breakdown.total == pytest.approx(threshold_cost_aoi(2, DEFAULTS))
    assert result.breakdown.period_length == pytest.approx(mean_period_length(2, DEFAULTS))
    assert result.breakdown.attempts == pytest.approx(1 / 0.9)
    assert sorted(result.freq) == list(range(3, 11))
    assert result.risky_freq == pytest.approx(0.09208620689650669, rel=1e-10)


def test_evaluate_threshold_query_scales_frequencies():
    plain = evaluate_threshold(2, spec())
    gated = evaluate_threshold(2, spec(q=0.2))
    for k, value in plain.freq.items():
        assert gated.freq[k] == pytest.approx(0.2 * value)
    assert gated.risky_freq == pytest.approx(0.2 * plain.risky_freq)


def test_evaluate_threshold_explicit_band():
    result = evaluate_threshold(2, spec(), k_max=15)
    assert sorted(result.freq) == list(range(3, 16))

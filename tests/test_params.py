"""Validation and arithmetic of the shared model constants."""

import pytest

from agelab import (
    AoiEnv,
    AoiiEnv,
    LearningParams,
    QuerySpec,
    RiskSpec,
    SourceSpec,
    SystemParams,
    step_cost,
)
from agelab.env import SEND, WAIT, AoIIState


def test_default_parameters():
    params = SystemParams()
    assert params.p == 0.9
    assert params.lam == 0.5
    assert params.nu == 1.0
    assert params.alpha == 1.0
    assert params.beta == 3.0
    assert QuerySpec().q == 0.2
    assert SourceSpec().num_states == 10
    assert RiskSpec() == RiskSpec(zeta=5, zeta_aoii=3)


@pytest.mark.parametrize("field,value", [
    ("p", 0.0),
    ("p", -0.1),
    ("p", 1.1),
    ("lam", 0.0),
    ("lam", 2.0),
    ("nu", -1.0),
    ("alpha", -0.5),
    ("beta", -3.0),
    # NaN compares false both ways, so it must fail the check, not slip past it
    ("nu", float("nan")),
    ("alpha", float("nan")),
    ("beta", float("nan")),
    # an infinite weight turns a step with a zero age or no attempt into nan
    ("nu", float("inf")),
    ("alpha", float("inf")),
    ("beta", float("inf")),
])
def test_system_params_rejects_bad_values(field, value):
    with pytest.raises(ValueError):
        SystemParams(**{field: value})


def test_deterministic_limits_are_allowed():
    """p = 1 and lam = 1 stay evaluable; only the zero limits degenerate."""
    params = SystemParams(p=1.0, lam=1.0)
    assert params.p == 1.0
    assert params.lam == 1.0


def test_params_are_frozen():
    with pytest.raises(AttributeError):
        SystemParams().p = 0.5  # type: ignore[misc]


@pytest.mark.parametrize("q", [-0.1, 1.5])
def test_query_spec_rejects_bad_probability(q):
    with pytest.raises(ValueError):
        QuerySpec(q=q)


def test_query_spec_accepts_boundaries():
    assert QuerySpec(q=0.0).q == 0.0
    assert QuerySpec(q=1.0).q == 1.0


def test_source_spec_change_probability():
    source = SourceSpec(num_states=10, p_r=0.5)
    assert source.p_c == pytest.approx(0.5 / 9)
    assert SourceSpec(num_states=2, p_r=0.25).p_c == pytest.approx(0.75)


def test_source_spec_rejects_degenerate_source():
    with pytest.raises(ValueError):
        SourceSpec(num_states=1)
    with pytest.raises(ValueError):
        SourceSpec(p_r=1.25)


def test_risk_spec_validation():
    with pytest.raises(ValueError):
        RiskSpec(zeta=0)
    with pytest.raises(ValueError):
        RiskSpec(zeta_aoii=0)


def test_rho_lives_in_the_learning_parameters():
    """The risky-cost factor has one home; the safety levels do not carry one."""
    with pytest.raises(TypeError):
        RiskSpec(rho=2.0)
    assert LearningParams().rho == 2.0
    with pytest.raises(ValueError, match="rho must be nonnegative"):
        LearningParams(rho=-1.0)


def test_step_cost_weights_age_and_energy():
    params = SystemParams(alpha=2.0, beta=3.0, nu=0.5)
    assert step_cost(4, False, params) == pytest.approx(8.0)
    assert step_cost(4, True, params) == pytest.approx(8.0 + 1.5)
    assert step_cost(0, False, params) == 0.0


def test_risky_predicates_use_inclusive_level():
    """A step landing at the safety level is risky, one below it is not."""
    # certain arrivals and deliveries: waiting grows the receiver age by one
    env = AoiEnv(SystemParams(p=1.0, lam=1.0), zeta=5, seed=0)
    for age in range(2, 8):
        out = env.step(WAIT)
        assert out.next_state.aoi_rx == age
        assert out.risky == (age >= 5)
    # a source that always leaves a synced value and almost never returns
    source = SourceSpec(num_states=10**6, p_r=0.0)
    env = AoiiEnv(SystemParams(p=1.0), source, zeta_aoii=3, seed=0)
    for age in range(1, 6):
        out = env.step(WAIT)
        assert out.next_state == AoIIState(False, age)
        assert out.risky == (age >= 3)
    out = env.step(SEND)
    assert out.next_state == AoIIState(True, 0)
    assert not out.risky

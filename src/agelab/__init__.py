"""Risk-sensitive scheduling laboratory for age-based status-update metrics.

The library simulates three freshness metrics of a sender/receiver pair on
an unreliable channel (receiver age, query-gated receiver age and mismatch
age), evaluates threshold send policies in closed form, optimizes them
under risk budgets and trains a risk-sensitive tabular learner against
threshold and random baselines.
"""

from .analytic import (
    AnalyticInapplicableError,
    AnalyticResult,
    InfeasibleRiskBudgetError,
    Tolerance,
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
from .env import (
    SEND,
    WAIT,
    AoiEnv,
    AoiiEnv,
    AoIIState,
    AoIState,
    StepOutcome,
    TrajectoryStats,
    aoi_transition,
    aoii_transition,
    run_policy,
)
from .experiments import (
    ComparisonResult,
    EnvSpec,
    ExperimentConfig,
    RunStats,
    SweepResult,
    evaluate,
    learning_comparison,
    query_prob_sweep,
    threshold_sweep,
)
from .learning import LearningParams, QTable, TrainReport, train
from .params import (
    QuerySpec,
    RiskSpec,
    SourceSpec,
    SystemParams,
    step_cost,
)
from .strategy import AoiiThresholdPolicy, GreedyPolicy, RandomPolicy, ThresholdPolicy

__version__ = "0.1.0"

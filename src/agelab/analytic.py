"""Closed-form evaluation and optimization of threshold send policies.

Between two delivered updates the receiver age follows a renewal pattern:
a period opens at some age r, the sender waits until sending is worthwhile,
then attempts until one delivery succeeds.  Averaging the weighted age and
energy over one period gives exact long-run costs and age frequencies for
the policy that sends when the age gain is at least n, without simulation.
All series here have geometric tails, so truncation to a relative tolerance
is exact for practical purposes; the deterministic limits lam = 1 or p = 1
terminate the series outright.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import SystemParams

__all__ = [
    "CostBreakdown",
    "AnalyticResult",
    "AnalyticInapplicableError",
    "InfeasibleRiskBudgetError",
    "start_age_weight",
    "period_age_sum",
    "mean_period_length",
    "attempts_per_period",
    "threshold_cost_aoi",
    "threshold_cost_qaoi",
    "cost_breakdown",
    "reach_probability",
    "age_frequency",
    "risky_frequency",
    "evaluate_threshold",
    "optimal_threshold",
    "risk_constrained_threshold",
]


class AnalyticInapplicableError(ValueError):
    """The closed form does not cover the requested regime."""


class InfeasibleRiskBudgetError(ValueError):
    """No admissible threshold meets the requested risk budget."""

    def __init__(self, budget: float, min_risk: float) -> None:
        super().__init__(
            f"no threshold meets risk budget {budget:g}; "
            f"minimum achievable risky frequency is {min_risk:.6g}"
        )
        self.budget = budget
        self.min_risk = min_risk


# Series truncation: stop once the bounded remaining tail is below _TAIL_TOL
# of the accumulated sum, but never before _MIN_TERMS terms past the threshold.
_TAIL_TOL = 1e-12
_MIN_TERMS = 10


def _check_threshold(n: int) -> None:
    if n < 1:
        raise ValueError(f"threshold must be at least 1, got {n}")


def start_age_weight(r: int, params: SystemParams) -> float:
    """Probability that a period opens with receiver age r.

    The opening age exceeds r - 1 exactly when the last r - 1 steps before
    the delivery all failed to deliver and saw no arrival, which telescopes
    into a geometric law.
    """
    if r < 1:
        raise ValueError(f"age must be at least 1, got {r}")
    g = (1.0 - params.lam) * (1.0 - params.p)
    return g ** (r - 1) - g**r


def period_age_sum(n: int, params: SystemParams) -> float:
    """Expected total receiver age over a period whose send phase opens at age n.

    The total counts ages from 1 upward; callers subtract r*(r-1)/2 to make
    the count start at the period's true opening age r.
    """
    _check_threshold(n)
    lam, p = params.lam, params.p
    return (
        (n - 2) / lam
        + (n - 2) / p
        + (n - 2) * (n - 1) / 2.0
        + 1.0 / lam**2
        + 1.0 / (lam * p)
        + 1.0 / p**2
    )


def mean_period_length(n: int, params: SystemParams) -> float:
    """Expected number of steps between consecutive deliveries under threshold n."""
    _check_threshold(n)
    lam, p = params.lam, params.p
    base = (1.0 - p) / p + 1.0 + (1.0 - lam) / lam
    wait = sum(start_age_weight(r, params) * (n - r) for r in range(1, n))
    return base + wait


def attempts_per_period(params: SystemParams) -> float:
    """Expected send attempts per period; every period ends with one delivery."""
    return 1.0 / params.p


@dataclass(frozen=True)
class CostBreakdown:
    """Intermediate quantities behind a threshold policy's average cost."""

    age_cost: float
    energy_cost: float
    period_length: float
    attempts: float
    terms: int

    @property
    def total(self) -> float:
        return self.age_cost + self.energy_cost


def cost_breakdown(n: int, params: SystemParams, q: float = 1.0) -> CostBreakdown:
    """Average age and energy cost per step under threshold n.

    The age component is scaled by the query probability q while the
    energy component is not; q = 1 is the plain age.  The per-opening-age
    series is truncated once its bounded geometric tail is negligible.
    """
    _check_threshold(n)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    length = mean_period_length(n, params)
    a_n = period_age_sum(n, params)
    total = 0.0
    for r in range(1, n + 1):
        total += start_age_weight(r, params) * (a_n - r * (r - 1) / 2.0)
    terms = n
    r = n + 1
    while True:
        w_r = start_age_weight(r, params)
        if w_r == 0.0:
            break
        term = w_r * (period_age_sum(r, params) - r * (r - 1) / 2.0)
        total += term
        terms += 1
        if r > n + _MIN_TERMS and term < _TAIL_TOL * total:
            break
        r += 1
    age_cost = params.alpha * total / length * q
    energy_cost = params.beta * params.nu / (params.p * length)
    return CostBreakdown(age_cost, energy_cost, length, attempts_per_period(params), terms)


def threshold_cost_aoi(n: int, params: SystemParams) -> float:
    """Long-run average cost per step of the threshold-n policy."""
    return cost_breakdown(n, params).total


def threshold_cost_qaoi(n: int, params: SystemParams, q: float) -> float:
    """Query-gated average cost; q = 1 reproduces the ungated cost bit for bit."""
    return cost_breakdown(n, params, q=q).total


def reach_probability(r: int, k: int, n: int, params: SystemParams) -> float:
    """Probability that a period opening at age r ever shows age k, for k > n.

    Openings below the threshold first climb to it deterministically, so
    they reach k exactly as often as an opening at n does.  From age
    max(r, n) the period dies before k exactly when an arrival comes and
    the following attempts deliver within the remaining k - r steps.
    """
    _check_threshold(n)
    if k <= n:
        raise AnalyticInapplicableError(
            f"age frequencies are only available above the threshold (k={k}, n={n})"
        )
    if r < 1:
        raise ValueError(f"age must be at least 1, got {r}")
    if r > k:
        return 0.0
    if r == k:
        return 1.0
    r = max(r, n)
    lam, p = params.lam, params.p
    x, y = 1.0 - lam, 1.0 - p
    total = 0.0
    inner = 0.0
    xpow = 1.0
    for _ in range(k - r):
        inner = y * inner + xpow
        xpow *= x
        total += inner
    return 1.0 - p * lam * total


def age_frequency(k: int, n: int, params: SystemParams) -> float:
    """Long-run fraction of steps at receiver age exactly k, for k > n.

    A period shows age k at most once, so the frequency is the chance a
    period reaches k divided by the mean period length.
    """
    _check_threshold(n)
    if k <= n:
        raise AnalyticInapplicableError(
            f"age frequencies are only available above the threshold (k={k}, n={n})"
        )
    g = (1.0 - params.lam) * (1.0 - params.p)
    below = 1.0 - g**n
    reach = start_age_weight(k, params) + reach_probability(n, k, n, params) * below
    for r in range(n + 1, k):
        reach += start_age_weight(r, params) * reach_probability(r, k, n, params)
    return reach / mean_period_length(n, params)


def risky_frequency(n: int, zeta: int, params: SystemParams, q: float = 1.0) -> float:
    """Long-run fraction of (query) steps at receiver age >= zeta under threshold n.

    Only defined for zeta above the threshold; otherwise the closed form
    does not apply and the simulation estimator must be used instead.
    Counting query steps only scales the plain (q = 1) value by q.
    """
    _check_threshold(n)
    if zeta <= n:
        raise AnalyticInapplicableError(
            f"risky frequency in closed form needs zeta > n (zeta={zeta}, n={n}); "
            "use the simulation estimator instead"
        )
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    # A period at age k >= n dies that step only through a delivery, which
    # needs an armed sender, so one-step survival is at least lam * p below
    # one and the age frequencies are dominated by a geometric tail.
    ratio = 1.0 - params.lam * params.p
    total = 0.0
    k = zeta
    while True:
        term = age_frequency(k, n, params)
        total += term
        if k >= zeta + _MIN_TERMS:
            if term == 0.0:
                break
            if ratio == 0.0 or term * ratio / (1.0 - ratio) < _TAIL_TOL * total:
                break
        k += 1
    return total * q


@dataclass(frozen=True)
class AnalyticResult:
    """Everything the closed forms say about one threshold policy."""

    threshold: int
    breakdown: CostBreakdown
    freq: dict[int, float]
    risky_freq: float


def evaluate_threshold(
    n: int,
    params: SystemParams,
    zeta: int,
    q: float = 1.0,
    k_max: int | None = None,
) -> AnalyticResult:
    """Bundle cost, period statistics and age frequencies for one threshold."""
    breakdown = cost_breakdown(n, params, q=q)
    if k_max is None:
        k_max = max(n + 8, zeta + 4)
    freq = {k: q * age_frequency(k, n, params) for k in range(n + 1, k_max + 1)}
    risky = risky_frequency(n, zeta, params, q=q)
    return AnalyticResult(threshold=n, breakdown=breakdown, freq=freq, risky_freq=risky)


def optimal_threshold(params: SystemParams, n_max: int = 64, q: float = 1.0) -> int:
    """Cost-minimizing send threshold under query probability q (1 = plain age).

    Scans upward and stops after the cost has risen twice in a row; the
    cost curve is unimodal in n over the supported parameter space.  Ties
    break toward the smaller threshold.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    best_n = 1
    best_cost = cost_breakdown(1, params, q=q).total
    prev = best_cost
    rises = 0
    for n in range(2, n_max + 1):
        value = cost_breakdown(n, params, q=q).total
        if value < best_cost:
            best_n, best_cost = n, value
        rises = rises + 1 if value > prev else 0
        prev = value
        if rises >= 2:
            break
    return best_n


def risk_constrained_threshold(
    budget: float,
    zeta: int,
    params: SystemParams,
    n_max: int = 64,
    q: float = 1.0,
) -> int:
    """Cheapest threshold whose risky-state frequency stays within the budget.

    Only thresholds below zeta are admissible, because the closed-form risk
    is undefined otherwise.  When even the most cautious threshold exceeds
    the budget an explicit infeasibility error reports the minimum
    achievable risk.
    """
    if not budget >= 0.0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    candidates = range(1, min(n_max, zeta - 1) + 1)
    if not candidates:
        raise AnalyticInapplicableError(
            f"no admissible threshold below zeta={zeta} with n_max={n_max}"
        )
    risks = {n: risky_frequency(n, zeta, params, q=q) for n in candidates}
    feasible = [n for n in candidates if risks[n] <= budget]
    if not feasible:
        raise InfeasibleRiskBudgetError(budget, min(risks.values()))
    return min(feasible, key=lambda n: cost_breakdown(n, params, q=q).total)

"""Closed-form evaluation and optimization of threshold send policies.

Between two delivered updates the receiver age follows a renewal pattern:
a period opens at some age r, the sender waits until sending is worthwhile,
then attempts until one delivery succeeds.  Averaging the weighted age and
energy over one period gives exact long-run costs and age frequencies for
the policy that sends when the age gain is at least n, without simulation.
The policy-level forms read an ``EnvSpec``: the system from ``spec.params``,
the risky level from ``spec.risk.zeta`` and the query gate from ``spec.q``.
They cover aoi and qaoi, and refuse an aoii spec.
All series here have geometric tails, so truncation to a relative tolerance
is exact for practical purposes; the deterministic limits lam = 1 or p = 1
terminate the series outright.  On slow channels the tails grow long, so a
series whose length, counted from (p, lam) before it runs, exceeds a fixed
budget is refused instead.

The age frequencies behind the risky-state frequency share one table of
opening weights and reach probabilities per parameter point, grown as the
age rises.  A risky frequency over a tail of K ages costs O(K^2), with
K ~ log(tol) / log(max(1 - p, 1 - lam)): about 600 ages at p = 0.05,
lam = 0.07.  The tables reproduce the term-by-term series (O(K^3), kept in
tests/oracles.py) float for float, and the tests compare them with ==.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from operator import mul

from .env import EnvSpec
from .params import QuerySpec, SystemParams

__all__ = [
    "N_MAX",
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


# the largest threshold the optimizers search by default
N_MAX = 64


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
# Terms that shrink by a factor d per term fall by a factor f within about
# log(f) / log(d) terms; where p is close to lam the risky sum runs up to
# about 1.3 times that.  A series counted past _MAX_TERMS is refused before
# it runs.  The longest point kept with p, lam >= 1e-3 is the risky sum at
# p = lam = 1e-3, counted at about 41,000 terms: over a minute of O(K^2) work.
_MAX_TERMS = 50_000


def _check_threshold(n: int) -> None:
    if n < 1:
        raise ValueError(f"threshold must be at least 1, got {n}")


def _check_metric(spec: EnvSpec) -> None:
    if spec.metric == "aoii":
        raise AnalyticInapplicableError(
            "no closed form for the mismatch metric; use simulate instead"
        )


def _check_length(series: str, log_decay: float, fall: float, params: SystemParams) -> None:
    terms = math.log(fall) / log_decay
    if terms > _MAX_TERMS:
        raise AnalyticInapplicableError(
            f"the {series} series needs about {terms:.3g} terms at p={params.p:g}, "
            f"lambda={params.lam:g}, more than the {_MAX_TERMS} allowed"
        )


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
    # a plain loop: sum() of floats is compensated from Python 3.12 on
    wait = 0.0
    for r in range(1, n):
        wait += start_age_weight(r, params) * (n - r)
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


def cost_breakdown(n: int, spec: EnvSpec) -> CostBreakdown:
    """Average age and energy cost per step under threshold n.

    The age component is scaled by the spec's query probability while the
    energy component is not.  The per-opening-age series, whose terms
    shrink by g = (1 - lam)(1 - p) each, is truncated once its bounded
    geometric tail is negligible.
    """
    _check_metric(spec)
    _check_threshold(n)
    params = spec.params
    lam, p = params.lam, params.p
    if min(lam, p) ** 2 < sys.float_info.min:
        raise AnalyticInapplicableError(
            f"the closed-form cost needs p**2 and lambda**2 in the float range, "
            f"got p={p:g}, lambda={lam:g}"
        )
    if max(lam, p) < 1.0:  # else g = 0 and the series ends at once
        _check_length("cost", math.log1p(-lam) + math.log1p(-p), _TAIL_TOL, params)
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
    age_cost = params.alpha * total / length * spec.q
    energy_cost = params.beta * params.nu / (params.p * length)
    return CostBreakdown(age_cost, energy_cost, length, attempts_per_period(params), terms)


def threshold_cost_aoi(n: int, params: SystemParams) -> float:
    """Long-run average cost per step of the threshold-n policy."""
    return cost_breakdown(n, EnvSpec("aoi", params)).total


def threshold_cost_qaoi(n: int, params: SystemParams, q: float) -> float:
    """Query-gated average cost; q = 1 reproduces the ungated cost bit for bit."""
    return cost_breakdown(n, EnvSpec("qaoi", params, query=QuerySpec(q))).total


def _check_band(k: int, n: int) -> None:
    _check_threshold(n)
    if k <= n:
        raise AnalyticInapplicableError(
            f"age frequencies are only available above the threshold (k={k}, n={n})"
        )


class _TailTables:
    """Opening weights and reach probabilities of one parameter point.

    weights[r] is ``start_age_weight(r)`` and reach[m] is the chance that a
    period standing at or above the threshold climbs m more ages.  Neither
    depends on the threshold, so one instance serves every threshold at the
    same point.  Both lists grow on demand; each new reach entry is one
    more step of the loop whose prefixes gave the entries before it.
    """

    def __init__(self, params: SystemParams) -> None:
        lam, p = params.lam, params.p
        self.g = (1.0 - lam) * (1.0 - p)
        self._x, self._y, self._pl = 1.0 - lam, 1.0 - p, p * lam
        self._inner = self._acc = 0.0
        self._xpow = 1.0
        self.weights = [0.0]  # no period opens at age 0
        self.reach = [1.0]

    def grow(self, k: int) -> None:
        """Extend weights through age k and reach through k - 1 ages."""
        g, weights = self.g, self.weights
        for r in range(len(weights), k + 1):
            weights.append(g ** (r - 1) - g**r)
        x, y, pl, reach = self._x, self._y, self._pl, self.reach
        inner, xpow, acc = self._inner, self._xpow, self._acc
        for _ in range(len(reach), k):
            # an arrival after j quiet steps, then a delivery within the rest
            inner = y * inner + xpow
            xpow *= x
            acc += inner
            reach.append(1.0 - pl * acc)
        self._inner, self._xpow, self._acc = inner, xpow, acc


def _age_frequencies(
    n: int, params: SystemParams, start: int, tables: _TailTables | None = None
) -> Iterator[float]:
    """``age_frequency(k, n)`` for k = start, start + 1, ... without end.

    A period shows age k > n at most once.  It reaches k from an opening at
    k itself, from any opening up to n (which climbs to n first), or from an
    opening r in between; each path weighs the opening's probability by the
    reach over the k - max(r, n) ages still to climb.  Dividing by the mean
    period length turns the reach into a frequency.
    """
    if tables is None:
        tables = _TailTables(params)
    weights, reach = tables.weights, tables.reach
    below = 1.0 - tables.g**n
    length = mean_period_length(n, params)
    k = start
    while True:
        tables.grow(k)
        total = weights[k] + reach[k - n] * below
        for term in map(mul, weights[n + 1 : k], reach[k - n - 1 : 0 : -1]):
            total += term
        yield total / length
        k += 1


def _tail_sum(frequencies: Iterable[float], zeta: int, params: SystemParams) -> float:
    """Sum age frequencies from age zeta on until the geometric tail is negligible."""
    # A period at age k >= n dies that step only through a delivery, which
    # needs an armed sender, so one-step survival is at least lam * p below
    # one and the age frequencies are dominated by a geometric tail.
    # Far out the reach probabilities cancel down to rounding noise, and the
    # terms repeat one value instead of shrinking; the tail bound then never
    # falls below the tolerance of a small sum, so a repeated term ends it too.
    # Below lam * p = 2**-53 the bound's ratio rounds to 1 and bounds nothing.
    lam_p = params.lam * params.p
    if lam_p < 2.0**-53:
        raise AnalyticInapplicableError(
            f"risky frequency in closed form needs lambda*p >= 2**-53, got {lam_p:g}"
        )
    # Far out the terms shrink by 1 - min(lam, p) per age: the slower of
    # the arrival and the delivery is still to come.
    slower = min(params.lam, params.p)
    if slower < 1.0:
        _check_length("risky", math.log1p(-slower), _TAIL_TOL * lam_p, params)
    ratio = 1.0 - lam_p
    total = 0.0
    prev = None
    for k, term in enumerate(frequencies, zeta):
        total += term
        if k >= zeta + _MIN_TERMS:
            if term == 0.0 or term == prev:
                break
            if ratio == 0.0 or term * ratio / (1.0 - ratio) < _TAIL_TOL * total:
                break
        prev = term
    return total


def reach_probability(r: int, k: int, n: int, params: SystemParams) -> float:
    """Probability that a period opening at age r ever shows age k, for k > n.

    Openings below the threshold first climb to it deterministically, so
    they reach k exactly as often as an opening at n does.  From age
    max(r, n) the period dies before k exactly when an arrival comes and
    the following attempts deliver within the remaining k - r steps.
    """
    _check_band(k, n)
    if r < 1:
        raise ValueError(f"age must be at least 1, got {r}")
    if r > k:
        return 0.0
    tables = _TailTables(params)
    tables.grow(k)
    return tables.reach[k - max(r, n)]


def age_frequency(k: int, n: int, params: SystemParams) -> float:
    """Long-run fraction of steps at receiver age exactly k, for k > n.

    A period shows age k at most once, so the frequency is the chance a
    period reaches k divided by the mean period length.
    """
    _check_band(k, n)
    return next(_age_frequencies(n, params, k))


def risky_frequency(n: int, spec: EnvSpec) -> float:
    """Long-run fraction of (query) steps at receiver age >= zeta under threshold n.

    Only defined for the spec's zeta above the threshold; otherwise the
    closed form does not apply and the simulation estimator must be used
    instead.  Counting query steps only scales the plain value by q.
    """
    _check_metric(spec)
    _check_threshold(n)
    zeta = spec.risk.zeta
    if zeta <= n:
        raise AnalyticInapplicableError(
            f"risky frequency in closed form needs zeta > n (zeta={zeta}, n={n}); "
            "use the simulation estimator instead"
        )
    params = spec.params
    return _tail_sum(_age_frequencies(n, params, zeta), zeta, params) * spec.q


@dataclass(frozen=True)
class AnalyticResult:
    """Everything the closed forms say about one threshold policy."""

    breakdown: CostBreakdown
    freq: dict[int, float]
    risky_freq: float


def evaluate_threshold(n: int, spec: EnvSpec, k_max: int | None = None) -> AnalyticResult:
    """Bundle cost, period statistics and age frequencies for one threshold."""
    breakdown = cost_breakdown(n, spec)
    if k_max is None:
        k_max = max(n + 8, spec.risk.zeta + 4)
    ages = range(n + 1, k_max + 1)
    freq = {k: spec.q * f for k, f in zip(ages, _age_frequencies(n, spec.params, n + 1))}
    risky = risky_frequency(n, spec)
    return AnalyticResult(breakdown=breakdown, freq=freq, risky_freq=risky)


def optimal_threshold(spec: EnvSpec, n_max: int = N_MAX) -> int:
    """Cost-minimizing send threshold of the spec's metric.

    Scans upward and stops after the cost has risen twice in a row; the
    cost curve is unimodal in n over the supported parameter space.  Ties
    break toward the smaller threshold.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    best_n = 1
    best_cost = cost_breakdown(1, spec).total
    prev = best_cost
    rises = 0
    for n in range(2, n_max + 1):
        value = cost_breakdown(n, spec).total
        if value < best_cost:
            best_n, best_cost = n, value
        rises = rises + 1 if value > prev else 0
        prev = value
        if rises >= 2:
            break
    return best_n


def risk_constrained_threshold(budget: float, spec: EnvSpec, n_max: int = N_MAX) -> int:
    """Cheapest threshold whose risky-state frequency stays within the budget.

    Only thresholds below the spec's zeta are admissible, because the
    closed-form risk is undefined otherwise.  When even the most cautious
    threshold exceeds the budget an explicit infeasibility error reports
    the minimum achievable risk.
    """
    _check_metric(spec)
    if not budget >= 0.0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    params, zeta, q = spec.params, spec.risk.zeta, spec.q
    candidates = range(1, min(n_max, zeta - 1) + 1)
    if not candidates:
        raise AnalyticInapplicableError(
            f"no admissible threshold below zeta={zeta} with n_max={n_max}"
        )
    # opening weights and reach probabilities do not depend on the threshold
    tables = _TailTables(params)
    risks = {
        n: _tail_sum(_age_frequencies(n, params, zeta, tables), zeta, params) * q
        for n in candidates
    }
    feasible = [n for n in candidates if risks[n] <= budget]
    if not feasible:
        raise InfeasibleRiskBudgetError(budget, min(risks.values()))
    return min(feasible, key=lambda n: cost_breakdown(n, spec).total)

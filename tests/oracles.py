"""Independent reference computations backing the expected values in the tests.

Nothing here calls into agelab.analytic: stationary quantities come from a
direct linear solve of the truncated chain (scipy, test dependency only) and
period statistics come from instrumented simulation, so the closed forms and
their checks share no code path.  The transition kernels themselves are the
single shared ingredient; test_env pins those against hand-written
probability tables first.  The age-frequency series at the end is the
direct O(K^3) evaluation the shared-table closed forms must reproduce bit
for bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import spsolve

from agelab.env import SEND, WAIT, AoiEnv, _substreams, aoi_transition, aoii_transition
from agelab.experiments import EnvSpec
from agelab.params import SourceSpec, SystemParams, step_cost


def aoi_event_probs(params: SystemParams) -> list[tuple[bool, bool, float]]:
    """All (arrival, channel success) outcomes with their probabilities."""
    lam, p = params.lam, params.p
    return [
        (True, True, lam * p),
        (True, False, lam * (1.0 - p)),
        (False, True, (1.0 - lam) * p),
        (False, False, (1.0 - lam) * (1.0 - p)),
    ]


def _solve(kernel: sparse.csr_matrix) -> np.ndarray:
    m = kernel.shape[0]
    system = (kernel.T - sparse.eye(m)).tolil()
    system[m - 1, :] = 1.0
    rhs = np.zeros(m)
    rhs[m - 1] = 1.0
    return spsolve(system.tocsr(), rhs)


def aoi_stationary(
    send_rule: Callable[[int, int], float],
    params: SystemParams,
    cap: int = 120,
) -> dict[tuple[int, int], float]:
    """Stationary distribution of the truncated AoI chain under a policy.

    send_rule(tx, rx) is the probability of sending in that state, covering
    deterministic thresholds and state-independent mixtures alike.  Ages are
    clamped at cap; with the defaults the mass beyond the cap is below 1e-80.
    """
    states = [(tx, rx) for rx in range(1, cap + 1) for tx in range(0, rx + 1)]
    index = {s: i for i, s in enumerate(states)}
    events = aoi_event_probs(params)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for (tx, rx), i in index.items():
        state = (tx, rx)
        p_send = send_rule(tx, rx)
        for action, p_act in ((WAIT, 1.0 - p_send), (SEND, p_send)):
            if p_act == 0.0:
                continue
            for arrival, success, p_evt in events:
                if p_evt == 0.0:
                    continue
                tx2, rx2 = aoi_transition(state, action, arrival, success)
                rx2 = min(rx2, cap)
                tx2 = min(tx2, rx2)
                rows.append(i)
                cols.append(index[(tx2, rx2)])
                vals.append(p_act * p_evt)
    kernel = sparse.csr_matrix((vals, (rows, cols)), shape=(len(states), len(states)))
    pi = _solve(kernel)
    return {s: float(pi[i]) for s, i in index.items()}


def aoi_long_run(
    send_rule: Callable[[int, int], float],
    params: SystemParams,
    zeta: int,
    cap: int = 120,
    q: float = 1.0,
) -> tuple[float, float]:
    """(average cost, risky frequency) under the stationary distribution.

    The cost convention matches the simulator: age of the landing state plus
    transmission energy, which in stationarity is alpha * E[rx] + beta * nu *
    P(send).  A query probability q scales the age term and the risky
    frequency (queries are independent of the chain).
    """
    pi = aoi_stationary(send_rule, params, cap)
    mean_age = sum(w * rx for (tx, rx), w in pi.items())
    send_frac = sum(w * send_rule(tx, rx) for (tx, rx), w in pi.items())
    risky = sum(w for (tx, rx), w in pi.items() if rx >= zeta)
    cost = params.alpha * q * mean_age + params.beta * params.nu * send_frac
    return cost, q * risky


def aoi_age_marginal(
    send_rule: Callable[[int, int], float],
    params: SystemParams,
    cap: int = 120,
) -> dict[int, float]:
    """Stationary distribution of the receiver age alone."""
    pi = aoi_stationary(send_rule, params, cap)
    marginal: dict[int, float] = {}
    for (tx, rx), w in pi.items():
        marginal[rx] = marginal.get(rx, 0.0) + w
    return marginal


def aoii_long_run(
    send_rule: Callable[[int], float],
    params: SystemParams,
    source: SourceSpec,
    zeta: int,
    cap: int = 400,
) -> tuple[float, float]:
    """(average cost, risky frequency) of the truncated mismatch-age chain.

    States are the mismatch age 0..cap with 0 meaning synced; send_rule(age)
    is the probability of sending at that age.
    """
    events_synced = [
        (se, su, (source.p_r if se else 1.0 - source.p_r) * (params.p if su else 1.0 - params.p))
        for se in (True, False)
        for su in (True, False)
    ]
    events_miss = [
        (se, su, (source.p_c if se else 1.0 - source.p_c) * (params.p if su else 1.0 - params.p))
        for se in (True, False)
        for su in (True, False)
    ]
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for age in range(cap + 1):
        state = (age == 0, age)
        events = events_synced if age == 0 else events_miss
        p_send = send_rule(age)
        for action, p_act in ((WAIT, 1.0 - p_send), (SEND, p_send)):
            if p_act == 0.0:
                continue
            for source_event, success, p_evt in events:
                if p_evt == 0.0:
                    continue
                _, age2 = aoii_transition(state, action, source_event, success)
                rows.append(age)
                cols.append(min(age2, cap))
                vals.append(p_act * p_evt)
    kernel = sparse.csr_matrix((vals, (rows, cols)), shape=(cap + 1, cap + 1))
    pi = _solve(kernel)
    mean_age = float(sum(pi[age] * age for age in range(cap + 1)))
    send_frac = float(sum(pi[age] * send_rule(age) for age in range(cap + 1)))
    risky = float(sum(pi[age] for age in range(zeta, cap + 1)))
    cost = params.alpha * mean_age + params.beta * params.nu * send_frac
    return cost, risky


def iterate_outcomes(env, policy, horizon: int):
    """Yield the raw step outcomes of a rollout."""
    for _ in range(horizon):
        yield env.step(policy.decide(env.state))


def replay_steps(spec: EnvSpec, seed: int, actions: list[int]) -> list[tuple]:
    """What ``spec.build(seed).step(action)`` returns for each action in turn.

    Every event is one ``rng.random()`` call on the seed's own substream,
    compared with its probability there and then, and the outcome is built
    from the transition kernels and ``step_cost``; the environments' block
    draws and precomputed event flags take no part.
    """
    arrival, channel, asked, source = _substreams(seed)
    params = spec.params
    state = (True, 0) if spec.metric == "aoii" else (0, 1)
    outcomes = []
    for action in actions:
        sent = action == SEND
        success = channel.random() < params.p
        if spec.metric == "aoii":
            stay = spec.source.p_r if state[0] else spec.source.p_c
            state = aoii_transition(state, action, source.random() < stay, success)
            age = state[1]
            risky = age >= spec.risk.zeta_aoii
        else:
            state = aoi_transition(state, action, arrival.random() < params.lam, success)
            age = state[1]
            risky = age >= spec.risk.zeta
            if spec.metric == "qaoi" and not asked.random() < spec.query.q:
                age, risky = 0, False
        outcomes.append((state, step_cost(age, sent, params), risky, sent, sent and success))
    return outcomes


def threshold_rule(n: int) -> Callable[[int, int], float]:
    """Send exactly when the sender's packet is n steps fresher."""

    def rule(tx: int, rx: int) -> float:
        return 1.0 if rx - tx >= n else 0.0

    return rule


def period_records(
    params: SystemParams,
    n: int,
    periods: int,
    seed: int = 0,
) -> list[tuple[int, int]]:
    """(start age, length) of delivery-to-delivery periods under a threshold.

    A period starts with the landing state of a successful transmission and
    runs until the next one; the receiver age climbs by one each step in
    between, so the pair determines every age visited along the way.  The
    leading partial period is discarded.
    """
    from agelab.strategy import ThresholdPolicy

    env = AoiEnv(EnvSpec(params=params), seed=seed)
    policy = ThresholdPolicy(n)
    records: list[tuple[int, int]] = []
    start_age: int | None = None
    length = 0
    while len(records) < periods:
        out = env.step(policy.decide(env.state))
        length += 1
        if out.success:
            if start_age is not None:
                records.append((start_age, length))
            start_age = out.next_state[1]
            length = 0
    return records


# --- the age-frequency series, term by term -------------------------------
#
# Each frequency sums reach probabilities over every opening age, and each
# reach probability runs its own loop, so a risky frequency over a tail of K
# ages costs O(K^3).  The arithmetic is kept in its original order: the
# closed forms in agelab.analytic must return exactly these floats.

SERIES_TAIL_TOL = 1e-12
SERIES_MIN_TERMS = 10


def series_start_age_weight(r: int, params: SystemParams) -> float:
    g = (1.0 - params.lam) * (1.0 - params.p)
    return g ** (r - 1) - g**r


def series_period_length(n: int, params: SystemParams) -> float:
    lam, p = params.lam, params.p
    base = (1.0 - p) / p + 1.0 + (1.0 - lam) / lam
    wait = 0.0
    for r in range(1, n):  # left to right, as sum() did before Python 3.12
        wait += series_start_age_weight(r, params) * (n - r)
    return base + wait


def series_reach_probability(r: int, k: int, n: int, params: SystemParams) -> float:
    """Chance that a period opening at age r shows age k > n, by its own loop."""
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


def series_age_frequency(k: int, n: int, params: SystemParams) -> float:
    """Long-run fraction of steps at receiver age k > n, summed over opening ages."""
    g = (1.0 - params.lam) * (1.0 - params.p)
    below = 1.0 - g**n
    reach = series_start_age_weight(k, params) + series_reach_probability(n, k, n, params) * below
    for r in range(n + 1, k):
        reach += series_start_age_weight(r, params) * series_reach_probability(r, k, n, params)
    return reach / series_period_length(n, params)


def series_risky_frequency(n: int, zeta: int, params: SystemParams, q: float = 1.0) -> float:
    """Sum of the age frequencies from zeta on, stopped once the geometric tail is negligible.

    A term equal to the one before it also stops the sum: the terms have
    reached the rounding floor of the reach probabilities and would repeat
    forever.
    """
    ratio = 1.0 - params.lam * params.p
    total = 0.0
    prev = None
    k = zeta
    while True:
        term = series_age_frequency(k, n, params)
        total += term
        if k >= zeta + SERIES_MIN_TERMS:
            if term == 0.0 or term == prev:
                break
            if ratio == 0.0 or term * ratio / (1.0 - ratio) < SERIES_TAIL_TOL * total:
                break
        prev = term
        k += 1
    return total * q

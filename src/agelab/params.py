"""Model constants and the cost/risk primitives shared by every age metric.

The transmission system is described by a handful of probabilities and cost
weights: the channel delivers an attempt with probability ``p``, a fresh
status update arrives at the sender with probability ``lam``, and each step
costs a weighted sum of the current age value and the energy spent on a
transmission attempt.  The same weighted cost and the same notion of a
"risky" state (age at or above a safety level) apply to the receiver age,
the query-gated receiver age and the mismatch age alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SystemParams",
    "QuerySpec",
    "SourceSpec",
    "RiskSpec",
    "step_cost",
]


@dataclass(frozen=True)
class SystemParams:
    """Channel, arrival and cost constants.

    p:     probability that a transmission attempt reaches the receiver
    lam:   probability that a fresh status update arrives at the sender
    nu:    energy drawn by one transmission attempt
    alpha: weight of the age term in the per-step cost
    beta:  weight of the energy term in the per-step cost

    ``p`` and ``lam`` must be strictly positive; the deterministic limits
    ``p = 1`` and ``lam = 1`` are allowed and every closed-form expression
    evaluates exactly there.  The weights must be finite and nonnegative.
    """

    p: float = 0.9
    lam: float = 0.5
    nu: float = 1.0
    alpha: float = 1.0
    beta: float = 3.0

    def __post_init__(self) -> None:
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"lam must be in (0, 1], got {self.lam}")
        for name in ("nu", "alpha", "beta"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
            # an infinite weight times an age or energy of 0 is nan
            if value == math.inf:
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class QuerySpec:
    """Bernoulli query process: each step is a query step with probability q."""

    q: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {self.q}")


@dataclass(frozen=True)
class SourceSpec:
    """Symmetric finite-state source watched by the mismatch-age metric.

    The process keeps its value with probability ``p_r`` and moves to each
    of the other ``num_states - 1`` values with equal probability ``p_c``.
    """

    num_states: int = 10
    p_r: float = 0.5

    def __post_init__(self) -> None:
        if self.num_states < 2:
            raise ValueError(f"num_states must be at least 2, got {self.num_states}")
        if not 0.0 <= self.p_r <= 1.0:
            raise ValueError(f"p_r must be in [0, 1], got {self.p_r}")

    @property
    def p_c(self) -> float:
        """Probability of moving to one specific other value."""
        return (1.0 - self.p_r) / (self.num_states - 1)


@dataclass(frozen=True)
class RiskSpec:
    """Safety levels per metric.

    zeta:      receiver ages at or above this value are risky (AoI and QAoI)
    zeta_aoii: mismatch ages at or above this value are risky

    The factor by which a learner scales risky costs is ``LearningParams.rho``.
    """

    zeta: int = 5
    zeta_aoii: int = 3

    def __post_init__(self) -> None:
        if self.zeta < 1:
            raise ValueError(f"zeta must be at least 1, got {self.zeta}")
        if self.zeta_aoii < 1:
            raise ValueError(f"zeta_aoii must be at least 1, got {self.zeta_aoii}")


def step_cost(age: int | float, sent: bool, params: SystemParams) -> float:
    """Weighted per-step cost: alpha times age, plus beta*nu when an attempt was made."""
    if sent:
        return params.alpha * age + params.beta * params.nu
    return params.alpha * age

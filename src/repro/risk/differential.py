"""Differential-privacy-inspired risk measure (the paper's future
work, Section 6).

The paper notes that differential privacy offers "an interesting
concept [that] may be adopted in our approach so as to develop a new
family of risk measures, based on the idea that an individual's privacy
may be violated even knowing the absence of the individual from the
microdata".

This extension implements that family member: instead of thresholding
the group frequency, the risk decays exponentially with the number of
*other* tuples indistinguishable from the target —

    ρ_ε(t) = exp(−ε · (f_t − 1))

where f_t is the =⊥-group frequency.  A sample-unique tuple scores 1
regardless of ε (its presence/absence is fully observable); each
additional indistinguishable tuple multiplies the adversary's
uncertainty by e^−ε, mirroring the e^ε indistinguishability bound of
ε-differential privacy.  Unlike k-anonymity's step function, the score
is smooth, so thresholds translate directly into minimum group sizes:
ρ ≤ T  ⇔  f ≥ 1 + ln(1/T)/ε.
"""

from __future__ import annotations

import math

from ..errors import ReproError
from .base import GroupRiskMeasure, register_measure


def minimum_safe_frequency(epsilon: float, threshold: float) -> int:
    """The smallest group size with ρ_ε ≤ threshold."""
    if threshold >= 1.0:
        return 1
    if threshold <= 0.0:
        raise ReproError("threshold must be positive for a finite bound")
    return 1 + math.ceil(math.log(1.0 / threshold) / epsilon)


@register_measure
class DifferentialRisk(GroupRiskMeasure):
    """Smooth, DP-style presence-indistinguishability risk."""

    name = "differential"

    def __init__(self, epsilon: float = 0.5):
        if epsilon <= 0:
            raise ReproError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)

    def score(self, count, weight_sum):
        return math.exp(-self.epsilon * max(0, count - 1))

    def describe(self, count, weight_sum):
        return f"frequency {count}, epsilon={self.epsilon}"

    def parameters(self):
        return {"epsilon": self.epsilon}

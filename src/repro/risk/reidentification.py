"""Re-identification-based risk (Section 2.2, Algorithm 3).

The sampling weight W_t estimates the number of identity-oracle
entities sharing the tuple's quasi-identifier combination, so the risk
of re-identifying tuple *t* is ρ_t = 1 / Σ W over the =⊥-group of its
quasi-identifiers.  For a combination that is sample-unique the group
is the tuple alone and ρ = 1/W_t — e.g. 1/30 ≈ 0.033 for tuple 15 of
Figure 1 and 1/300 ≈ 0.003 for tuple 7.
"""

from __future__ import annotations

from .base import GroupRiskMeasure, register_measure


@register_measure
class ReidentificationRisk(GroupRiskMeasure):
    """ρ = 1 / λ(σ_q̂ M) with λ = Σ W (Equation 1 instantiated)."""

    name = "reidentification"
    weighted = True

    def __init__(self, minimum_weight: float = 1e-9):
        #: Guard against zero/negative weights producing infinite risk.
        self.minimum_weight = minimum_weight

    def score(self, count, weight_sum):
        return min(1.0, 1.0 / max(weight_sum, self.minimum_weight))

    def describe(self, count, weight_sum):
        return (
            f"group weight sum {weight_sum:.6g} over {count} matching "
            "tuple(s)"
        )

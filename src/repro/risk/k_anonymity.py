"""k-anonymity risk (Algorithm 4).

A tuple is *dangerous* when fewer than ``k`` tuples of the microdata DB
share its quasi-identifier combination under the chosen null semantics
(``R = case F < k then 1 else 0``).  With maybe-match semantics a
suppressed cell lets the tuple join every compatible group, which is
how a single labelled null lifted tuple 1 of Figure 5 from frequency 1
to frequency 5.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import ReproError
from ..model.microdata import MicrodataDB
from ..model.nulls import MAYBE_MATCH, NullSemantics
from .base import GroupRiskMeasure, register_measure


@register_measure
class KAnonymityRisk(GroupRiskMeasure):
    """Thresholded frequency risk: 1 when |group| < k, else 0."""

    name = "k-anonymity"

    def __init__(self, k: int = 2):
        if k < 1:
            raise ReproError(f"k must be positive, got {k}")
        self.k = int(k)

    def score(self, count, weight_sum):
        return 1.0 if count < self.k else 0.0

    def describe(self, count, weight_sum):
        return f"frequency {count} vs k={self.k}" + (
            " (sample unique)" if count == 1 else ""
        )

    def parameters(self):
        return {"k": self.k}

    def frequencies(
        self,
        db: MicrodataDB,
        semantics: NullSemantics = MAYBE_MATCH,
        attributes: Optional[Sequence[str]] = None,
    ):
        """The raw per-row frequencies (the F column of Figure 5)."""
        attributes = self._resolve_attributes(db, attributes)
        return semantics.match_counts(db, attributes)

"""t-closeness risk (extension: sensitive-distribution protection).

Completes the classic privacy-model trio (k-anonymity, l-diversity,
t-closeness — all supported by the ARX comparator the paper cites).
l-diversity counts *distinct* sensitive values; t-closeness bounds how
much a group's sensitive-value *distribution* may deviate from the
file-wide one: a group whose distribution is skewed toward one value
leaks probabilistic information even when l distinct values appear.

A tuple is flagged (risk 1) when the total-variation distance between
its =⊥-group's sensitive distribution and the global distribution
exceeds ``t``.  (The original paper uses Earth Mover's Distance with a
ground metric; for the categorical sensitive attributes of survey
microdata TV — EMD under the discrete metric — is the standard
instantiation.)  Each row's group distribution is read from the same
:class:`GroupIndex` join that serves k-anonymity, under either null
semantics.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence

from ..anonymize.utility import total_variation
from ..errors import ReproError
from ..model.microdata import MicrodataDB
from ..model.nulls import MAYBE_MATCH, GroupIndex, NullSemantics
from .base import RiskMeasure, RiskReport, register_measure


def _distribution(counter: Counter) -> Dict[Any, float]:
    total = sum(counter.values())
    if total == 0:
        return {}
    return {value: count / total for value, count in counter.items()}


def group_closeness(
    db: MicrodataDB,
    sensitive: str,
    attributes: Sequence[str],
    semantics: NullSemantics = MAYBE_MATCH,
) -> List[float]:
    """Per row: TV distance between the sensitive distribution of its
    =⊥-group (a :class:`GroupIndex` value multiset) and the global
    sensitive distribution."""
    index = GroupIndex(db, attributes, nulls_match=semantics.nulls_match)
    column = [row[sensitive] for row in db.rows]
    global_distribution = _distribution(Counter(column))
    return [
        total_variation(_distribution(values), global_distribution)
        for values in index.value_counts(column)
    ]


@register_measure
class TClosenessRisk(RiskMeasure):
    """Risk 1 when the group's sensitive distribution is farther than
    ``t`` (in total variation) from the file-wide distribution."""

    name = "t-closeness"

    def __init__(self, sensitive: str, t: float = 0.3):
        if not 0 < t <= 1:
            raise ReproError(f"t must be in (0, 1], got {t}")
        if not sensitive:
            raise ReproError("a sensitive attribute is required")
        self.sensitive = sensitive
        self.t = float(t)

    def assess(
        self,
        db: MicrodataDB,
        semantics: NullSemantics = MAYBE_MATCH,
        attributes: Optional[Sequence[str]] = None,
    ) -> RiskReport:
        attributes = self._resolve_attributes(db, attributes)
        if self.sensitive not in db.schema.categories:
            raise ReproError(
                f"sensitive attribute {self.sensitive!r} not in schema"
            )
        if self.sensitive in attributes:
            raise ReproError(
                "the sensitive attribute cannot be a quasi-identifier "
                "under evaluation"
            )
        distances = group_closeness(
            db, self.sensitive, attributes, semantics
        )
        scores = [
            1.0 if distance > self.t else 0.0 for distance in distances
        ]
        return RiskReport(
            self.name,
            scores,
            attributes,
            detail=lambda row: (
                f"group-vs-global TV {distances[row]:.4f} vs t={self.t}"
            ),
            parameters={
                "t": self.t,
                "sensitive": self.sensitive,
                "semantics": semantics.name,
            },
        )

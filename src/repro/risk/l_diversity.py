"""l-diversity risk (extension: sensitive-attribute protection).

k-anonymity bounds *re-identification*, but a homogeneous group leaks
its sensitive value even without identifying anyone (the classic
Machanavajjhala et al. critique, implemented by the ARX tool the paper
cites as a comparator).  A tuple is l-diverse-safe when its
=⊥-group over the quasi-identifiers contains at least ``l`` distinct
values of the designated *sensitive* attribute.

In the Vada-SA setting the sensitive attribute is one of the
non-identifying attributes (e.g. ``Growth6mos``: a firm's performance
is confidential even if the firm stays anonymous).  The measure is
registered like any other plug-in and runs in the anonymization cycle;
suppression enlarges groups, which can only add sensitive values, so
the cycle converges under maybe-match semantics like k-anonymity does.
Each row's group values come from the same :class:`GroupIndex` join
that serves k-anonymity, under either null semantics.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import ReproError
from ..model.microdata import MicrodataDB
from ..model.nulls import MAYBE_MATCH, GroupIndex, NullSemantics
from .base import RiskMeasure, RiskReport, register_measure


def sensitive_diversity(
    db: MicrodataDB,
    sensitive: str,
    attributes: Sequence[str],
    semantics: NullSemantics = MAYBE_MATCH,
) -> List[int]:
    """Per row: distinct sensitive values among its =⊥-matching rows,
    read from the :class:`GroupIndex` value multisets."""
    index = GroupIndex(db, attributes, nulls_match=semantics.nulls_match)
    column = [row[sensitive] for row in db.rows]
    return [len(values) for values in index.value_counts(column)]


@register_measure
class LDiversityRisk(RiskMeasure):
    """Risk 1 when the tuple's group has < l distinct sensitive
    values, 0 otherwise."""

    name = "l-diversity"

    def __init__(self, sensitive: str, l: int = 2):  # noqa: E741
        if l < 1:
            raise ReproError(f"l must be positive, got {l}")
        if not sensitive:
            raise ReproError("a sensitive attribute is required")
        self.sensitive = sensitive
        self.l = int(l)

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
        diversities = sensitive_diversity(
            db, self.sensitive, attributes, semantics
        )
        scores = [
            1.0 if diversity < self.l else 0.0
            for diversity in diversities
        ]
        return RiskReport(
            self.name,
            scores,
            attributes,
            detail=lambda row: (
                f"{diversities[row]} distinct {self.sensitive!r} value(s) "
                f"in group vs l={self.l}"
            ),
            parameters={
                "l": self.l,
                "sensitive": self.sensitive,
                "semantics": semantics.name,
            },
        )

"""Statistical-utility metrics (desideratum v).

The anonymization logic must be *statistics preserving*: it should
remove the minimum information needed for confidentiality while keeping
the dataset statistically sound.  The information-loss metrics in
:mod:`repro.anonymize.metrics` count what was removed; this module
measures what *survived* — how close the anonymized dataset's
statistics are to the original's:

* :func:`marginal_distance` — per-quasi-identifier total-variation
  distance between the (weighted) value distributions before and after
  anonymization; suppressed cells contribute an explicit "suppressed"
  mass so hiding values is not free.
* :func:`joint_distance` — the same over full QI combinations.
* :func:`weighted_mean_shift` — relative change of the weighted mean
  of a numeric (non-identifying) attribute: survey estimators like the
  Inflation & Growth average are computed over exactly these.
* :class:`UtilityReport` — one-call bundle of the above.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from ..errors import ReproError
from ..model.microdata import MicrodataDB, is_suppressed

#: Category mass assigned to suppressed cells in distribution metrics.
SUPPRESSED_BUCKET = "<suppressed>"


def _weighted_distribution(
    db: MicrodataDB, attribute: str
) -> Dict[object, float]:
    masses: Dict[object, float] = defaultdict(float)
    total = 0.0
    for index, row in enumerate(db.rows):
        weight = db.weight_of(index)
        value = row[attribute]
        key = SUPPRESSED_BUCKET if is_suppressed(value) else value
        masses[key] += weight
        total += weight
    if total <= 0:
        return {}
    return {key: mass / total for key, mass in masses.items()}


def total_variation(
    before: Dict[object, float], after: Dict[object, float]
) -> float:
    """TV distance between two discrete distributions (0 = identical,
    1 = disjoint).  ``math.fsum`` rounds the sum once, so the distance
    does not depend on the order the keys are visited in."""
    keys = set(before) | set(after)
    return 0.5 * math.fsum(
        abs(before.get(key, 0.0) - after.get(key, 0.0)) for key in keys
    )


def marginal_distance(
    original: MicrodataDB,
    anonymized: MicrodataDB,
    attribute: str,
) -> float:
    """TV distance of one QI's weighted marginal before vs after."""
    return total_variation(
        _weighted_distribution(original, attribute),
        _weighted_distribution(anonymized, attribute),
    )


def joint_distance(
    original: MicrodataDB,
    anonymized: MicrodataDB,
    attributes: Optional[Sequence[str]] = None,
) -> float:
    """TV distance of the full QI-combination distribution."""
    attributes = (
        list(attributes)
        if attributes is not None
        else original.quasi_identifiers
    )

    def distribution(db: MicrodataDB) -> Dict[object, float]:
        masses: Dict[object, float] = defaultdict(float)
        total = 0.0
        for index, row in enumerate(db.rows):
            weight = db.weight_of(index)
            key = tuple(
                SUPPRESSED_BUCKET if is_suppressed(row[a]) else row[a]
                for a in attributes
            )
            masses[key] += weight
            total += weight
        if total <= 0:
            return {}
        return {key: mass / total for key, mass in masses.items()}

    return total_variation(distribution(original), distribution(anonymized))


def weighted_mean_shift(
    original: MicrodataDB,
    anonymized: MicrodataDB,
    attribute: str,
) -> float:
    """Relative |Δ| of the weighted mean of a numeric attribute.

    Anonymization never touches non-identifying attributes, so this is
    0 unless weights or the attribute itself were altered — it guards
    exactly that invariant for downstream estimators.
    """

    def mean(db: MicrodataDB) -> float:
        total_weight = 0.0
        accumulator = 0.0
        for index, row in enumerate(db.rows):
            value = row[attribute]
            if is_suppressed(value) or not isinstance(
                value, (int, float)
            ):
                continue
            weight = db.weight_of(index)
            accumulator += weight * float(value)
            total_weight += weight
        if total_weight <= 0:
            raise ReproError(
                f"attribute {attribute!r} has no numeric values"
            )
        return accumulator / total_weight

    before = mean(original)
    after = mean(anonymized)
    scale = max(abs(before), 1e-12)
    return abs(after - before) / scale


class UtilityReport:
    """Bundle of utility-preservation metrics for one anonymization."""

    def __init__(
        self,
        original: MicrodataDB,
        anonymized: MicrodataDB,
        numeric_attributes: Sequence[str] = (),
    ):
        self.marginals: Dict[str, float] = {
            attribute: marginal_distance(original, anonymized, attribute)
            for attribute in anonymized.quasi_identifiers
        }
        self.joint = joint_distance(original, anonymized)
        self.mean_shifts: Dict[str, float] = {
            attribute: weighted_mean_shift(
                original, anonymized, attribute
            )
            for attribute in numeric_attributes
        }

    @property
    def worst_marginal(self) -> float:
        return max(self.marginals.values()) if self.marginals else 0.0

    def __repr__(self):
        return (
            f"UtilityReport(joint TV={self.joint:.4f}, worst marginal "
            f"TV={self.worst_marginal:.4f})"
        )

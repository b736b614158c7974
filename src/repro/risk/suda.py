"""SUDA — special uniques detection (Algorithm 6).

A *sample unique* is a set of (quasi-identifier, value) pairs matched
by exactly one tuple; a **minimal sample unique** (MSU) is a sample
unique with no sample-unique proper subset.  SUDA scores a tuple by the
size and number of its MSUs: very small MSUs mean very few attribute
values suffice to single the tuple out.

Per Rule 8 of Algorithm 6, the off-the-shelf risk is thresholded:
a tuple is dangerous (risk 1) when it has an MSU of size < k.

The search enumerates attribute subsets in ascending size and prunes
supersets of already-found MSUs — the same preemptive pruning the paper
attributes to the Vadalog "greedy activation of Rule 7", which is why
Fig. 7f shows no combinatorial blow-up.  Each subset S is decided in
one hash pass over the rows:

* the projections onto S of the rows with no null on S are counted
  exactly;
* for every null pattern P on S (the positions where a row holds a
  labelled null), the projections onto S \\ P of the rows with that
  pattern are collected in a set;
* a row is unique on S when it has no null on S, its exact count is 1
  and its projection onto S \\ P lies in none of the pattern sets — a
  row with pattern P maybe-matches exactly the rows that agree with it
  on S \\ P.  A row null on the whole of S lies in the set of the
  empty projection and so matches every row.

Rows that carry a null on S are never recorded on S.  Under maybe-match
a null matches anything, so such a row matches on S exactly the rows it
matches on S minus its null positions, a proper subset already
searched: if the row is unique there, an MSU at or below that subset is
already recorded and S is not minimal.  The one exception is a one-row
table, where the row is unique on every subset, nulls included; its
null flags are dropped so that it counts exactly and gets every
singleton as an MSU.  Under standard semantics a null is a plain value
equal only to itself, so every row goes through the exact counter and
both semantics share the code path.

A SUDA2-style DIS score is also exposed as an extension.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from typing import Dict, FrozenSet, List, Optional, Sequence

from ..errors import ReproError
from ..model.microdata import MicrodataDB, is_suppressed
from ..model.nulls import MAYBE_MATCH, NullSemantics
from .base import RiskMeasure, RiskReport, register_measure


def find_minimal_sample_uniques(
    db: MicrodataDB,
    attributes: Sequence[str],
    max_size: Optional[int] = None,
    semantics: NullSemantics = MAYBE_MATCH,
) -> Dict[int, List[FrozenSet[str]]]:
    """Per-row list of MSUs (as attribute-name frozensets).

    ``max_size`` bounds the subset size inspected (SUDA's usual cap);
    None inspects all sizes up to the number of attributes.
    """
    attributes = list(attributes)
    if max_size is None:
        max_size = len(attributes)
    n = len(db)
    columns = [[row[a] for row in db.rows] for a in attributes]
    # Bit p of a row's mask is set when the row is null on attribute p.
    masks = [0] * n
    if semantics.nulls_match and n > 1:
        for position, column in enumerate(columns):
            for index, value in enumerate(column):
                if is_suppressed(value):
                    masks[index] |= 1 << position
    null_rows = [index for index in range(n) if masks[index]]
    msus: Dict[int, List[FrozenSet[str]]] = {}

    for size in range(1, max_size + 1):
        for positions in itertools.combinations(range(len(attributes)), size):
            subset_set = frozenset(attributes[p] for p in positions)
            projections = list(zip(*(columns[p] for p in positions)))
            subset_mask = sum(1 << p for p in positions)
            nulled = {i for i in null_rows if masks[i] & subset_mask}
            # Projections of the null rows onto their non-null positions,
            # one set per null pattern.
            pattern_sets: Dict[int, set] = defaultdict(set)
            for index in nulled:
                pattern = masks[index] & subset_mask
                pattern_sets[pattern].add(
                    _project(projections[index], positions, pattern)
                )
            counts = Counter(
                key
                for index, key in enumerate(projections)
                if index not in nulled
            )
            for index, key in enumerate(projections):
                if counts[key] != 1 or index in nulled:
                    continue
                if any(
                    _project(key, positions, pattern) in keys
                    for pattern, keys in pattern_sets.items()
                ):
                    continue  # a null row maybe-matches it
                found = msus.setdefault(index, [])
                if any(existing <= subset_set for existing in found):
                    continue  # superset of a known MSU: not minimal
                found.append(subset_set)
    return msus


def _project(key: tuple, positions: Sequence[int], pattern: int) -> tuple:
    """``key`` (a projection onto ``positions``) restricted to the
    positions that are not set in the null ``pattern``."""
    return tuple(
        value
        for value, position in zip(key, positions)
        if not pattern >> position & 1
    )


def suda_dis_scores(
    msus: Dict[int, List[FrozenSet[str]]],
    total_rows: int,
    attribute_count: int,
    dis_fraction: float = 0.1,
) -> List[float]:
    """SUDA2-style DIS scores (extension beyond Algorithm 6).

    Each MSU of size m over q attributes contributes (q − m)! — smaller
    MSUs weigh (factorially) more; scores are normalized over the file
    and scaled by the expected misclassification fraction.
    """
    raw = [0.0] * total_rows
    for index, sets in msus.items():
        raw[index] = float(
            sum(math.factorial(attribute_count - len(s)) for s in sets)
        )
    total = sum(raw)
    if total <= 0:
        return raw
    return [dis_fraction * value / total * total_rows for value in raw]


@register_measure
class SudaRisk(RiskMeasure):
    """Thresholded MSU-size risk: 1 when some MSU has size < k."""

    name = "suda"

    def __init__(self, k: int = 3, max_msu_size: Optional[int] = None):
        if k < 1:
            raise ReproError(f"SUDA threshold k must be positive, got {k}")
        self.k = int(k)
        self.max_msu_size = max_msu_size

    def assess(
        self,
        db: MicrodataDB,
        semantics: NullSemantics = MAYBE_MATCH,
        attributes: Optional[Sequence[str]] = None,
    ) -> RiskReport:
        attributes = self._resolve_attributes(db, attributes)
        max_size = self.max_msu_size
        if max_size is None:
            # Minimal uniques larger than k are never dangerous, so the
            # ascending search may stop at size k (the same preemption
            # that keeps Fig. 7f flat).
            max_size = min(len(attributes), self.k)
        msus = find_minimal_sample_uniques(
            db, attributes, max_size=max_size, semantics=semantics
        )
        scores = []
        details = []
        for index in range(len(db)):
            row_msus = msus.get(index, [])
            dangerous = any(len(s) < self.k for s in row_msus)
            scores.append(1.0 if dangerous else 0.0)
            if row_msus:
                sizes = sorted(len(s) for s in row_msus)
                details.append(
                    f"{len(row_msus)} MSU(s), sizes {sizes}, k={self.k}"
                )
            else:
                details.append(f"no MSU up to size {max_size}")
        return RiskReport(
            self.name,
            scores,
            attributes,
            details=details,
            parameters={
                "k": self.k,
                "max_msu_size": max_size,
                "semantics": semantics.name,
            },
        )

    def minimal_sample_uniques(
        self,
        db: MicrodataDB,
        semantics: NullSemantics = MAYBE_MATCH,
        attributes: Optional[Sequence[str]] = None,
        max_size: Optional[int] = None,
    ) -> Dict[int, List[FrozenSet[str]]]:
        """Expose the raw MSUs (used by tests and the DIS extension)."""
        attributes = self._resolve_attributes(db, attributes)
        return find_minimal_sample_uniques(
            db, attributes, max_size=max_size, semantics=semantics
        )

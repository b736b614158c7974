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
Fig. 7f shows no combinatorial blow-up.  It runs as an integer column
kernel:

* each quasi-identifier column is dictionary-encoded once, so equal
  values (``1``, ``1.0``, ``True``) share a code; under maybe-match
  every labelled null of a column shares one extra code, under
  standard semantics a null is just another value;
* a subset's key column is built from its prefix subset,
  ``key(S) = key(S − last) · card(last) + code(last)``, and is
  re-densified (``np.unique``) only when its span passes ``8n``, so
  keys stay dense and cannot overflow int64;
* one ``np.bincount`` of the key column counts every projection onto
  S; a row is a candidate when its count is 1 and it has no null on S
  (a null code differs from every value code, so null rows never share
  a key with a row that has none);
* for every null pattern P on S (the positions where a row holds a
  labelled null), the pattern rows' keys on S \\ P, a proper subset
  already keyed, mark a boolean table, and a candidate whose key on
  S \\ P is marked maybe-matches one of them and is knocked out; an
  empty S \\ P knocks out every candidate;
* minimality is one bitmap per subset, ``covered(S) = unique(S) |
  ⋁ covered(S \\ {a})``: the MSUs at S are ``unique(S) & ~⋁ covered(S
  \\ {a})``, so only rows not yet covered are candidates at all.

Rows that carry a null on S are never recorded on S.  Under maybe-match
a null matches anything, so such a row matches on S exactly the rows it
matches on S minus its null positions, a proper subset already
searched: if the row is unique there, an MSU at or below that subset is
already recorded and S is not minimal.  The one exception is a one-row
table, where the row is unique on every subset, nulls included; its
null flags are dropped so that it counts exactly and gets every
singleton as an MSU.

A SUDA2-style DIS score is also exposed as an extension.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError
from ..model.microdata import MicrodataDB
from ..model.nulls import MAYBE_MATCH, NullSemantics, null_masks
from .base import RiskMeasure, RiskReport, register_measure


def find_minimal_sample_uniques(
    db: MicrodataDB,
    attributes: Sequence[str],
    max_size: Optional[int] = None,
    semantics: NullSemantics = MAYBE_MATCH,
) -> Dict[int, List[FrozenSet[str]]]:
    """Per-row list of MSUs (as attribute-name frozensets), each row's
    in subset-enumeration order.

    ``max_size`` bounds the subset size inspected (SUDA's usual cap);
    None inspects all sizes up to the number of attributes.
    """
    attributes = list(attributes)
    width = len(attributes)
    top = width if max_size is None else min(max_size, width)
    n = len(db)
    msus: Dict[int, List[FrozenSet[str]]] = {}
    if n == 0 or top < 1:
        return msus
    columns = [[row[a] for row in db.rows] for a in attributes]
    # Bit p of a row's mask is set when the row is null on attribute p.
    masks = None
    bits = tuple(1 << p for p in range(width))
    if semantics.nulls_match and n > 1:
        row_masks = null_masks(zip(*columns), bits)
        if any(row_masks):
            masks = np.array(row_masks)
    encoded = [
        _encode(column, None if masks is None
                else (masks >> p & 1).astype(bool))
        for p, column in enumerate(columns)
    ]
    bound = 8 * n
    # subset -> (key column, span) for the sizes below ``top``: prefixes
    # of larger subsets and the S \ P of their null patterns
    keys: Dict[Tuple[int, ...], Tuple[np.ndarray, int]] = {}
    covered: Dict[Tuple[int, ...], np.ndarray] = {}

    for size in range(1, top + 1):
        below, covered = covered, {}
        for positions in itertools.combinations(range(width), size):
            codes, card = encoded[positions[-1]]
            if size == 1:
                key, span = codes, card
            else:
                prefix, prefix_span = keys[positions[:-1]]
                key = prefix * card + codes
                span = prefix_span * card
                if span > bound:
                    values, key = np.unique(key, return_inverse=True)
                    span = len(values)
            if size < top:
                keys[positions] = key, span
            unique = np.bincount(key)[key] == 1
            # rows with an MSU inside S: those of its maximal proper
            # subsets, then this subset's own
            if size == 1:
                cover = np.zeros(n, dtype=bool)
            else:
                cover = below[positions[1:]] | below[positions[:-1]]
                for drop in range(1, size - 1):
                    cover |= below[positions[:drop] + positions[drop + 1:]]
            if masks is None:
                rows = (unique > cover).nonzero()[0]
            else:
                subset_mask = sum(map(bits.__getitem__, positions))
                row_patterns = masks & subset_mask
                nulled = row_patterns.astype(bool)
                rows = (unique > (cover | nulled)).nonzero()[0]
                if rows.size:
                    rows = _knock_out(
                        rows, row_patterns, subset_mask, positions, keys
                    )
            if rows.size:
                cover[rows] = True
                subset = frozenset(attributes[p] for p in positions)
                for row in rows.tolist():
                    found = msus.get(row)
                    if found is None:
                        msus[row] = [subset]
                    else:
                        found.append(subset)
            if size < top:
                covered[positions] = cover
    return msus


def _encode(
    column: List, nulls: Optional[np.ndarray]
) -> Tuple[np.ndarray, int]:
    """A column's dictionary codes and their count.  Cells flagged in
    ``nulls`` (maybe-match labelled nulls) share the code after the
    values'."""
    index = {value: code for code, value in enumerate(dict.fromkeys(column))}
    codes = np.fromiter(
        map(index.__getitem__, column), dtype=np.int64, count=len(column)
    )
    if nulls is None or not nulls.any():
        return codes, len(index)
    is_null = np.zeros(len(index), dtype=bool)
    is_null[codes[nulls]] = True
    values = len(index) - int(is_null.sum())
    recode = np.cumsum(~is_null) - 1
    recode[is_null] = values
    return recode[codes], values + 1


def _knock_out(
    rows: np.ndarray,
    row_patterns: np.ndarray,
    subset_mask: int,
    positions: Tuple[int, ...],
    keys: Dict[Tuple[int, ...], Tuple[np.ndarray, int]],
) -> np.ndarray:
    """The candidate ``rows`` that no row with a null on the subset
    maybe-matches.  A row with null pattern P matches a candidate when
    the two agree on S \\ P."""
    nulled = row_patterns.nonzero()[0]
    by_pattern = row_patterns[nulled]
    patterns = set(by_pattern.tolist())
    if subset_mask in patterns:
        return rows[:0]  # a row null on all of S matches every row
    for pattern in patterns:
        key, span = keys[
            tuple(p for p in positions if not pattern >> p & 1)
        ]
        table = np.zeros(span, dtype=bool)
        table[key[nulled[by_pattern == pattern]]] = True
        rows = rows[~table[key[rows]]]
        if not rows.size:
            break
    return rows


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
        # Each row's sorted MSU sizes, one shared tuple per pattern, so
        # the report's detail does not keep the MSU map alive.
        k = self.k
        scores = [0.0] * len(db)
        sizes: List[Tuple[int, ...]] = [()] * len(db)
        shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        for index, row_msus in msus.items():
            row_sizes = tuple(sorted(map(len, row_msus)))
            sizes[index] = row_sizes = shared.setdefault(row_sizes, row_sizes)
            scores[index] = 1.0 if row_sizes[0] < k else 0.0

        def detail(row: int) -> str:
            row_sizes = sizes[row]
            if row_sizes:
                return (
                    f"{len(row_sizes)} MSU(s), sizes {list(row_sizes)}, "
                    f"k={k}"
                )
            return f"no MSU up to size {max_size}"

        return RiskReport(
            self.name,
            scores,
            attributes,
            detail=detail,
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

"""Labelled-null match semantics and group formation.

Section 4.3: once local suppression injects labelled nulls into
quasi-identifier cells, a semantics must define when two QI tuples fall
into the same aggregation group.

* **Maybe-match** (the paper's choice, after Ciglic et al.):
  ``q =⊥ q'`` holds when the values are equal constants **or at least
  one side is a labelled null**.  A null-carrying tuple therefore joins
  *multiple* groups — groups stop partitioning the dataset — which is
  what makes a single suppression raise the frequency of every tuple it
  may match (Figure 5).
* **Standard** (Skolem-chase) semantics: a labelled null equals only
  itself.  Each suppression creates a brand-new value, so suppressed
  tuples never merge and nulls proliferate (the red curves of Fig. 7c).

Both semantics expose the same interface: per-row *match frequency*
(how many rows =⊥-match this row on the chosen QIs, including itself)
and *matched weight sums* (the Σ W over matching rows used by
re-identification risk).  The maybe-match computation projects each row
once onto the chosen QIs and gives it an integer null bitmask (bit j
set when position j holds a labelled null), partitioning the rows by
mask.  Two rows =⊥-match exactly when they agree on ``common = full &
~(q | d)``, the positions non-null in both masks, so every (query mask,
data mask) pair is one hash join on ``common``.  The data-side index is
keyed by ``(data mask, common)`` and, like the getter for each
``common``, is built once per call and reused by every query mask that
meets it.  The work stays near-linear while masks are few — which holds
during anonymization, where suppression introduces nulls sparsely.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import compress, repeat
from operator import add, itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..vadalog.terms import LabelledNull
from .microdata import MicrodataDB, is_suppressed


def _row_projector(attributes: Sequence[str]) -> Callable[[Dict], Tuple]:
    """A getter projecting a row onto ``attributes`` as a tuple (a
    single-attribute ``itemgetter`` would return a bare value)."""
    if len(attributes) == 1:
        (attribute,) = attributes
        return lambda row: (row[attribute],)
    return itemgetter(*attributes)


def _mask_bits(width: int) -> Tuple[int, ...]:
    """The bit of each of ``width`` projected positions."""
    return tuple(1 << position for position in range(width))


def _null_mask(projection: Tuple, bits: Tuple[int, ...]) -> int:
    """The projection's null bitmask: bit j set when position j holds a
    labelled null (one ``isinstance`` test per cell)."""
    nulls = map(isinstance, projection, repeat(LabelledNull))
    return sum(compress(bits, nulls))


def _common_getter(common: int, width: int) -> Callable[[Tuple], Any]:
    """A getter for the positions set in ``common`` of a projection.
    Two rows =⊥-match exactly when it returns equal keys for both, with
    ``common`` their positions non-null on both sides."""
    if not common:
        return lambda projection: ()
    return itemgetter(*(p for p in range(width) if common >> p & 1))


class NullSemantics:
    """Interface for =⊥ group formation over quasi-identifiers."""

    name = "abstract"

    def match_counts(
        self,
        db: MicrodataDB,
        attributes: Optional[Sequence[str]] = None,
    ) -> List[int]:
        """For each row, the number of rows (including itself) whose QI
        tuple =⊥-matches it."""
        return self.match_aggregate(db, attributes, values=None)[0]

    def match_weight_sums(
        self,
        db: MicrodataDB,
        attributes: Optional[Sequence[str]] = None,
    ) -> List[float]:
        """For each row, Σ weight over =⊥-matching rows."""
        return self.match_aggregate(db, attributes, values=db.weights())[1]

    def match_aggregate(
        self,
        db: MicrodataDB,
        attributes: Optional[Sequence[str]],
        values: Optional[List[float]],
    ) -> Tuple[List[int], List[float]]:
        """Compute counts and (optionally) value sums in one pass."""
        raise NotImplementedError

    def matches_combination(
        self, row: Dict[str, Any], combination: Sequence[Tuple[str, Any]]
    ) -> bool:
        """Does the row =⊥-match a partial combination of (attribute,
        value) pairs?  Used by SUDA's sample-unique detection."""
        raise NotImplementedError


class StandardSemantics(NullSemantics):
    """Skolem semantics: ⊥i = ⊥j iff i = j.  Exact dictionary grouping
    works because labelled nulls are hashable, distinct values."""

    name = "standard"

    def match_aggregate(self, db, attributes, values):
        attributes = (
            list(attributes)
            if attributes is not None
            else db.quasi_identifiers
        )
        groups: Dict[Tuple, List[int]] = defaultdict(list)
        for index in range(len(db)):
            groups[db.qi_values(index, attributes)].append(index)
        counts = [0] * len(db)
        sums = [0.0] * len(db)
        for members in groups.values():
            total = len(members)
            weight_sum = (
                sum(values[i] for i in members) if values is not None else 0.0
            )
            for index in members:
                counts[index] = total
                sums[index] = weight_sum
        return counts, sums

    def matches_combination(self, row, combination):
        return all(row[attribute] == value for attribute, value in combination)


class MaybeMatchSemantics(NullSemantics):
    """The paper's =⊥: a labelled null matches anything."""

    name = "maybe-match"

    def match_aggregate(self, db, attributes, values):
        attributes = (
            list(attributes)
            if attributes is not None
            else db.quasi_identifiers
        )
        n = len(db)
        counts = [0] * n
        sums = [0.0] * n
        if not attributes or n == 0:
            # Zero QIs: every row matches every row.
            total_value = sum(values) if values is not None else 0.0
            return [n] * n, [total_value] * n

        width = len(attributes)
        projections = list(map(_row_projector(attributes), db.rows))
        bits = _mask_bits(width)
        patterns: Dict[int, List[int]] = defaultdict(list)
        for index, projection in enumerate(projections):
            patterns[_null_mask(projection, bits)].append(index)
        members = {
            mask: [projections[i] for i in rows]
            for mask, rows in patterns.items()
        }

        full = (1 << width) - 1
        getters: Dict[int, Callable] = {}
        # (mask, common) -> the mask's rows projected onto common: the
        # join keys of both the query and the data side
        keys: Dict[Tuple[int, int], List] = {}
        # (data mask, common) -> (count by key, value sum by key)
        indexes: Dict[Tuple[int, int], Tuple[Dict, Optional[Dict]]] = {}

        def keys_of(mask: int, common: int) -> List:
            found = keys.get((mask, common))
            if found is None:
                getter = getters.get(common)
                if getter is None:
                    getter = getters[common] = _common_getter(common, width)
                found = keys[(mask, common)] = list(
                    map(getter, members[mask])
                )
            return found

        # For every ordered pattern pair (query mask, data mask), count
        # for each query row how many data rows agree on the positions
        # that are non-null on *both* sides; all others maybe-match.
        for query_mask, query_rows in patterns.items():
            row_counts = [0] * len(query_rows)
            row_sums = [0.0] * len(query_rows)
            for data_mask, data_rows in patterns.items():
                common = full & ~(query_mask | data_mask)
                index = indexes.get((data_mask, common))
                if index is None:
                    data_keys = keys_of(data_mask, common)
                    if values is None:
                        index = (Counter(data_keys), None)
                    else:
                        grouped: Dict[Any, List[float]] = defaultdict(list)
                        for key, data_index in zip(data_keys, data_rows):
                            grouped[key].append(values[data_index])
                        index = (
                            {k: len(v) for k, v in grouped.items()},
                            {k: sum(v) for k, v in grouped.items()},
                        )
                    indexes[(data_mask, common)] = index
                query_keys = keys_of(query_mask, common)
                count_index, sum_index = index
                row_counts = list(map(
                    add, row_counts,
                    map(count_index.get, query_keys, repeat(0)),
                ))
                if sum_index is not None:
                    row_sums = list(map(
                        add, row_sums,
                        map(sum_index.get, query_keys, repeat(0.0)),
                    ))
            for query_index, count, value_sum in zip(
                query_rows, row_counts, row_sums
            ):
                counts[query_index] = count
                sums[query_index] = value_sum
        return counts, sums

    def matches_combination(self, row, combination):
        for attribute, value in combination:
            cell = row[attribute]
            if is_suppressed(cell) or is_suppressed(value):
                continue
            if cell != value:
                return False
        return True


#: Default semantics used by the framework (the paper's choice).
MAYBE_MATCH = MaybeMatchSemantics()
STANDARD = StandardSemantics()


def semantics_by_name(name: str) -> NullSemantics:
    """Look up a semantics by its name (``maybe-match``/``standard``)."""
    table = {
        MAYBE_MATCH.name: MAYBE_MATCH,
        STANDARD.name: STANDARD,
    }
    try:
        return table[name]
    except KeyError:
        raise ValueError(
            f"unknown null semantics {name!r}; expected one of "
            f"{sorted(table)}"
        ) from None

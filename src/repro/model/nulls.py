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
re-identification risk).  Both are served by one :class:`GroupIndex`.
It projects each row once onto the chosen QIs and gives it an integer
null bitmask (bit j set when position j holds a labelled null; always 0
under standard semantics, where a null is just another value), grouping
the rows by mask.  Two rows =⊥-match exactly when they agree on
``common = full & ~(q | d)``, the positions non-null in both masks, so
a row's count is one hash probe per live data mask into the count and
weight sum by key of ``(data mask, common)``, a group built on first use.
A leave-one-out count is the same probe with the dropped position's bit
OR-ed into the query mask.  :meth:`GroupIndex.update` re-projects one
edited row and adjusts only the groups already built for its old and
new mask, so the anonymization cycle keeps one index for a whole run
(the contributor-based reading of the paper's monotonic aggregation).
:meth:`GroupIndex.aggregate` answers every row at once, one hash join
per (query mask, data mask) pair; :meth:`GroupIndex.counts` reads the
counts only, which is how the cycle's k-anonymity assessments read the
live run index (its groups already built, only the query keys are
projected).  The same join serves
:meth:`GroupIndex.value_counts`, each row's multiset of another column
over its matching rows (the sensitive values of l-diversity and
t-closeness), and :meth:`GroupIndex.probe` answers a row that is not in
the index (a row of another release, for composition attacks).  The
work stays near-linear while masks are few — which holds during
anonymization, where suppression introduces nulls sparsely.
:func:`null_masks` tests each column for a labelled null before any
per-row work, so a null-free table (every row's mask 0) costs one
``isinstance`` scan per column.

:meth:`NullSemantics.matches_combination` is the row-by-row definition
of =⊥; the index is tested against it.  The engine path's ``#risk``
external keeps one index per microDB as well.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, repeat
from operator import add, itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..vadalog.terms import LabelledNull
from .microdata import MicrodataDB, is_suppressed


def _row_projector(attributes: Sequence[str]) -> Callable[[Dict], Tuple]:
    """A getter projecting a row onto ``attributes`` as a tuple (a
    single-attribute ``itemgetter`` would return a bare value)."""
    if not attributes:
        return lambda row: ()
    if len(attributes) == 1:
        (attribute,) = attributes
        return lambda row: (row[attribute],)
    return itemgetter(*attributes)


def null_masks(
    projections: Iterable[Tuple], bits: Tuple[int, ...]
) -> List[int]:
    """Each projection's null bitmask: bit j set when position j holds
    a labelled null.  Each column is first tested for any null, so
    per-row work is done only for the columns that hold one; a
    null-free input costs one ``isinstance`` scan per column."""
    projections = list(projections)
    masks = [0] * len(projections)
    nulls = repeat(LabelledNull)
    for bit, column in zip(bits, zip(*projections)):
        if any(map(isinstance, column, nulls)):
            masks = [
                mask | bit if isinstance(value, LabelledNull) else mask
                for mask, value in zip(masks, column)
            ]
    return masks


def _common_getter(common: int, width: int) -> Callable[[Tuple], Any]:
    """A getter for the positions set in ``common`` of a projection.
    Two rows =⊥-match exactly when it returns equal keys for both, with
    ``common`` their positions non-null on both sides.  When
    ``common`` covers every position the key is the projection itself."""
    if common == (1 << width) - 1:
        return lambda projection: projection
    if not common:
        return lambda projection: ()
    return itemgetter(*(p for p in range(width) if common >> p & 1))


#: (count by key, value sum by key or None) of one (data mask, common)
Group = Tuple[Dict[Any, int], Optional[Dict[Any, float]]]


class GroupIndex:
    """=⊥-group statistics of a DB's rows on ``attributes``, kept
    current under single-row edits.

    ``values`` (one per row, e.g. the sampling weights) are summed over
    matching rows; with ``values=None`` only counts are kept.  With
    ``nulls_match=False`` every mask is 0 and the index is plain hash
    grouping (standard semantics).  The index reads ``db.rows`` when
    built and in :meth:`update`; callers report each edited row.
    """

    def __init__(
        self,
        db: MicrodataDB,
        attributes: Optional[Sequence[str]] = None,
        values: Optional[Sequence[float]] = None,
        nulls_match: bool = True,
    ):
        self.db = db
        self.attributes = (
            list(attributes) if attributes is not None
            else db.quasi_identifiers
        )
        self.values = values
        width = len(self.attributes)
        self._width = width
        self._full = (1 << width) - 1
        self._bits = tuple(1 << position for position in range(width))
        self._bit_of = dict(zip(self.attributes, self._bits))
        self.nulls_match = nulls_match
        self._project = _row_projector(self.attributes)
        self._projections: List[Tuple] = list(map(self._project, db.rows))
        if nulls_match:
            self._masks = null_masks(self._projections, self._bits)
        else:
            self._masks = [0] * len(self._projections)
        #: mask -> its rows, in insertion order (a dict as ordered set)
        self._members: Dict[int, Dict[int, None]] = {}
        for row, mask in enumerate(self._masks):
            members = self._members.get(mask)
            if members is None:
                members = self._members[mask] = {}
            members[row] = None
        #: data mask -> common -> group, built on first use
        self._groups: Dict[int, Dict[int, Group]] = {}
        self._getters: Dict[int, Callable[[Tuple], Any]] = {}

    def _getter(self, common: int) -> Callable[[Tuple], Any]:
        getter = self._getters.get(common)
        if getter is None:
            getter = self._getters[common] = _common_getter(
                common, self._width
            )
        return getter

    def _keys(self, rows: Iterable[int], common: int) -> List:
        """The rows' join keys on ``common``."""
        rows_projections = map(self._projections.__getitem__, rows)
        if common == self._full:
            return list(rows_projections)
        return list(map(self._getter(common), rows_projections))

    def _group(
        self, data_mask: int, common: int, keys: Optional[List] = None
    ) -> Group:
        """The (data mask, common) group, built from the mask's rows
        (whose join keys are ``keys``, when known) on first use."""
        built = self._groups.get(data_mask)
        if built is None:
            built = self._groups[data_mask] = {}
        group = built.get(common)
        if group is not None:
            return group
        members = self._members[data_mask]
        if keys is None:
            keys = self._keys(members, common)
        values = self.values
        if values is None:
            group = (Counter(keys), None)
        else:
            counts: Dict[Any, int] = {}
            sums: Dict[Any, float] = {}
            for key, row in zip(keys, members):
                counts[key] = counts.get(key, 0) + 1
                sums[key] = sums.get(key, 0) + values[row]
            group = (counts, sums)
        built[common] = group
        return group

    def _mask(self, projection: Tuple) -> int:
        """A projection's null bitmask (always 0 under standard
        semantics)."""
        if not self.nulls_match:
            return 0
        return sum(compress(
            self._bits, map(isinstance, projection, repeat(LabelledNull))
        ))

    def lookup(self, row: int) -> Tuple[int, float]:
        """(=⊥-match count, matched value sum) of one row at the
        current state."""
        return self._probe(self._projections[row], self._masks[row])

    def probe(self, row: Dict[str, Any]) -> Tuple[int, float]:
        """(=⊥-match count, matched value sum) of a row that is not in
        the index, e.g. a row of another release."""
        projection = self._project(row)
        return self._probe(projection, self._mask(projection))

    def _probe(self, projection: Tuple, query: int) -> Tuple[int, float]:
        full = self._full
        count = 0
        total = 0.0
        for data_mask in self._members:
            common = full & ~(query | data_mask)
            counts, sums = self._group(data_mask, common)
            key = self._getter(common)(projection)
            count += counts.get(key, 0)
            if sums is not None:
                total += sums.get(key, 0.0)
        return count, total

    def update(self, row: int) -> None:
        """Re-project a row after an edit: move it from its old mask's
        built groups to its new mask's."""
        old_mask = self._masks[row]
        old_projection = self._projections[row]
        value = self.values[row] if self.values is not None else 0
        for common, (counts, sums) in self._groups.get(old_mask, {}).items():
            key = self._getter(common)(old_projection)
            left = counts[key] - 1
            if left:
                counts[key] = left
                if sums is not None:
                    sums[key] -= value
            else:
                del counts[key]
                if sums is not None:
                    del sums[key]
        members = self._members[old_mask]
        del members[row]
        if not members:
            del self._members[old_mask]
            self._groups.pop(old_mask, None)

        projection = self._project(self.db.rows[row])
        mask = self._mask(projection)
        self._projections[row] = projection
        self._masks[row] = mask
        members = self._members.get(mask)
        if members is None:
            members = self._members[mask] = {}
        members[row] = None
        for common, (counts, sums) in self._groups.get(mask, {}).items():
            key = self._getter(common)(projection)
            counts[key] = counts.get(key, 0) + 1
            if sums is not None:
                sums[key] = sums.get(key, 0) + value

    def counts_without(
        self, attribute: str, rows: Iterable[int]
    ) -> Dict[int, int]:
        """Each row's =⊥-match count at the current state over every
        attribute but ``attribute`` (a leave-one-out count)."""
        drop = self._bit_of[attribute]
        queries: Dict[int, List[int]] = {}
        for row in rows:
            queries.setdefault(self._masks[row] | drop, []).append(row)
        counts: Dict[int, int] = {}
        for query_rows, row_counts, _ in self._join(queries, sums=False):
            counts.update(zip(query_rows, row_counts))
        return counts

    def counts(self) -> List[int]:
        """Every row's =⊥-match count at the current state; the value
        sums are not read."""
        counts = [0] * len(self._masks)
        for rows, row_counts, _ in self._join(self._members, sums=False):
            list(map(counts.__setitem__, rows, row_counts))
        return counts

    def aggregate(self) -> Tuple[List[int], List[float]]:
        """Every row's (count, value sum) at once."""
        n = len(self._masks)
        counts = [0] * n
        sums = [0.0] * n
        for rows, row_counts, row_sums in self._join(
            self._members, sums=self.values is not None
        ):
            for row, count, value_sum in zip(rows, row_counts, row_sums):
                counts[row] = count
                sums[row] = value_sum
        return counts, sums

    def value_counts(self, column: Sequence[Any]) -> List[Counter]:
        """Each row's Counter of ``column`` (one value per row) over its
        =⊥-matching rows: for every (query mask, data mask) pair, the
        data rows' values counted by key on ``common`` are added to the
        query rows with that key."""
        full = self._full
        counters: List[Counter] = [Counter() for _ in self._masks]
        for query_mask, query_rows in self._members.items():
            for data_mask, data_rows in self._members.items():
                common = full & ~(query_mask | data_mask)
                by_key: Dict[Any, Counter] = {}
                for key, row in zip(self._keys(data_rows, common), data_rows):
                    values = by_key.get(key)
                    if values is None:
                        values = by_key[key] = Counter()
                    values[column[row]] += 1
                for key, row in zip(
                    self._keys(query_rows, common), query_rows
                ):
                    values = by_key.get(key)
                    if values is not None:
                        counters[row].update(values)
        return counters

    def _join(
        self, queries: Dict[int, Iterable[int]], sums: bool
    ) -> Iterator[Tuple[Iterable[int], List[int], List[float]]]:
        """For each query mask's rows, their counts (and value sums):
        for every (query mask, data mask) pair the rows' keys on
        ``common`` probe the data mask's group in one ``map``.  When
        the queries are the index's own masks, each mask's keys on a
        ``common`` are projected once and serve both sides; a group
        already built (a live index's) needs no data-side keys."""
        full = self._full
        shared = queries is self._members
        groups = self._groups
        # (query mask, common) -> the query rows' keys
        keys: Dict[Tuple[int, int], List] = {}

        def keys_of(mask: int, common: int) -> List:
            found = keys.get((mask, common))
            if found is None:
                found = keys[(mask, common)] = self._keys(
                    queries[mask], common
                )
            return found

        for query_mask, query_rows in queries.items():
            row_counts = [0] * len(query_rows)
            row_sums = [0.0] * len(query_rows)
            for data_mask in self._members:
                common = full & ~(query_mask | data_mask)
                data_keys = None
                if shared and common not in groups.get(data_mask, ()):
                    data_keys = keys_of(data_mask, common)
                count_index, sum_index = self._group(
                    data_mask, common, data_keys
                )
                query_keys = keys_of(query_mask, common)
                row_counts = list(map(
                    add, row_counts,
                    map(count_index.get, query_keys, repeat(0)),
                ))
                if sums:
                    row_sums = list(map(
                        add, row_sums,
                        map(sum_index.get, query_keys, repeat(0.0)),
                    ))
            yield query_rows, row_counts, row_sums


class NullSemantics:
    """Interface for =⊥ group formation over quasi-identifiers."""

    name = "abstract"
    #: does a labelled null match every value (else only itself)?
    nulls_match = True

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
        return GroupIndex(db, attributes, values, self.nulls_match).aggregate()

    def matches_combination(
        self, row: Dict[str, Any], combination: Sequence[Tuple[str, Any]]
    ) -> bool:
        """Does the row =⊥-match a partial combination of (attribute,
        value) pairs?  The definition the grouping is tested against."""
        raise NotImplementedError


class StandardSemantics(NullSemantics):
    """Skolem semantics: ⊥i = ⊥j iff i = j.  Exact dictionary grouping
    works because labelled nulls are hashable, distinct values."""

    name = "standard"
    nulls_match = False

    def matches_combination(self, row, combination):
        return all(row[attribute] == value for attribute, value in combination)


class MaybeMatchSemantics(NullSemantics):
    """The paper's =⊥: a labelled null matches anything."""

    name = "maybe-match"

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

"""External-predicate implementations backing the shipped programs.

The paper's ``#risk`` and ``#anonymize`` are "atoms defined in external
libraries"; this module provides those libraries for the engine path:

* ``#similar(A, A1)`` — the pluggable attribute-name similarity of
  Algorithm 1 Rule 2;
* ``#risk(I, R)`` / ``#anonymize(M, I)`` / ``#suppress(M, I, A)`` /
  ``#recode(M, I, A, Z)`` — the cycle plug-ins, sharing a
  :class:`CycleState` that tracks the current (most anonymized) version
  of every tuple, mirroring the monotonic-aggregation contributor
  semantics that lets anonymized tuples supersede their originals.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..categorize.similarity import SimilarityFunction, combined
from ..errors import EvaluationError
from ..model.nulls import GroupIndex, semantics_by_name
from ..vadalog.externals import ExternalRegistry
from ..vadalog.terms import LabelledNull, unwrap


def similar_external(
    similarity: SimilarityFunction = combined, threshold: float = 0.55
):
    """Boolean external: names are ∼-similar above the threshold."""

    def impl(context, a, b):
        if a is not None and b is not None and similarity(a, b) >= threshold:
            yield (a, b)

    return impl


class CycleState:
    """Current VSet per (microDB, tuple id) for the engine-path cycle.

    Initialized lazily from the store's ``tuple`` facts; every
    suppression or recoding updates the entry and asserts the new
    ``tuple`` fact so downstream rules see it.  ``#risk`` reads one
    :class:`~repro.model.nulls.GroupIndex` per microDB over its anonSet
    names (every name of its VSets when it declares none), kept current
    with :meth:`GroupIndex.update` as the native cycle does, so a call
    is one index lookup instead of a pass over every tuple.  Every
    tuple of a microDB carries the same names (``TUPLE_BUILD`` builds
    them from one schema).
    """

    def __init__(
        self,
        k: int = 2,
        threshold: float = 0.5,
        semantics: str = "standard",
    ):
        try:
            self.semantics = semantics_by_name(semantics)
        except ValueError as error:
            raise EvaluationError(str(error)) from None
        self.k = k
        self.threshold = threshold
        self._current: Dict[Tuple, FrozenSet] = {}
        #: microDB -> =⊥ grouping of its VSets (as name -> value rows)
        #: on the compared names
        self._indices: Dict[object, GroupIndex] = {}
        #: (microDB, tuple id) -> the tuple's row in its microDB
        self._row_of: Dict[Tuple, int] = {}
        #: tuple id -> the first microDB carrying it
        self._db_of: Dict[object, object] = {}
        # microDB -> quasi-identifier name set (from anonSet facts);
        # grouping and suppression are restricted to these names so the
        # sampling-weight pair carried in VSet never drives matching.
        self._anon_sets: Dict[object, FrozenSet[str]] = {}
        self._loaded = False

    # -- store synchronisation -------------------------------------------

    def _load(self, context) -> None:
        if self._loaded:
            return
        for fact in context.store.facts("anonSet"):
            self._anon_sets[unwrap(fact.terms[0])] = frozenset(
                unwrap(fact.terms[1])
            )
        for fact in context.store.facts("tuple"):
            key = (unwrap(fact.terms[0]), unwrap(fact.terms[1]))
            vset = unwrap(fact.terms[2])
            existing = self._current.get(key)
            if existing is None or _null_count(vset) > _null_count(existing):
                self._current[key] = vset
        rows_of: Dict[object, List[Dict]] = {}
        names: Dict[object, List[str]] = {}
        for (micro_db, tuple_id), vset in self._current.items():
            rows = rows_of.setdefault(micro_db, [])
            self._row_of[(micro_db, tuple_id)] = len(rows)
            rows.append(dict(vset))
            self._db_of.setdefault(tuple_id, micro_db)
            if micro_db not in names:
                names[micro_db] = sorted(
                    name for name, _ in self._project(micro_db, vset)
                )
        for micro_db, rows in rows_of.items():
            # GroupIndex reads only ``rows`` of the DB it indexes.
            self._indices[micro_db] = GroupIndex(
                SimpleNamespace(rows=rows), names[micro_db],
                nulls_match=self.semantics.nulls_match,
            )
        self._loaded = True

    def _project(self, micro_db, vset) -> FrozenSet:
        """Restrict a VSet to the microDB's anonSet (when declared)."""
        names = self._anon_sets.get(micro_db)
        if names is None:
            return vset
        return frozenset(
            (name, value) for name, value in vset if name in names
        )

    def current(self, context, micro_db, tuple_id) -> Optional[FrozenSet]:
        self._load(context)
        return self._current.get((micro_db, tuple_id))

    def replace(self, context, micro_db, tuple_id, vset) -> None:
        self._load(context)
        self._current[(micro_db, tuple_id)] = vset
        row = self._row_of[(micro_db, tuple_id)]
        index = self._indices[micro_db]
        index.db.rows[row] = dict(vset)
        index.update(row)
        context.assert_fact("tuple", micro_db, tuple_id, vset)

    # -- risk (k-anonymity under the state's null semantics) --------------

    def risk_of(self, context, tuple_id) -> float:
        """1.0 when fewer than k tuples of the first microDB carrying
        ``tuple_id`` =⊥-match its current version, else 0.0."""
        self._load(context)
        micro_db = self._db_of.get(tuple_id)
        if micro_db is None:
            raise EvaluationError(f"#risk: unknown tuple id {tuple_id!r}")
        frequency, _ = self._indices[micro_db].lookup(
            self._row_of[(micro_db, tuple_id)]
        )
        return 1.0 if frequency < self.k else 0.0

    # -- anonymization ------------------------------------------------------

    def suppress(
        self, context, micro_db, tuple_id, attribute: Optional[str] = None
    ) -> Optional[str]:
        """Replace one (given or first non-null) QI value with a fresh
        labelled null; returns the suppressed attribute or None."""
        vset = self.current(context, micro_db, tuple_id)
        if vset is None:
            return None
        names = self._anon_sets.get(micro_db)
        candidates = sorted(
            name
            for name, value in vset
            if not isinstance(value, LabelledNull)
            and (attribute is None or name == attribute)
            and (names is None or name in names)
        )
        if not candidates:
            return None
        chosen = candidates[0]
        new_vset = frozenset(
            (name, context.fresh_null() if name == chosen else value)
            for name, value in vset
        )
        self.replace(context, micro_db, tuple_id, new_vset)
        return chosen

    def recode(self, context, micro_db, tuple_id, attribute, new_value):
        vset = self.current(context, micro_db, tuple_id)
        if vset is None:
            return False
        new_vset = frozenset(
            (name, new_value if name == attribute else value)
            for name, value in vset
        )
        if new_vset == vset:
            return False
        self.replace(context, micro_db, tuple_id, new_vset)
        return True


def _null_count(vset) -> int:
    return sum(1 for _, value in vset if isinstance(value, LabelledNull))


def cycle_registry(
    k: int = 2,
    threshold: float = 0.5,
    similarity: SimilarityFunction = combined,
    similarity_threshold: float = 0.55,
    semantics: str = "standard",
) -> Tuple[ExternalRegistry, CycleState]:
    """A registry with every external the shipped programs use, plus
    the shared cycle state (exposed so callers can read the final
    anonymized tuples)."""
    state = CycleState(k=k, threshold=threshold, semantics=semantics)
    registry = ExternalRegistry()
    registry.register(
        "similar", similar_external(similarity, similarity_threshold)
    )

    def risk_impl(context, tuple_id, risk_value):
        computed = state.risk_of(context, tuple_id)
        if risk_value is None or risk_value == computed:
            yield (tuple_id, computed)

    def anonymize_impl(context, micro_db, tuple_id):
        # Only act if the current version is still risky (several rule
        # bindings may mention stale versions of the same tuple).
        if state.risk_of(context, tuple_id) <= state.threshold:
            return
        if state.suppress(context, micro_db, tuple_id) is not None:
            yield (micro_db, tuple_id)

    def suppress_impl(context, micro_db, tuple_id, attribute):
        chosen = state.suppress(context, micro_db, tuple_id, attribute)
        if chosen is not None:
            yield (micro_db, tuple_id, chosen)

    def recode_impl(context, micro_db, tuple_id, attribute, new_value):
        if state.recode(context, micro_db, tuple_id, attribute, new_value):
            yield (micro_db, tuple_id, attribute, new_value)

    registry.register("risk", risk_impl)
    registry.register("anonymize", anonymize_impl)
    registry.register("suppress", suppress_impl)
    registry.register("recode", recode_impl)
    return registry, state

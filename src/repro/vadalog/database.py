"""Fact storage with hash indices for semi-naive evaluation.

The :class:`FactStore` keeps one
:class:`~repro.vadalog.columnar.ColumnarRelation` per predicate,
created with the predicate's first fact.  Each relation holds

* the set of all facts (for duplicate elimination and homomorphism
  checks),
* dictionary-encoded code columns with lazily built group indices —
  hash maps from a tuple of positions to the rows carrying a given term
  tuple there — so a compiled plan step with ``k`` bound positions
  does one hash probe,
* a *delta* set of facts added since the last
  :meth:`FactStore.advance_delta`, which drives semi-naive rule firing.
  Delta-scoped index *views* are built lazily per frontier so
  ``delta_only`` probes never re-check membership fact by fact.

Aggregate predicates are additionally *functional*: the chase may
replace a previously derived aggregate fact for a group with an updated
one (monotonic-aggregation semantics, Section 4.3), which is supported
through :meth:`retract`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Optional, Set, Tuple

from ..telemetry import state as _telemetry
from .atoms import Fact
from .columnar import ColumnarRelation
from .terms import Term


class FactStore:
    """A database instance: a set of facts with join indices."""

    def __init__(self, facts: Iterable[Fact] = ()):
        self._relations: Dict[str, ColumnarRelation] = {}
        for fact in facts:
            self.add(fact)

    # -- mutation ---------------------------------------------------------

    def add(self, fact: Fact) -> bool:
        """Insert a fact; returns True when it is new."""
        if not fact.is_ground:
            raise ValueError(f"cannot store non-ground atom {fact}")
        relation = self._relations.get(fact.predicate)
        if relation is None:
            relation = ColumnarRelation(len(fact.terms))
            self._relations[fact.predicate] = relation
        added = relation.add(fact)
        if _telemetry.enabled:
            _telemetry.registry.counter(
                "store.adds" if added else "store.dedup_hits"
            ).inc()
        return added

    def add_all(self, facts: Iterable[Fact]) -> int:
        """Insert many facts; returns how many were new."""
        return sum(1 for fact in facts if self.add(fact))

    def retract(self, fact: Fact) -> bool:
        """Remove a fact (used only for functional aggregate updates)."""
        relation = self._relations.get(fact.predicate)
        if relation is None:
            return False
        removed = relation.remove(fact)
        if removed and _telemetry.enabled:
            _telemetry.registry.counter("store.retracts").inc()
        return removed

    # -- lookup -----------------------------------------------------------

    def predicates(self) -> Iterator[str]:
        return iter(self._relations)

    def facts(self, predicate: Optional[str] = None) -> Iterator[Fact]:
        if predicate is not None:
            relation = self._relations.get(predicate)
            return relation.iter_facts() if relation else iter(())
        return (
            fact
            for relation in self._relations.values()
            for fact in relation.iter_facts()
        )

    def count(self, predicate: Optional[str] = None) -> int:
        if predicate is not None:
            relation = self._relations.get(predicate)
            return relation.fact_count() if relation else 0
        return sum(r.fact_count() for r in self._relations.values())

    def contains(self, fact: Fact) -> bool:
        relation = self._relations.get(fact.predicate)
        return relation is not None and relation.contains_fact(fact)

    def lookup(
        self,
        predicate: str,
        bound: Dict[int, Term],
        delta_only: bool = False,
    ) -> Iterator[Fact]:
        """Iterate over facts of ``predicate`` matching the given
        position->term constraints with one exact (composite) hash
        probe; ``delta_only`` probes a frontier-scoped index view."""
        if not bound:
            return iter(self.probe(predicate, (), (), delta_only))
        positions = tuple(sorted(bound))
        key = tuple(bound[p] for p in positions)
        return iter(self.probe(predicate, positions, key, delta_only))

    def probe(
        self,
        predicate: str,
        positions: Tuple[int, ...],
        key: Tuple[Term, ...],
        delta_only: bool = False,
    ) -> Tuple[Fact, ...]:
        """Facts of ``predicate`` whose terms at ``positions`` equal
        ``key`` — the compiled-plan probe primitive.  Every returned
        fact matches exactly; callers never re-filter.  The result is a
        fresh tuple, safe to iterate while the store is mutated."""
        relation = self._relations.get(predicate)
        if relation is None:
            return ()
        return relation.probe(predicate, positions, key, delta_only)

    def average_group_size(
        self, predicate: str, positions: Tuple[int, ...]
    ) -> float:
        """Facts per distinct key of the composite index a probe on
        ``positions`` reads: the expected size of one probe's result
        (0 for an empty relation, every fact for a keyless scan, 1 for
        a full-key membership probe).  Pricing builds no index: an
        unbuilt one is counted over the code columns."""
        relation = self._relations.get(predicate)
        if relation is None or not relation.live_count:
            return 0.0
        if not positions:
            return float(relation.live_count)
        if len(positions) == relation.arity:
            return 1.0
        return relation.live_count / relation.distinct_keys(positions)

    # -- semi-naive bookkeeping --------------------------------------------

    def delta(self, predicate: str) -> Set[Fact]:
        relation = self._relations.get(predicate)
        return relation.delta if relation else set()

    def has_delta(self) -> bool:
        """True while there is a non-empty frontier for the next round."""
        return any(r.delta for r in self._relations.values())

    def has_pending(self) -> bool:
        return any(r.pending for r in self._relations.values())

    def advance_delta(self) -> None:
        """Promote facts added during the current round to be the next
        round's frontier."""
        for relation in self._relations.values():
            relation.delta = relation.pending
            relation.pending = set()
            relation.delta_indices.clear()

    def reset_delta_to_all(self) -> None:
        """Mark every stored fact as 'new' — used when a stratum starts
        so its rules see all facts from lower strata once."""
        for relation in self._relations.values():
            relation.delta = set(relation.facts)
            relation.pending = set()
            relation.delta_indices.clear()

    # -- memory accounting ---------------------------------------------------

    def frontier_size(self) -> int:
        """Total facts in the current semi-naive frontier — the live
        delta the next round will drive from."""
        return sum(len(r.delta) for r in self._relations.values())

    def memory_stats(self) -> Dict[str, Any]:
        """Per-predicate cardinality and bytes report.

        Bytes are *real*: the code columns' buffer sizes plus the rowid
        list and the term dictionary, with ``column_bytes`` and
        always-on ``probes``/``probe_hits`` counters broken out.
        ``index_entries`` counts bucket memberships (rowid buckets and
        frontier views) — the index-side multiplier on fact count.
        """
        predicates: Dict[str, Any] = {}
        total_facts = 0
        total_bytes = 0
        total_index = 0
        total_columns = 0
        for name, relation in sorted(self._relations.items()):
            info = relation.memory_info()
            predicates[name] = info
            total_facts += info["facts"]
            total_bytes += info["estimated_bytes"]
            total_index += info["index_entries"]
            total_columns += info["column_bytes"]
        return {
            "predicates": predicates,
            "facts": total_facts,
            "estimated_bytes": total_bytes,
            "index_entries": total_index,
            "column_bytes": total_columns,
        }

    # -- convenience --------------------------------------------------------

    def copy(self) -> "FactStore":
        """An independent clone that preserves the semi-naive frontier
        state (``delta`` and ``pending``) fact for fact.  Indices are
        not copied — they rebuild lazily on first probe.  A copy taken
        mid-chase therefore resumes exactly where the original stood;
        a copy of a fresh store is itself fresh."""
        clone = FactStore()
        for name, relation in self._relations.items():
            clone._relations[name] = relation.clone()
        return clone

    def __len__(self):
        return self.count()

    def __contains__(self, fact: Fact):
        return self.contains(fact)

    def __iter__(self):
        return self.facts()

    def __repr__(self):
        summary = ", ".join(
            f"{name}:{rel.fact_count()}"
            for name, rel in sorted(self._relations.items())
        )
        return f"FactStore({summary})"

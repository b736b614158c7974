"""Fact storage with hash indices for semi-naive evaluation.

The :class:`FactStore` keeps, per predicate:

* the set of all facts (for duplicate elimination and homomorphism
  checks),
* position indices — hash maps from (position, term) to the facts
  carrying that term there — built lazily for the join positions the
  evaluator actually uses,
* *composite* indices — hash maps from a tuple of positions to the
  facts carrying a given term tuple there — so a compiled plan step
  with ``k`` bound positions does one hash probe instead of probing
  the single most selective position and filtering the bucket,
* a *delta* set of facts added since the last
  :meth:`FactStore.advance_delta`, which drives semi-naive rule firing.
  Delta-scoped index *views* are built lazily per frontier so
  ``delta_only`` probes never re-check membership fact by fact.

Aggregate predicates are additionally *functional*: the chase may
replace a previously derived aggregate fact for a group with an updated
one (monotonic-aggregation semantics, Section 4.3), which is supported
through :meth:`retract`.

**Backends.**  Relations start on the dict/set representation above
and are *promoted* to the dictionary-encoded columnar backend
(:class:`~repro.vadalog.columnar.ColumnarRelation`) once their
cardinality crosses a threshold — per-predicate selection, so small
relations never pay the encoding overhead.  Both backends serve the
identical probe/delta contract; selection is invisible to every
consumer.  Escape hatches: ``CHASE_COLUMNAR=0`` (environment),
``--no-columnar`` (CLI), or ``FactStore(columnar=False)``; the
threshold is ``CHASE_COLUMNAR_THRESHOLD`` / ``columnar_threshold``.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, \
    Tuple

from ..telemetry import state as _telemetry
from .atoms import Atom, Fact
from .terms import Term

#: Default promotion threshold: relations below this cardinality stay
#: on the dict backend (its per-probe constant factor is lower and the
#: encoding pays off only at volume).
DEFAULT_COLUMNAR_THRESHOLD = 1024

_FALSEY = ("0", "false", "no", "off")


def columnar_default_enabled() -> bool:
    """Columnar promotion default: on unless ``CHASE_COLUMNAR`` is a
    falsey value (the environment escape hatch)."""
    return os.environ.get(
        "CHASE_COLUMNAR", ""
    ).strip().lower() not in _FALSEY


def columnar_default_threshold() -> int:
    raw = os.environ.get("CHASE_COLUMNAR_THRESHOLD", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return DEFAULT_COLUMNAR_THRESHOLD


class _PredicateRelation:
    """Facts and indices for one predicate.

    ``delta`` is the current semi-naive frontier (facts new as of the
    previous round); ``pending`` collects facts added during the
    current round and becomes the next frontier on
    :meth:`FactStore.advance_delta`.
    """

    backend = "dict"

    __slots__ = (
        "facts", "indices", "composites", "delta", "pending",
        "delta_indices", "arity",
    )

    def __init__(self):
        self.facts: Set[Fact] = set()
        # position -> term -> set of facts
        self.indices: Dict[int, Dict[Term, Set[Fact]]] = {}
        # (position, ...) -> (term, ...) -> set of facts
        self.composites: Dict[
            Tuple[int, ...], Dict[Tuple[Term, ...], Set[Fact]]
        ] = {}
        self.delta: Set[Fact] = set()
        self.pending: Set[Fact] = set()
        # Delta-scoped views, keyed like composites (single positions
        # as 1-tuples).  Rebuilt lazily whenever the frontier changes —
        # the frontier is immutable within a round, so each view is
        # built at most once per (positions, round).
        self.delta_indices: Dict[
            Tuple[int, ...], Dict[Tuple[Term, ...], Set[Fact]]
        ] = {}
        self.arity: int = -1

    def ensure_index(self, position: int) -> Dict[Term, Set[Fact]]:
        index = self.indices.get(position)
        if index is None:
            index = defaultdict(set)
            for fact in self.facts:
                index[fact.terms[position]].add(fact)
            self.indices[position] = index
            if _telemetry.enabled:
                _telemetry.registry.counter("store.index_builds").inc()
        return index

    def ensure_composite(
        self, positions: Tuple[int, ...]
    ) -> Dict[Tuple[Term, ...], Set[Fact]]:
        index = self.composites.get(positions)
        if index is None:
            index = defaultdict(set)
            for fact in self.facts:
                terms = fact.terms
                index[tuple(terms[p] for p in positions)].add(fact)
            self.composites[positions] = index
            if _telemetry.enabled:
                _telemetry.registry.counter(
                    "store.composite_index_builds"
                ).inc()
        return index

    def delta_view(
        self, positions: Tuple[int, ...]
    ) -> Dict[Tuple[Term, ...], Set[Fact]]:
        """A composite index over the current frontier only."""
        index = self.delta_indices.get(positions)
        if index is None:
            index = {}
            for fact in self.delta:
                terms = fact.terms
                key = tuple(terms[p] for p in positions)
                bucket = index.get(key)
                if bucket is None:
                    bucket = index[key] = set()
                bucket.add(fact)
            self.delta_indices[positions] = index
            if _telemetry.enabled:
                _telemetry.registry.counter(
                    "store.delta_index_builds"
                ).inc()
        return index

    def add(self, fact: Fact) -> bool:
        if fact in self.facts:
            return False
        if self.arity < 0:
            self.arity = len(fact.terms)
        self.facts.add(fact)
        self.pending.add(fact)
        terms = fact.terms
        for position, index in self.indices.items():
            index[terms[position]].add(fact)
        for positions, index in self.composites.items():
            index[tuple(terms[p] for p in positions)].add(fact)
        return True

    def remove(self, fact: Fact) -> bool:
        if fact not in self.facts:
            return False
        self.facts.discard(fact)
        if fact in self.delta:
            self.delta.discard(fact)
            # The frontier changed mid-round (functional-aggregate
            # retraction): every delta view is stale.
            self.delta_indices.clear()
        self.pending.discard(fact)
        terms = fact.terms
        for position, index in self.indices.items():
            bucket = index.get(terms[position])
            if bucket is not None:
                bucket.discard(fact)
        for positions, index in self.composites.items():
            bucket = index.get(tuple(terms[p] for p in positions))
            if bucket is not None:
                bucket.discard(fact)
        return True

    # -- backend protocol (shared with ColumnarRelation) -------------------

    def fact_count(self) -> int:
        return len(self.facts)

    def iter_facts(self) -> Iterator[Fact]:
        return iter(self.facts)

    def contains_fact(self, fact: Fact) -> bool:
        return fact in self.facts

    def snapshot_facts(self) -> Set[Fact]:
        return set(self.facts)

    def probe(
        self,
        predicate: str,
        positions: Tuple[int, ...],
        key: Tuple[Term, ...],
        delta_only: bool = False,
    ) -> Tuple[Fact, ...]:
        universe = self.delta if delta_only else self.facts
        if not universe:
            return ()
        if not positions:
            return tuple(universe)
        if _telemetry.enabled and len(positions) > 1:
            _telemetry.registry.counter("store.composite_probes").inc()
        if len(positions) == self.arity:
            # Fully determined atom: membership beats any index.
            candidate = Fact(predicate, key)
            if candidate in universe:
                if _telemetry.enabled and len(positions) > 1:
                    _telemetry.registry.counter(
                        "store.composite_probe_hits"
                    ).inc()
                return (candidate,)
            return ()
        if delta_only:
            bucket = self.delta_view(positions).get(key)
        elif len(positions) == 1:
            bucket = self.ensure_index(positions[0]).get(key[0])
        else:
            bucket = self.ensure_composite(positions).get(key)
        if not bucket:
            return ()
        if _telemetry.enabled and len(positions) > 1:
            _telemetry.registry.counter(
                "store.composite_probe_hits"
            ).inc()
        return tuple(bucket)

    def clone(self) -> "_PredicateRelation":
        twin = _PredicateRelation()
        twin.facts = set(self.facts)
        twin.delta = set(self.delta)
        twin.pending = set(self.pending)
        twin.arity = self.arity
        return twin

    def memory_info(self, sample: int = 32) -> Dict[str, Any]:
        count = len(self.facts)
        sampled = list(islice(self.facts, max(sample, 1)))
        if sampled:
            per_fact = sum(
                _estimate_fact_bytes(fact) for fact in sampled
            ) / len(sampled)
        else:
            per_fact = 0.0
        index_entries = sum(
            len(bucket)
            for index in self.indices.values()
            for bucket in index.values()
        ) + sum(
            len(bucket)
            for index in self.composites.values()
            for bucket in index.values()
        ) + sum(
            len(bucket)
            for index in self.delta_indices.values()
            for bucket in index.values()
        )
        return {
            "facts": count,
            "delta": len(self.delta),
            "estimated_bytes": int(per_fact * count),
            "index_entries": index_entries,
            "backend": self.backend,
        }


def _estimate_fact_bytes(fact: Fact) -> int:
    """Shallow-ish size of one fact: the Fact object, its terms tuple,
    each term object and that term's immediate payload value."""
    size = sys.getsizeof(fact) + sys.getsizeof(fact.terms)
    for term in fact.terms:
        size += sys.getsizeof(term)
        value = getattr(term, "value", None)
        if value is not None:
            size += sys.getsizeof(value)
    return size


class FactStore:
    """A database instance: a set of facts with join indices.

    ``columnar`` / ``columnar_threshold`` control per-predicate
    backend selection (None = environment defaults, see the module
    docstring); the choice is purely an internal representation and
    never changes observable semantics.
    """

    def __init__(
        self,
        facts: Iterable[Fact] = (),
        columnar: Optional[bool] = None,
        columnar_threshold: Optional[int] = None,
    ):
        self._relations: Dict[str, _PredicateRelation] = {}
        self.columnar_enabled = (
            columnar_default_enabled() if columnar is None else columnar
        )
        self.columnar_threshold = (
            columnar_default_threshold()
            if columnar_threshold is None
            else max(1, columnar_threshold)
        )
        for fact in facts:
            self.add(fact)

    # -- mutation ---------------------------------------------------------

    def _promote(self, predicate: str, relation) -> None:
        """Switch one relation to the columnar backend, preserving the
        semi-naive frontier fact for fact."""
        from .columnar import ColumnarRelation

        self._relations[predicate] = ColumnarRelation.from_dict_relation(
            relation
        )
        if _telemetry.enabled:
            _telemetry.registry.counter(
                "store.columnar.promotions"
            ).inc()

    def add(self, fact: Fact) -> bool:
        """Insert a fact; returns True when it is new."""
        if not fact.is_ground:
            raise ValueError(f"cannot store non-ground atom {fact}")
        relation = self._relations.get(fact.predicate)
        if relation is None:
            relation = _PredicateRelation()
            self._relations[fact.predicate] = relation
        added = relation.add(fact)
        if (
            added
            and self.columnar_enabled
            and relation.backend == "dict"
            and len(relation.facts) >= self.columnar_threshold
        ):
            self._promote(fact.predicate, relation)
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
            relation.delta = relation.snapshot_facts()
            relation.pending = set()
            relation.delta_indices.clear()

    # -- memory accounting ---------------------------------------------------

    def frontier_size(self) -> int:
        """Total facts in the current semi-naive frontier — the live
        delta the next round will drive from."""
        return sum(len(r.delta) for r in self._relations.values())

    def memory_stats(self, sample: int = 32) -> Dict[str, Any]:
        """Per-predicate cardinality and bytes report.

        Dict-backed predicates report *estimates*: ``sys.getsizeof``
        of a sample of up to ``sample`` facts (fact + terms tuple +
        each term + its payload value), scaled to the predicate's
        cardinality — an upper bound on exclusive ownership, meant for
        relative comparison.  Columnar predicates report *real* bytes:
        the code columns' buffer sizes plus the term dictionary, with
        ``column_bytes`` and always-on ``probes``/``probe_hits``
        counters broken out.  ``index_entries`` counts bucket
        memberships (fact-set buckets on the dict backend, rowid
        buckets on the columnar one) — the index-side multiplier on
        fact count.
        """
        predicates: Dict[str, Any] = {}
        total_facts = 0
        total_bytes = 0
        total_index = 0
        total_columns = 0
        for name, relation in sorted(self._relations.items()):
            if relation.backend == "dict":
                info = relation.memory_info(sample)
            else:
                info = relation.memory_info()
            predicates[name] = info
            total_facts += info["facts"]
            total_bytes += info["estimated_bytes"]
            total_index += info["index_entries"]
            total_columns += info.get("column_bytes", 0)
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
        clone = FactStore(
            columnar=self.columnar_enabled,
            columnar_threshold=self.columnar_threshold,
        )
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

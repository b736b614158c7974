"""Fact storage with hash indices for semi-naive evaluation.

The :class:`FactStore` keeps one
:class:`~repro.vadalog.columnar.ColumnarRelation` per predicate,
created with the predicate's first fact.  Each relation holds

* the facts in an append-only rowid list, keyed by their term tuples
  (for duplicate elimination, homomorphism checks and full-key
  probes),
* lazily built group indices — hash maps from a tuple of positions to
  the rows carrying a given term sub-tuple there — so a compiled plan
  step with ``k`` bound positions does one hash probe,
* the semi-naive frontier as a rowid range over the append-only rows:
  the facts added before the last :meth:`FactStore.advance_delta` and
  since the one before it, which drive semi-naive rule firing in rowid
  (insertion) order.

Aggregate predicates are additionally *functional*: the chase may
replace a previously derived aggregate fact for a group with an updated
one (monotonic-aggregation semantics, Section 4.3), which is supported
through :meth:`retract`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, \
    Optional, Sequence, Tuple

from ..telemetry import state as _telemetry
from .atoms import Fact
from .columnar import ColumnarRelation
from .terms import Term


#: Always-on relation counters and the telemetry counters they feed.
_PUBLISHED_COUNTERS = (
    ("probes", "store.columnar.probes"),
    ("probe_hits", "store.columnar.probe_hits"),
    ("adds", "store.adds"),
    ("dedup_hits", "store.dedup_hits"),
)


class FactStore:
    """A database instance: a set of facts with join indices."""

    def __init__(self, facts: Iterable[Fact] = ()):
        self._relations: Dict[str, ColumnarRelation] = {}
        #: counter totals as of the last :meth:`publish_counters`.
        self._published: Dict[str, int] = {}
        self.add_all(facts)

    # -- mutation ---------------------------------------------------------

    def _relation(self, predicate: str, arity: int) -> ColumnarRelation:
        relation = self._relations.get(predicate)
        if relation is None:
            relation = ColumnarRelation(arity)
            self._relations[predicate] = relation
        return relation

    def _arity(
        self, predicate: str, tuples: Sequence[Tuple[Term, ...]]
    ) -> int:
        """The arity every one of ``tuples`` must have: the relation's,
        or the first tuple's for a new predicate.  A fact of another
        arity is refused before anything is stored."""
        relation = self._relations.get(predicate)
        arity = relation.arity if relation is not None else len(tuples[0])
        for terms in tuples:
            if len(terms) != arity:
                raise ValueError(
                    f"predicate {predicate!r} has arity {arity}; "
                    f"cannot store a fact of arity {len(terms)}"
                )
        return arity

    def insert(
        self, predicate: str, tuples: Sequence[Tuple[Term, ...]]
    ) -> Tuple[List[int], List[Fact]]:
        """Bulk insert: store the facts of ``predicate`` with these term
        tuples, in order, dropping duplicates against the relation and
        within ``tuples``.  Returns the positions in ``tuples`` of the
        new facts and the facts, as two parallel lists; only new facts
        are built.  The tuples must be ground: the engine's head
        projectors are ground by construction, and :meth:`add`
        checks."""
        if not tuples:
            return [], []
        arity = self._arity(predicate, tuples)
        return self._relation(predicate, arity).insert(predicate, tuples)

    def add(self, fact: Fact) -> bool:
        """Insert a fact; returns True when it is new.  The one-fact
        case of :meth:`insert`, for callers whose facts may not be
        ground."""
        if not fact.is_ground:
            raise ValueError(f"cannot store non-ground atom {fact}")
        arity = self._arity(fact.predicate, (fact.terms,))
        relation = self._relation(fact.predicate, arity)
        _, new = relation.insert(fact.predicate, (fact.terms,), (fact,))
        return bool(new)

    def add_all(self, facts: Iterable[Fact]) -> int:
        """Insert many facts; returns how many were new.  Every fact is
        checked ground and of its predicate's arity before any is
        stored."""
        grouped: Dict[str, Tuple[List[Tuple[Term, ...]], List[Fact]]] = {}
        for fact in facts:
            if not fact.is_ground:
                raise ValueError(f"cannot store non-ground atom {fact}")
            entry = grouped.get(fact.predicate)
            if entry is None:
                entry = grouped[fact.predicate] = ([], [])
            entry[0].append(fact.terms)
            entry[1].append(fact)
        for predicate, (tuples, _) in grouped.items():
            self._arity(predicate, tuples)
        added = 0
        for predicate, (tuples, group) in grouped.items():
            relation = self._relation(predicate, len(tuples[0]))
            added += len(relation.insert(predicate, tuples, group)[1])
        return added

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
        self, predicate: str, bound: Dict[int, Term]
    ) -> Iterator[Fact]:
        """Iterate over facts of ``predicate`` matching the given
        position->term constraints with one exact (composite) hash
        probe."""
        if not bound:
            return iter(self.probe(predicate, (), ()))
        positions = tuple(sorted(bound))
        key = tuple(bound[p] for p in positions)
        return iter(self.probe(predicate, positions, key))

    def probe(
        self,
        predicate: str,
        positions: Tuple[int, ...],
        key: Tuple[Term, ...],
    ) -> Tuple[Fact, ...]:
        """Facts of ``predicate`` whose terms at ``positions`` equal
        ``key`` — the compiled-plan probe primitive.  Every returned
        fact matches exactly; callers never re-filter.  The result is a
        fresh tuple, safe to iterate while the store is mutated."""
        relation = self._relations.get(predicate)
        if relation is None:
            return ()
        return relation.prober(positions)(key)

    def prober(
        self,
        predicate: str,
        positions: Tuple[int, ...],
        delta_only: bool = False,
    ) -> Callable[[Tuple[Term, ...]], Tuple[Fact, ...]]:
        """A ``key -> facts`` function answering :meth:`probe` for many
        keys on one ``(predicate, positions)``, with the relation and
        its index resolved once.  Valid while the store is
        unchanged (a plan step's batch).  ``delta_only`` probes the
        semi-naive frontier instead."""
        relation = self._relations.get(predicate)
        if relation is None:
            return lambda key: ()
        return relation.prober(positions, delta_only)

    def average_group_size(
        self, predicate: str, positions: Tuple[int, ...]
    ) -> float:
        """Facts per distinct key of the composite index a probe on
        ``positions`` reads: the expected size of one probe's result
        (0 for an empty relation, every fact for a keyless scan, 1 for
        a full-key membership probe).  Pricing builds no index: an
        unbuilt one is counted over the live term tuples."""
        relation = self._relations.get(predicate)
        count = relation.fact_count() if relation is not None else 0
        if not count:
            return 0.0
        if not positions:
            return float(count)
        if len(positions) == relation.arity:
            return 1.0
        return count / relation.distinct_keys(positions)

    # -- semi-naive bookkeeping --------------------------------------------

    def delta(self, predicate: str) -> Tuple[Fact, ...]:
        """The frontier facts of ``predicate``, in rowid order."""
        relation = self._relations.get(predicate)
        return relation.frontier() if relation else ()

    def has_delta(self, predicate: Optional[str] = None) -> bool:
        """True while there is a non-empty frontier (of ``predicate``,
        or of any predicate) for the next round."""
        if predicate is not None:
            relation = self._relations.get(predicate)
            return relation is not None and relation.has_frontier()
        return any(r.has_frontier() for r in self._relations.values())

    def advance_delta(self) -> None:
        """Promote facts added during the current round to be the next
        round's frontier."""
        for relation in self._relations.values():
            relation.delta_lo = relation.delta_hi
            relation.delta_hi = len(relation.rows)

    def reset_delta_to_all(self) -> None:
        """Mark every stored fact as 'new' — used when a stratum starts
        so its rules see all facts from lower strata once."""
        for relation in self._relations.values():
            relation.reset_frontier()

    # -- telemetry -----------------------------------------------------------

    def publish_counters(self) -> None:
        """Add what the relations' always-on counters gathered since the
        last call (or since the store was built) to the telemetry
        registry's ``store.columnar.probes``,
        ``store.columnar.probe_hits``, ``store.adds`` and
        ``store.dedup_hits``.  The chase calls this once per rule
        application while telemetry is on, instead of one registry
        update per probe and per insert."""
        registry = _telemetry.registry
        relations = self._relations.values()
        published = self._published
        for attribute, name in _PUBLISHED_COUNTERS:
            total = sum(getattr(r, attribute) for r in relations)
            delta = total - published.get(attribute, 0)
            if delta:
                registry.counter(name).inc(delta)
                published[attribute] = total

    # -- memory accounting ---------------------------------------------------

    def frontier_size(self) -> int:
        """Total facts in the current semi-naive frontier — the live
        delta the next round will drive from."""
        return sum(len(r.frontier()) for r in self._relations.values())

    def memory_stats(self) -> Dict[str, Any]:
        """Per-predicate cardinality and bytes report.

        Bytes are *real* but shallow (``sys.getsizeof``): each
        relation's row list, dedup dict, and group-index dicts with
        their bucket lists, not the facts and terms they point to.
        Each relation also reports its always-on ``probes`` and
        ``probe_hits`` counters.  ``index_entries`` counts the rowid
        memberships of the group indices — the index-side multiplier
        on fact count.
        """
        predicates: Dict[str, Any] = {}
        total_facts = 0
        total_bytes = 0
        total_index = 0
        for name, relation in sorted(self._relations.items()):
            info = relation.memory_info()
            predicates[name] = info
            total_facts += info["facts"]
            total_bytes += info["estimated_bytes"]
            total_index += info["index_entries"]
        return {
            "predicates": predicates,
            "facts": total_facts,
            "estimated_bytes": total_bytes,
            "index_entries": total_index,
        }

    # -- convenience --------------------------------------------------------

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

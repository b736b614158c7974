"""FactStore tests: indexing, deltas, retraction."""

import pytest

from repro.vadalog.atoms import Atom
from repro.vadalog.database import FactStore
from repro.vadalog.terms import Constant


def fact(predicate, *values):
    return Atom.of(predicate, *values)


class TestBasicStorage:
    def test_add_and_contains(self):
        store = FactStore()
        assert store.add(fact("p", 1))
        assert store.contains(fact("p", 1))
        assert not store.contains(fact("p", 2))

    def test_duplicate_add_returns_false(self):
        store = FactStore([fact("p", 1)])
        assert not store.add(fact("p", 1))
        assert len(store) == 1

    def test_non_ground_rejected(self):
        from repro.vadalog.terms import Variable

        store = FactStore()
        with pytest.raises(ValueError):
            store.add(Atom("p", (Variable("X"),)))

    def test_count_by_predicate(self):
        store = FactStore([fact("p", 1), fact("p", 2), fact("q", 1)])
        assert store.count("p") == 2
        assert store.count("q") == 1
        assert store.count() == 3

    def test_iteration(self):
        store = FactStore([fact("p", 1), fact("q", 2)])
        assert {f.predicate for f in store} == {"p", "q"}

    def test_mixed_arity_add_rejected(self):
        store = FactStore([fact("p", 1, 2)])
        with pytest.raises(ValueError, match=r"'p' has arity 2.* arity 1"):
            store.add(fact("p", 3))
        with pytest.raises(ValueError, match=r"'p' has arity 2.* arity 1"):
            store.add_all([fact("q", 1), fact("p", 3)])
        with pytest.raises(ValueError, match=r"'p' has arity 2.* arity 1"):
            store.insert("p", [fact("p", 3).terms])
        with pytest.raises(ValueError, match=r"'r' has arity 1.* arity 2"):
            store.insert("r", [fact("r", 1).terms, fact("r", 1, 2).terms])
        # Nothing of a refused call is stored.
        assert list(store.predicates()) == ["p"]
        assert store.probe("p", (1,), (Constant(2),)) == (fact("p", 1, 2),)

    def test_mixed_arity_program_rejected(self):
        from repro.vadalog import Program

        program = Program.parse(
            "p(1,2). p(3). q(X) :- p(X,Y). r(X) :- p(X)."
        )
        with pytest.raises(ValueError, match=r"'p' has arity 2.* arity 1"):
            program.run(preflight=False)


class TestLookup:
    def test_lookup_by_bound_position(self):
        store = FactStore(
            [fact("e", "a", 1), fact("e", "a", 2), fact("e", "b", 3)]
        )
        hits = list(store.lookup("e", {0: Constant("a")}))
        assert len(hits) == 2

    def test_lookup_multiple_positions(self):
        store = FactStore(
            [fact("e", "a", 1), fact("e", "a", 2), fact("e", "b", 1)]
        )
        hits = list(store.lookup("e", {0: Constant("a"), 1: Constant(1)}))
        assert len(hits) == 1

    def test_lookup_unknown_predicate(self):
        store = FactStore()
        assert list(store.lookup("nope", {})) == []

    def test_lookup_unmatched_value(self):
        store = FactStore([fact("e", "a")])
        assert list(store.lookup("e", {0: Constant("z")})) == []

    def test_index_updated_after_later_adds(self):
        store = FactStore([fact("e", "a", 1)])
        # Force index creation, then add more facts.
        list(store.lookup("e", {0: Constant("a")}))
        store.add(fact("e", "a", 2))
        assert len(list(store.lookup("e", {0: Constant("a")}))) == 2


class TestDeltas:
    def test_new_facts_become_next_delta(self):
        store = FactStore([fact("p", 1)])
        store.reset_delta_to_all()
        assert store.delta("p") == (fact("p", 1),)
        store.add(fact("p", 2))
        # Not yet in the frontier...
        assert fact("p", 2) not in store.delta("p")
        store.advance_delta()
        # ...now it is, alone.
        assert store.delta("p") == (fact("p", 2),)

    def test_has_delta_false_at_fixpoint(self):
        store = FactStore([fact("p", 1)])
        store.reset_delta_to_all()
        store.advance_delta()
        assert not store.has_delta()

    def test_delta_only_lookup(self):
        store = FactStore([fact("e", "a", 1)])
        store.reset_delta_to_all()
        store.advance_delta()
        store.add(fact("e", "a", 2))
        store.advance_delta()
        hits = store.prober("e", (0,), delta_only=True)((Constant("a"),))
        assert hits == (fact("e", "a", 2),)


class TestRetraction:
    def test_retract_removes_everywhere(self):
        store = FactStore([fact("p", 1)])
        list(store.lookup("p", {0: Constant(1)}))  # build index
        assert store.retract(fact("p", 1))
        assert not store.contains(fact("p", 1))
        assert list(store.lookup("p", {0: Constant(1)})) == []

    def test_retract_missing_returns_false(self):
        store = FactStore()
        assert not store.retract(fact("p", 1))


class TestCompositeIndices:
    """Multi-position tuple-key probes (the compiled-plan primitive)."""

    def _triples(self):
        return FactStore([
            fact("t", "a", 1, "x"),
            fact("t", "a", 1, "y"),
            fact("t", "a", 2, "x"),
            fact("t", "b", 1, "x"),
            fact("t", "b", 2, "y"),
        ])

    def _linear(self, store, predicate, positions, key):
        return {
            f for f in store.facts(predicate)
            if tuple(f.terms[p] for p in positions) == tuple(key)
        }

    def test_probe_matches_linear_scan(self):
        store = self._triples()
        for positions in [(0,), (1,), (0, 1), (0, 2), (1, 2)]:
            for reference in store.facts("t"):
                key = tuple(reference.terms[p] for p in positions)
                assert set(store.probe("t", positions, key)) == \
                    self._linear(store, "t", positions, key)

    def test_full_arity_probe_is_membership(self):
        store = self._triples()
        key = (Constant("a"), Constant(1), Constant("x"))
        assert set(store.probe("t", (0, 1, 2), key)) == {
            fact("t", "a", 1, "x")
        }
        missing = (Constant("a"), Constant(9), Constant("x"))
        assert store.probe("t", (0, 1, 2), missing) == ()

    def test_probe_empty_positions_returns_all(self):
        store = self._triples()
        assert set(store.probe("t", (), ())) == set(store.facts("t"))

    def test_probe_unknown_predicate(self):
        assert FactStore().probe("t", (0,), (Constant("a"),)) == ()

    def test_lookup_multi_position_agrees_with_probe(self):
        store = self._triples()
        bound = {0: Constant("a"), 1: Constant(1)}
        assert set(store.lookup("t", bound)) == \
            self._linear(store, "t", (0, 1), (Constant("a"), Constant(1)))

    def test_composite_maintained_across_add(self):
        store = self._triples()
        key = (Constant("a"), Constant(1))
        assert len(store.probe("t", (0, 1), key)) == 2  # builds the index
        store.add(fact("t", "a", 1, "z"))
        assert len(store.probe("t", (0, 1), key)) == 3

    def test_composite_maintained_across_retract(self):
        store = self._triples()
        key = (Constant("a"), Constant(1))
        assert len(store.probe("t", (0, 1), key)) == 2
        store.retract(fact("t", "a", 1, "x"))
        assert set(store.probe("t", (0, 1), key)) == {fact("t", "a", 1, "y")}

    def _frontier_probe(self, store, key):
        return store.prober("t", (0, 1), delta_only=True)(key)

    def test_delta_view_tracks_frontier(self):
        store = self._triples()
        store.reset_delta_to_all()
        key = (Constant("a"), Constant(1))
        both = (fact("t", "a", 1, "x"), fact("t", "a", 1, "y"))
        assert self._frontier_probe(store, key) == both
        store.add(fact("t", "a", 1, "z"))
        # Pending facts are not frontier facts until advance_delta.
        assert self._frontier_probe(store, key) == both
        store.advance_delta()
        assert self._frontier_probe(store, key) == (fact("t", "a", 1, "z"),)

    def test_delta_view_invalidated_by_mid_round_retract(self):
        store = self._triples()
        store.reset_delta_to_all()
        key = (Constant("a"), Constant(1))
        assert len(self._frontier_probe(store, key)) == 2
        # Functional-aggregate style retraction of a frontier fact.
        store.retract(fact("t", "a", 1, "x"))
        assert self._frontier_probe(store, key) == (fact("t", "a", 1, "y"),)

    def test_delta_only_empty_frontier(self):
        store = self._triples()  # never reset: frontier is empty
        store.advance_delta()
        store.advance_delta()
        key = (Constant("a"), Constant(1))
        assert self._frontier_probe(store, key) == ()

    def test_index_build_and_probe_telemetry(self):
        import repro.telemetry as telemetry

        telemetry.disable()
        telemetry.reset()
        telemetry.enable()
        try:
            store = self._triples()
            store.reset_delta_to_all()
            key = (Constant("a"), Constant(1))
            store.probe("t", (0, 1), key)
            store.probe("t", (0, 1), key)
            self._frontier_probe(store, key)
            # Probe and insert counts are always-on relation ints that
            # the chase publishes once per rule application.
            store.publish_counters()
            counters = telemetry.registry().counters("store.")
            assert counters.get("store.columnar.group_index_builds") == 1
            # Frontier probes scan the frontier's rows, not the group
            # index, and are not counted as index probes.
            assert counters.get("store.columnar.probes") == 2
            assert counters.get("store.columnar.probe_hits") == 2
        finally:
            telemetry.disable()
            telemetry.reset()


class TestRetractedGroupKeys:
    """A group index drops a key whose last row is retracted, so pricing
    does not depend on whether a probe built the index first."""

    def _store(self, probe_first):
        store = FactStore(fact("r", i % 3, i) for i in range(9))
        if probe_first:
            store.probe("r", (0,), (Constant(0),))
        for i in (0, 3, 6):
            assert store.retract(fact("r", 0, i))
        return store

    @pytest.mark.parametrize("probe_first", [False, True])
    def test_average_group_size_after_retracting_a_key(self, probe_first):
        store = self._store(probe_first)
        assert store.average_group_size("r", (0,)) == 3.0
        assert store.probe("r", (0,), (Constant(0),)) == ()

    def test_rows_retracted_before_encoding_join_no_index(self):
        store = FactStore(fact("r", i % 3, i) for i in range(3))
        store.probe("r", (0,), (Constant(1),))  # builds the index
        store.add(fact("r", 1, 7))
        assert store.retract(fact("r", 1, 7))  # never encoded
        assert store.probe("r", (0,), (Constant(1),)) == (fact("r", 1, 1),)
        assert store.average_group_size("r", (0,)) == 1.0


class TestBulkInsert:
    def test_returns_only_new_tuples(self):
        store = FactStore([fact("p", 1, "a")])
        t = fact("p", 2, "b").terms
        u = fact("p", 3, "c").terms
        positions, facts = store.insert(
            "p", [fact("p", 1, "a").terms, t, u, t]
        )
        assert positions == [1, 2]
        assert facts == [fact("p", 2, "b"), fact("p", 3, "c")]
        assert all(f.is_ground for f in facts)
        assert store.count("p") == 3
        assert store.insert("p", [t, u]) == ([], [])

    def test_new_facts_join_the_frontier_in_order(self):
        store = FactStore()
        store.insert("p", [fact("p", n).terms for n in (3, 1, 2, 1)])
        assert list(store.facts("p")) == [
            fact("p", 3), fact("p", 1), fact("p", 2),
        ]
        assert store.delta("p") == ()
        store.advance_delta()
        assert store.delta("p") == (fact("p", 3), fact("p", 1), fact("p", 2))

    def test_add_is_the_one_fact_case(self):
        store = FactStore()
        kept = fact("p", 1)
        assert store.add(kept)
        assert next(store.facts("p")) is kept
        assert not store.add(fact("p", 1))

    def test_add_all_checks_every_fact_first(self):
        from repro.vadalog.terms import Variable

        store = FactStore()
        with pytest.raises(ValueError):
            store.add_all([fact("p", 1), Atom("p", (Variable("X"),))])
        assert len(store) == 0


class TestLazyFrontierSnapshot:
    """reset_delta_to_all makes the stored rows the frontier by moving
    the range's bounds; nothing is built until a probe reads it."""

    def test_snapshot_excludes_later_adds_and_retractions(self):
        store = FactStore([fact("p", 1), fact("p", 2), fact("p", 3)])
        store.advance_delta()
        store.reset_delta_to_all()
        store.add(fact("p", 4))
        store.retract(fact("p", 2))
        assert store.delta("p") == (fact("p", 1), fact("p", 3))
        assert store.frontier_size() == 2
        store.advance_delta()
        assert store.delta("p") == (fact("p", 4),)

    def test_retracted_then_readded_fact_is_pending(self):
        store = FactStore([fact("p", 1)])
        store.reset_delta_to_all()
        store.retract(fact("p", 1))
        store.add(fact("p", 1))
        assert store.delta("p") == ()
        assert not store.has_delta()
        store.advance_delta()
        assert store.delta("p") == (fact("p", 1),)


class TestFrontierRowidOrder:
    """Frontier probes, keyless and keyed, answer in rowid (insertion)
    order, so the chase's firing order never follows the hash seed."""

    def _probes(self, store):
        keyless = store.prober("r", (), delta_only=True)(())
        keyed = store.prober("r", (1,), delta_only=True)((Constant("k"),))
        return keyless, keyed

    def test_rowid_order_through_retract_reinsert_and_reset(self):
        values = [5, "b", 9, "a", 1, 7]
        store = FactStore(fact("r", v, "k") for v in values)
        store.add(fact("r", 0, "other"))
        store.advance_delta()
        keyed = tuple(fact("r", v, "k") for v in values)
        assert self._probes(store) == (
            keyed + (fact("r", 0, "other"),), keyed
        )
        # A mid-round retract drops its row and keeps the order.
        assert store.retract(fact("r", 9, "k"))
        keyed = tuple(fact("r", v, "k") for v in (5, "b", "a", 1, 7))
        assert self._probes(store) == (
            keyed + (fact("r", 0, "other"),), keyed
        )
        # Retract then re-insert: the fact takes a fresh rowid past the
        # frontier, so it is pending, not frontier.
        assert store.retract(fact("r", "b", "k"))
        assert store.add(fact("r", "b", "k"))
        keyed = tuple(fact("r", v, "k") for v in (5, "a", 1, 7))
        assert self._probes(store) == (
            keyed + (fact("r", 0, "other"),), keyed
        )
        store.advance_delta()
        assert self._probes(store) == (
            (fact("r", "b", "k"),), (fact("r", "b", "k"),)
        )
        # reset_delta_to_all: every live row, still in rowid order.
        store.reset_delta_to_all()
        keyed = tuple(fact("r", v, "k") for v in (5, "a", 1, 7, "b"))
        assert self._probes(store) == (
            (*keyed[:4], fact("r", 0, "other"), keyed[4]), keyed
        )
        assert store.delta("r") == self._probes(store)[0]

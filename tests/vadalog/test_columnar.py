"""Columnar fact-store tests.

Covers the columnar relation (round-trips, group indices built and
caught up lazily, every probe against a linear scan, frontier
bookkeeping), bulk firing from the batch columns vs
the row loop, the batched error-masking contract
(mask or raise, checked against the naive oracle in both directions),
and the memory/EXPLAIN ANALYZE reporting for columnar predicates.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import telemetry
from repro.errors import EvaluationError
from repro.telemetry.inspect import render_memory
from repro.vadalog import Program
from repro.vadalog.atoms import Atom
from repro.vadalog.database import FactStore
from repro.vadalog.reference import naive_chase
from repro.vadalog.routing import RoutingTable
from repro.vadalog.terms import Constant, LabelledNull, wrap_tuple


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


# ---------------------------------------------------------------------------
# Round-trips through the store's probes.


#: Hashable scalars the engine stores in constants — unicode text,
#: ints, bools, floats and frozensets all share columns freely.
scalar_values = st.one_of(
    st.text(max_size=8),
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.frozensets(st.integers(0, 5), max_size=3),
)


class TestEncodingRoundTrip:
    @given(
        rows=st.lists(
            st.tuples(scalar_values, scalar_values, scalar_values),
            max_size=30,
        )
    )
    def test_mixed_type_rows_round_trip(self, rows):
        store = FactStore()
        facts = {Atom("p", wrap_tuple(row)) for row in rows}
        for fact in facts:
            assert store.add(fact)
            assert not store.add(fact)  # dedup holds before any index
        relation = store._relations.get("p")
        if rows:
            assert relation.backend == "columnar"
        assert set(store.facts("p")) == facts
        # Build a group index via a partial probe, then check nothing
        # was lost or reordered into a different fact.
        for fact in facts:
            hits = store.probe("p", (1,), (fact.terms[1],))
            assert fact in hits
            assert all(h.terms[1] == fact.terms[1] for h in hits)
        assert set(store.facts("p")) == facts

    def test_labelled_nulls_encode_and_probe(self):
        store = FactStore()
        null = LabelledNull(7)
        fact = Atom("p", (Constant("row"), null))
        store.add(fact)
        store.add(Atom("p", (Constant("other"), Constant(1))))
        assert store.probe("p", (1,), (null,)) == (fact,)
        # A never-stored null misses.
        assert store.probe("p", (1,), (LabelledNull(99),)) == ()
        assert store.probe("p", (0,), (Constant("row"),)) == (fact,)

    def test_probe_after_append_sees_unencoded_rows(self):
        store = FactStore()
        store.add(Atom.of("p", "a", 1))
        assert store.probe("p", (0,), (Constant("a"),)) == (
            Atom.of("p", "a", 1),
        )
        # Rows appended after the index was built join it at the next
        # partial probe.
        store.add(Atom.of("p", "a", 2))
        assert set(store.probe("p", (0,), (Constant("a"),))) == {
            Atom.of("p", "a", 1),
            Atom.of("p", "a", 2),
        }

    def test_full_arity_probe_and_membership(self):
        store = FactStore()
        fact = Atom.of("p", "x", 9)
        store.add(fact)
        assert fact in store
        assert store.probe("p", (0, 1), fact.terms) == (fact,)
        assert store.probe("p", (0, 1), (Constant("x"), Constant(8))) == ()


# ---------------------------------------------------------------------------
# Every probe against a linear scan, under random mutation sequences.


#: A small pool so keys collide, with terms that compare equal across
#: types (1, 1.0 and True; 0 and False) and unicode text.
pool_terms = st.sampled_from([
    Constant(0), Constant(1), Constant(1.0), Constant(True),
    Constant(False), Constant(2.5), Constant(-7), Constant(""),
    Constant("a"), Constant("é"), Constant("日本"), Constant("🙂"),
    LabelledNull(1), LabelledNull(2), LabelledNull(3),
])
probe_terms = st.one_of(
    pool_terms,
    st.builds(Constant, st.one_of(
        st.integers(-3, 3),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.text(max_size=3),
    )),
    st.builds(LabelledNull, st.integers(1, 6)),
)
triples = st.tuples(pool_terms, pool_terms, pool_terms)

#: Partial position sets, plus the full key and the keyless scan.
PROBE_POSITIONS = [(0,), (1, 2), (0, 2), (0, 1, 2), ()]

store_ops = st.one_of(
    st.tuples(st.just("add"), triples),
    st.tuples(st.just("add_all"), st.lists(triples, max_size=4)),
    st.tuples(st.just("insert"), st.lists(triples, max_size=4)),
    st.tuples(st.just("retract"), triples),
    st.tuples(st.just("retract_live"), st.integers(0, 50)),
    st.tuples(st.just("advance"), st.none()),
    st.tuples(st.just("reset"), st.none()),
    st.tuples(st.just("distinct"), st.sampled_from(PROBE_POSITIONS[:3])),
    st.tuples(
        st.sampled_from(["probe", "prober", "delta"]),
        st.tuples(
            st.sampled_from(PROBE_POSITIONS),
            st.lists(probe_terms, min_size=3, max_size=3),
        ),
    ),
)


class StoreModel:
    """The live facts of one arity-3 relation as a plain ordered dict
    (insertion order is rowid order), with the frontier as a range of
    append counters, probed by linear scan."""

    def __init__(self):
        self.rowid_of = {}
        self.appended = 0
        self.lo = self.hi = 0

    def add(self, terms):
        if terms in self.rowid_of:
            return
        self.rowid_of[terms] = self.appended
        self.appended += 1

    def scan(self, positions, key, frontier=False):
        return tuple(
            Atom("p", terms) for terms, rowid in self.rowid_of.items()
            if (not frontier or self.lo <= rowid < self.hi)
            and tuple(terms[p] for p in positions) == key
        )

    def distinct(self, positions):
        return len({
            tuple(terms[p] for p in positions) for terms in self.rowid_of
        })


class TestProbesMatchLinearScan:
    @given(ops=st.lists(store_ops, max_size=40))
    def test_probes_equal_linear_scan_in_rowid_order(self, ops):
        store = FactStore()
        model = StoreModel()
        for op, arg in ops:
            if op == "add":
                store.add(Atom("p", arg))
                model.add(arg)
            elif op in ("add_all", "insert"):
                if op == "add_all":
                    store.add_all([Atom("p", terms) for terms in arg])
                else:
                    store.insert("p", arg)
                for terms in arg:
                    model.add(terms)
            elif op in ("retract", "retract_live"):
                if op == "retract_live":
                    if not model.rowid_of:
                        continue
                    live = list(model.rowid_of)
                    arg = live[arg % len(live)]
                assert store.retract(Atom("p", arg)) == (
                    model.rowid_of.pop(arg, None) is not None
                )
            elif op == "advance":
                store.advance_delta()
                model.lo, model.hi = model.hi, model.appended
            elif op == "reset":
                store.reset_delta_to_all()
                model.lo, model.hi = 0, model.appended
            elif op == "distinct":
                relation = store._relations.get("p")
                if relation is not None:
                    assert relation.distinct_keys(arg) == \
                        model.distinct(arg)
            else:
                positions, terms = arg
                key = tuple(terms[:len(positions)])
                frontier = op == "delta"
                expected = model.scan(positions, key, frontier)
                if op == "probe":
                    found = store.probe("p", positions, key)
                else:
                    found = store.prober("p", positions, frontier)(key)
                assert found == expected
                if frontier and not positions:
                    assert store.delta("p") == expected
        assert tuple(store.facts("p")) == model.scan((), ())
        relation = store._relations.get("p")
        if relation is not None:
            for positions in PROBE_POSITIONS[:3]:
                assert relation.distinct_keys(positions) == \
                    model.distinct(positions)


# ---------------------------------------------------------------------------
# Frontier (delta) invariants over the append-only rows.


class TestFrontierInvariants:
    def test_mid_round_retract_updates_delta(self):
        store = FactStore()
        for i in range(4):
            store.add(Atom.of("p", i, "v"))
        store.advance_delta()
        victim = Atom.of("p", 2, "v")
        key = (Constant("v"),)
        before = store.prober("p", (1,), delta_only=True)(key)
        assert before == tuple(Atom.of("p", i, "v") for i in range(4))
        # A retracted frontier row leaves the frontier by its tombstone
        # (functional-aggregate replacement).
        assert store.retract(victim)
        assert victim not in store.delta("p")
        after = store.prober("p", (1,), delta_only=True)(key)
        assert after == tuple(Atom.of("p", i, "v") for i in (0, 1, 3))

    def test_retract_before_encoding_pass(self):
        store = FactStore()
        facts = [Atom.of("p", i) for i in range(3)]
        for fact in facts:
            store.add(fact)
        assert store.retract(facts[1])
        assert facts[1] not in store
        assert store.probe("p", (0,), (Constant(1),)) == ()
        assert set(store.facts("p")) == {facts[0], facts[2]}
        assert store.count("p") == 2

    def test_retract_after_encoding_pass(self):
        store = FactStore()
        facts = [Atom.of("p", i, i % 2) for i in range(6)]
        for fact in facts:
            store.add(fact)
        store.probe("p", (1,), (Constant(0),))  # builds the index
        assert store.retract(facts[4])
        hits = store.probe("p", (1,), (Constant(0),))
        assert facts[4] not in hits
        assert set(hits) == {facts[0], facts[2]}

    def test_advance_delta_moves_pending_to_frontier(self):
        store = FactStore()
        store.add(Atom.of("p", 1))
        store.advance_delta()
        store.add(Atom.of("p", 2))
        assert store.delta("p") == (Atom.of("p", 1),)
        assert store.frontier_size() == 1
        store.advance_delta()
        assert store.delta("p") == (Atom.of("p", 2),)
        store.advance_delta()
        assert store.frontier_size() == 0
        assert not store.has_delta()

    def test_reset_delta_to_all(self):
        store = FactStore()
        for i in range(3):
            store.add(Atom.of("p", i))
        store.advance_delta()
        store.reset_delta_to_all()
        assert store.delta("p") == tuple(Atom.of("p", i) for i in range(3))


# ---------------------------------------------------------------------------
# Differential equivalence: bulk firing from the batch columns vs
# the row loop.


def in_discovery_order(rule, bindings):
    """FIFO order under another name: any strategy other than
    ``fifo_strategy`` makes every rule fire through the row loop."""
    return list(bindings)


class TestBulkVsPerBindingFiring:
    MAX_ROUNDS = 400
    MAX_FACTS = 4_000

    def _run(self, program, per_binding):
        routing = RoutingTable(in_discovery_order) if per_binding else None
        try:
            result = program.run(
                routing=routing,
                provenance=True,
                max_rounds=self.MAX_ROUNDS,
                max_facts=self.MAX_FACTS,
                preflight=False,
            )
        except Exception as exc:  # noqa: BLE001 — crashes compared too
            return ("error", type(exc).__name__)
        facts = frozenset(result.facts())
        # A replaced aggregate fact keeps its derivation, and the row
        # loop replaces more of them, so count only the derivations of
        # facts that survive.
        derived = sum(
            1 for d in result.provenance.derivations() if d.fact in facts
        )
        return ("ok", facts, derived, result.rounds,
                result.nulls_introduced)

    @given(
        rng=st.randoms(use_true_random=False), aggregates=st.booleans()
    )
    def test_identical_facts_provenance_and_rounds(self, rng, aggregates):
        """Without existentials bulk firing and the row loop agree on
        everything observable: fact sets (labels and all), derivation
        counts of those facts, and semi-naive round counts.  That holds
        with aggregates (the generator's default ``p_aggregate``) too,
        though bulk firing emits each group once per rule application
        and the row loop replaces the group fact binding by
        binding."""
        from repro.testing.generator import (
            GeneratorConfig, generate_program,
        )

        config = GeneratorConfig(p_existential=0.0)
        if not aggregates:
            config.p_aggregate = 0.0
        program = generate_program(rng, config)
        bulk = self._run(program, per_binding=False)
        per_binding = self._run(program, per_binding=True)
        assert bulk == per_binding, (
            f"bulk {bulk[:2]} != per-binding {per_binding[:2]}\n"
            f"{program.to_source()}"
        )

    @given(rng=st.randoms(use_true_random=False))
    def test_existential_rules_fire_identically(self, rng):
        """Existential rules fire through the row loop under FIFO and
        under a pass-through routing strategy alike: rows fire in
        batch order under one image check per application, so
        labelled-null numbering, fact sets, derivation counts, rounds
        and the count of nulls drawn agree, with heads of every
        shape."""
        from repro.testing.generator import (
            GeneratorConfig, generate_program,
        )

        config = GeneratorConfig(
            p_existential=0.8, p_multi_head=0.5, p_aggregate=0.0
        )
        program = generate_program(rng, config)
        bulk = self._run(program, per_binding=False)
        per_binding = self._run(program, per_binding=True)
        assert bulk == per_binding, (
            f"bulk {bulk[:2]} != per-binding {per_binding[:2]}\n"
            f"{program.to_source()}"
        )


class TestBulkHeadInsertion:
    """Bulk firing projects each head atom over the batch columns and
    bulk-inserts the term tuples; the store returns only the new ones."""

    PROGRAM = (
        'p(1, "a"). p(1, "b"). p(2, "c"). q(2).\n'
        '@label("project").\np(X, Y) -> q(X).\n'
        '@label("pair").\np(X, Y) -> s(X), s(Y).\n'
    )

    def test_one_derivation_per_new_fact_with_first_premises(self):
        result = Program.parse(self.PROGRAM).run(preflight=False)
        derived = [
            d for d in result.provenance.derivations()
            if d.rule_label == "project"
        ]
        # q(1) twice in the batch, q(2) already stored: one derivation.
        assert [d.fact for d in derived] == [Atom.of("q", 1)]
        assert derived[0].premises == (Atom.of("p", 1, "a"),)

    def test_shared_predicate_heads_insert_row_by_row(self):
        telemetry.enable()
        result = Program.parse(self.PROGRAM).run(preflight=False)
        # Row-major, as row-by-row firing adds them: s(1), s("a") from
        # the first row, s("b") from the second (s(1) is a duplicate).
        assert [f.terms[0].value for f in result.facts("s")] == [
            1, "a", "b", 2, "c",
        ]
        counters = result.stats["telemetry"]["counters"]
        assert counters["chase.rule_firings{rule=pair}"] == 3
        assert counters["chase.new_facts{rule=pair}"] == 5

    @pytest.mark.parametrize("head", [
        "q(X), r(X, _Y)", "exists(Z) q(X, Z), r(X, _Y)",
    ])
    def test_head_not_ground_by_construction_raises_on_first_row(
        self, head
    ):
        # _Y is a body variable no plan binds, so the head is not
        # ground by construction: the first row to fire raises.
        program = Program.parse(
            f'p(1, "a"). p(2, "b").\n@label("ng").\np(X, _Y) -> {head}.\n'
        )
        with pytest.raises(EvaluationError) as raised:
            program.run(preflight=False)
        assert str(raised.value) == (
            "head atom r(1, _Y) not ground after substitution in rule ng"
        )

    @given(rng=st.randoms(use_true_random=False))
    def test_assignment_rules_fire_identically(self, rng):
        """With compiled assignments (some rows masked or raising), bulk
        firing and the row loop agree."""
        from repro.testing.generator import (
            GeneratorConfig, generate_program,
        )

        config = GeneratorConfig(p_assignment=0.8, p_condition=0.5)
        program = generate_program(rng, config)
        runner = TestBulkVsPerBindingFiring()
        bulk = runner._run(program, per_binding=False)
        per_binding = runner._run(program, per_binding=True)
        assert bulk == per_binding, program.to_source()


# ---------------------------------------------------------------------------
# Batched error masking: drop the row, or raise — both directions,
# matching the naive oracle exactly.


class TestBatchedErrorMasking:
    # Mutual recursion delivers e(2, 0) as a *delta* fact, so the
    # delta plan's pushed-down division raises mid-batch.  The rule
    # body joins all positives first and f(2) is absent — it never
    # evaluates 2/0 — so the batched executor must mask that single
    # row and keep the rest of the batch.
    MASK_PROGRAM = (
        'f(1). e(1, 1). seed(2).\n@label("div").\n'
        'out(Q) :- e(X, Y), Q = X / Y, f(X).\n'
        'e(X, 0) :- out(Q), seed(X).\n@output("out").\n'
    )

    # Here the raising row *does* complete the join (f(1) matches), so
    # the rule body divides by zero too: the batched path must raise
    # the error, never silently masking it away.
    RAISE_PROGRAM = (
        'f(1). e(1, 0).\n@label("div").\n'
        'out(Q) :- e(X, Y), Q = X / Y, f(X).\n@output("out").\n'
    )

    def test_masked_row_matches_oracle(self):
        program = Program.parse(self.MASK_PROGRAM)
        result = program.run(preflight=False)
        oracle = naive_chase(program.rules, facts=program.facts)
        assert frozenset(result.facts()) == frozenset(oracle.facts())
        assert sorted(result.tuples("out")) == [(1.0,)]

    def test_raising_row_surfaces_error_like_oracle(self):
        program = Program.parse(self.RAISE_PROGRAM)
        with pytest.raises(EvaluationError):
            program.run(preflight=False)
        with pytest.raises(EvaluationError):
            naive_chase(program.rules, facts=program.facts)

    def test_mask_emits_schema_versioned_event(self):
        from repro.telemetry.events import EVENT_SCHEMA_VERSION

        telemetry.enable(events=True)
        Program.parse(self.MASK_PROGRAM).run(preflight=False)
        masks = telemetry.events().tail("batch_mask")
        assert masks, "masked run emitted no batch_mask event"
        event = masks[0]
        assert event["v"] == EVENT_SCHEMA_VERSION
        payload = event["payload"]
        assert payload["rule"] == "div"
        assert payload["op"] == "assign"
        assert payload["error"] == "EvaluationError"
        assert payload["rows"] == 1
        assert {"step", "stratum", "round"} <= set(payload)

    def test_mask_counter_attributed_to_rule(self):
        telemetry.enable()
        Program.parse(self.MASK_PROGRAM).run(preflight=False)
        counters = telemetry.registry().counters("chase.batch_masked_rows")
        assert sum(counters.values()) == 1
        assert any("div" in key for key in counters)


# ---------------------------------------------------------------------------
# Memory accounting and EXPLAIN ANALYZE integration.


class TestColumnarMemoryReporting:
    PROGRAM = (
        "out(X, Y) :- e(X, Y), f(Y).\n@output(\"out\").\n"
    )

    def _facts(self):
        facts = [Atom.of("e", i, i % 10) for i in range(40)]
        facts += [Atom.of("f", i) for i in range(10)]
        return facts

    def test_memory_stats_report_real_bytes(self):
        program = Program.parse(self.PROGRAM)
        result = program.run(
            self._facts(), preflight=False, provenance=False
        )
        store = result.store
        before = store.memory_stats()["predicates"]["e"]
        # One hit, one miss — memory_stats reports lifetime counters
        # whatever join order the planner picked.
        store.probe("e", (1,), (Constant(3),))
        store.probe("e", (1,), (Constant("never-stored"),))
        report = store.memory_stats()
        e_info = report["predicates"]["e"]
        assert e_info["backend"] == "columnar"
        assert e_info["estimated_bytes"] > 0
        assert e_info["probes"] == before["probes"] + 2
        assert e_info["probe_hits"] == before["probe_hits"] + 1
        assert e_info["probe_hits"] < e_info["probes"]
        # The (1,) index holds every fact of e once.
        assert e_info["index_entries"] >= 40
        # The totals are the sums over the relations.
        for key in ("facts", "estimated_bytes", "index_entries"):
            assert report[key] == sum(
                info[key] for info in report["predicates"].values()
            )
        # More facts, and another index over them, take more bytes.
        store.add_all(Atom.of("e", i, i % 10) for i in range(40, 80))
        grown = store.memory_stats()["predicates"]["e"]
        assert grown["estimated_bytes"] > e_info["estimated_bytes"]
        assert grown["index_entries"] > e_info["index_entries"]
        store.probe("e", (0,), (Constant(5),))
        indexed = store.memory_stats()["predicates"]["e"]
        assert indexed["index_entries"] == grown["index_entries"] + 80
        assert indexed["estimated_bytes"] > grown["estimated_bytes"]

    def test_render_memory_annotates_columns(self):
        program = Program.parse(self.PROGRAM)
        result = program.run(
            self._facts(), preflight=False, provenance=False
        )
        rendered = render_memory({"store": result.store.memory_stats()})
        for name in ("e:", "f:"):
            line = next(
                line for line in rendered.splitlines()
                if line.strip().startswith(name)
            )
            assert "frontier 0" in line
            info = result.store.memory_stats()["predicates"][name[:-1]]
            assert line.endswith(
                f"probes {info['probe_hits']}/{info['probes']} hit"
            )

    def test_explain_analyze_counts_batched_rows(self):
        program = Program.parse(self.PROGRAM)
        result = program.run(
            self._facts(), preflight=False, provenance=False,
            analyze=True,
        )
        explain = result.explain_report
        assert explain is not None and explain["analyze"]
        actuals = [
            step["actual"]
            for entry in explain["rules"]
            for plan in entry["plans"]
            for step in plan["steps"]
            if "actual" in step
        ]
        assert actuals, "ANALYZE annotated no plan steps"
        # Batched execution reports invocations as rows-in, so a
        # whole-frontier probe shows one execution driving many rows.
        assert any(stats["rows_out"] > 0 for stats in actuals)

    def test_store_counters_cover_columnar_lifecycle(self):
        telemetry.enable()
        program = Program.parse(self.PROGRAM)
        program.run(self._facts(), preflight=False, provenance=False)
        counters = telemetry.registry().counters("store.columnar")
        assert sum(
            v for k, v in counters.items() if "group_index_builds" in k
        ) > 0
        assert sum(v for k, v in counters.items() if "probes" in k) > 0

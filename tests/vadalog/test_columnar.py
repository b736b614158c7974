"""Columnar fact-store backend tests.

Covers the dictionary-encoded columnar relation (round-trips, lazy
encoding, frontier bookkeeping), the cardinality-threshold promotion
policy and its escape hatches, the batched executor's differential
equivalence with the tuple-at-a-time dict backend on generated warded
programs, the batched error-masking contract (mask vs fall back, in
both directions), and the memory/EXPLAIN ANALYZE reporting for
columnar predicates.
"""

import os
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import telemetry
from repro.errors import EvaluationError
from repro.telemetry.inspect import render_memory
from repro.vadalog import Program
from repro.vadalog.atoms import Atom, Fact
from repro.vadalog.chase import ChaseEngine
from repro.vadalog.columnar import ColumnarRelation, TermDictionary
from repro.vadalog.database import (
    DEFAULT_COLUMNAR_THRESHOLD,
    FactStore,
    columnar_default_enabled,
    columnar_default_threshold,
)
from repro.vadalog.terms import Constant, LabelledNull, wrap_tuple


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def columnar_store(facts=()):
    """A store where every relation promotes on its first fact."""
    return FactStore(facts, columnar=True, columnar_threshold=1)


# ---------------------------------------------------------------------------
# Dictionary-encoding round-trips.


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
        store = columnar_store()
        facts = {Atom("p", wrap_tuple(row)) for row in rows}
        for fact in facts:
            assert store.add(fact)
            assert not store.add(fact)  # dedup holds pre-encoding
        relation = store._relations.get("p")
        if rows:
            assert relation.backend == "columnar"
        assert set(store.facts("p")) == facts
        # Force the lazy encoding pass via a partial probe, then check
        # nothing was lost or reordered into a different fact.
        for fact in facts:
            hits = store.probe("p", (1,), (fact.terms[1],))
            assert fact in hits
            assert all(h.terms[1] == fact.terms[1] for h in hits)
        assert set(store.facts("p")) == facts

    @given(values=st.lists(st.text(max_size=6), max_size=20))
    def test_unicode_dictionary_round_trip(self, values):
        dictionary = TermDictionary()
        terms = [Constant(v) for v in values]
        codes = [dictionary.code(t) for t in terms]
        for term, code in zip(terms, codes):
            assert dictionary.probe(term) == code
            assert dictionary.decode[code] == term
        assert len(dictionary) == len(set(terms))

    def test_labelled_nulls_encode_and_probe(self):
        store = columnar_store()
        null = LabelledNull(7)
        fact = Atom("p", (Constant("row"), null))
        store.add(fact)
        store.add(Atom("p", (Constant("other"), Constant(1))))
        assert store.probe("p", (1,), (null,)) == (fact,)
        # A never-interned null must miss without growing the dictionary.
        assert store.probe("p", (1,), (LabelledNull(99),)) == ()
        relation = store._relations["p"]
        # Column pruning: only the probed column's terms are interned.
        assert len(relation.dictionary) == 2
        assert store.probe("p", (0,), (Constant("row"),)) == (fact,)
        assert len(relation.dictionary) == 4

    def test_probe_after_append_sees_unencoded_rows(self):
        store = columnar_store()
        store.add(Atom.of("p", "a", 1))
        assert store.probe("p", (0,), (Constant("a"),)) == (
            Atom.of("p", "a", 1),
        )
        # New rows appended after the first encoding pass are lazily
        # encoded by the next partial probe.
        store.add(Atom.of("p", "a", 2))
        assert set(store.probe("p", (0,), (Constant("a"),))) == {
            Atom.of("p", "a", 1),
            Atom.of("p", "a", 2),
        }

    def test_full_arity_probe_and_membership(self):
        store = columnar_store()
        fact = Atom.of("p", "x", 9)
        store.add(fact)
        assert fact in store
        assert store.probe("p", (0, 1), fact.terms) == (fact,)
        assert store.probe("p", (0, 1), (Constant("x"), Constant(8))) == ()


# ---------------------------------------------------------------------------
# Promotion threshold and escape hatches.


class TestThresholdBoundary:
    def test_promotes_exactly_at_threshold(self):
        store = FactStore(columnar=True, columnar_threshold=5)
        for i in range(4):
            store.add(Atom.of("p", i))
        assert store._relations["p"].backend == "dict"
        store.add(Atom.of("p", 4))
        assert store._relations["p"].backend == "columnar"
        assert set(store.facts("p")) == {Atom.of("p", i) for i in range(5)}

    def test_duplicates_do_not_count_toward_threshold(self):
        store = FactStore(columnar=True, columnar_threshold=3)
        for _ in range(10):
            store.add(Atom.of("p", 1))
            store.add(Atom.of("p", 2))
        assert store._relations["p"].backend == "dict"

    def test_disabled_store_never_promotes(self):
        store = FactStore(columnar=False, columnar_threshold=1)
        for i in range(50):
            store.add(Atom.of("p", i))
        assert store._relations["p"].backend == "dict"

    def test_env_hatch_disables_columnar(self):
        with mock.patch.dict(os.environ, {"CHASE_COLUMNAR": "0"}):
            assert not columnar_default_enabled()
            assert not ChaseEngine([]).use_columnar
        with mock.patch.dict(os.environ, {"CHASE_COLUMNAR": ""}):
            assert columnar_default_enabled()

    def test_explicit_flag_wins_over_env(self):
        with mock.patch.dict(os.environ, {"CHASE_COLUMNAR": "0"}):
            assert ChaseEngine([], use_columnar=True).use_columnar

    def test_env_threshold_override(self):
        with mock.patch.dict(
            os.environ, {"CHASE_COLUMNAR_THRESHOLD": "17"}
        ):
            assert columnar_default_threshold() == 17
            assert FactStore(columnar=True).columnar_threshold == 17
        assert columnar_default_threshold() == DEFAULT_COLUMNAR_THRESHOLD


# ---------------------------------------------------------------------------
# Frontier (delta) invariants under the lazy-encoding representation.


class TestFrontierInvariants:
    def _stores(self):
        """One columnar, one dict store with identical contents."""
        return columnar_store(), FactStore(columnar=False)

    def test_mid_round_retract_updates_delta(self):
        for store in self._stores():
            for i in range(4):
                store.add(Atom.of("p", i, "v"))
            store.advance_delta()
            victim = Atom.of("p", 2, "v")
            # A delta probe builds the frontier view, then the retract
            # must invalidate it (functional-aggregate replacement).
            before = store.probe(
                "p", (1,), (Constant("v"),), delta_only=True
            )
            assert victim in before
            assert store.retract(victim)
            assert victim not in store.delta("p")
            after = store.probe(
                "p", (1,), (Constant("v"),), delta_only=True
            )
            assert victim not in after
            assert len(after) == 3

    def test_retract_before_encoding_pass(self):
        store = columnar_store()
        facts = [Atom.of("p", i) for i in range(3)]
        for fact in facts:
            store.add(fact)
        assert store.retract(facts[1])
        assert facts[1] not in store
        assert store.probe("p", (0,), (Constant(1),)) == ()
        assert set(store.facts("p")) == {facts[0], facts[2]}
        assert store.count("p") == 2

    def test_retract_after_encoding_pass(self):
        store = columnar_store()
        facts = [Atom.of("p", i, i % 2) for i in range(6)]
        for fact in facts:
            store.add(fact)
        store.probe("p", (1,), (Constant(0),))  # forces encoding
        assert store.retract(facts[4])
        hits = store.probe("p", (1,), (Constant(0),))
        assert facts[4] not in hits
        assert set(hits) == {facts[0], facts[2]}

    def test_advance_delta_matches_dict_backend(self):
        columnar, plain = self._stores()
        for store in (columnar, plain):
            store.add(Atom.of("p", 1))
            store.advance_delta()
            store.add(Atom.of("p", 2))
        assert columnar.delta("p") == plain.delta("p") == {Atom.of("p", 1)}
        for store in (columnar, plain):
            store.advance_delta()
        assert columnar.delta("p") == plain.delta("p") == {Atom.of("p", 2)}
        assert columnar.frontier_size() == plain.frontier_size()

    def test_copy_is_independent_and_keeps_backend(self):
        store = columnar_store()
        store.add(Atom.of("p", 1))
        store.advance_delta()
        store.add(Atom.of("p", 2))
        clone = store.copy()
        assert clone._relations["p"].backend == "columnar"
        assert set(clone.facts()) == set(store.facts())
        assert clone.delta("p") == store.delta("p")
        clone.add(Atom.of("p", 3))
        store.retract(Atom.of("p", 1))
        assert Atom.of("p", 3) not in store
        assert Atom.of("p", 1) in clone

    def test_reset_delta_to_all(self):
        store = columnar_store()
        for i in range(3):
            store.add(Atom.of("p", i))
        store.advance_delta()
        store.reset_delta_to_all()
        assert store.delta("p") == {Atom.of("p", i) for i in range(3)}


# ---------------------------------------------------------------------------
# Differential equivalence: columnar batched vs dict tuple-at-a-time.


class TestDictColumnarEquivalence:
    MAX_ROUNDS = 400
    MAX_FACTS = 4_000

    def _run(self, program, columnar):
        try:
            result = program.run(
                provenance=True,
                max_rounds=self.MAX_ROUNDS,
                max_facts=self.MAX_FACTS,
                preflight=False,
                use_columnar=columnar,
                columnar_threshold=1 if columnar else None,
            )
        except Exception as exc:  # noqa: BLE001 — crashes compared too
            return ("error", type(exc).__name__)
        facts = frozenset(result.facts())
        # A replaced aggregate fact keeps its derivation, and the
        # per-binding path replaces more of them, so count only the
        # derivations of facts that survive.
        derived = sum(
            1 for d in result.provenance.derivations() if d.fact in facts
        )
        return ("ok", facts, derived, result.rounds)

    @given(
        rng=st.randoms(use_true_random=False), aggregates=st.booleans()
    )
    def test_identical_facts_provenance_and_rounds(self, rng, aggregates):
        """Without existentials the two backends agree on everything
        observable: fact sets (labels and all), derivation counts of
        those facts, and semi-naive round counts.  That holds with
        aggregates (the generator's default ``p_aggregate``) too,
        though columnar emits each group once per rule application and
        dict replaces the group fact binding by binding."""
        from repro.testing.generator import (
            GeneratorConfig, generate_program,
        )

        config = GeneratorConfig(p_existential=0.0)
        if not aggregates:
            config.p_aggregate = 0.0
        program = generate_program(rng, config)
        batched = self._run(program, columnar=True)
        rowwise = self._run(program, columnar=False)
        assert batched == rowwise, (
            f"columnar {batched[:2]} != dict {rowwise[:2]}\n"
            f"{program.to_source()}"
        )

    @given(rng=st.randoms(use_true_random=False))
    def test_backend_agreement_full_feature_mix(self, rng):
        """With the full generator mix (existentials, aggregates,
        negation, EGDs) the harness's backend=both lane — columnar/dict
        cross-check gated before the oracle — finds no disagreement."""
        from repro.testing.conformance import run_one
        from repro.testing.generator import (
            GeneratorConfig, generate_program,
        )

        program = generate_program(rng, GeneratorConfig())
        outcome = run_one(program, engine_variant="both", backend="both")
        assert not outcome.is_disagreement, (
            f"{outcome.status}: {outcome.detail}\n{program.to_source()}"
        )


# ---------------------------------------------------------------------------
# Batched error masking: suppress per-row, or fall back — both
# directions, matching the legacy evaluator exactly.


class TestBatchedErrorMasking:
    # Mutual recursion delivers e(2, 0) as a *delta* fact, so the
    # delta plan's pushed-down division raises mid-batch.  The legacy
    # evaluator joins all positives first and f(2) is absent — legacy
    # provably never evaluates 2/0 — so the batched executor must mask
    # that single row and keep the rest of the batch.  (The row path
    # falls back to legacy enumeration here instead; see
    # test_telemetry_events.TestPlanFallbackEvents for that lane.)
    MASK_PROGRAM = (
        'f(1). e(1, 1). seed(2).\n@label("div").\n'
        'out(Q) :- e(X, Y), Q = X / Y, f(X).\n'
        'e(X, 0) :- out(Q), seed(X).\n@output("out").\n'
    )

    # Here the raising row *does* complete the join (f(1) matches), so
    # legacy raises too: the batched path must fall back and reproduce
    # the legacy error, never silently masking it away.
    RAISE_PROGRAM = (
        'f(1). e(1, 0).\n@label("div").\n'
        'out(Q) :- e(X, Y), Q = X / Y, f(X).\n@output("out").\n'
    )

    def test_masked_row_matches_legacy_exactly(self):
        results = {}
        for name, kwargs in (
            ("columnar", dict(use_columnar=True, columnar_threshold=1)),
            ("dict", dict(use_columnar=False)),
            ("legacy", dict(use_plans=False, use_columnar=False)),
        ):
            result = Program.parse(self.MASK_PROGRAM).run(
                preflight=False, **kwargs
            )
            results[name] = frozenset(result.facts())
        assert results["columnar"] == results["dict"] == results["legacy"]
        out = Program.parse(self.MASK_PROGRAM).run(
            preflight=False, use_columnar=True, columnar_threshold=1
        )
        assert sorted(out.tuples("out")) == [(1.0,)]

    def test_raising_row_falls_back_and_reproduces_legacy_error(self):
        for kwargs in (
            dict(use_columnar=True, columnar_threshold=1),
            dict(use_columnar=False),
            dict(use_plans=False),
        ):
            with pytest.raises(EvaluationError):
                Program.parse(self.RAISE_PROGRAM).run(
                    preflight=False, **kwargs
                )

    def test_mask_emits_schema_versioned_event_not_fallback(self):
        from repro.telemetry.events import EVENT_SCHEMA_VERSION

        telemetry.enable(events=True)
        Program.parse(self.MASK_PROGRAM).run(
            preflight=False, use_columnar=True, columnar_threshold=1
        )
        log = telemetry.events()
        masks = log.tail("batch_mask")
        assert masks, "masked run emitted no batch_mask event"
        event = masks[0]
        assert event["v"] == EVENT_SCHEMA_VERSION
        payload = event["payload"]
        assert payload["rule"] == "div"
        assert payload["op"] == "assign"
        assert payload["error"] == "EvaluationError"
        assert payload["rows"] == 1
        assert {"step", "stratum", "round"} <= set(payload)
        # The row was masked, not abandoned: no plan fallback happened.
        assert not log.tail("plan_fallback")

    def test_mask_counter_attributed_to_rule(self):
        telemetry.enable()
        Program.parse(self.MASK_PROGRAM).run(
            preflight=False, use_columnar=True, columnar_threshold=1
        )
        counters = telemetry.registry().counters("chase.batch_masked_rows")
        assert sum(counters.values()) == 1
        assert any("div" in key for key in counters)

    def test_fallback_emits_event_under_batching(self):
        telemetry.enable(events=True)
        with pytest.raises(EvaluationError):
            Program.parse(self.RAISE_PROGRAM).run(
                preflight=False, use_columnar=True, columnar_threshold=1
            )
        log = telemetry.events()
        fallbacks = log.tail("plan_fallback")
        assert fallbacks, "fallback run emitted no plan_fallback event"
        assert fallbacks[0]["payload"]["rule"] == "div"


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

    def test_memory_stats_report_real_column_bytes(self):
        program = Program.parse(self.PROGRAM)
        result = program.run(
            self._facts(), preflight=False, provenance=False,
            use_columnar=True, columnar_threshold=20,
        )
        # One hit, one miss — memory_stats reports lifetime counters
        # whatever join order the planner picked.
        result.store.probe("e", (1,), (Constant(3),))
        result.store.probe("e", (1,), (Constant("never-stored"),))
        report = result.store.memory_stats()
        e_info = report["predicates"]["e"]
        assert e_info["backend"] == "columnar"
        assert e_info["column_bytes"] > 0
        assert e_info["estimated_bytes"] >= e_info["column_bytes"]
        assert e_info["probes"] >= 2
        assert e_info["probe_hits"] >= 1
        assert e_info["probe_hits"] < e_info["probes"]
        # f stayed below the threshold: dict shape, no columnar keys.
        f_info = report["predicates"]["f"]
        assert f_info["backend"] == "dict"
        assert "column_bytes" not in f_info
        # The total sums every columnar relation (out promoted too).
        assert report["column_bytes"] == sum(
            info.get("column_bytes", 0)
            for info in report["predicates"].values()
        )
        assert report["column_bytes"] >= e_info["column_bytes"]

    def test_render_memory_stable_for_dict_annotated_for_columnar(self):
        program = Program.parse(self.PROGRAM)
        result = program.run(
            self._facts(), preflight=False, provenance=False,
            use_columnar=True, columnar_threshold=20,
        )
        rendered = render_memory({"store": result.store.memory_stats()})
        e_line = next(
            line for line in rendered.splitlines()
            if line.strip().startswith("e:")
        )
        assert "in columns" in e_line
        assert "probes" in e_line
        f_line = next(
            line for line in rendered.splitlines()
            if line.strip().startswith("f:")
        )
        # Dict-backed predicates keep the historical line shape.
        assert f_line.endswith("frontier 0")
        assert "columns" not in f_line

    def test_explain_analyze_counts_batched_rows(self):
        program = Program.parse(self.PROGRAM)
        result = program.run(
            self._facts(), preflight=False, provenance=False,
            analyze=True, use_columnar=True, columnar_threshold=20,
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
        program.run(
            self._facts(), preflight=False, provenance=False,
            use_columnar=True, columnar_threshold=20,
        )
        counters = telemetry.registry().counters("store.columnar")
        assert sum(
            v for k, v in counters.items() if "promotions" in k
        ) >= 1
        assert sum(
            v for k, v in counters.items() if "rows_encoded" in k
        ) > 0
        assert sum(v for k, v in counters.items() if "probes" in k) > 0

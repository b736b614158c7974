"""Chase engine tests: recursion, existentials, restricted chase,
negation, aggregation, externals, routing, provenance."""

import gc

import pytest

from repro import telemetry
from repro.errors import (
    EvaluationError,
    StaticAnalysisError,
    StratificationError,
)
from repro.vadalog import (
    ExternalRegistry,
    Program,
    RoutingTable,
    boolean_external,
)
from repro.vadalog.atoms import Atom
from repro.vadalog.chase import ChaseEngine
from repro.vadalog.routing import sort_by_variable
from repro.vadalog.terms import Constant, LabelledNull


class TestRecursion:
    def test_transitive_closure(self):
        program = Program.parse(
            """
            edge(a, b). edge(b, c). edge(c, d).
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            """
        )
        result = program.run()
        assert sorted(result.tuples("path")) == [
            ("a", "b"), ("a", "c"), ("a", "d"),
            ("b", "c"), ("b", "d"), ("c", "d"),
        ]

    def test_long_chain_reaches_fixpoint(self):
        facts = [Atom.of("edge", i, i + 1) for i in range(60)]
        program = Program.parse(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            """
        )
        result = program.run(facts)
        assert result.store.count("path") == 61 * 60 // 2

    def test_mutual_recursion(self):
        program = Program.parse(
            """
            n(0). succ(0, 1). succ(1, 2). succ(2, 3).
            even(0).
            odd(Y) :- even(X), succ(X, Y).
            even(Y) :- odd(X), succ(X, Y).
            """
        )
        result = program.run()
        assert sorted(v for (v,) in result.tuples("even")) == [0, 2]
        assert sorted(v for (v,) in result.tuples("odd")) == [1, 3]


class TestExistentials:
    def test_fresh_null_created(self):
        program = Program.parse(
            """
            person(alice).
            hasId(X, Z) :- person(X).
            """
        )
        result = program.run()
        rows = result.tuples("hasId")
        assert len(rows) == 1
        assert isinstance(rows[0][1], LabelledNull)
        assert result.nulls_introduced == 1

    def test_restricted_chase_blocks_redundant_firing(self):
        # A known id already exists: no null should be invented.
        program = Program.parse(
            """
            person(alice). hasId(alice, 42).
            hasId(X, Z) :- person(X).
            """
        )
        result = program.run()
        assert result.nulls_introduced == 0
        assert result.tuples("hasId") == [("alice", 42)]

    def test_recursive_existentials_terminate_isomorphic(self):
        # Classic employee/manager chain: the restricted chase would
        # invent a manager for every manager; Vadalog-style isomorphic
        # pattern blocking terminates after the pattern repeats once.
        program = Program.parse(
            """
            emp(e1).
            reportsTo(X, Z) :- emp(X).
            emp(Z) :- reportsTo(X, Z).
            """
        )
        result = program.run(termination="isomorphic")
        assert result.nulls_introduced == 2
        assert result.store.count("reportsTo") == 2

    def test_shared_existential_across_head_atoms(self):
        program = Program.parse(
            """
            item(a). item(b).
            item(X) -> exists(Z) box(Z, X), label(Z, X).
            """
        )
        result = program.run()
        boxes = dict((x, z) for z, x in result.tuples("box"))
        labels = dict((x, z) for z, x in result.tuples("label"))
        assert boxes == labels
        assert boxes["a"] != boxes["b"]

    def test_body_bound_null_is_not_remappable(self):
        # The image check must not identify distinct body-bound nulls.
        program = Program.parse(
            """
            seed(a). seed(b).
            node(X, Z) :- seed(X).
            pair(Z, X) :- node(X, Z).
            """
        )
        result = program.run()
        pairs = result.tuples("pair")
        assert len(pairs) == 2
        assert pairs[0][0] != pairs[1][0]


class TestNegation:
    def test_stratified_negation(self):
        program = Program.parse(
            """
            n(1). n(2). n(3). m(2).
            only(X) :- n(X), not m(X).
            """
        )
        result = program.run()
        assert sorted(v for (v,) in result.tuples("only")) == [1, 3]

    def test_negation_cycle_rejected(self):
        program = Program.parse(
            """
            p(X) :- n(X), not q(X).
            q(X) :- n(X), not p(X).
            """
        )
        # The static-analysis pre-flight rejects it first (VDL010)...
        with pytest.raises(StaticAnalysisError) as caught:
            program.run([Atom.of("n", 1)])
        assert "VDL010" in str(caught.value)
        # ...and with the escape hatch, stratification itself refuses.
        with pytest.raises(StratificationError):
            program.run([Atom.of("n", 1)], preflight=False)

    def test_negation_uses_saturated_lower_stratum(self):
        program = Program.parse(
            """
            edge(a, b). edge(b, c).
            reach(a).
            reach(Y) :- reach(X), edge(X, Y).
            unreached(X) :- node(X), not reach(X).
            node(a). node(b). node(c). node(d).
            """
        )
        result = program.run()
        assert sorted(v for (v,) in result.tuples("unreached")) == ["d"]


class TestAggregation:
    def test_msum_groups_and_sums(self):
        program = Program.parse(
            """
            sale(north, a, 10). sale(north, b, 20). sale(south, c, 5).
            total(R, S) :- sale(R, I, V), S = msum(V, <I>).
            """
        )
        result = program.run()
        assert sorted(result.tuples("total")) == [
            ("north", 30), ("south", 5),
        ]

    def test_contributor_dedup_keeps_max(self):
        # Same contributor appearing with several values: only the
        # monotone-best (max) contribution counts.
        program = Program.parse(
            """
            sale(north, a, 10). sale(north, a, 25). sale(north, b, 1).
            total(R, S) :- sale(R, I, V), S = msum(V, <I>).
            """
        )
        result = program.run()
        assert result.tuples("total") == [("north", 26)]

    def test_mcount_distinct_contributors(self):
        program = Program.parse(
            """
            obs(g1, a). obs(g1, a). obs(g1, b). obs(g2, c).
            freq(G, F) :- obs(G, I), F = mcount(<I>).
            """
        )
        result = program.run()
        assert sorted(result.tuples("freq")) == [("g1", 2), ("g2", 1)]

    def test_final_aggregate_value_replaces_intermediates(self):
        # Functional emission: exactly one fact per group at fixpoint.
        program = Program.parse(
            """
            obs(g, a). obs(g, b). obs(g, c). obs(g, d).
            freq(G, F) :- obs(G, I), F = mcount(<I>).
            """
        )
        result = program.run()
        assert result.tuples("freq") == [("g", 4)]

    def test_downstream_stratum_sees_final_value_only(self):
        program = Program.parse(
            """
            obs(g, a). obs(g, b).
            freq(G, F) :- obs(G, I), F = mcount(<I>).
            unique(G) :- freq(G, F), F == 1.
            """
        )
        result = program.run()
        assert result.tuples("unique") == []

    def test_recursion_through_aggregate_company_control(self):
        program = Program.parse(
            """
            own(a, b, 0.6). own(b, c, 0.4). own(a, c, 0.2).
            own(X, Y, W) -> rel(X, X).
            rel(X, Y) :- own(X, Y, W), W > 0.5.
            rel(X, Y) :- rel(X, Z), own(Z, Y, W), msum(W, <Z>) > 0.5.
            """
        )
        result = program.run()
        pairs = {(x, y) for x, y in result.tuples("rel") if x != y}
        assert pairs == {("a", "b"), ("a", "c")}

    def test_mprod_monotonic_product(self):
        program = Program.parse(
            """
            risk(t1, a, 0.5). risk(t1, b, 0.5). risk(t2, c, 0.1).
            surv(T, P) :- risk(T, I, R), P = mprod(1 - R, <I>).
            """
        )
        result = program.run()
        values = dict(result.tuples("surv"))
        assert values["t1"] == pytest.approx(0.25)
        assert values["t2"] == pytest.approx(0.9)

    def test_munion_collects_pairs(self):
        program = Program.parse(
            """
            val(m, 1, area, north). val(m, 1, sector, tex).
            t(M, I, VSet) :- val(M, I, A, V), VSet = munion((A, V), <A>).
            """
        )
        result = program.run()
        rows = result.tuples("t")
        assert rows[0][2] == frozenset(
            {("area", "north"), ("sector", "tex")}
        )


class TestExternals:
    def test_boolean_external_filters(self):
        registry = ExternalRegistry()
        registry.register("bigger", boolean_external(lambda a, b: a > b))
        program = Program.parse(
            """
            n(1). n(5).
            big(X) :- n(X), #bigger(X, 3).
            """
        )
        result = program.run(externals=registry)
        assert result.tuples("big") == [(5,)]

    def test_external_binds_open_positions(self):
        registry = ExternalRegistry()

        def double(context, x, y):
            yield (x, x * 2)

        registry.register("double", double)
        program = Program.parse(
            """
            n(2). n(3).
            d(X, Y) :- n(X), #double(X, Y).
            """
        )
        result = program.run(externals=registry)
        assert sorted(result.tuples("d")) == [(2, 4), (3, 6)]

    def test_external_yielding_terms(self):
        """A yielded term is one output value, never an output tuple."""
        registry = ExternalRegistry()

        def tag(context, x, y):
            yield (x, Constant(("tag", x)))

        def pair(context, x):
            yield Constant(("pair", x))

        def bare(context, x, y):
            yield Constant(x)

        registry.register("tag", tag)
        registry.register("pair", pair)
        registry.register("bare", bare)
        program = Program.parse(
            """
            n(2). n(3).
            t(X, Y) :- n(X), #tag(X, Y).
            p(Y) :- n(X), #pair(Y).
            """
        )
        result = program.run(externals=registry)
        assert sorted(result.tuples("t")) == [
            (2, ("tag", 2)), (3, ("tag", 3)),
        ]
        assert result.tuples("p") == [(("pair", None),)]
        with pytest.raises(EvaluationError,
                           match="arity 1, expected 2"):
            Program.parse("n(1). b(X, Y) :- n(X), #bare(X, Y).").run(
                externals=registry
            )

    def test_unknown_external_raises(self):
        program = Program.parse("p(X) :- n(X), #mystery(X).")
        with pytest.raises(EvaluationError):
            program.run([Atom.of("n", 1)])

    def test_side_effecting_external_reenters_fixpoint(self):
        registry = ExternalRegistry()

        def spawn(context, x):
            if x < 3:
                context.assert_fact("n", x + 1)
            yield (x,)

        registry.register("spawn", spawn)
        program = Program.parse(
            """
            n(0).
            seen(X) :- n(X), #spawn(X).
            """
        )
        result = program.run(externals=registry)
        assert sorted(v for (v,) in result.tuples("seen")) == [0, 1, 2, 3]


class TestRoutingAndProvenance:
    def test_routing_orders_bindings(self):
        fired = []
        registry = ExternalRegistry()

        def record(context, x):
            fired.append(x)
            yield (x,)

        registry.register("record", record)
        routing = RoutingTable()
        routing.set_strategy("r", sort_by_variable("X", descending=True))
        program = Program.parse(
            """
            n(1). n(2). n(3).
            @label("r").
            out(X) :- n(X), #record(X).
            """
        )
        program.run(externals=registry, routing=routing)
        assert fired == [3, 2, 1]

    def test_provenance_tree(self):
        program = Program.parse(
            """
            edge(a, b). edge(b, c).
            @label("base"). path(X, Y) :- edge(X, Y).
            @label("step"). path(X, Z) :- path(X, Y), edge(Y, Z).
            """
        )
        result = program.run()
        target = Atom.of("path", "a", "c")
        tree = result.explain(target)
        rendered = tree.render()
        assert "[by step]" in rendered
        assert "[input]" in rendered
        assert "edge" in rendered

    def test_extensional_fact_has_no_derivation(self):
        program = Program.parse("edge(a, b). path(X, Y) :- edge(X, Y).")
        result = program.run()
        node = result.explain(Atom.of("edge", "a", "b"))
        assert node.is_extensional


class TestGuards:
    def test_max_facts_guard(self):
        program = Program.parse(
            """
            n(0).
            n(Y) :- n(X), Y = X + 1.
            """
        )
        with pytest.raises(EvaluationError):
            program.run(max_facts=500)


class TestCollectorPause:
    """The chase pauses the cyclic garbage collector and hands its
    state back unchanged, whichever way the run ends."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @staticmethod
    def observing(seen, nested=None):
        """A registry whose ``#probe(X)`` records ``gc.isenabled()``
        (after running ``nested``, when given) and keeps every X."""
        registry = ExternalRegistry()

        def probe(context, x):
            if nested is not None:
                nested()
            seen.append(gc.isenabled())
            yield (x,)

        registry.register("probe", probe)
        return registry

    def test_enabled_again_after_run(self):
        gc.enable()
        result = Program.parse("n(1). m(X) :- n(X).").run()
        assert result.tuples("m") == [(1,)]
        assert gc.isenabled()

    def test_enabled_again_after_error_mid_chase(self):
        gc.enable()
        program = Program.parse('p(1, "a").\np(X, _Y) -> r(X, _Y).\n')
        with pytest.raises(EvaluationError, match="not ground"):
            program.run(preflight=False)
        assert gc.isenabled()

    def test_caller_disabled_stays_disabled(self):
        gc.disable()
        Program.parse("n(1). m(X) :- n(X).").run()
        ChaseEngine(Program.parse("m(X) :- n(X).").rules).run(
            [Atom.of("n", 1)]
        )
        assert not gc.isenabled()

    def test_rule_loop_runs_paused(self):
        gc.enable()
        seen = []
        program = Program.parse("n(1). n(2). m(X) :- n(X), #probe(X).")
        program.run(externals=self.observing(seen))
        assert seen == [False, False]
        assert gc.isenabled()

    def test_nested_run_leaves_outer_pause(self):
        gc.enable()
        inner = Program.parse("k(1). j(X) :- k(X).")
        seen = []
        program = Program.parse("n(1). n(2). m(X) :- n(X), #probe(X).")
        result = program.run(
            externals=self.observing(seen, nested=inner.run)
        )
        assert sorted(result.tuples("m")) == [(1,), (2,)]
        assert seen == [False, False]
        assert gc.isenabled()


class TestCollectorPromotion:
    """On leaving the pause the run's survivors move into the oldest
    generation, unless the caller has frozen objects of its own."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    PROGRAM = "n(1). n(2). n(3). m(X, Y) :- n(X), n(Y)."

    def test_survivors_leave_the_young_generations(self):
        assert gc.get_freeze_count() == 0
        gc.enable()
        result = Program.parse(self.PROGRAM).run()
        young = {id(obj) for generation in (0, 1)
                 for obj in gc.get_objects(generation=generation)}
        assert gc.is_tracked(result.store)
        assert id(result.store) not in young
        assert any(obj is result.store
                   for obj in gc.get_objects(generation=2))
        assert len(result.tuples("m")) == 9

    def test_caller_freeze_left_intact(self):
        gc.enable()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            result = Program.parse(self.PROGRAM).run()
            assert gc.get_freeze_count() == frozen
            assert len(result.tuples("m")) == 9
            assert gc.isenabled()
        finally:
            gc.unfreeze()


class TestTelemetryObserves:
    """Telemetry records what a rule application did, whichever firing
    path the rule's shape and routing chose, and never picks the path
    itself."""

    GROUND = (
        'edge(a, b). edge(b, c).\n@label("base").\n'
        "path(X, Y) :- edge(X, Y).\n@label(\"step\").\n"
        "path(X, Z) :- path(X, Y), edge(Y, Z).\n"
    )
    AGGREGATE = (
        'e(a, 1). e(a, 2). e(b, 1).\n@label("agg").\n'
        "c(X, N) :- e(X, Y), N = mcount(1, <Y>).\n"
    )
    # A condition on the aggregate target makes the rule fire through
    # the row loop.
    AGGREGATE_PER_BINDING = (
        'e(a, 1). e(a, 2). e(b, 1).\n@label("agg").\n'
        "c(X, N) :- e(X, Y), N = mcount(1, <Y>), N > 0.\n"
    )

    @pytest.fixture(autouse=True)
    def clean_telemetry(self):
        telemetry.disable()
        telemetry.reset()
        yield
        telemetry.disable()
        telemetry.reset()

    @pytest.mark.parametrize(
        "source, firings",
        [(AGGREGATE, 2), (AGGREGATE_PER_BINDING, 3)],
        ids=["bulk", "per-binding"],
    )
    def test_aggregate_rule_reports_its_facts(self, source, firings):
        """Bulk firing counts one firing per group emission, the row
        loop one per binding that replaced the group's fact."""
        telemetry.enable(events=True)
        result = Program.parse(source).run()
        counters = result.stats["telemetry"]["counters"]
        assert counters["chase.rule_firings{rule=agg}"] == firings
        assert counters["chase.new_facts{rule=agg}"] == firings
        assert counters["chase.bindings{rule=agg}"] == 3
        derived = [
            fact
            for event in telemetry.events().tail("decision")
            if event["payload"]["kind"] == "derive"
            and event["payload"]["rule"] == "agg"
            for fact in event["payload"]["derived"]
        ]
        assert len(derived) == firings
        assert {str(fact) for fact in result.facts("c")} <= set(derived)

    def test_bulk_rules_never_enumerate_bindings_when_observed(
        self, monkeypatch
    ):
        """Bulk-shaped rules fire in bulk while telemetry observes:
        the row loop is never entered."""
        def per_binding(*args, **kwargs):
            raise AssertionError("rule fired binding by binding")

        expected = {
            source: set(Program.parse(source).run().facts())
            for source in (self.GROUND, self.AGGREGATE)
        }
        monkeypatch.setattr(ChaseEngine, "_fire_rows", per_binding)
        telemetry.enable(events=True)
        for source, facts in expected.items():
            assert set(Program.parse(source).run().facts()) == facts
        with pytest.raises(AssertionError, match="binding by binding"):
            Program.parse(self.AGGREGATE_PER_BINDING).run()

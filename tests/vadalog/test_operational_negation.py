"""Operational negation: ``@operational_negation("p")`` lets a rule
negate ``p`` inside its own recursive component, read against the live
store as an absence check in the rule's plans.

Covers the declaration (engine, oracle and lint exempt exactly the
declared same-component negations), the plan step, the exactness
predicate that decides whether rows are probed again before they fire,
firing order under FIFO and under a routing strategy (both through the
row loop), and pricing head plans without keeping an index.
"""

import pytest

from repro.errors import StratificationError
from repro.vadalog import Program
from repro.vadalog.analysis import analyze
from repro.vadalog.atoms import Atom
from repro.vadalog.chase import ChaseEngine
from repro.vadalog.database import FactStore
from repro.vadalog.negation import operational_predicates, stratify
from repro.vadalog.parser.parser import parse_program
from repro.vadalog.plans import (
    HeadPlan,
    NegationStep,
    absence_exact,
    compile_rule_plans,
)
from repro.vadalog.reference import naive_chase
from repro.vadalog.routing import RoutingTable
from repro.vadalog.terms import Constant, LabelledNull
from repro.vadalog_programs import SUDA, TUPLE_BUILD

#: A non-exact absence check: the head writes the absent predicate at
#: the body-bound key, so only the first row per Y may fire.
FIRST_PER_KEY = """
@operational_negation("seen").
@label("pick").
p(X, Y), not seen(Y) -> seen(Y), pick(X, Y).
"""


def in_discovery_order(rule, bindings):
    """FIFO order under another name: any strategy other than
    ``fifo_strategy`` makes every rule fire through the row loop, which
    hands the strategy its rows as substitution dicts."""
    return list(bindings)


def _rule(program, label):
    return program.rule_by_label(label)


def _absence(plans):
    return [
        step
        for _, plan in plans.named_plans()
        for step in plan.steps
        if isinstance(step, NegationStep) and step.operational
    ]


class TestDeclaration:
    def test_annotations_name_the_predicates(self):
        program = Program.parse(FIRST_PER_KEY)
        assert program.operational_negation() == {"seen"}
        assert operational_predicates(
            [("operational_negation", ("in",)), ("input", ("in",))]
        ) == {"in"}

    def test_declared_same_component_negation_stratifies(self):
        program = Program.parse(FIRST_PER_KEY)
        with pytest.raises(StratificationError):
            stratify(program.rules)
        assert len(stratify(program.rules, {"seen"})) == 1
        assert len(program.strata()) == 1

    def test_undeclared_same_component_negation_still_rejected(self):
        source = FIRST_PER_KEY.replace(
            '@operational_negation("seen").', ""
        )
        program = Program.parse(source)
        with pytest.raises(StratificationError):
            program.run([Atom.of("p", 1, "a")], preflight=False)
        with pytest.raises(StratificationError):
            naive_chase(program.rules, facts=[Atom.of("p", 1, "a")])
        codes = {d.code for d in analyze(program).errors}
        assert "VDL010" in codes

    def test_declaration_exempts_only_its_predicate(self):
        program = Program.parse(
            FIRST_PER_KEY
            + "q(X) :- p(X, _Y), not r(X).\nr(X) :- q(X).\n"
        )
        with pytest.raises(StratificationError):
            program.run([Atom.of("p", 1, "a")], preflight=False)
        errors = analyze(program).errors
        assert [d.code for d in errors] == ["VDL010"]
        assert "r" in errors[0].message

    def test_declared_program_is_lint_clean(self):
        report = analyze(Program.parse(FIRST_PER_KEY))
        assert not report.errors, report.render()

    def test_suda_needs_no_externals(self):
        program = Program.parse(SUDA)
        assert program.operational_negation() == {"in"}
        assert not any(
            literal.atom.is_external
            for rule in program.rules
            for literal in rule.body
        )


class TestAbsenceStep:
    def test_suda3_plans_check_absence(self):
        program = Program.parse(TUPLE_BUILD + SUDA)
        engine = ChaseEngine(
            program.rules,
            operational_negation=program.operational_negation(),
        )
        rule = _rule(program, "suda-3")
        engine._compile_plans(None)
        plans = engine._plan_cache[id(rule)]
        described = plans.describe()
        assert described and all(
            any(line.startswith("absence-check not in(A, Z1)")
                for line in lines)
            for lines in described.values()
        )
        for entry in engine.explain()["rules"]:
            if entry["rule"] != "suda-3":
                continue
            for plan in entry["plans"]:
                ops = [step["op"] for step in plan["steps"]]
                assert ops.count("absence-check") == 1
                assert "negation-check" not in ops
        # Both positions are bound: one full-key probe per row.
        (step,) = {step.key_positions for step in _absence(plans)}
        assert step == (0, 1)
        # An existential rule: rows fire one at a time, each blocking
        # later rows' keys.
        assert engine._batch_fire_mode(rule) == "rows"

    def test_stratified_negation_keeps_its_step(self):
        program = Program.parse(SUDA)
        plans = compile_rule_plans(
            _rule(program, "suda-7b"), program.operational_negation()
        )
        assert all(
            any(line.startswith("negation-check") for line in lines)
            for lines in plans.describe().values()
        )
        assert not _absence(plans)

    def test_suda3_start_read_is_exact(self):
        program = Program.parse(SUDA)
        rule = _rule(program, "suda-3")
        plans = compile_rule_plans(rule, {"in"})
        assert absence_exact(rule, _absence(plans))
        assert plans.absence_recheck == ()

    def test_head_writing_the_absent_key_is_not_exact(self):
        program = Program.parse(FIRST_PER_KEY)
        rule = _rule(program, "pick")
        plans = compile_rule_plans(rule, {"seen"})
        assert not absence_exact(rule, _absence(plans))
        assert [step.predicate for step in plans.absence_recheck] == [
            "seen"
        ]

    def test_other_head_constant_is_exact(self):
        (rule,) = parse_program(
            'p(X), not seen(X, "a") -> seen(X, "b").'
        ).rules
        plans = compile_rule_plans(rule, {"seen"})
        assert absence_exact(rule, _absence(plans))

    def test_aggregate_rule_writing_the_absent_predicate_is_not_exact(self):
        (rule,) = parse_program(
            'p(X, Y), not seen(X, "a"), C = mcount(<Y>) '
            '-> seen(X, "b"), count(X, C).'
        ).rules
        plans = compile_rule_plans(rule, {"seen"})
        assert not absence_exact(rule, _absence(plans))
        assert plans.absence_recheck

    def test_externals_always_probe_again(self):
        (rule,) = parse_program(
            "p(X, Z), not seen(X, Z), #ext(X) -> exists(W) seen(X, W)."
        ).rules
        plans = compile_rule_plans(rule, {"seen"})
        assert absence_exact(rule, _absence(plans))
        assert plans.absence_recheck


class TestFiringOrder:
    """The non-exact fixture fires the first row per key, in batch
    order (insertion order of ``p``), under FIFO and under a
    pass-through routing strategy: the row loop decides each row
    against the store as earlier rows left it."""

    @pytest.mark.parametrize("per_binding", [False, True])
    @pytest.mark.parametrize("rows, expected", [
        ([(1, "a"), (2, "a"), (3, "b"), (4, "a"), (5, "b")],
         {(1, "a"), (3, "b")}),
        ([(4, "a"), (5, "b"), (1, "a"), (3, "b")],
         {(4, "a"), (5, "b")}),
    ])
    def test_first_row_per_key_fires(self, per_binding, rows, expected):
        program = Program.parse(FIRST_PER_KEY)
        routing = RoutingTable(in_discovery_order) if per_binding else None
        result = program.run(
            [Atom.of("p", x, y) for x, y in rows], routing=routing
        )
        assert set(result.tuples("pick")) == expected
        assert set(result.tuples("seen")) == {(y,) for _, y in expected}
        picked = {
            (d.fact.terms[0].value, d.fact.terms[1].value):
                [str(p) for p in d.premises]
            for d in result.provenance.derivations()
            if d.fact.predicate == "pick"
        }
        assert picked == {
            (x, y): [str(Atom.of("p", x, y))] for x, y in expected
        }

    def test_fixture_fires_in_bulk(self):
        """Under FIFO the fixture fires from its batch columns, one row
        at a time: a firing can fill a later row's absence key."""
        program = Program.parse(FIRST_PER_KEY)
        engine = ChaseEngine(
            program.rules,
            operational_negation=program.operational_negation(),
        )
        engine._compile_plans(None)
        assert engine._batch_fire_mode(_rule(program, "pick")) == "rows"

    def test_suda_per_binding_path_matches_bulk(self):
        """SUDA under a pass-through routing strategy, every rule
        through the row loop, derives what FIFO firing (bulk where the
        shape allows) derives."""
        from repro.data import generate_dataset

        db = generate_dataset("R6A4U", seed=7, scale=600)
        facts = db.to_facts() + [
            Atom.of("anonSet", db.name, frozenset(db.quasi_identifiers)),
            Atom.of("param", "suda_k", 3),
        ]
        program = Program.parse(TUPLE_BUILD + SUDA)
        bulk = program.run(facts)
        routed = program.run(
            facts, routing=RoutingTable(in_discovery_order)
        )
        assert set(bulk.facts()) == set(routed.facts())
        assert bulk.rounds == routed.rounds
        assert bulk.nulls_introduced == routed.nulls_introduced


class TestPricingKeepsNoIndex:
    def _store(self):
        return FactStore(
            [Atom.of("in", attribute, LabelledNull(label))
             for label in range(6) for attribute in ("A", "B", "C")[
                 : label % 3 + 1]]
        )

    def test_unbuilt_index_is_counted_not_kept(self):
        store = self._store()
        relation = store._relations["in"]
        # 12 facts over 3 distinct attributes.
        assert store.average_group_size("in", (0,)) == 12 / 3
        assert relation.groups == {}

    def test_built_index_is_read(self):
        store = self._store()
        store.probe("in", (1,), (LabelledNull(0),))
        relation = store._relations["in"]
        assert (1,) in relation.groups
        assert store.average_group_size("in", (1,)) == 12 / 6

    def test_retracted_rows_do_not_count(self):
        store = self._store()
        store.retract(Atom.of("in", "A", LabelledNull(0)))
        store.retract(Atom.of("in", "A", LabelledNull(3)))
        assert store.average_group_size("in", (1,)) == 10 / 4

    def test_suda3_head_plan_leaves_no_index_behind(self):
        program = Program.parse(SUDA)
        head = HeadPlan(_rule(program, "suda-3"))
        null = LabelledNull(1)
        store = FactStore([
            Atom("comb", (null, Constant(0))),
            Atom("inComb", (LabelledNull(2), null)),
            Atom("in", (Constant("A"), null)),
        ])
        head.plan(store)
        assert all(
            not store._relations[predicate].groups
            for predicate in ("comb", "inComb", "in")
        )

"""Aggregate state, stratification, wardedness, EGD unit tests."""

import pytest

from repro import telemetry
from repro.errors import (
    EGDViolationError,
    EvaluationError,
    SafetyError,
    StratificationError,
)
from repro.vadalog import Program
from repro.vadalog.aggregates import AggregateState
from repro.vadalog.atoms import Atom, Literal
from repro.vadalog.database import FactStore
from repro.vadalog.egd import enforce_egds
from repro.vadalog.negation import DependencyGraph, stratify
from repro.vadalog.parser.parser import parse_program
from repro.vadalog.reference import naive_chase
from repro.vadalog.rules import EGD, Rule
from repro.vadalog.terms import Constant, LabelledNull, Variable
from repro.vadalog.wardedness import affected_positions, check_wardedness


class TestAggregateState:
    def test_msum_accumulates(self):
        state = AggregateState("msum")
        changed, value = state.contribute("g", "a", 10)
        assert changed and value == 10
        changed, value = state.contribute("g", "b", 5)
        assert changed and value == 15

    def test_msum_same_contributor_keeps_max(self):
        state = AggregateState("msum")
        state.contribute("g", "a", 10)
        changed, value = state.contribute("g", "a", 4)
        assert not changed and value == 10
        changed, value = state.contribute("g", "a", 12)
        assert changed and value == 12

    def test_mcount_dedups(self):
        state = AggregateState("mcount")
        state.contribute("g", "a", 1)
        changed, value = state.contribute("g", "a", 1)
        assert not changed and value == 1
        _, value = state.contribute("g", "b", 1)
        assert value == 2

    def test_mprod_multiplies_max_contributions(self):
        state = AggregateState("mprod")
        state.contribute("g", "a", 0.5)
        state.contribute("g", "b", 0.5)
        assert state.value("g") == pytest.approx(0.25)
        # A "less risky" replacement (bigger factor) supersedes.
        state.contribute("g", "a", 0.9)
        assert state.value("g") == pytest.approx(0.45)

    def test_mmin_mmax(self):
        low = AggregateState("mmin")
        low.contribute("g", "a", 4)
        low.contribute("g", "b", 2)
        assert low.value("g") == 2
        high = AggregateState("mmax")
        high.contribute("g", "a", 4)
        high.contribute("g", "b", 9)
        assert high.value("g") == 9

    def test_munion_unions(self):
        state = AggregateState("munion")
        state.contribute("g", "a", ("x", 1))
        state.contribute("g", "b", ("y", 2))
        assert state.value("g") == frozenset({("x", 1), ("y", 2)})

    def test_non_numeric_contribution_rejected(self):
        state = AggregateState("msum")
        with pytest.raises(EvaluationError):
            state.contribute("g", "a", "not-a-number")

    def test_empty_group_value_raises(self):
        state = AggregateState("msum")
        with pytest.raises(EvaluationError):
            state.value("missing")


class TestFunctionalAggregateOwnership:
    """A group replaces only the facts it added: an emission that finds
    its fact already in the store (here an input fact) neither claims
    it nor retracts it later, whether the group fires in bulk or
    binding by binding."""

    SOURCE = (
        'p("a", 1). p("a", 2). p("a", 3). cnt("a", 1).\n'
        "p(X, Y), C = mcount(<Y>) -> cnt(X, C).\n"
    )
    EXPECTED = {Atom.of("cnt", "a", 1), Atom.of("cnt", "a", 3)}

    @pytest.mark.parametrize("traced", [True, False])
    @pytest.mark.parametrize("provenance", [True, False])
    def test_engine_keeps_input_fact(self, provenance, traced):
        if traced:
            telemetry.enable()
        try:
            result = Program.parse(self.SOURCE).run(provenance=provenance)
        finally:
            telemetry.disable()
            telemetry.reset()
        assert set(result.facts("cnt")) == self.EXPECTED

    def test_oracle_keeps_input_fact(self):
        program = Program.parse(self.SOURCE)
        result = naive_chase(program.rules, program.facts)
        assert set(result.facts("cnt")) == self.EXPECTED


class TestSupersededPremises:
    """Through recursion a rule can fire on a group value that a later
    round replaces.  The replaced fact leaves the store but keeps its
    derivation, so explanations never pass it off as input."""

    SOURCE = (
        'edge(1, 2). edge(2, 3). edge(3, 4). val("g", 1).\n'
        '@label("best").\n'
        "val(G, X), C = mmax(X, <X>) -> best(G, C).\n"
        '@label("step").\n'
        "best(G, C), edge(C, D) -> val(G, D).\n"
    )

    @pytest.mark.parametrize("traced", [True, False])
    def test_replaced_group_fact_still_explained(self, traced):
        if traced:
            telemetry.enable()
        try:
            result = Program.parse(self.SOURCE).run()
        finally:
            telemetry.disable()
            telemetry.reset()
        assert set(result.facts("best")) == {Atom.of("best", "g", 4)}
        superseded = Atom.of("best", "g", 1)
        assert not result.store.contains(superseded)
        tree = result.explain(Atom.of("val", "g", 2))
        premise = tree.children[0]
        assert premise.fact == superseded
        assert premise.rule_label == "best"
        assert "[input]" not in premise.render().splitlines()[0]
        assert result.provenance.rule_chain(Atom.of("val", "g", 4)) == [
            "step", "best", "step", "best", "step", "best",
        ]


class TestStratification:
    def parse_rules(self, source):
        return parse_program(source).rules

    def test_linear_program_single_pass(self):
        rules = self.parse_rules(
            "p(X) :- e(X). q(X) :- p(X). r(X) :- q(X)."
        )
        strata = stratify(rules)
        flat = [rule.head[0].predicate for stratum in strata
                for rule in stratum]
        assert flat.index("p") < flat.index("q") < flat.index("r")

    def test_negation_pushes_to_later_stratum(self):
        rules = self.parse_rules(
            """
            reach(Y) :- reach(X), e(X, Y).
            un(X) :- n(X), not reach(X).
            """
        )
        strata = stratify(rules)
        labels = [
            {rule.head[0].predicate for rule in stratum}
            for stratum in strata
        ]
        reach_stratum = next(
            i for i, s in enumerate(labels) if "reach" in s
        )
        un_stratum = next(i for i, s in enumerate(labels) if "un" in s)
        assert reach_stratum < un_stratum

    def test_negation_in_cycle_rejected(self):
        rules = self.parse_rules(
            """
            p(X) :- n(X), not q(X).
            q(X) :- p(X).
            """
        )
        with pytest.raises(StratificationError):
            stratify(rules)

    def test_aggregation_recursion_allowed(self):
        rules = self.parse_rules(
            """
            rel(X, Y) :- own(X, Y, W), W > 0.5.
            rel(X, Y) :- rel(X, Z), own(Z, Y, W), msum(W, <Z>) > 0.5.
            """
        )
        strata = stratify(rules)  # must not raise
        assert sum(len(s) for s in strata) == 2

    def test_dependency_graph_ancestors(self):
        rules = self.parse_rules("p(X) :- e(X). q(X) :- p(X).")
        graph = DependencyGraph(rules)
        assert graph.depends_on("q") == {"p", "e"}


class TestWardedness:
    def test_affected_positions_from_existential(self):
        rules = parse_program("p(X, Z) :- e(X).").rules
        affected = affected_positions(rules)
        assert ("p", 1) in affected
        assert ("p", 0) not in affected

    def test_affected_propagates_through_frontier(self):
        rules = parse_program(
            """
            p(X, Z) :- e(X).
            q(Y) :- p(X, Y).
            """
        ).rules
        affected = affected_positions(rules)
        assert ("q", 0) in affected

    def test_warded_program_passes(self):
        program = Program.parse(
            """
            p(X, Z) :- e(X).
            q(X, Y) :- p(X, Y).
            """
        )
        assert program.wardedness().is_warded

    def test_dangerous_join_without_ward_flagged(self):
        # Y is harmful in both body atoms (only affected positions) and
        # appears in the head; the two atoms share it, so no ward.
        program = Program.parse(
            """
            p(X, Z) :- e(X).
            r(Y) :- p(X, Y), p(X2, Y).
            """
        )
        report = program.wardedness()
        assert not report.is_warded
        assert len(report.violations()) == 1

    def test_strict_mode_raises(self):
        from repro.errors import WardednessError

        program = Program.parse(
            """
            p(X, Z) :- e(X).
            r(Y) :- p(X, Y), p(X2, Y).
            """
        )
        with pytest.raises(WardednessError):
            program.wardedness(strict=True)

    def test_datalog_without_existentials_is_warded(self):
        program = Program.parse(
            "p(X, Y) :- e(X, Y). p(X, Z) :- p(X, Y), e(Y, Z)."
        )
        assert program.wardedness().is_warded


class TestEGDs:
    def test_null_unification(self):
        store = FactStore(
            [
                Atom("cat", (Constant("m"), Constant("a"), LabelledNull(1))),
                Atom("cat", (Constant("m"), Constant("a"), Constant("qi"))),
            ]
        )
        egd = parse_program(
            "C1 = C2 :- cat(M, A, C1), cat(M, A, C2)."
        ).egds[0]
        violations = enforce_egds([egd], store)
        assert violations == []
        facts = list(store.facts("cat"))
        assert len(facts) == 1
        assert facts[0].terms[2] == Constant("qi")

    def test_constant_clash_reported(self):
        store = FactStore(
            [
                Atom.of("cat", "m", "a", "qi"),
                Atom.of("cat", "m", "a", "id"),
            ]
        )
        egd = parse_program(
            "C1 = C2 :- cat(M, A, C1), cat(M, A, C2)."
        ).egds[0]
        violations = enforce_egds([egd], store)
        assert violations
        values = {str(violations[0].left), str(violations[0].right)}
        assert values == {'"qi"', '"id"'}

    def test_strict_mode_raises(self):
        store = FactStore(
            [Atom.of("cat", "m", "a", "qi"), Atom.of("cat", "m", "a", "id")]
        )
        egd = parse_program(
            "C1 = C2 :- cat(M, A, C1), cat(M, A, C2)."
        ).egds[0]
        with pytest.raises(EGDViolationError):
            enforce_egds([egd], store, strict=True)

    def test_egd_requires_body_variables(self):
        body = [Literal(Atom("p", (Variable("X"),)))]
        with pytest.raises(SafetyError):
            EGD(body, [(Variable("X"), Variable("Y"))])


class TestRuleSafety:
    def test_unbound_assignment_input_rejected(self):
        with pytest.raises(SafetyError):
            parse_program("p(X, Y) :- q(X), Y = Z + 1.")

    def test_unbound_condition_rejected(self):
        with pytest.raises(SafetyError):
            parse_program("p(X) :- q(X), Z > 1.")

    def test_negated_unbound_variable_rejected(self):
        with pytest.raises(SafetyError):
            parse_program("p(X) :- q(X), not r(Y).")

    def test_negated_anonymous_variable_allowed(self):
        rules = parse_program("p(X) :- q(X), not r(X, _).").rules
        assert len(rules) == 1

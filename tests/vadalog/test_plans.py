"""Compiled join plans: compilation shape, execution fidelity against
the naive oracle, and the engine's plan cache."""

import pytest

from repro.errors import EvaluationError
from repro.vadalog import Program
from repro.vadalog.atoms import Atom
from repro.vadalog.chase import ChaseEngine
from repro.vadalog.plans import NegationStep, ScanStep, compile_rule_plans
from repro.vadalog.reference import naive_chase
from repro.vadalog.terms import Constant, Variable
from repro.vadalog.unification import probe_layout


def parse_rules(source):
    return Program.parse(source).rules


class TestProbeLayout:
    def test_constants_and_known_vars_form_the_key(self):
        X, Y = Variable("X"), Variable("Y")
        atom = Atom("p", (X, Constant("c"), Y))
        positions, sources, outputs, repeats = probe_layout(atom, {X})
        assert positions == (0, 1)
        assert sources == (X, Constant("c"))
        assert outputs == ((2, Y),)
        assert repeats == ()

    def test_repeated_fresh_variable_becomes_equality_check(self):
        X = Variable("X")
        atom = Atom("p", (X, X))
        positions, _sources, outputs, repeats = probe_layout(atom, set())
        assert positions == ()
        assert outputs == ((0, X),)
        assert repeats == ((1, X),)

    def test_anonymous_variables_constrain_nothing(self):
        atom = Atom("p", (Variable("_"), Variable("X")))
        positions, _sources, outputs, _repeats = probe_layout(atom, set())
        assert positions == ()
        assert [v.name for _, v in outputs] == ["X"]


class TestCompilation:
    def test_one_delta_plan_per_positive_literal(self):
        (rule,) = parse_rules(
            "out(X, Z) :- e(X, Y), f(Y, Z).\n@output(\"out\").\n"
        )
        plans = compile_rule_plans(rule)
        assert [pred for _, pred, _ in plans.delta_plans] == ["e", "f"]
        # Each delta plan leads with a delta-scoped scan of its literal.
        for index, _pred, plan in plans.delta_plans:
            first = plan.steps[0]
            assert isinstance(first, ScanStep) and first.delta_only

    def test_second_scan_probes_on_the_join_variable(self):
        (rule,) = parse_rules(
            "out(X, Z) :- e(X, Y), f(Y, Z).\n@output(\"out\").\n"
        )
        plans = compile_rule_plans(rule)
        second = plans.first_round.steps[1]
        assert isinstance(second, ScanStep)
        assert second.key_positions == (0,)  # f's Y, bound by e's scan

    def test_assignment_pushed_before_dependent_scan(self):
        # Q is assigned from e's variables and then *probes* f — the
        # cross-product-to-hash-probe rewrite the plan layer exists for.
        (rule,) = parse_rules(
            "out(X, F) :- e(X, Y), Q = Y + 1, f(Q, F).\n"
            "@output(\"out\").\n"
        )
        plans = compile_rule_plans(rule)
        kinds = [type(s).__name__ for s in plans.first_round.steps]
        assert kinds == ["ScanStep", "AssignStep", "ScanStep"]
        assert plans.first_round.steps[2].key_positions == (0,)

    def test_conditions_wait_for_assignments(self):
        # A rule evaluates every assignment before any condition and
        # stops at the first failure; the plan preserves that order.
        (rule,) = parse_rules(
            "out(X) :- e(X, Y), X > 0, Q = Y * 2, R = Q + X.\n"
            "@output(\"out\").\n"
        )
        plans = compile_rule_plans(rule)
        kinds = [type(s).__name__ for s in plans.first_round.steps]
        assert kinds.index("FilterStep") > kinds.index("AssignStep")
        assert kinds.count("AssignStep") == 2

    def test_negation_scheduled_over_positive_vars_only(self):
        (rule,) = parse_rules(
            "out(X) :- e(X, Y), not f(X, Q), Q = Y + 1.\n"
            "@output(\"out\").\n"
        )
        plans = compile_rule_plans(rule)
        steps = plans.first_round.steps
        negation = next(s for s in steps if isinstance(s, NegationStep))
        # Q is assignment-bound: negation is checked over the positive
        # join, before assignments run, so Q must stay out of the key.
        assert negation.key_positions == (0,)

    def test_assignment_reading_external_only_variable_rejected(self):
        (rule,) = parse_rules(
            "out(X, Q) :- e(X), #ext(X, Y), Q = Y + 1.\n"
            "@output(\"out\").\n"
        )
        with pytest.raises(EvaluationError, match="external-only"):
            compile_rule_plans(rule)

    def test_describe_lists_every_plan(self):
        (rule,) = parse_rules(
            "out(X, Z) :- e(X, Y), f(Y, Z).\n@output(\"out\").\n"
        )
        dump = compile_rule_plans(rule).describe()
        assert set(dump) == {"first-round", "delta[0:e]", "delta[1:f]"}
        assert any("probe" in line for line in dump["first-round"])


class TestExecutionFidelity:
    """Each case runs the engine and the naive oracle on one program:
    both succeed with the same facts, or both raise."""

    def _run_both(self, source):
        program = Program.parse(source)
        engine = program.run(provenance=False, preflight=False)
        oracle = naive_chase(program.rules, facts=program.facts)
        return engine, oracle

    def _assert_both_raise(self, source):
        program = Program.parse(source)
        with pytest.raises(EvaluationError):
            program.run(provenance=False, preflight=False)
        with pytest.raises(EvaluationError):
            naive_chase(program.rules, facts=program.facts)

    def test_join_results_match_oracle(self):
        source = (
            "e(1, 2). e(2, 3). e(3, 4).\n"
            "path(X, Y) :- e(X, Y).\n"
            "path(X, Z) :- path(X, Y), e(Y, Z).\n"
            "@output(\"path\").\n"
        )
        engine, oracle = self._run_both(source)
        assert frozenset(engine.facts()) == frozenset(oracle.facts())

    def test_duplicate_body_literals(self):
        # The seed suite's RecursionError shape: identical literals.
        source = (
            "e(1, 2). e(2, 3).\n"
            "out(X, Z) :- e(X, Z), e(X, Z).\n@output(\"out\").\n"
        )
        engine, oracle = self._run_both(source)
        assert frozenset(engine.facts()) == frozenset(oracle.facts())

    def test_repeated_variables_in_one_atom(self):
        source = (
            "e(1, 1). e(1, 2). e(2, 2).\n"
            "diag(X) :- e(X, X).\n@output(\"diag\").\n"
        )
        engine, _ = self._run_both(source)
        assert sorted(engine.tuples("diag")) == [(1,), (2,)]

    def test_assignment_equality_check_when_target_bound(self):
        source = (
            "e(1, 2). e(2, 4). f(1). f(2).\n"
            "out(X) :- e(X, Y), f(X), Y = X * 2.\n@output(\"out\").\n"
        )
        engine, oracle = self._run_both(source)
        assert sorted(engine.tuples("out")) == [(1,), (2,)]
        assert frozenset(engine.facts()) == frozenset(oracle.facts())

    def test_error_surfaces_when_row_completes_join(self):
        # The pushed-down assignment divides by an e-value; with 0 in
        # range and f(1) completing the join, the rule body reaches
        # the division, so the engine raises like the oracle does.
        self._assert_both_raise(
            "e(1, 0). f(1).\n"
            "out(Q) :- e(X, Y), Q = X / Y, f(X).\n@output(\"out\").\n"
        )

    def test_error_masked_when_row_never_completes_join(self):
        # f filters X=2 out of the full join, so the body never
        # evaluates 2/0: the pushed-down assignment's error on that
        # row is masked and the result matches the oracle.
        source = (
            "e(1, 1). e(2, 0). f(1).\n"
            "out(Q) :- e(X, Y), Q = X / Y, f(X).\n@output(\"out\").\n"
        )
        engine, oracle = self._run_both(source)
        assert frozenset(engine.facts()) == frozenset(oracle.facts())

    def test_error_masked_when_earlier_assignment_rejects_completions(
        self,
    ):
        # The plan assigns Y = X + 1 after scanning a, then checks the
        # raising condition 1 / X > 0 before it probes b(Y).  For a(0)
        # a completing join exists only through b(5), and there the
        # body's Y = X + 1 is an equality check that rejects it before
        # the condition runs: the error is masked, as in the oracle.
        source = (
            "a(0). a(1). b(2). b(5).\n"
            "out(X) :- a(X), b(Y), Y = X + 1, 1 / X > 0.\n"
            "@output(\"out\").\n"
        )
        engine, oracle = self._run_both(source)
        assert sorted(engine.tuples("out")) == [(1,)]
        assert frozenset(engine.facts()) == frozenset(oracle.facts())
        (rule,) = Program.parse(source).rules
        kinds = [
            type(step).__name__
            for step in compile_rule_plans(rule).first_round.steps
        ]
        assert kinds == ["ScanStep", "AssignStep", "FilterStep", "ScanStep"]

    def test_negation_with_unbound_variable(self):
        source = (
            "e(1). e(2). f(2, 7).\n"
            "out(X) :- e(X), not f(X, _).\n@output(\"out\").\n"
        )
        engine, oracle = self._run_both(source)
        assert sorted(engine.tuples("out")) == [(1,)]
        assert frozenset(engine.facts()) == frozenset(oracle.facts())


class TestPlanCache:
    def test_plan_cache_survives_across_runs(self):
        (rule,) = parse_rules("out(X) :- e(X).\n@output(\"out\").\n")
        engine = ChaseEngine([rule])
        engine.run([Atom.of("e", 1)])
        cached = engine._plan_cache[id(rule)]
        engine.run([Atom.of("e", 2)])
        assert engine._plan_cache[id(rule)] is cached

    def test_plan_report_names_rules(self):
        rules = parse_rules(
            "@label(\"hop\").\nout(X, Z) :- e(X, Y), e(Y, Z).\n"
            "@output(\"out\").\n"
        )
        engine = ChaseEngine(rules)
        engine.run([Atom.of("e", 1, 2)])
        report = engine.plan_report()
        assert "hop" in report
        assert "first-round" in report["hop"]

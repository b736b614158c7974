"""Program-container tests: composition, annotations, outputs,
strata, source access."""

import pytest

from repro.vadalog import Program
from repro.vadalog.atoms import Atom


class TestComposition:
    def test_addition_merges_everything(self):
        first = Program.parse("p(X) :- e(X).", name="base")
        second = Program.parse(
            "e(1). q(X) :- p(X). C1 = C2 :- c(A, C1), c(A, C2).",
            name="ext",
        )
        combined = first + second
        assert len(combined.rules) == 2
        assert len(combined.egds) == 1
        assert len(combined.facts) == 1
        assert combined.name == "base+ext"

    def test_composed_program_runs(self):
        risk = Program.parse("risky(X) :- score(X, S), S > 3.")
        scores = Program.parse("score(a, 5). score(b, 1).")
        result = (risk + scores).run()
        assert result.tuples("risky") == [("a",)]

    def test_addition_type_check(self):
        with pytest.raises(TypeError):
            Program.parse("p(a).") + 42


class TestAnnotations:
    def test_outputs_and_inputs(self):
        program = Program.parse(
            """
            @input("val"). @output("riskOutput"). @output("tupleA").
            riskOutput(X, 1) :- val(X).
            """
        )
        assert program.outputs() == ["riskOutput", "tupleA"]
        assert program.inputs() == ["val"]

    def test_output_facts_filter(self):
        program = Program.parse(
            """
            @output("q").
            e(1). e(2).
            p(X) :- e(X).
            q(X) :- p(X).
            """
        )
        result = program.run()
        outputs = list(result.output_facts(program.outputs()))
        assert {fact.predicate for fact in outputs} == {"q"}
        assert len(outputs) == 2

    def test_module_annotation_kept(self):
        program = Program.parse('@module("risk"). p(X) :- e(X).')
        assert ("module", ("risk",)) in program.annotations


class TestIntrospection:
    def test_predicates(self):
        program = Program.parse("e(1). p(X) :- e(X), not q(X).")
        assert program.predicates() == ["e", "p", "q"]

    def test_rule_by_label(self):
        program = Program.parse('@label("r1"). p(X) :- e(X).')
        assert program.rule_by_label("r1").head[0].predicate == "p"
        with pytest.raises(KeyError):
            program.rule_by_label("missing")

    def test_strata_ordering(self):
        program = Program.parse(
            """
            p(X) :- e(X).
            q(X) :- p(X), not r(X).
            r(X) :- e(X), special(X).
            """
        )
        strata = program.strata()
        flattened = [
            rule.head[0].predicate
            for stratum in strata
            for rule in stratum
        ]
        assert flattened.index("r") < flattened.index("q")

    def test_len_and_repr(self):
        program = Program.parse(
            "e(1). p(X) :- e(X). C1 = C2 :- c(A, C1), c(A, C2)."
        )
        assert len(program) == 2
        assert "1 rules" in repr(program) or "1 rule" in repr(program)

    def test_extra_facts_at_run(self):
        program = Program.parse("p(X) :- e(X).")
        result = program.run([Atom.of("e", 7)])
        assert result.tuples("p") == [(7,)]

"""Tests for the static analyzer: golden diagnostics per pass, span
threading, wardedness regressions, the pre-flight gate and the
conformance-harness integration.

The hypothesis property at the bottom runs under the profile selected
in ``tests/conftest.py`` (``HYPOTHESIS_PROFILE=deep`` in the nightly
lane)."""

import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import (
    ParseError,
    SafetyError,
    StaticAnalysisError,
    StratificationError,
    WardednessError,
)
from repro.framework import VadaSA
from repro.testing.conformance import ConformanceOutcome, run_one
from repro.testing.generator import generate_program
from repro.vadalog import Program, analyze
from repro.vadalog.atoms import Atom, Condition, Literal
from repro.vadalog.expressions import BinOp, Lit, VarRef
from repro.vadalog.rules import Rule
from repro.vadalog.terms import Constant, Variable
from repro.vadalog.wardedness import check_wardedness
from repro.vadalog_programs import PROGRAMS, program_source

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def codes_of(report):
    return {d.code for d in report.diagnostics}


def diagnostic(report, code):
    matches = [d for d in report.diagnostics if d.code == code]
    assert matches, f"expected {code} in {sorted(codes_of(report))}"
    return matches[0]


class TestGoldenDiagnostics:
    """One minimal trigger per diagnostic code: code, span, message."""

    def test_vdl001_negation_only_binding(self):
        # Only constructible with validation off — the parser refuses
        # such rules outright, but programmatic clients can build them.
        rule = Rule(
            head=[Atom("p", (X,))],
            body=[
                Literal(Atom("q", (Y,))),
                Literal(Atom("r", (X,)), negated=True),
            ],
            validate=False,
        )
        program = Program(
            rules=[rule],
            facts=[Atom("q", (Constant(1),)), Atom("r", (Constant(1),))],
        )
        found = diagnostic(analyze(program), "VDL001")
        assert found.severity == "error"
        assert "only bound under negation" in found.message

    def test_vdl002_implicit_existential(self):
        report = analyze(Program.parse("p(X, Z) :- q(X).\nq(1)."))
        found = diagnostic(report, "VDL002")
        assert found.severity == "warning"
        assert "implicitly existential" in found.message
        assert str(found.span) == "1:1"

    def test_vdl002_silent_when_declared(self):
        report = analyze(Program.parse("exists(Z) p(X, Z) :- q(X).\nq(1)."))
        assert "VDL002" not in codes_of(report)

    def test_vdl003_floating_negation(self):
        rule = Rule(
            head=[Atom("p", (X,))],
            body=[
                Literal(Atom("q", (X,))),
                Literal(Atom("r", (X, Y)), negated=True),
            ],
            validate=False,
        )
        program = Program(
            rules=[rule],
            facts=[
                Atom("q", (Constant(1),)),
                Atom("r", (Constant(1), Constant(2))),
            ],
        )
        found = diagnostic(analyze(program), "VDL003")
        assert found.severity == "error"
        assert "no positive binding" in found.message

    def test_vdl004_unbound_condition_input(self):
        rule = Rule(
            head=[Atom("p", (X,))],
            body=[Literal(Atom("q", (X,)))],
            conditions=[Condition(BinOp(">", VarRef(Z), Lit(2)))],
            validate=False,
        )
        program = Program(rules=[rule], facts=[Atom("q", (Constant(1),))])
        found = diagnostic(analyze(program), "VDL004")
        assert found.severity == "error"
        assert "unbound variable(s) Z" in found.message

    def test_vdl010_negation_cycle(self):
        report = analyze(
            Program.parse(
                "p(X) :- b(X), not q(X).\n"
                "q(X) :- b(X), not p(X).\n"
                "b(1)."
            )
        )
        found = diagnostic(report, "VDL010")
        assert found.severity == "error"
        # The offending cycle is printed in the message.
        assert "q -> p -> q" in found.message or "p -> q -> p" in found.message
        assert found.span.known

    def test_vdl011_vacuous_negation(self):
        report = analyze(Program.parse("p(X) :- b(X), not ghost(X).\nb(1)."))
        found = diagnostic(report, "VDL011")
        assert found.severity == "warning"
        assert "never derivable" in found.message
        assert str(found.span) == "1:19"

    def test_vdl020_not_warded(self):
        report = analyze(
            Program.parse(
                "exists(Z) p(X, Z) :- e(X).\n"
                "r(Y) :- p(X1, Y), p(X2, Y).\n"
                "e(1)."
            )
        )
        found = diagnostic(report, "VDL020")
        assert found.severity == "error"
        assert "not warded" in found.message
        assert str(found.span) == "2:1"

    def test_vdl021_harmful_join(self):
        report = analyze(
            Program.parse(
                "exists(Z) p(X, Z) :- e(X).\n"
                "r(X1) :- p(X1, Y), p(X2, Y).\n"
                "e(1)."
            )
        )
        found = diagnostic(report, "VDL021")
        assert found.severity == "warning"
        assert "harmful join" in found.message
        # Warded (Y is not dangerous), so no error alongside the warning.
        assert "VDL020" not in codes_of(report)

    def test_vdl030_arity_mismatch(self):
        report = analyze(Program.parse("q(1).\nq(1, 2).\np(X) :- q(X)."))
        found = diagnostic(report, "VDL030")
        assert found.severity == "error"
        assert "arity 2" in found.message and "arity 1" in found.message
        assert str(found.span) == "2:1"

    def test_vdl031_undefined_predicate(self):
        report = analyze(Program.parse("p(X) :- mystery(X)."))
        found = diagnostic(report, "VDL031")
        assert found.severity == "warning"
        assert "never defined" in found.message
        assert str(found.span) == "1:9"

    def test_vdl032_unused_predicate(self):
        report = analyze(Program.parse("p(X) :- b(X).\nb(1)."))
        found = diagnostic(report, "VDL032")
        assert found.severity == "warning"
        assert "never read" in found.message

    def test_vdl032_silent_when_output(self):
        report = analyze(
            Program.parse('@output("p").\np(X) :- b(X).\nb(1).')
        )
        assert "VDL032" not in codes_of(report)

    def test_vdl040_dead_rule(self):
        report = analyze(
            Program.parse(
                '@output("goal").\n'
                "goal(X) :- b(X).\n"
                "orphan(X) :- b(X).\n"
                "b(1)."
            )
        )
        found = diagnostic(report, "VDL040")
        assert found.severity == "warning"
        assert "dead rule" in found.message
        assert str(found.span) == "3:1"

    def test_vdl040_needs_declared_outputs(self):
        # Without @output everything is presumed reachable.
        report = analyze(
            Program.parse("goal(X) :- b(X).\norphan(X) :- b(X).\nb(1).")
        )
        assert "VDL040" not in codes_of(report)

    def test_vdl041_duplicate_fact(self):
        report = analyze(Program.parse("b(1).\nb(1).\np(X) :- b(X)."))
        found = diagnostic(report, "VDL041")
        assert found.severity == "warning"
        assert "duplicate fact" in found.message
        assert str(found.span) == "2:1"

    def test_vdl042_shadowed_aggregate_fact(self):
        report = analyze(
            Program.parse(
                "total(5).\n"
                "total(S) :- q(X, W), S = msum(W, <X>).\n"
                "q(1, 2)."
            )
        )
        found = diagnostic(report, "VDL042")
        assert found.severity == "warning"
        assert "shadows an aggregate rule" in found.message

    def test_vdl050_singleton_variable(self):
        report = analyze(Program.parse("p(X) :- b(X), c(Y).\nb(1).\nc(2)."))
        found = diagnostic(report, "VDL050")
        assert found.severity == "warning"
        assert "occurs only once" in found.message and "_Y" in found.message

    def test_vdl050_anonymous_exempt(self):
        report = analyze(Program.parse("p(X) :- b(X), c(_Y).\nb(1).\nc(2)."))
        assert "VDL050" not in codes_of(report)

    def test_vdl060_position_type_conflict(self):
        report = analyze(Program.parse('b(1).\nb("x").\np(X) :- b(X).'))
        found = diagnostic(report, "VDL060")
        assert found.severity == "warning"
        assert "number" in found.message and "string" in found.message

    def test_vdl061_comparison_type_clash(self):
        report = analyze(Program.parse('b(1).\np(X) :- b(X), X > "s".'))
        found = diagnostic(report, "VDL061")
        assert found.severity == "warning"
        assert "number and string" in found.message
        assert str(found.span) == "2:15"

    def test_vdl061_unknown_function(self):
        report = analyze(Program.parse("b(1).\np(Y) :- b(X), Y = huh(X)."))
        found = diagnostic(report, "VDL061")
        assert "unknown function 'huh'" in found.message


class TestSuppression:
    def test_lint_ignore_moves_diagnostic_to_suppressed(self):
        report = analyze(
            Program.parse(
                '@lint_ignore("VDL050", "singleton kept for clarity").\n'
                "p(X) :- b(X), c(Y).\nb(1).\nc(2)."
            )
        )
        assert "VDL050" not in codes_of(report)
        assert any(d.code == "VDL050" for d in report.suppressed)

    def test_suppressed_errors_unblock_preflight(self):
        source = (
            '@lint_ignore("VDL010", "cycle is intentional here").\n'
            "p(X) :- b(X), not q(X).\n"
            "q(X) :- b(X), not p(X).\n"
            "b(1)."
        )
        report = analyze(Program.parse(source))
        assert not report.has_errors
        assert any(d.code == "VDL010" for d in report.suppressed)


class TestSpans:
    def test_rule_and_atom_spans(self):
        program = Program.parse("b(1).\n\np(X) :- b(X), X > 0.")
        rule = program.rules[0]
        assert (rule.line, rule.column) == (3, 1)
        assert (rule.body[0].atom.line, rule.body[0].atom.column) == (3, 9)
        condition = rule.conditions[0]
        assert (condition.line, condition.column) == (3, 15)

    def test_assignment_span(self):
        program = Program.parse("b(1).\np(Y) :- b(X), Y = X * 2.")
        assignment = program.rules[0].assignments[0]
        assert (assignment.line, assignment.column) == (2, 15)

    def test_spans_do_not_affect_atom_identity(self):
        assert Atom("p", (X,), line=1, column=1) == Atom(
            "p", (X,), line=9, column=9
        )
        assert hash(Atom("p", (X,), line=1, column=1)) == hash(
            Atom("p", (X,))
        )

    def test_parse_error_carries_location(self):
        with pytest.raises(ParseError) as excinfo:
            Program.parse("b(1).\np(X) q(X).")
        message = str(excinfo.value)
        assert "line 2" in message

    def test_fact_with_variable_error_has_location(self):
        with pytest.raises(ParseError) as excinfo:
            Program.parse("b(1).\nq(X).")
        assert "line 2" in str(excinfo.value)


class TestWardednessRegressions:
    def test_exists_marker_in_body_is_a_declaration(self):
        # Regression: `exists(Z)` written on the body side of a
        # Datalog-direction rule used to become a phantom body atom.
        program = Program.parse("h(X, Z) :- exists(Z) q(X).\nq(1).")
        rule = program.rules[0]
        assert {v.name for v in rule.existential_variables()} == {"Z"}
        assert {v.name for v in rule.declared_existentials} == {"Z"}
        assert [l.atom.predicate for l in rule.body] == ["q"]

    def test_duplicate_body_atoms_share_a_ward(self):
        # Regression: a ward duplicated in the body made the checker
        # believe the dangerous variable leaked into a second atom.
        program = Program.parse(
            "exists(Z) p(X, Z) :- e(X).\n"
            "q(Z) :- p(X, Z), p(X, Z).\n"
            "e(1)."
        )
        report = check_wardedness(program.rules)
        assert report.is_warded, report.violations()
        assert "VDL020" not in codes_of(analyze(program))

    def test_existential_also_in_body_not_existential(self):
        # A head variable that also occurs in the body is plain frontier,
        # never existential — even if an exists() prefix names it: the
        # parser rejects that contradiction outright.
        with pytest.raises(ParseError):
            Program.parse("exists(X) p(X) :- q(X).\nq(1).")


class TestPreflight:
    DIRTY = (
        "p(X) :- b(X), not q(X).\n"
        "q(X) :- b(X), not p(X).\n"
        "b(1)."
    )

    def test_run_rejects_error_level_programs(self):
        program = Program.parse(self.DIRTY)
        with pytest.raises(StaticAnalysisError) as excinfo:
            program.run()
        assert "VDL010" in str(excinfo.value)
        assert excinfo.value.report is not None
        assert excinfo.value.report.has_errors

    def test_escape_hatch_reaches_the_engine(self):
        program = Program.parse(self.DIRTY)
        with pytest.raises(StratificationError):
            program.run(preflight=False)

    def test_clean_program_runs(self):
        program = Program.parse('@output("p").\np(X) :- b(X).\nb(1).')
        result = program.run()
        assert (1,) in set(result.tuples("p"))

    def test_framework_analyze_and_run(self):
        vada = VadaSA()
        report = vada.analyze_program(self.DIRTY, name="dirty")
        assert report.has_errors
        with pytest.raises(StaticAnalysisError):
            vada.run_program(self.DIRTY)
        result = vada.run_program('@output("p").\np(X) :- b(X).\nb(1).')
        assert (1,) in set(result.tuples("p"))


class TestShippedProgramsClean:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_module_is_analyzer_clean(self, name):
        report = analyze(
            Program.parse(program_source(name)), source_name=name
        )
        assert report.diagnostics == [], report.render()

    def test_suda_suppressions_are_justified(self):
        report = analyze(Program.parse(program_source("suda")))
        suppressed = {d.code for d in report.suppressed}
        assert suppressed == {"VDL020", "VDL021"}
        assert not report.has_errors

    def test_composed_pipeline_is_clean_and_fast(self):
        source = "\n".join(
            program_source(name)
            for name in ("tuple-build", "reidentification",
                         "anonymization-cycle")
        )
        program = Program.parse(source)
        best = min(
            self._timed(program) for _ in range(3)
        )
        assert best < 0.050, f"analyze took {best * 1000:.1f}ms"

    @staticmethod
    def _timed(program):
        start = time.perf_counter()
        report = analyze(program)
        elapsed = time.perf_counter() - start
        assert report.is_clean, report.render()
        return elapsed


class TestConformanceIntegration:
    def test_analyzer_dirty_counts_as_disagreement(self):
        program = Program.parse(TestPreflight.DIRTY)
        outcome = run_one(program)
        assert outcome.status == "analyzer-dirty"
        assert outcome.is_disagreement
        assert "VDL010" in outcome.detail

    def test_analyzer_engine_disagree_status(self):
        outcome = ConformanceOutcome("analyzer-engine-disagree", "x")
        assert outcome.is_disagreement

    def test_clean_generated_program_agrees(self):
        program = generate_program(random.Random(7))
        outcome = run_one(program)
        assert not outcome.is_disagreement, (outcome.status, outcome.detail)


class TestGeneratedProgramProperties:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_generated_programs_are_analyzer_clean(self, seed):
        # VDL070 is exempt: sensitivity seeding *intends* to produce
        # leaky programs for the static/dynamic cross-check.
        program = generate_program(random.Random(seed))
        report = analyze(program)
        errors = [d for d in report.errors if d.code != "VDL070"]
        assert not errors, report.render()

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_clean_programs_never_trip_static_engine_errors(self, seed):
        program = generate_program(random.Random(seed))
        assert not any(
            d.code != "VDL070" for d in analyze(program).errors
        )
        try:
            program.run(
                preflight=False, max_rounds=50, max_facts=20000
            )
        except (SafetyError, StratificationError, WardednessError) as exc:
            pytest.fail(
                "analyzer-clean program rejected by the engine's static "
                f"machinery: {type(exc).__name__}: {exc}"
            )
        except Exception:
            # Budget exhaustion and runtime evaluation errors are out of
            # the analyzer's scope.
            pass

"""Property-based engine tests.

The semi-naive chase with indices, deltas and routing is compared
against an intentionally *naive* reference evaluator (repeated full
joins until fixpoint) on randomly generated positive Datalog programs —
any divergence indicates a delta/index bug.  Further properties check
query answering and determinism.
"""

import itertools

from hypothesis import given
from hypothesis import strategies as st

from repro.vadalog import Program
from repro.vadalog.atoms import Atom
from repro.vadalog.rules import Rule
from repro.vadalog.terms import Constant, Variable


# ---------------------------------------------------------------------------
# Reference evaluator: naive bottom-up for positive Datalog.


def naive_fixpoint(rules, facts):
    """Plain-set naive evaluation; returns frozenset of (pred, values)."""
    database = {(f.predicate, tuple(t.value for t in f.terms))
                for f in facts}
    while True:
        additions = set()
        for rule in rules:
            for bindings in _naive_bindings(rule.body, database, {}):
                for head in rule.head:
                    values = tuple(
                        bindings[t] if isinstance(t, Variable) else t.value
                        for t in head.terms
                    )
                    candidate = (head.predicate, values)
                    if candidate not in database:
                        additions.add(candidate)
        if not additions:
            return frozenset(database)
        database |= additions


def _naive_bindings(literals, database, bindings):
    if not literals:
        yield bindings
        return
    literal, rest = literals[0], literals[1:]
    atom = literal.atom
    for predicate, values in database:
        if predicate != atom.predicate or len(values) != atom.arity:
            continue
        extended = dict(bindings)
        ok = True
        for term, value in zip(atom.terms, values):
            if isinstance(term, Variable):
                if term in extended and extended[term] != value:
                    ok = False
                    break
                extended[term] = value
            elif term.value != value:
                ok = False
                break
        if ok:
            yield from _naive_bindings(rest, database, extended)


# ---------------------------------------------------------------------------
# Random program generation.

CONSTANTS = ["a", "b", "c"]
VARIABLES = [Variable(n) for n in ("X", "Y", "Z")]
EDB = ["e1", "e2"]
IDB = ["p1", "p2"]


@st.composite
def random_program(draw):
    facts = []
    n_facts = draw(st.integers(2, 8))
    for _ in range(n_facts):
        predicate = draw(st.sampled_from(EDB))
        arity = 2
        values = [draw(st.sampled_from(CONSTANTS)) for _ in range(arity)]
        facts.append(Atom.of(predicate, *values))

    from repro.vadalog.atoms import Literal

    rules = []
    n_rules = draw(st.integers(1, 4))
    for _ in range(n_rules):
        n_body = draw(st.integers(1, 3))
        body = []
        used_vars = set()
        for _ in range(n_body):
            predicate = draw(st.sampled_from(EDB + IDB))
            terms = []
            for _ in range(2):
                if draw(st.booleans()):
                    variable = draw(st.sampled_from(VARIABLES))
                    used_vars.add(variable)
                    terms.append(variable)
                else:
                    terms.append(Constant(draw(st.sampled_from(CONSTANTS))))
            body.append(Literal(Atom(predicate, tuple(terms))))
        head_pred = draw(st.sampled_from(IDB))
        head_terms = []
        for _ in range(2):
            if used_vars and draw(st.booleans()):
                head_terms.append(
                    draw(st.sampled_from(sorted(used_vars,
                                                key=lambda v: v.name)))
                )
            else:
                head_terms.append(
                    Constant(draw(st.sampled_from(CONSTANTS)))
                )
        rules.append(Rule([Atom(head_pred, tuple(head_terms))], body))
    return rules, facts


class TestAgainstNaiveReference:
    @given(random_program())
    def test_chase_equals_naive_fixpoint(self, program):
        rules, facts = program
        expected = naive_fixpoint(rules, facts)
        result = Program(rules=rules, facts=facts).run(provenance=False)
        actual = {
            (fact.predicate, tuple(t.value for t in fact.terms))
            for fact in result.facts()
        }
        assert actual == expected

    @given(random_program())
    def test_evaluation_is_deterministic(self, program):
        rules, facts = program
        first = Program(rules=rules, facts=facts).run()
        second = Program(rules=rules, facts=facts).run()
        assert set(map(str, first.facts())) == set(map(str, second.facts()))


class TestRenderRoundtripProperty:
    @given(random_program())
    def test_random_programs_roundtrip_through_source(self, program):
        """parse(render(P)) derives exactly the same facts as P."""
        rules, facts = program
        original = Program(rules=rules, facts=facts)
        reparsed = Program.parse(original.to_source())
        first = {
            (f.predicate, tuple(str(t) for t in f.terms))
            for f in original.run(provenance=False).facts()
        }
        second = {
            (f.predicate, tuple(str(t) for t in f.terms))
            for f in reparsed.run(provenance=False).facts()
        }
        assert first == second


class TestQueryAnswering:
    def test_query_with_variables(self):
        program = Program.parse(
            """
            edge(a, b). edge(b, c).
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            """
        )
        result = program.run()
        answers = result.query("path(a, Y)")
        assert sorted(row["Y"] for row in answers) == ["b", "c"]

    def test_query_fully_ground(self):
        program = Program.parse("edge(a, b).")
        result = program.run()
        assert result.query("edge(a, b)") == [{}]
        assert result.query("edge(a, z)") == []

    def test_query_all_variables(self):
        program = Program.parse("n(1). n(2).")
        result = program.run()
        answers = result.query("n(X)")
        assert sorted(row["X"] for row in answers) == [1, 2]

    def test_query_repeated_variable(self):
        program = Program.parse("pair(1, 1). pair(1, 2).")
        result = program.run()
        answers = result.query("pair(X, X)")
        assert [row["X"] for row in answers] == [1]


# ---------------------------------------------------------------------------
# Differential: telemetry on vs off.


class TestTelemetryOnOff:
    """Telemetry only observes the chase: with it on, every rule fires
    along the same path as with it off, so both runs derive the same
    facts, record the same derivations and take the same rounds.
    Failures are written as replayable conformance seed artifacts (the
    embedded rendered program replays with
    ``python -m repro.testing.conformance --replay <path>``).
    """

    MAX_ROUNDS = 400
    MAX_FACTS = 4_000

    def _save_failure(self, program, detail):
        from repro.testing.conformance import (
            ConformanceOutcome, write_artifact,
        )
        from repro.testing.generator import GeneratorConfig

        path = write_artifact(
            "conformance-artifacts",
            seed=0,
            base_seed=0,
            config=GeneratorConfig(),
            outcome=ConformanceOutcome("disagree", detail),
            program=program,
            minimized=None,
            max_rounds=self.MAX_ROUNDS,
            max_facts=self.MAX_FACTS,
            termination="restricted",
        )
        return f"{detail}\nartifact: {path}"

    def _run(self, program, traced):
        from repro import telemetry

        if traced:
            telemetry.enable()
        try:
            result = program.run(
                provenance=True,
                max_rounds=self.MAX_ROUNDS,
                max_facts=self.MAX_FACTS,
                preflight=False,
            )
        except Exception as exc:  # noqa: BLE001 — crashes compared too
            return ("error", type(exc).__name__)
        finally:
            telemetry.disable()
            telemetry.reset()
        # Both runs fire along the same path, so even the derivations
        # of replaced aggregate facts must agree.
        return (
            "ok", frozenset(result.facts()), len(result.provenance),
            result.rounds,
        )

    @given(rng=st.randoms(use_true_random=False))
    def test_same_facts_derivations_and_rounds(self, rng):
        """With the full generator mix (existentials, aggregates,
        negation, EGDs) both runs agree on fact sets (labelled nulls
        and all), derivation counts and semi-naive round counts."""
        from repro.testing.generator import (
            GeneratorConfig, generate_program,
        )

        program = generate_program(rng, GeneratorConfig())
        quiet = self._run(program, traced=False)
        traced = self._run(program, traced=True)
        if quiet != traced:
            raise AssertionError(self._save_failure(
                program,
                f"telemetry off {quiet[:2]} != telemetry on {traced[:2]}",
            ))

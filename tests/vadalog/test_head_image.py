"""The restricted chase's batched image check.

:class:`~repro.vadalog.columnar.HeadImageCheck` decides blocking for a
whole rule application with the rule's compiled head plan.  Its
decisions, taken in firing order while firings and external assertions
change the store, must equal those of the per-binding homomorphism
search (:func:`~repro.vadalog.unification.conjunction_has_image`) run
against the live store at each binding.
"""

import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.testing.generator import GeneratorConfig, generate_program
from repro.vadalog import Program
from repro.vadalog.atoms import Atom
from repro.vadalog.columnar import HeadImageCheck
from repro.vadalog.database import FactStore
from repro.vadalog.plans import HeadPlan, own_key_exact
from repro.vadalog.terms import Constant, LabelledNull, NullFactory
from repro.vadalog.unification import conjunction_has_image

#: Existential-heavy generation: includes heads with repeated
#: predicates, atoms without existentials and disconnected
#: existentials, i.e. both the own-key shape and every other one.
EXISTENTIAL_CONFIG = GeneratorConfig(p_existential=0.8, p_multi_head=0.5)

#: Labelled nulls the random stores carry; fresh nulls are issued
#: after them, as by the chase's own factory.
STORE_NULLS = 3


def _existential_rules(seed):
    program = generate_program(random.Random(seed), EXISTENTIAL_CONFIG)
    return [
        rule for rule in program.rules
        if rule.existential_variables() and not rule.aggregates
    ]


@st.composite
def scenarios(draw):
    """A generated existential rule, a random store over its head
    predicates, and a random sequence of frontier keys, each preceded
    by the facts an external asserts before that binding fires."""
    rules = _existential_rules(draw(st.integers(0, 10 ** 6)))
    assume(rules)
    rule = draw(st.sampled_from(rules))
    head = HeadPlan(rule)
    arities = {atom.predicate: atom.arity for atom in rule.head}
    nulls = [LabelledNull(label) for label in range(1, STORE_NULLS + 1)]
    constants = [Constant(value) for value in ("a", "b", 1)]
    # Head constants make images likelier.
    for atom in rule.head:
        constants.extend(
            term for term in atom.terms if isinstance(term, Constant)
        )
    domain = st.sampled_from(constants + nulls)

    def facts(max_size):
        return st.lists(
            st.sampled_from(sorted(arities)).flatmap(
                lambda predicate: st.tuples(
                    st.just(predicate),
                    st.tuples(*[domain] * arities[predicate]),
                )
            ),
            max_size=max_size,
        ).map(lambda rows: [Atom(p, terms) for p, terms in rows])

    store_facts = draw(facts(14))
    key = st.tuples(*[domain] * len(head.frontier))
    steps = draw(st.lists(st.tuples(key, facts(2)), min_size=1,
                          max_size=8))
    return rule, head, store_facts, steps


def _fire(rule, head, key, store, factory):
    bindings = dict(zip(head.frontier, key))
    bindings.update(
        {variable: factory.fresh() for variable in head.existentials}
    )
    for atom in rule.head:
        store.add(atom.substitute(bindings))


def _batched(rule, head, store_facts, steps):
    store = FactStore(store_facts)
    factory = NullFactory(start=STORE_NULLS + 1)
    check = HeadImageCheck(head, store, [key for key, _ in steps])
    decisions = []
    for key, asserted in steps:
        store.add_all(asserted)
        blocked = check.blocks(key)
        decisions.append(blocked)
        if not blocked:
            _fire(rule, head, key, store, factory)
            check.fired(key)
    return decisions, frozenset(store.facts())


def _oracle(rule, head, store_facts, steps):
    store = FactStore(store_facts)
    factory = NullFactory(start=STORE_NULLS + 1)
    decisions = []
    for key, asserted in steps:
        store.add_all(asserted)
        trial = dict(zip(head.frontier, key))
        placeholders = set()
        for index, variable in enumerate(head.existentials):
            trial[variable] = LabelledNull(-1 - index)
            placeholders.add(trial[variable])
        blocked = conjunction_has_image(
            [atom.substitute(trial) for atom in rule.head], store,
            placeholders,
        )
        decisions.append(blocked)
        if not blocked:
            _fire(rule, head, key, store, factory)
    return decisions, frozenset(store.facts())


class TestAgainstPerBindingSearch:
    @given(scenario=scenarios())
    def test_decisions_in_firing_order_match_the_oracle(self, scenario):
        rule, head, store_facts, steps = scenario
        batched = _batched(rule, head, store_facts, steps)
        oracle = _oracle(rule, head, store_facts, steps)
        assert batched == oracle, f"{rule}\nexact={head.exact}"

    def test_generator_covers_both_head_shapes(self):
        shapes = {
            HeadPlan(rule).exact
            for seed in range(200)
            for rule in _existential_rules(seed)
        }
        assert shapes == {True, False}


class TestOwnKeyShape:
    @pytest.mark.parametrize("source, exact", [
        # The shipped shapes: one atom, or atoms chained by Z.
        ("p(X) -> exists(Z) q(X, Z).", True),
        ("p(X, Y) -> exists(Z) q(Z, X), r(Y, Z).", True),
        ("p(X, Y, W) -> exists(Z) q(Z, X), s(Z, Y), r(W, Z).", True),
        # An atom without an existential fires a plain fact.
        ("p(X, Y) -> exists(Z) q(X, Z), r(X, Y).", False),
        # A repeated predicate lets images mix firings.
        ("p(X, Y) -> exists(Z) q(X, Z), q(Z, Y).", False),
        # Two existential components.
        ("p(X) -> exists(Z, W) q(X, Z), r(X, W).", False),
        # Linked through a second existential.
        ("p(X) -> exists(Z, W) q(X, Z), s(Z, W), r(W, X).", True),
    ])
    def test_shape(self, source, exact):
        rule = Program.parse(source).rules[0]
        assert own_key_exact(rule.head, rule.existential_variables()) \
            is exact
        assert HeadPlan(rule).exact is exact

    def test_anonymous_existential_repeats_bind_consistently(self):
        rule = Program.parse("p(X) -> exists(_Y) q(X, _Y, _Y).").rules[0]
        store = FactStore(
            [Atom.of("q", 1, "a", "b"), Atom.of("q", 2, "c", "c")]
        )
        check = HeadImageCheck(
            HeadPlan(rule), store, [(Constant(1),), (Constant(2),)]
        )
        assert not check.blocks((Constant(1),))
        assert check.blocks((Constant(2),))


class TestRunTimeOrder:
    def test_smallest_groups_first_ties_in_head_order(self):
        rule = Program.parse(
            "p(I, Z1, A) -> exists(Z) comb(Z, I), inComb(Z, Z1), in(A, Z)."
        ).rules[0]
        head = HeadPlan(rule)
        store = FactStore(
            [Atom.of("comb", f"z{n}", "t") for n in range(6)]
            + [Atom.of("inComb", f"z{n}", f"y{n}") for n in range(6)]
            + [Atom.of("in", "a", f"z{n}") for n in range(6)]
        )
        # One inComb fact per Z1 against six comb facts per I: inComb
        # leads, then the two full-key probes tie in head order.
        steps = [step.atom.predicate for step in head.plan(store).steps]
        assert steps == ["inComb", "comb", "in"]
        # Nothing stored: every atom ties at zero, so head order.
        steps = [step.atom.predicate for step in head.plan(FactStore()).steps]
        assert steps == ["comb", "inComb", "in"]


class TestExternalAssertions:
    def test_fact_asserted_mid_application_blocks_a_later_key(self):
        """Both keys are unblocked when the application starts; the
        first binding's external asserts an image for the other key,
        which must then be blocked at its turn."""
        from repro.vadalog.externals import ExternalRegistry

        registry = ExternalRegistry()
        asserted = []

        def mark(context, x):
            if not asserted:
                asserted.append(x)
                context.assert_fact("q", 3 - x, "c")
            yield (x,)

        registry.register("mark", mark)
        program = Program.parse(
            "p(1). p(2). p(X), #mark(X) -> exists(Z) q(X, Z)."
        )
        result = program.run([], externals=registry)
        first = asserted[0]
        assert set(result.tuples("q")) == {
            (first, LabelledNull(1)), (3 - first, "c"),
        }
        assert result.nulls_introduced == 1

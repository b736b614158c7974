"""Engine-path tests for the anonymization modules (Algorithms 7-8)
and the full declarative pipeline on survey data."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import city_fragment
from repro.model import DomainHierarchy
from repro.vadalog import Program
from repro.vadalog.atoms import Atom
from repro.vadalog.database import FactStore
from repro.vadalog.externals import ExternalContext
from repro.vadalog.terms import LabelledNull, NullFactory
from repro.vadalog_programs import (
    CycleState,
    ANONYMIZATION_CYCLE,
    GLOBAL_RECODING,
    K_ANONYMITY,
    LOCAL_SUPPRESSION,
    TUPLE_BUILD,
    cycle_registry,
)


def vset_of(result, state, db, row):
    return state._current[(db.name, row)]


class TestLocalSuppressionProgram:
    def test_suppress_external_injects_null(self, cities_db):
        registry, state = cycle_registry(k=2)
        facts = cities_db.to_facts() + [
            Atom.of("anonymize", cities_db.name, 0),
        ]
        program = Program.parse(TUPLE_BUILD + LOCAL_SUPPRESSION)
        result = program.run(facts, externals=registry)
        suppressed = result.tuples("suppressed")
        assert suppressed, "Rule 7 should fire for the marked tuple"
        # The cycle state's current version of tuple 0 carries a null.
        current = state._current[(cities_db.name, 0)]
        nulls = [v for _, v in current if isinstance(v, LabelledNull)]
        assert nulls

    def test_only_marked_tuples_touched(self, cities_db):
        registry, state = cycle_registry(k=2)
        facts = cities_db.to_facts() + [
            Atom.of("anonymize", cities_db.name, 3),
        ]
        program = Program.parse(TUPLE_BUILD + LOCAL_SUPPRESSION)
        result = program.run(facts, externals=registry)
        touched = {i for _, i, _ in result.tuples("suppressed")}
        assert touched == {3}


class TestGlobalRecodingProgram:
    def hierarchy_facts(self):
        return DomainHierarchy.italian_geography().to_facts()

    def test_recode_climbs_hierarchy(self, cities_db):
        registry, state = cycle_registry(k=2)
        facts = (
            cities_db.to_facts()
            + self.hierarchy_facts()
            + [Atom.of("anonymize", cities_db.name, 5)]
        )
        program = Program.parse(TUPLE_BUILD + GLOBAL_RECODING)
        result = program.run(facts, externals=registry)
        recoded = result.tuples("recoded")
        assert (cities_db.name, 5, "Area", "North") in recoded
        current = dict(state._current[(cities_db.name, 5)])
        assert current["Area"] == "North"

    def test_no_recode_without_hierarchy_knowledge(self, cities_db):
        registry, _ = cycle_registry(k=2)
        facts = cities_db.to_facts() + [
            Atom.of("anonymize", cities_db.name, 5)
        ]
        program = Program.parse(TUPLE_BUILD + GLOBAL_RECODING)
        result = program.run(facts, externals=registry)
        assert result.tuples("recoded") == []


class TestDeclarativePipeline:
    def test_cycle_plus_risk_modules_compose(self, cities_db):
        """TUPLE_BUILD + K_ANONYMITY + ANONYMIZATION_CYCLE as one
        composed program: the Vadalog risk module computes riskOutput
        while the cycle's #risk external drives anonymization — both
        must agree on which tuples were dangerous initially."""
        registry, state = cycle_registry(k=2, semantics="maybe-match")
        facts = cities_db.to_facts() + [
            Atom.of("anonSet", cities_db.name,
                    frozenset(cities_db.quasi_identifiers)),
            Atom.of("param", "k", 2),
            Atom.of("param", "T", 0.5),
        ]
        program = Program.parse(
            TUPLE_BUILD + K_ANONYMITY + ANONYMIZATION_CYCLE
        )
        result = program.run(facts, externals=registry)
        anonymized = {i for _, i in result.tuples("anonymized")}
        # Minimality: only initially-risky tuples are ever touched, and
        # the #anonymize external skips tuples already fixed by earlier
        # suppressions in the same pass (rows 5 and 6 maybe-match once
        # either is suppressed), so one of them may stay untouched.
        assert anonymized <= {0, 5, 6}
        assert 0 in anonymized
        assert anonymized & {5, 6}
        accepted = {i for _, i, _ in result.tuples("tupleA")}
        assert accepted == set(range(len(cities_db)))

    def test_engine_cycle_on_inflation_growth_fragment(self, ig_db):
        """The full declarative path on the paper's Figure 1 data:
        every tuple of the fragment is a 5-QI sample unique, so all 20
        must be anonymized before tupleA accepts them.  The anonSet
        fact restricts grouping/suppression to the quasi-identifiers —
        the sampling weight carried in VSet must play no role."""
        registry, state = cycle_registry(k=2, semantics="maybe-match")
        facts = ig_db.to_facts() + [
            Atom.of("param", "T", 0.5),
            Atom.of("anonSet", ig_db.name,
                    frozenset(ig_db.quasi_identifiers)),
        ]
        program = Program.parse(TUPLE_BUILD + ANONYMIZATION_CYCLE)
        result = program.run(facts, externals=registry)
        accepted = {i for _, i, _ in result.tuples("tupleA")}
        assert accepted == set(range(len(ig_db)))
        assert result.nulls_introduced > 0
        # No Weight cell was ever suppressed.
        for (_, _), vset in state._current.items():
            values = dict(vset)
            from repro.vadalog.terms import LabelledNull

            assert not isinstance(values["Weight"], LabelledNull)

    def test_provenance_explains_anonymization(self, cities_db):
        registry, _ = cycle_registry(k=2, semantics="maybe-match")
        facts = cities_db.to_facts() + [Atom.of("param", "T", 0.5)]
        program = Program.parse(TUPLE_BUILD + ANONYMIZATION_CYCLE)
        result = program.run(facts, externals=registry)
        target = next(
            fact for fact in result.facts("anonymized")
        )
        tree = result.explain(target)
        rendered = tree.render()
        assert "cycle-anonymize" in rendered
        assert "tuple(" in rendered


#: (microDB, tuple id) pairs of the risk_of property; id 2 sits in both
#: microDBs, so ``#risk`` must pick the first one carrying it.
RISK_KEYS = [("m", 0), ("m", 1), ("m", 2), ("m", 3), ("n", 2), ("n", 4)]
RISK_NAMES = ("A", "B", "W")


def _expected_risk(state, tuple_id):
    """The O(n) definition: the tuple's current version, projected on
    its microDB's anonSet, =⊥-matched row by row against every current
    tuple of that microDB."""
    micro_db = next(db for db, i in state._current if i == tuple_id)
    target = state._project(micro_db, state._current[(micro_db, tuple_id)])
    frequency = sum(
        1
        for (db, _), vset in state._current.items()
        if db == micro_db
        and state.semantics.matches_combination(dict(vset), target)
    )
    return 1.0 if frequency < state.k else 0.0


class TestRiskExternalIndex:
    @given(
        semantics=st.sampled_from(["standard", "maybe-match"]),
        anon_set=st.booleans(),
        values=st.lists(
            st.tuples(*[st.sampled_from("xy")] * len(RISK_NAMES)),
            min_size=len(RISK_KEYS), max_size=len(RISK_KEYS),
        ),
        edits=st.lists(
            st.tuples(
                st.sampled_from(RISK_KEYS),
                st.sampled_from(RISK_NAMES),
                st.one_of(st.none(), st.sampled_from("xyz")),
            ),
            max_size=10,
        ),
    )
    def test_indexed_risk_equals_row_by_row_count(
        self, semantics, anon_set, values, edits
    ):
        """After any sequence of ``suppress`` (value None) and
        ``recode`` calls, ``risk_of`` read from the per-microDB
        GroupIndex equals the row-by-row count under both semantics,
        with an anonSet (A and B compared) and without (every name,
        the weight W included)."""
        facts = [
            Atom.of("tuple", db, i, frozenset(zip(RISK_NAMES, row)))
            for (db, i), row in zip(RISK_KEYS, values)
        ]
        if anon_set:
            facts += [Atom.of("anonSet", db, frozenset("AB"))
                      for db in ("m", "n")]
        context = ExternalContext(FactStore(facts), NullFactory())
        state = CycleState(k=2, semantics=semantics)
        for (db, i), name, value in edits:
            if value is None:
                state.suppress(context, db, i, name)
            else:
                state.recode(context, db, i, name, value)
            for tuple_id in {i for _, i in RISK_KEYS}:
                assert state.risk_of(context, tuple_id) == \
                    _expected_risk(state, tuple_id)
        for tuple_id in {i for _, i in RISK_KEYS}:
            assert state.risk_of(context, tuple_id) == \
                _expected_risk(state, tuple_id)

    def test_unknown_tuple_id_raises(self):
        from repro.errors import EvaluationError

        context = ExternalContext(FactStore(), NullFactory())
        with pytest.raises(EvaluationError, match="unknown tuple id"):
            CycleState().risk_of(context, 7)

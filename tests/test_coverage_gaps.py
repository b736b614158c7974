"""Depth tests for paths the main suites exercise only indirectly:
standard-semantics tracking, hierarchy completeness, mid-chase EGD
unification, dependency-graph edge marking, bench-registry integrity."""

import pytest

from repro.anonymize import GroupTracker, LocalSuppression
from repro.data import (
    QI_DOMAINS,
    generate_dataset,
    survey_hierarchy,
)
from repro.model import MAYBE_MATCH, STANDARD
from repro.vadalog import Program
from repro.vadalog.atoms import Atom
from repro.vadalog.negation import DependencyGraph
from repro.vadalog.parser.parser import parse_program
from repro.vadalog.terms import LabelledNull, NullFactory


class TestGroupTrackerStandardSemantics:
    def test_stats_match_standard_semantics(self, cities_db):
        db = cities_db.copy()
        factory = NullFactory()
        method = LocalSuppression()
        tracker = GroupTracker(db, db.quasi_identifiers, STANDARD)
        for row, attribute in [(0, "Sector"), (5, "Area"),
                               (6, "Area")]:
            method.apply(db, row, attribute, factory)
            tracker.after_change(row)
        expected = STANDARD.match_counts(db)
        for index in range(len(db)):
            count, _ = tracker.stats(index)
            assert count == expected[index]

    def test_null_rows_stay_in_exact_index_under_standard(self,
                                                          cities_db):
        db = cities_db.copy()
        tracker = GroupTracker(db, db.quasi_identifiers, STANDARD)
        factory = NullFactory()
        method = LocalSuppression()
        # Rows 0 and 1 get the same attribute suppressed, so under
        # maybe-match they would match each other.
        for row in (0, 1):
            method.apply(db, row, "Sector", factory)
            tracker.after_change(row)
        # Under standard semantics a null is just another value: a
        # suppressed row matches only itself.
        assert tracker.stats(0)[0] == 1
        assert tracker.stats(1)[0] == 1
        assert MAYBE_MATCH.match_counts(db)[0] > 1
        expected = STANDARD.match_counts(db)
        for index in range(len(db)):
            assert tracker.stats(index)[0] == expected[index]


class TestSurveyHierarchyCompleteness:
    def test_every_common_domain_value_generalizes(self):
        hierarchy = survey_hierarchy()
        for domain in QI_DOMAINS:
            for value in domain.values + domain.rare_values:
                assert hierarchy.can_generalize(domain.name, value), (
                    domain.name,
                    value,
                )

    def test_generated_w_dataset_fully_recodable(self):
        db = generate_dataset("R6A4W", scale=20, seed=1)
        hierarchy = survey_hierarchy()
        for row in db.rows:
            for attribute in db.quasi_identifiers:
                assert hierarchy.can_generalize(
                    attribute, row[attribute]
                )


class TestEGDMidChase:
    def test_derived_null_unifies_with_derived_constant(self):
        """Rule 1 invents a null category; rule 2 derives a constant
        one; the EGD must unify them during the same run."""
        program = Program.parse(
            """
            att(m, area).
            known(area, qi).
            att(M, A) -> exists(C) cat(M, A, C).
            cat(M, A, C) :- att(M, A), known(A, C).
            C1 = C2 :- cat(M, A, C1), cat(M, A, C2).
            """
        )
        result = program.run()
        rows = result.tuples("cat")
        assert len(rows) == 1
        assert rows[0][2] == "qi"
        assert result.egd_violations == []

    def test_egd_chain_of_nulls(self):
        """Two invented nulls for the same key unify transitively with
        one constant."""
        from repro.vadalog.database import FactStore
        from repro.vadalog.egd import enforce_egds
        from repro.vadalog.terms import Constant

        store = FactStore(
            [
                Atom("cat", (Constant("a"), LabelledNull(1))),
                Atom("cat", (Constant("a"), LabelledNull(2))),
                Atom("cat", (Constant("a"), Constant("qi"))),
            ]
        )
        egd = parse_program("C1 = C2 :- cat(A, C1), cat(A, C2).").egds[0]
        violations = enforce_egds([egd], store)
        assert violations == []
        facts = list(store.facts("cat"))
        assert len(facts) == 1
        assert facts[0].terms[1] == Constant("qi")


class TestDependencyGraphEdges:
    def test_negated_edge_marked(self):
        rules = parse_program("p(X) :- n(X), not m(X).").rules
        graph = DependencyGraph(rules).graph
        assert graph.get_edge_data("m", "p")["negated"]
        assert not graph.get_edge_data("n", "p")["negated"]

    def test_aggregated_edge_marked(self):
        rules = parse_program(
            "t(G, S) :- n(G, W, I), S = msum(W, <I>)."
        ).rules
        graph = DependencyGraph(rules).graph
        assert graph.get_edge_data("n", "t")["aggregated"]

    def test_external_edges_excluded(self):
        rules = parse_program("p(X) :- n(X), #check(X).").rules
        graph = DependencyGraph(rules).graph
        assert "#check" not in graph.nodes


class TestBenchRegistryIntegrity:
    def test_run_all_registry_is_consistent(self):
        import sys
        from pathlib import Path

        benchmarks = Path(__file__).resolve().parent.parent / "benchmarks"
        sys.path.insert(0, str(benchmarks))
        try:
            import run_all

            assert len(run_all.FIGURES) >= 10
            keys = [entry[0] for entry in run_all.FIGURES]
            assert len(keys) == len(set(keys))
            for key, title, columns, generator in run_all.FIGURES:
                assert callable(generator), key
                assert columns, key
        finally:
            sys.path.remove(str(benchmarks))


class TestOracleDeterminism:
    def test_generate_oracle_deterministic(self, small_w):
        from repro.data import generate_oracle

        first = generate_oracle(small_w, seed=3, max_population=5000)
        second = generate_oracle(small_w, seed=3, max_population=5000)
        assert first.rows == second.rows

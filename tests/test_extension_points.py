"""The docs/extending.md extension points, exercised end to end:
custom measures, custom methods, custom similarity, custom builtins all
plug into the framework without core changes."""

import pytest

from repro.anonymize import (
    AdaptiveMethod,
    AnonymizationMethod,
    AnonymizationStep,
    LocalSuppression,
    anonymize,
)
from repro.categorize import AttributeCategorizer
from repro.errors import ReproError
from repro.model import AttributeCategory, ExperienceBase, MAYBE_MATCH
from repro.risk import GroupRiskMeasure, RiskMeasure, RiskReport
from repro.vadalog import Program, register_scalar_function


class RareSectorRisk(RiskMeasure):
    """The docs example: sector frequency drives risk directly."""

    name = "rare-sector-test"

    def __init__(self, n=2, attribute="Sector"):
        self.n = n
        self.attribute = attribute

    def assess(self, db, semantics=MAYBE_MATCH, attributes=None):
        from collections import Counter

        from repro.model import is_suppressed

        counts = Counter(
            row[self.attribute]
            for row in db.rows
            if not is_suppressed(row[self.attribute])
        )
        scores = [
            0.0
            if is_suppressed(row[self.attribute])  # hidden => not rare
            else (1.0 if counts[row[self.attribute]] < self.n else 0.0)
            for row in db.rows
        ]
        return RiskReport(
            self.name, scores, attributes or db.quasi_identifiers
        )


class TestCustomMeasure:
    def test_assess_and_cycle(self, cities_db):
        measure = RareSectorRisk(n=2)
        report = measure.assess(cities_db)
        # 'Textiles' occurs once in Figure 5a.
        assert report.scores[0] == 1.0
        result = anonymize(cities_db, measure, LocalSuppression())
        assert result.converged
        final = measure.assess(result.db)
        assert final.risky_indices(0.5) == []
        # The cycle hands the run's group index to assess_index; the
        # base implementation reads the plug-in's assess.
        assert result.reports[-1].scores == final.scores

    def test_registry_rejects_duplicates(self):
        from repro.risk import RISK_REGISTRY, register_measure

        assert "k-anonymity" in RISK_REGISTRY
        with pytest.raises(ReproError):

            @register_measure
            class Clash(RiskMeasure):
                name = "k-anonymity"


class GroupShareRisk(GroupRiskMeasure):
    """The docs group-measure example: risk 1/f."""

    name = "group-share-test"

    def __init__(self, floor=1):
        self.floor = floor

    def score(self, count, weight_sum):
        return 1.0 / max(count, self.floor)

    def describe(self, count, weight_sum):
        return f"{count} tuple(s) in the group"

    def parameters(self):
        return {"floor": self.floor}


class TestCustomGroupMeasure:
    def test_assess_index_and_recheck_follow_the_score(self, cities_db):
        from repro.model import GroupIndex

        measure = GroupShareRisk()
        report = measure.assess(cities_db)
        assert report.scores == [1.0, 0.5, 0.5, 0.5, 0.5, 1.0, 1.0]
        assert report.details[1] == "2 tuple(s) in the group"
        assert report.parameters == {
            "floor": 1, "semantics": MAYBE_MATCH.name,
        }
        live = measure.assess_index(cities_db, GroupIndex(cities_db))
        assert live.scores == report.scores
        assert live.details == report.details
        assert measure.safe_from_group(2, 0.0, 0.5)
        assert not measure.safe_from_group(1, 0.0, 0.5)

    def test_runs_in_cycle(self, cities_db):
        result = anonymize(
            cities_db, GroupShareRisk(), LocalSuppression(), threshold=0.6
        )
        assert result.converged
        assert result.final_report.risky_indices(0.6) == []


class TopCoding(AnonymizationMethod):
    """The docs example: clamp extremes instead of erasing."""

    name = "top-coding-test"
    TOP = {"Employees": "0-200"}

    def applicable_attributes(self, db, row):
        return [
            a
            for a, top in self.TOP.items()
            if a in db.quasi_identifiers and db.rows[row][a] != top
        ]

    def apply(self, db, row, attribute, null_factory, reason=""):
        old = db.rows[row][attribute]
        new = self.TOP[attribute]
        db.with_value(row, attribute, new)
        return AnonymizationStep(
            row, attribute, self.name, old, new, reason
        )


class TestCustomMethod:
    def test_method_runs_in_cycle(self, cities_db):
        from repro.risk import KAnonymityRisk

        method = AdaptiveMethod(
            methods=[TopCoding(), LocalSuppression()], patience=1
        )
        result = anonymize(cities_db, KAnonymityRisk(k=2), method)
        assert result.converged
        used = {step.method for step in result.steps}
        assert any("top-coding-test" in m for m in used)


class TestCustomSimilarity:
    def test_callable_similarity(self):
        def prefix(a, b):
            return 1.0 if a.lower()[:4] == b.lower()[:4] else 0.0

        base = ExperienceBase(
            {"Sector": AttributeCategory.QUASI_IDENTIFIER}
        )
        categorizer = AttributeCategorizer(
            base, similarity=prefix, threshold=0.9
        )
        result = categorizer.categorize(["SECTOR_CODE"])
        assert (
            result.assigned["SECTOR_CODE"]
            is AttributeCategory.QUASI_IDENTIFIER
        )


class TestCustomBuiltin:
    def test_registered_function_usable_in_rules(self):
        register_scalar_function(
            "clip01_test", lambda x: min(1.0, max(0.0, x))
        )
        program = Program.parse(
            """
            f(a, 3.0). f(b, -1.0). f(c, 0.4).
            r(I, V) :- f(I, X), V = clip01_test(X).
            """
        )
        result = program.run()
        values = dict(result.tuples("r"))
        assert values == {"a": 1.0, "b": 0.0, "c": 0.4}

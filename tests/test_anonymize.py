"""Anonymization tests: local suppression, global recoding, heuristics
and metrics — the Figure 5 walkthrough in executable form."""

import pytest

from repro.anonymize import (
    AnonymizationStep,
    FixedOrderSelection,
    GlobalRecoding,
    LocalSuppression,
    MostRiskyFirstSelection,
    RandomSelection,
    RecodeThenSuppress,
    fifo_order,
    generalization_steps,
    information_loss,
    less_significant_first,
    method_by_name,
    most_risky_tuple_first,
    nulls_injected,
    qi_selection_by_name,
    recode_column,
    recoded_cells,
    tuple_ordering_by_name,
    utility_weighted_loss,
)
from repro.errors import AnonymizationError
from repro.model import DomainHierarchy, GroupIndex, is_suppressed
from repro.risk import KAnonymityRisk
from repro.vadalog.terms import LabelledNull, NullFactory


class TestLocalSuppression:
    def test_injects_labelled_null(self, cities_db):
        db = cities_db.copy()
        method = LocalSuppression()
        factory = NullFactory()
        step = method.apply(db, 0, "Sector", factory, reason="test")
        assert is_suppressed(db.rows[0]["Sector"])
        assert step.old_value == "Textiles"
        assert isinstance(step.new_value, LabelledNull)
        assert factory.issued == 1

    def test_cannot_suppress_twice(self, cities_db):
        db = cities_db.copy()
        method = LocalSuppression()
        factory = NullFactory()
        method.apply(db, 0, "Sector", factory)
        with pytest.raises(AnonymizationError):
            method.apply(db, 0, "Sector", factory)

    def test_only_quasi_identifiers(self, cities_db):
        db = cities_db.copy()
        with pytest.raises(AnonymizationError):
            LocalSuppression().apply(db, 0, "Id", NullFactory())

    def test_applicable_attributes_shrink(self, cities_db):
        db = cities_db.copy()
        method = LocalSuppression()
        factory = NullFactory()
        before = method.applicable_attributes(db, 0)
        method.apply(db, 0, "Sector", factory)
        after = method.applicable_attributes(db, 0)
        assert set(after) == set(before) - {"Sector"}

    def test_step_explanation(self, cities_db):
        db = cities_db.copy()
        step = LocalSuppression().apply(
            db, 0, "Sector", NullFactory(), reason="risk over threshold"
        )
        text = step.explain()
        assert "Sector" in text and "risk over threshold" in text


class TestGlobalRecoding:
    def test_city_rolls_up_to_region(self, cities_db):
        db = cities_db.copy()
        method = GlobalRecoding(DomainHierarchy.italian_geography())
        step = method.apply(db, 5, "Area", NullFactory())
        assert db.rows[5]["Area"] == "North"
        assert step.method == "global-recoding"

    def test_no_hierarchy_means_not_applicable(self, cities_db):
        method = GlobalRecoding()
        assert method.applicable_attributes(cities_db, 0) == []

    def test_unknown_value_raises(self, cities_db):
        db = cities_db.copy()
        method = GlobalRecoding(DomainHierarchy.italian_geography())
        with pytest.raises(AnonymizationError):
            method.apply(db, 0, "Sector", NullFactory())

    def test_recursive_roll_up(self, cities_db):
        db = cities_db.copy()
        hierarchy = DomainHierarchy.italian_geography()
        method = GlobalRecoding(hierarchy)
        method.apply(db, 5, "Area", NullFactory())
        method.apply(db, 5, "Area", NullFactory())
        assert db.rows[5]["Area"] == "Italy"

    def test_recode_column(self, cities_db):
        db = cities_db.copy()
        hierarchy = DomainHierarchy.italian_geography()
        changed = recode_column(db, "Area", hierarchy)
        assert changed == 7
        areas = {row["Area"] for row in db.rows}
        assert areas == {"Center", "North"}

    def test_recode_then_suppress_prefers_recoding(self, cities_db):
        db = cities_db.copy()
        method = RecodeThenSuppress(DomainHierarchy.italian_geography())
        applicable = method.applicable_attributes(db, 5)
        assert applicable == ["Area"]
        step = method.apply(db, 5, "Area", NullFactory())
        assert step.method == "global-recoding"

    def test_recode_then_suppress_falls_back(self, cities_db):
        db = cities_db.copy()
        method = RecodeThenSuppress(DomainHierarchy())  # empty hierarchy
        applicable = method.applicable_attributes(db, 0)
        assert set(applicable) == set(db.quasi_identifiers)
        step = method.apply(db, 0, "Sector", NullFactory())
        assert step.method == "local-suppression"

    def test_method_registry(self):
        assert method_by_name("local-suppression")
        assert method_by_name("global-recoding")
        with pytest.raises(AnonymizationError):
            method_by_name("teleport")


class TestTupleOrderings:
    def test_less_significant_first_sorts_by_weight(self, ig_db):
        report = KAnonymityRisk(k=2).assess(ig_db)
        ordered = less_significant_first(ig_db, [6, 14, 3], report)
        # weights: row 6 -> 300, row 14 -> 30, row 3 -> 60
        assert ordered == [14, 3, 6]

    def test_fifo_preserves_order(self, ig_db):
        report = KAnonymityRisk(k=2).assess(ig_db)
        assert fifo_order(ig_db, [5, 1, 9], report) == [5, 1, 9]

    def test_most_risky_tuple_first(self, ig_db):
        from repro.risk import ReidentificationRisk

        report = ReidentificationRisk().assess(ig_db)
        ordered = most_risky_tuple_first(ig_db, [6, 14], report)
        assert ordered == [14, 6]  # 1/30 > 1/300

    def test_lookup_by_name(self):
        assert tuple_ordering_by_name("fifo") is fifo_order
        with pytest.raises(ValueError):
            tuple_ordering_by_name("alphabetical")


class TestQISelection:
    def test_most_risky_first_reproduces_fig5_choice(self, cities_db):
        """Suppressing Sector of tuple 1 yields frequency 5; any other
        attribute leaves the sample-unique 'Textiles' in place
        (Section 4.4's worked example)."""
        selection = MostRiskyFirstSelection()
        selection.prepare(GroupIndex(cities_db), [0])
        choice = selection.select(
            cities_db, 0, cities_db.quasi_identifiers
        )
        assert choice == "Sector"

    def test_fixed_order_takes_first(self, cities_db):
        selection = FixedOrderSelection()
        assert selection.select(cities_db, 0, ["Area", "Sector"]) == "Area"

    def test_random_is_seeded(self, cities_db):
        first = RandomSelection(seed=3)
        second = RandomSelection(seed=3)
        applicable = cities_db.quasi_identifiers
        choices_a = [first.select(cities_db, 0, applicable)
                     for _ in range(5)]
        choices_b = [second.select(cities_db, 0, applicable)
                     for _ in range(5)]
        assert choices_a == choices_b

    def test_lookup_by_name(self):
        assert isinstance(
            qi_selection_by_name("most-risky-first"),
            MostRiskyFirstSelection,
        )
        with pytest.raises(ValueError):
            qi_selection_by_name("psychic")


class TestMetrics:
    def test_nulls_injected(self, cities_db):
        original = cities_db.copy()
        modified = cities_db.copy()
        modified.with_value(0, "Sector", LabelledNull(1))
        modified.with_value(2, "Area", LabelledNull(2))
        assert nulls_injected(original, modified) == 2

    def test_information_loss_formula(self, cities_db):
        original = cities_db.copy()
        modified = cities_db.copy()
        modified.with_value(0, "Sector", LabelledNull(1))
        # 1 null / (3 risky x 4 QIs)
        assert information_loss(original, modified, 3) == pytest.approx(
            1 / 12
        )

    def test_information_loss_zero_when_no_risky(self, cities_db):
        assert information_loss(cities_db, cities_db, 0) == 0.0

    def test_recoded_cells(self, cities_db):
        original = cities_db.copy()
        modified = cities_db.copy()
        hierarchy = DomainHierarchy.italian_geography()
        recode_column(modified, "Area", hierarchy)
        assert recoded_cells(original, modified) == 7
        assert nulls_injected(original, modified) == 0

    def test_generalization_steps(self, cities_db):
        original = cities_db.copy()
        modified = cities_db.copy()
        hierarchy = DomainHierarchy.italian_geography()
        recode_column(modified, "Area", hierarchy)
        assert generalization_steps(original, modified, hierarchy) == 7

    def test_utility_weighted_loss_prefers_light_tuples(self, ig_db):
        light = ig_db.copy()
        light.with_value(14, "Area", LabelledNull(1))  # weight 30
        heavy = ig_db.copy()
        heavy.with_value(6, "Area", LabelledNull(1))   # weight 300
        assert utility_weighted_loss(ig_db, light) < utility_weighted_loss(
            ig_db, heavy
        )

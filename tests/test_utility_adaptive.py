"""Tests for statistical-utility metrics and the adaptive method."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.anonymize import (
    AdaptiveMethod,
    LocalSuppression,
    GlobalRecoding,
    UtilityReport,
    anonymize,
    joint_distance,
    marginal_distance,
    total_variation,
    weighted_mean_shift,
)
from repro.errors import AnonymizationError, ReproError
from repro.model import DomainHierarchy
from repro.risk import KAnonymityRisk
from repro.vadalog.terms import LabelledNull, NullFactory


class TestTotalVariation:
    def test_identical_is_zero(self):
        d = {"a": 0.5, "b": 0.5}
        assert total_variation(d, d) == 0.0

    def test_disjoint_is_one(self):
        assert total_variation({"a": 1.0}, {"b": 1.0}) == 1.0

    def test_symmetric(self):
        p = {"a": 0.7, "b": 0.3}
        q = {"a": 0.4, "b": 0.6}
        assert total_variation(p, q) == total_variation(q, p)
        assert total_variation(p, q) == pytest.approx(0.3)

    def test_insertion_order_gives_bit_identical_distance(self):
        # Colliding integer keys: the key set's iteration order follows
        # insertion order, and a plain left-to-right sum gave
        # 0.6000000000000001 one way and 0.6 the other.
        items = [(32, 0.1), (16, 0.3), (0, 0.4)]
        after = {16: 0.4, 24: 0.6}
        forward = total_variation(dict(items), after)
        backward = total_variation(dict(reversed(items)), after)
        assert forward == backward == 0.6

    @given(
        masses=st.dictionaries(
            st.integers(0, 64), st.floats(0.0, 1.0), min_size=1,
            max_size=12,
        ),
        other=st.dictionaries(
            st.integers(0, 64), st.floats(0.0, 1.0), max_size=12,
        ),
        seed=st.randoms(use_true_random=False),
    )
    def test_any_insertion_order_gives_the_same_distance(
        self, masses, other, seed
    ):
        items = list(masses.items())
        seed.shuffle(items)
        assert total_variation(dict(items), other) == \
            total_variation(masses, other)


class TestDatasetDistances:
    def test_untouched_dataset_distance_zero(self, ig_db):
        assert marginal_distance(ig_db, ig_db, "Area") == 0.0
        assert joint_distance(ig_db, ig_db) == 0.0

    def test_suppression_moves_mass_to_bucket(self, cities_db):
        modified = cities_db.copy()
        modified.with_value(0, "Sector", LabelledNull(1))
        distance = marginal_distance(cities_db, modified, "Sector")
        assert distance == pytest.approx(1 / 7)

    def test_recoding_changes_marginal_less_than_suppressing_all(
        self, cities_db
    ):
        hierarchy = DomainHierarchy.italian_geography()
        recoded = anonymize(
            cities_db, KAnonymityRisk(k=2), GlobalRecoding(hierarchy)
        )
        suppress_heavy = cities_db.copy()
        factory = NullFactory()
        for row in range(len(suppress_heavy)):
            suppress_heavy.with_value(row, "Area", factory.fresh())
        light = marginal_distance(cities_db, recoded.db, "Area")
        heavy = marginal_distance(cities_db, suppress_heavy, "Area")
        assert light < heavy

    def test_weighted_mean_preserved_by_cycle(self, ig_db):
        result = anonymize(ig_db, KAnonymityRisk(k=2), LocalSuppression())
        shift = weighted_mean_shift(ig_db, result.db, "Growth6mos")
        assert shift == 0.0

    def test_mean_shift_detects_change(self, ig_db):
        modified = ig_db.copy()
        modified.with_value(0, "Growth6mos", 10_000)
        assert weighted_mean_shift(ig_db, modified, "Growth6mos") > 0.1

    def test_mean_shift_requires_numeric(self, ig_db):
        with pytest.raises(ReproError):
            weighted_mean_shift(ig_db, ig_db, "Area")

    def test_utility_report(self, small_u):
        result = anonymize(small_u, KAnonymityRisk(k=2),
                           LocalSuppression())
        report = UtilityReport(
            small_u, result.db, numeric_attributes=["Growth6mos"]
        )
        # The cycle touches a small minority of cells: TV stays small.
        assert report.joint < 0.25
        assert report.worst_marginal < 0.15
        assert report.mean_shifts["Growth6mos"] == 0.0


class TestAdaptiveMethod:
    def test_prefers_recoding_then_suppresses(self, cities_db):
        hierarchy = DomainHierarchy.italian_geography()
        method = AdaptiveMethod(hierarchy, patience=1)
        result = anonymize(cities_db, KAnonymityRisk(k=2), method)
        assert result.converged
        methods_used = {step.method for step in result.steps}
        # Area values can be recoded; Sector of tuple 1 cannot.
        assert any("global-recoding" in m for m in methods_used)
        assert any("local-suppression" in m for m in methods_used)

    def test_patience_escalates(self, cities_db):
        hierarchy = DomainHierarchy.italian_geography()
        method = AdaptiveMethod(hierarchy, patience=1)
        db = cities_db.copy()
        factory = NullFactory()
        applicable = method.applicable_attributes(db, 5)
        assert applicable == ["Area"]  # recoding level
        method.apply(db, 5, "Area", factory)
        # Patience 1 exhausted: next action for row 5 is suppression.
        applicable = method.applicable_attributes(db, 5)
        assert set(applicable) <= set(db.quasi_identifiers)
        step = method.apply(db, 5, applicable[0], factory)
        assert "local-suppression" in step.method

    def test_unactionable_attribute_escalates_in_place(self, cities_db):
        hierarchy = DomainHierarchy.italian_geography()
        method = AdaptiveMethod(hierarchy, patience=5)
        db = cities_db.copy()
        # Sector has no roll-up: the recoding level cannot act, the
        # apply call escalates to suppression for this attribute.
        step = method.apply(db, 0, "Sector", NullFactory())
        assert "local-suppression" in step.method

    def test_empty_method_list_rejected(self):
        with pytest.raises(AnonymizationError):
            AdaptiveMethod(methods=[])

    def test_invalid_patience(self):
        with pytest.raises(AnonymizationError):
            AdaptiveMethod(patience=0)

    def test_reset_clears_history(self, cities_db):
        hierarchy = DomainHierarchy.italian_geography()
        method = AdaptiveMethod(hierarchy, patience=1)
        db = cities_db.copy()
        method.apply(db, 5, "Area", NullFactory())
        method.reset()
        fresh = cities_db.copy()
        assert method.applicable_attributes(fresh, 5) == ["Area"]

    def test_adaptive_preserves_more_utility_than_pure_suppression(
        self, cities_db
    ):
        hierarchy = DomainHierarchy.italian_geography()
        adaptive = anonymize(
            cities_db, KAnonymityRisk(k=2),
            AdaptiveMethod(hierarchy, patience=2),
        )
        suppression = anonymize(
            cities_db, KAnonymityRisk(k=2), LocalSuppression()
        )
        assert adaptive.converged and suppression.converged
        # Recoding keeps (coarse) values, so fewer nulls appear.
        assert adaptive.nulls_injected <= suppression.nulls_injected

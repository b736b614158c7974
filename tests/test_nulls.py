"""Null-semantics tests: maybe-match vs standard grouping, the
Figure 5 frequencies, and hypothesis properties."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.attack.composition import (
    composition_links,
    shared_quasi_identifiers,
)
from repro.model import (
    MAYBE_MATCH,
    STANDARD,
    GroupIndex,
    MicrodataDB,
    semantics_by_name,
    survey_schema,
)
from repro.model.nulls import null_masks
from repro.risk import (
    DifferentialRisk,
    KAnonymityRisk,
    ReidentificationRisk,
    group_closeness,
    sensitive_diversity,
)
from repro.vadalog.terms import LabelledNull, NullFactory


def make_db(rows, attrs=("A", "B")):
    schema = survey_schema(quasi_identifiers=list(attrs))
    return MicrodataDB("t", schema, rows)


class TestStandardSemantics:
    def test_exact_grouping(self):
        db = make_db(
            [
                {"A": 1, "B": 1},
                {"A": 1, "B": 1},
                {"A": 2, "B": 1},
            ]
        )
        assert STANDARD.match_counts(db) == [2, 2, 1]

    def test_each_null_is_its_own_value(self):
        n1, n2 = LabelledNull(1), LabelledNull(2)
        db = make_db(
            [
                {"A": n1, "B": 1},
                {"A": n2, "B": 1},
                {"A": n1, "B": 1},
            ]
        )
        assert STANDARD.match_counts(db) == [2, 1, 2]

    def test_weight_sums(self):
        schema = survey_schema(quasi_identifiers=["A"], weight="W")
        db = MicrodataDB(
            "t",
            schema,
            [{"A": 1, "W": 10}, {"A": 1, "W": 5}, {"A": 2, "W": 3}],
        )
        assert STANDARD.match_weight_sums(db) == [15, 15, 3]


class TestMaybeMatchSemantics:
    def test_figure5_frequencies_before_anonymization(self, cities_db):
        counts = MAYBE_MATCH.match_counts(cities_db)
        assert counts == [1, 2, 2, 2, 2, 1, 1]

    def test_figure5_frequencies_after_suppression(self, cities_db):
        db = cities_db.copy()
        db.with_value(0, "Sector", LabelledNull(1))
        # Tuple 1's suppressed Sector lets it match tuples 2-5 -> 5;
        # tuples 2-5 now also match tuple 1 -> 3 (Figure 5b).
        counts = MAYBE_MATCH.match_counts(db)
        assert counts[:5] == [5, 3, 3, 3, 3]

    def test_null_matches_other_nulls(self):
        db = make_db(
            [
                {"A": LabelledNull(1), "B": 1},
                {"A": LabelledNull(2), "B": 1},
            ]
        )
        assert MAYBE_MATCH.match_counts(db) == [2, 2]

    def test_null_does_not_bridge_distinct_constants_elsewhere(self):
        db = make_db(
            [
                {"A": LabelledNull(1), "B": 1},
                {"A": "x", "B": 2},
            ]
        )
        assert MAYBE_MATCH.match_counts(db) == [1, 1]

    def test_zero_attributes_all_match(self):
        db = make_db([{"A": 1, "B": 1}, {"A": 2, "B": 2}])
        assert MAYBE_MATCH.match_counts(db, attributes=[]) == [2, 2]

    def test_matches_combination_with_wildcards(self):
        row = {"A": LabelledNull(3), "B": "y"}
        assert MAYBE_MATCH.matches_combination(
            row, [("A", "x"), ("B", "y")]
        )
        assert not MAYBE_MATCH.matches_combination(
            row, [("A", "x"), ("B", "z")]
        )

    def test_weight_sums_with_nulls(self):
        schema = survey_schema(quasi_identifiers=["A"], weight="W")
        db = MicrodataDB(
            "t",
            schema,
            [
                {"A": LabelledNull(1), "W": 10},
                {"A": "x", "W": 5},
                {"A": "y", "W": 3},
            ],
        )
        sums = MAYBE_MATCH.match_weight_sums(db)
        assert sums[0] == 18  # the null row matches everyone
        assert sums[1] == 15  # x matches itself and the null row


class TestNullMasks:
    BITS = (1, 2, 4)

    def test_null_free_input_is_all_zero(self):
        assert null_masks([(1, "a", 2.0), (3, "b", 4.0)], self.BITS) == [0, 0]

    def test_one_null(self):
        projections = [(1, "a", 2), (3, LabelledNull(1), 4), (5, "c", 6)]
        assert null_masks(projections, self.BITS) == [0, 2, 0]

    def test_all_null_column(self):
        projections = [(LabelledNull(i), "a", LabelledNull(9)) for i in
                       range(3)]
        projections.append((LabelledNull(5), "b", 7))
        assert null_masks(projections, self.BITS) == [5, 5, 5, 1]

    def test_one_row(self):
        assert null_masks([(LabelledNull(1), 2, LabelledNull(1))],
                          self.BITS) == [5]
        assert null_masks([(1, 2, 3)], self.BITS) == [0]

    def test_no_rows_and_no_columns(self):
        assert null_masks([], self.BITS) == []
        assert null_masks(iter([(), ()]), ()) == [0, 0]


class TestSemanticsLookup:
    def test_by_name(self):
        assert semantics_by_name("maybe-match") is MAYBE_MATCH
        assert semantics_by_name("standard") is STANDARD

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            semantics_by_name("fuzzy")


# -- property-based tests ----------------------------------------------------

value_strategy = st.integers(min_value=0, max_value=3)


@st.composite
def small_dataset(draw, max_rows=12):
    n_rows = draw(st.integers(min_value=1, max_value=max_rows))
    rows = [
        {"A": draw(value_strategy), "B": draw(value_strategy)}
        for _ in range(n_rows)
    ]
    return make_db(rows)


@st.composite
def dataset_with_nulls(draw, max_rows=10):
    db = draw(small_dataset(max_rows))
    factory = NullFactory()
    n_suppressions = draw(st.integers(min_value=0, max_value=5))
    for _ in range(n_suppressions):
        row = draw(st.integers(min_value=0, max_value=len(db) - 1))
        attr = draw(st.sampled_from(["A", "B"]))
        db.with_value(row, attr, factory.fresh())
    return db


@st.composite
def wide_dataset_with_nulls(draw, max_rows=12):
    """1-5 QIs and a float weight; each QI cell is a labelled null with
    probability ``density`` (up to 1, so all-null rows occur).  Null
    ids repeat, so standard semantics sees equal nulls too."""
    qis = ["A", "B", "C", "D", "E"][: draw(st.integers(1, 5))]
    density = draw(st.sampled_from([0, 2, 5, 8, 10]))  # tenths
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_rows))):
        row = {
            a: (
                LabelledNull(draw(st.integers(1, 4)))
                if draw(st.integers(0, 9)) < density
                else draw(value_strategy)
            )
            for a in qis
        }
        row["W"] = draw(st.floats(min_value=0.5, max_value=50.0))
        rows.append(row)
    schema = survey_schema(quasi_identifiers=qis, weight="W")
    return MicrodataDB("t", schema, rows)


class TestSemanticsProperties:
    @given(dataset_with_nulls())
    def test_maybe_match_dominates_standard(self, db):
        """Maybe-match can only enlarge groups: per-row frequency under
        =⊥ is >= the standard-semantics frequency."""
        maybe = MAYBE_MATCH.match_counts(db)
        standard = STANDARD.match_counts(db)
        for m, s in zip(maybe, standard):
            assert m >= s

    @given(
        wide_dataset_with_nulls(),
        st.sampled_from([MAYBE_MATCH, STANDARD]),
        st.data(),
    )
    def test_counts_match_naive_quadratic(self, db, semantics, data):
        """The mask-partitioned join equals the O(n^2) definition, for
        counts and weight sums, on every QI choice: all of them, a
        subset (width 1 included) or none."""
        qis = db.quasi_identifiers
        attributes = data.draw(
            st.one_of(
                st.none(),
                st.just([]),
                st.lists(st.sampled_from(qis), min_size=1, unique=True),
            )
        )
        names = qis if attributes is None else attributes
        weights = db.weights()
        expected_counts, expected_sums = [], []
        for i in range(len(db)):
            combination = [(a, db.rows[i][a]) for a in names]
            matching = [
                j
                for j in range(len(db))
                if semantics.matches_combination(db.rows[j], combination)
            ]
            expected_counts.append(len(matching))
            expected_sums.append(sum(weights[j] for j in matching))
        assert semantics.match_counts(db, attributes) == expected_counts
        assert semantics.match_weight_sums(db, attributes) == pytest.approx(
            expected_sums
        )

    @given(small_dataset())
    def test_semantics_agree_without_nulls(self, db):
        assert MAYBE_MATCH.match_counts(db) == STANDARD.match_counts(db)

    @given(dataset_with_nulls())
    def test_every_row_matches_itself(self, db):
        for count in MAYBE_MATCH.match_counts(db):
            assert count >= 1

    @given(dataset_with_nulls(), st.integers(0, 9), st.sampled_from(["A", "B"]))
    def test_suppression_never_decreases_own_frequency(
        self, db, row_seed, attr
    ):
        """Replacing a value with a fresh null is monotone for the
        suppressed row under maybe-match semantics."""
        row = row_seed % len(db)
        before = MAYBE_MATCH.match_counts(db)[row]
        db.with_value(row, attr, NullFactory(start=1000).fresh())
        after = MAYBE_MATCH.match_counts(db)[row]
        assert after >= before


# -- GroupIndex consumers against the O(n^2) definition ----------------------

sensitive_strategy = st.one_of(
    st.sampled_from(["x", "y", "z", 1]),
    st.builds(LabelledNull, st.integers(1, 3)),
)


@st.composite
def wide_dataset_with_sensitive(draw, max_rows=12):
    """``wide_dataset_with_nulls`` plus a sensitive column ``S`` whose
    cells may be labelled nulls (ids repeat)."""
    db = draw(wide_dataset_with_nulls(max_rows))
    qis = db.quasi_identifiers
    rows = [dict(row, S=draw(sensitive_strategy)) for row in db.rows]
    schema = survey_schema(
        quasi_identifiers=qis, non_identifying=["S"], weight="W"
    )
    return MicrodataDB("t", schema, rows)


def matching_rows(semantics, rows, row, attributes):
    """The rows that =⊥-match ``row`` on ``attributes``, by definition."""
    combination = [(a, row[a]) for a in attributes]
    return [
        other for other in rows
        if semantics.matches_combination(other, combination)
    ]


semantics_strategy = st.sampled_from([MAYBE_MATCH, STANDARD])


class TestGroupIndexConsumers:
    """l-diversity, t-closeness and release composition read the
    :class:`GroupIndex`; each equals its definition on
    ``matches_combination``."""

    @given(wide_dataset_with_sensitive(), semantics_strategy)
    def test_probe_equals_lookup(self, db, semantics):
        index = GroupIndex(
            db, values=db.weights(), nulls_match=semantics.nulls_match
        )
        for i, row in enumerate(db.rows):
            assert index.probe(row) == index.lookup(i)

    @given(wide_dataset_with_sensitive(), semantics_strategy)
    def test_sensitive_diversity_matches_definition(self, db, semantics):
        qis = db.quasi_identifiers
        expected = [
            len({other["S"] for other in matching_rows(
                semantics, db.rows, row, qis
            )})
            for row in db.rows
        ]
        assert sensitive_diversity(db, "S", qis, semantics) == expected

    @given(wide_dataset_with_sensitive(), semantics_strategy)
    def test_group_closeness_matches_definition(self, db, semantics):
        qis = db.quasi_identifiers
        overall = Counter(row["S"] for row in db.rows)
        expected = []
        for row in db.rows:
            group = Counter(
                other["S"]
                for other in matching_rows(semantics, db.rows, row, qis)
            )
            size = sum(group.values())
            expected.append(0.5 * sum(
                abs(group[value] / size - overall[value] / len(db))
                for value in overall
            ))
        assert group_closeness(db, "S", qis, semantics) == pytest.approx(
            expected, abs=1e-12
        )

    @given(
        wide_dataset_with_sensitive(),
        wide_dataset_with_sensitive(),
        semantics_strategy,
    )
    def test_composition_links_match_definition(
        self, first, second, semantics
    ):
        """Join on the shared QIs (the shorter QI prefix of the two)."""
        shared = shared_quasi_identifiers(first, second)
        expected = [
            len(matching_rows(semantics, second.rows, row, shared))
            for row in first.rows
        ]
        assert composition_links(first, second, None, semantics) == expected


@st.composite
def edited_dataset(draw):
    """``wide_dataset_with_nulls`` with up to eight edits applied after
    its index was built: ``(row, column, None)`` suppresses the cell
    with a fresh null, ``(row, column, j)`` recodes it to row j's cell
    in that column (a constant or a null)."""
    db = draw(wide_dataset_with_nulls())
    qis = db.quasi_identifiers
    edits = draw(st.lists(
        st.tuples(
            st.integers(0, len(db) - 1),
            st.sampled_from(qis),
            st.one_of(st.none(), st.integers(0, len(db) - 1)),
        ),
        max_size=8,
    ))
    return db, edits


class TestLiveIndex:
    """A :class:`GroupIndex` kept current through :meth:`update`, as
    the anonymization cycle keeps its run index, answers as a fresh
    grouping of the edited table does."""

    @given(edited_dataset(), semantics_strategy)
    def test_live_index_equals_fresh(self, edited, semantics):
        db, edits = edited
        index = GroupIndex(
            db, values=db.weights(), nulls_match=semantics.nulls_match
        )
        index.counts()  # build groups that the edits must then move
        factory = NullFactory(start=100)
        # k-anonymity and the differential measure read the live
        # counts; re-identification sums weights, so it assesses afresh.
        measures = [
            KAnonymityRisk(k=2),
            DifferentialRisk(epsilon=0.5),
            ReidentificationRisk(),
        ]
        for row, attribute, source in edits:
            value = (
                factory.fresh() if source is None
                else db.rows[source][attribute]
            )
            db.with_value(row, attribute, value)
            index.update(row)
            assert index.counts() == semantics.match_counts(db)
            for measure in measures:
                live = measure.assess_index(db, index, semantics=semantics)
                fresh = measure.assess(db, semantics=semantics)
                assert live.scores == fresh.scores
                assert live.details == fresh.details
                assert live.parameters == fresh.parameters

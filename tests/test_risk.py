"""Risk-measure tests against the paper's worked numbers, the
registry, and cross-checks between measures."""

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import generate_dataset
from repro.errors import ReproError
from repro.model import (
    MAYBE_MATCH,
    STANDARD,
    GroupIndex,
    MicrodataDB,
    survey_schema,
)
from repro.risk import (
    RISK_REGISTRY,
    DifferentialRisk,
    IndividualRisk,
    KAnonymityRisk,
    LDiversityRisk,
    ReidentificationRisk,
    RiskReport,
    SudaRisk,
    TClosenessRisk,
    combined_cluster_risk,
    find_minimal_sample_uniques,
    measure_by_name,
    posterior_mean_inverse_frequency,
    propagate_over_clusters,
    suda_dis_scores,
)
from repro.vadalog.terms import LabelledNull, NullFactory


class TestRegistry:
    def test_all_paper_measures_registered(self):
        assert {"reidentification", "k-anonymity", "individual",
                "suda"} <= set(RISK_REGISTRY)

    def test_measure_by_name_with_params(self):
        measure = measure_by_name("k-anonymity", k=4)
        assert measure.k == 4

    def test_unknown_measure(self):
        with pytest.raises(ReproError):
            measure_by_name("quantum")


class TestReidentification:
    def test_paper_numbers(self, ig_db):
        report = ReidentificationRisk().assess(ig_db)
        assert report.scores[14] == pytest.approx(1 / 30)   # tuple 15
        assert report.scores[6] == pytest.approx(1 / 300)   # tuple 7
        assert report.scores[3] == pytest.approx(1 / 60)    # tuple 4

    def test_group_weights_are_summed(self, ig_db):
        # No two tuples of the fragment share all five QIs, so every
        # group is a singleton and risk = 1/W.
        report = ReidentificationRisk().assess(ig_db)
        for index in range(len(ig_db)):
            assert report.scores[index] == pytest.approx(
                1 / ig_db.weight_of(index)
            )

    def test_risk_clipped_to_one(self):
        from repro.model import MicrodataDB, survey_schema

        schema = survey_schema(quasi_identifiers=["A"], weight="W")
        db = MicrodataDB("t", schema, [{"A": 1, "W": 0.2}])
        report = ReidentificationRisk().assess(db)
        assert report.scores == [1.0]

    def test_attribute_subset(self, ig_db):
        # Restricting to Area only: groups are the three areas.
        report = ReidentificationRisk().assess(ig_db, attributes=["Area"])
        north_weight = sum(
            ig_db.weight_of(i)
            for i in range(len(ig_db))
            if ig_db.rows[i]["Area"] == "North"
        )
        north_rows = [
            i for i in range(len(ig_db))
            if ig_db.rows[i]["Area"] == "North"
        ]
        for index in north_rows:
            assert report.scores[index] == pytest.approx(1 / north_weight)

    def test_safe_from_group(self):
        measure = ReidentificationRisk()
        assert measure.safe_from_group(1, 100.0, 0.5)
        assert not measure.safe_from_group(1, 1.0, 0.5)

    def test_explanation_mentions_group(self, ig_db):
        report = ReidentificationRisk().assess(ig_db)
        assert "group weight sum" in report.explain(14)


class TestKAnonymity:
    def test_fig5a_risky_rows(self, cities_db):
        report = KAnonymityRisk(k=2).assess(cities_db)
        assert report.risky_indices(0.5) == [0, 5, 6]

    def test_higher_k_is_stricter(self, cities_db):
        risky2 = KAnonymityRisk(k=2).assess(cities_db).risky_indices(0.5)
        risky3 = KAnonymityRisk(k=3).assess(cities_db).risky_indices(0.5)
        assert set(risky2) <= set(risky3)

    def test_invalid_k(self):
        with pytest.raises(ReproError):
            KAnonymityRisk(k=0)

    def test_safe_from_group(self):
        measure = KAnonymityRisk(k=3)
        assert measure.safe_from_group(3, 0.0, 0.5)
        assert not measure.safe_from_group(2, 0.0, 0.5)

    def test_assess_index_rejects_a_foreign_index(self, cities_db):
        measure = KAnonymityRisk(k=2)
        index = GroupIndex(cities_db)
        with pytest.raises(ReproError, match="not over"):
            measure.assess_index(cities_db.copy(), index)
        with pytest.raises(ReproError, match="not on"):
            measure.assess_index(cities_db, index, attributes=["Sector"])
        with pytest.raises(ReproError, match="standard"):
            measure.assess_index(cities_db, index, semantics=STANDARD)

    def test_maybe_match_reduces_risk(self, cities_db):
        db = cities_db.copy()
        db.with_value(0, "Sector", LabelledNull(1))
        maybe = KAnonymityRisk(k=2).assess(db, semantics=MAYBE_MATCH)
        standard = KAnonymityRisk(k=2).assess(db, semantics=STANDARD)
        assert maybe.scores[0] == 0.0
        assert standard.scores[0] == 1.0


class TestIndividualRisk:
    def test_simple_mode_is_f_over_weight(self, ig_db):
        report = IndividualRisk(mode="simple").assess(ig_db)
        for index in range(len(ig_db)):
            assert report.scores[index] == pytest.approx(
                1 / ig_db.weight_of(index)
            )

    def test_closed_form_f1(self):
        p = 0.1
        expected = (p / (1 - p)) * math.log(1 / p)
        assert posterior_mean_inverse_frequency(1, p) == pytest.approx(
            expected
        )

    def test_series_converges_to_sample_risk_at_p1(self):
        assert posterior_mean_inverse_frequency(3, 1.0) == pytest.approx(
            1 / 3
        )

    def test_series_between_bounds(self):
        # E[1/F | f] is below 1/f (population at least the sample) and
        # above p/f (population about f/p on average, Jensen upward).
        for f in (1, 2, 5):
            for p in (0.05, 0.3, 0.7):
                risk = posterior_mean_inverse_frequency(f, p)
                assert 0 < risk <= 1 / f + 1e-12

    def test_sampled_mode_close_to_series(self, ig_db):
        series = IndividualRisk(mode="series").assess(ig_db)
        sampled = IndividualRisk(mode="sampled", samples=4000).assess(
            ig_db
        )
        for expected, estimate in zip(series.scores, sampled.scores):
            assert estimate == pytest.approx(expected, rel=0.15)

    def test_invalid_mode(self):
        with pytest.raises(ReproError):
            IndividualRisk(mode="magic")

    def test_invalid_frequency(self):
        with pytest.raises(ReproError):
            posterior_mean_inverse_frequency(0, 0.5)

    def test_safe_from_group_deterministic_modes(self):
        simple = IndividualRisk(mode="simple")
        assert simple.safe_from_group(1, 100.0, 0.5)
        sampled = IndividualRisk(mode="sampled")
        assert sampled.safe_from_group(1, 100.0, 0.5) is None


class TestSuda:
    def test_paper_tuple20_msus(self, ig_db):
        # Section 4.2's example restricts to the four Figure 5
        # attributes: tuple 20 has exactly the 2 MSUs named in the
        # paper.
        attrs = ["Area", "Sector", "Employees", "Residential Rev."]
        msus = find_minimal_sample_uniques(ig_db, attrs)
        tuple20 = sorted(sorted(s) for s in msus[19])
        assert tuple20 == [
            ["Employees", "Residential Rev."],
            ["Sector"],
        ]

    def test_sample_unique_but_not_msu_excluded(self, ig_db):
        attrs = ["Area", "Sector", "Employees", "Residential Rev."]
        msus = find_minimal_sample_uniques(ig_db, attrs)
        full = frozenset(attrs)
        for sets in msus.values():
            assert full not in sets or len(sets) == 1

    def test_fig5a_scores(self, cities_db):
        report = SudaRisk(k=3).assess(cities_db)
        assert report.risky_indices(0.5) == [0, 5, 6]

    def test_duplicated_rows_have_no_msu(self):
        from repro.model import MicrodataDB, survey_schema

        schema = survey_schema(quasi_identifiers=["A", "B"])
        db = MicrodataDB(
            "t", schema, [{"A": 1, "B": 2}, {"A": 1, "B": 2}]
        )
        assert find_minimal_sample_uniques(db, ["A", "B"]) == {}

    def test_msu_threshold_semantics(self, cities_db):
        # With k=1 no MSU of size < 1 exists: nothing is dangerous.
        report = SudaRisk(k=1).assess(cities_db)
        assert report.risky_indices(0.5) == []

    def test_dis_scores_weigh_small_msus_more(self, ig_db):
        attrs = ["Area", "Sector", "Employees", "Residential Rev."]
        msus = find_minimal_sample_uniques(ig_db, attrs)
        scores = suda_dis_scores(msus, len(ig_db), len(attrs))
        # Tuple 20 has a size-1 MSU; tuple 4 (row 3) has MSUs of size
        # >= 2 only: tuple 20 must score higher.
        assert scores[19] > scores[3] > 0

    def test_wildcarded_sector_removes_msus(self, cities_db):
        db = cities_db.copy()
        db.with_value(0, "Sector", LabelledNull(1))
        report = SudaRisk(k=3).assess(db, semantics=MAYBE_MATCH)
        # With its sector wildcarded, tuple 1 matches tuples 2-5 on
        # every combination: no MSU, not dangerous.
        assert report.scores[0] == 0.0

    def test_max_size_zero_searches_nothing(self):
        db = generate_dataset("R6A4U", seed=1, scale=200)
        measure = SudaRisk(k=3)
        assert measure.minimal_sample_uniques(db)
        assert measure.minimal_sample_uniques(db, max_size=0) == {}
        assert find_minimal_sample_uniques(
            db, db.quasi_identifiers, max_size=0
        ) == {}


# -- MSU search against a brute-force oracle ---------------------------------

def make_db(rows, attrs):
    return MicrodataDB("t", survey_schema(quasi_identifiers=list(attrs)), rows)


@st.composite
def qi_dataset_with_nulls(draw, max_qis=4, max_value=2, max_rows=12):
    """1-``max_rows`` rows over 2-``max_qis`` QIs with values
    0-``max_value``, with a few cells replaced by fresh labelled nulls."""
    attrs = ["A", "B", "C", "D", "E", "F"][: draw(st.integers(2, max_qis))]
    n_rows = draw(st.integers(1, max_rows))
    rows = [
        {a: draw(st.integers(0, max_value)) for a in attrs}
        for _ in range(n_rows)
    ]
    db = make_db(rows, attrs)
    factory = NullFactory()
    for _ in range(draw(st.integers(0, 2 * n_rows))):
        row = draw(st.integers(0, n_rows - 1))
        db.with_value(row, draw(st.sampled_from(attrs)), factory.fresh())
    return db


def brute_force_msus(db, attributes, max_size, semantics):
    """MSUs by definition: in ascending subset size, a row is unique on
    a subset when exactly one row matches its values there, and the
    subset is minimal when no MSU recorded for the row lies inside it."""
    limit = len(attributes) if max_size is None else max_size
    msus = {}
    for size in range(1, limit + 1):
        for subset in itertools.combinations(attributes, size):
            subset_set = frozenset(subset)
            for index, row in enumerate(db.rows):
                combination = [(a, row[a]) for a in subset]
                matches = sum(
                    1
                    for other in db.rows
                    if semantics.matches_combination(other, combination)
                )
                if matches != 1:
                    continue
                found = msus.setdefault(index, [])
                if not any(existing <= subset_set for existing in found):
                    found.append(subset_set)
    return msus


class TestMsuSearchOracle:
    @given(
        # The wide tables (up to six values on up to six QIs) give
        # subsets whose span, the product of their columns' code
        # counts, passes the 8n bound at which the prefix-built keys
        # are re-densified.
        st.one_of(
            qi_dataset_with_nulls(),
            qi_dataset_with_nulls(max_qis=6, max_value=5, max_rows=16),
        ),
        st.sampled_from([MAYBE_MATCH, STANDARD]),
        st.sampled_from([None, 1, 2, 3]),
    )
    def test_matches_brute_force(self, db, semantics, max_size):
        attrs = db.quasi_identifiers
        assert find_minimal_sample_uniques(
            db, attrs, max_size=max_size, semantics=semantics
        ) == brute_force_msus(db, attrs, max_size, semantics)

    @pytest.mark.parametrize("semantics", [MAYBE_MATCH, STANDARD])
    def test_keys_past_the_redensify_bound(self, semantics):
        # 12 rows (bound 96) over six QIs holding all six values: every
        # pair already spans 36 codes and every triple 216.
        factory = NullFactory()
        rows = [
            {a: (row * (shift + 1) + shift) % 6
             for shift, a in enumerate("ABCDEF")}
            for row in range(12)
        ]
        rows[3]["B"] = factory.fresh()
        rows[7]["E"] = factory.fresh()
        db = make_db(rows, list("ABCDEF"))
        assert find_minimal_sample_uniques(
            db, list("ABCDEF"), semantics=semantics
        ) == brute_force_msus(db, list("ABCDEF"), None, semantics)

    @pytest.mark.parametrize("semantics", [MAYBE_MATCH, STANDARD])
    def test_one_labelled_null_reused_across_rows(self, semantics):
        shared = NullFactory().fresh()
        db = make_db(
            [
                {"A": shared, "B": 1},
                {"A": shared, "B": 2},
                {"A": 1, "B": 1},
                {"A": 2, "B": 3},
            ],
            ["A", "B"],
        )
        msus = find_minimal_sample_uniques(db, ["A", "B"], semantics=semantics)
        assert msus == brute_force_msus(db, ["A", "B"], None, semantics)
        if semantics is STANDARD:
            # The shared null is one value held by two rows, not unique.
            assert frozenset({"A"}) not in msus.get(0, [])
            assert msus[1] == [frozenset({"B"})]

    @pytest.mark.parametrize("semantics", [MAYBE_MATCH, STANDARD])
    def test_equal_values_of_mixed_type_are_one_value(self, semantics):
        db = make_db(
            [
                {"A": 1, "B": "x"},
                {"A": 1.0, "B": "y"},
                {"A": True, "B": "y"},
                {"A": 2, "B": "x"},
            ],
            ["A", "B"],
        )
        msus = find_minimal_sample_uniques(db, ["A", "B"], semantics=semantics)
        assert msus == brute_force_msus(db, ["A", "B"], None, semantics)
        assert msus == {
            0: [frozenset({"A", "B"})],
            3: [frozenset({"A"})],
        }

    @pytest.mark.parametrize("semantics", [MAYBE_MATCH, STANDARD])
    @pytest.mark.parametrize("max_size", [None, 1, 3])
    def test_empty_table(self, semantics, max_size):
        db = make_db([], ["A", "B", "C"])
        assert find_minimal_sample_uniques(
            db, ["A", "B", "C"], max_size=max_size, semantics=semantics
        ) == {}

    @pytest.mark.parametrize("semantics", [MAYBE_MATCH, STANDARD])
    def test_max_size_above_the_qi_count(self, semantics):
        factory = NullFactory()
        db = make_db(
            [
                {"A": 1, "B": 2, "C": factory.fresh()},
                {"A": 1, "B": 3, "C": 4},
                {"A": 5, "B": 2, "C": 4},
                {"A": 1, "B": 2, "C": 6},
            ],
            ["A", "B", "C"],
        )
        attrs = ["A", "B", "C"]
        msus = find_minimal_sample_uniques(
            db, attrs, max_size=7, semantics=semantics
        )
        assert msus == find_minimal_sample_uniques(
            db, attrs, semantics=semantics
        )
        assert msus == brute_force_msus(db, attrs, 7, semantics)

    @pytest.mark.parametrize("semantics", [MAYBE_MATCH, STANDARD])
    def test_one_row_table_has_every_singleton(self, semantics):
        factory = NullFactory()
        db = make_db(
            [{"A": factory.fresh(), "B": 1, "C": factory.fresh()}],
            ["A", "B", "C"],
        )
        msus = find_minimal_sample_uniques(
            db, ["A", "B", "C"], semantics=semantics
        )
        singletons = [frozenset({"A"}), frozenset({"B"}), frozenset({"C"})]
        assert msus == {0: singletons}
        assert msus == brute_force_msus(db, ["A", "B", "C"], None, semantics)

    @pytest.mark.parametrize("semantics", [MAYBE_MATCH, STANDARD])
    def test_row_null_on_every_qi(self, semantics):
        factory = NullFactory()
        db = make_db(
            [
                {"A": factory.fresh(), "B": factory.fresh()},
                {"A": 1, "B": 2},
                {"A": 1, "B": 3},
                {"A": 4, "B": 2},
            ],
            ["A", "B"],
        )
        msus = find_minimal_sample_uniques(db, ["A", "B"], semantics=semantics)
        assert msus == brute_force_msus(db, ["A", "B"], None, semantics)
        if semantics is MAYBE_MATCH:
            # The all-null row maybe-matches every row on every subset.
            assert msus == {}
        else:
            # Its fresh nulls are values no other row holds.
            assert msus[0] == [frozenset({"A"}), frozenset({"B"})]


class TestClusterRisk:
    def test_combined_formula(self):
        assert combined_cluster_risk([0.5, 0.5]) == pytest.approx(0.75)
        assert combined_cluster_risk([]) == 0.0
        assert combined_cluster_risk([1.0, 0.1]) == 1.0

    def test_propagation_assigns_cluster_risk(self, cities_db):
        base = KAnonymityRisk(k=2).assess(cities_db)
        lifted = propagate_over_clusters(base, [{0, 1}])
        # Row 1 was safe but is linked to risky row 0.
        assert lifted.scores[1] == pytest.approx(1.0)
        assert lifted.scores[2] == base.scores[2]

    def test_overlapping_clusters_rejected(self, cities_db):
        base = KAnonymityRisk(k=2).assess(cities_db)
        with pytest.raises(ReproError):
            propagate_over_clusters(base, [{0, 1}, {1, 2}])

    def test_out_of_range_member_rejected(self, cities_db):
        base = KAnonymityRisk(k=2).assess(cities_db)
        with pytest.raises(ReproError):
            propagate_over_clusters(base, [{0, 99}])

    def test_singleton_cluster_is_noop(self, cities_db):
        base = KAnonymityRisk(k=2).assess(cities_db)
        lifted = propagate_over_clusters(base, [{2}])
        assert lifted.scores == base.scores


class TestDetailPins:
    """The exact per-row detail strings of every measure on the Figure
    5a fragment, as is and with row 0's Sector suppressed (so its
    group maybe-matches the other Roma rows), and on the Figure 1
    fragment's decimal weights."""

    @pytest.fixture
    def suppressed_cities(self, cities_db):
        cities_db.with_value(0, "Sector", NullFactory().fresh())
        return cities_db

    def test_reidentification(self, suppressed_cities, ig_db):
        assert ReidentificationRisk().assess(ig_db).details == [
            f"group weight sum {weight:g} over 1 matching tuple(s)"
            for weight in ig_db.weights()
        ]
        assert ReidentificationRisk().assess(suppressed_cities).details == (
            ["group weight sum 5 over 5 matching tuple(s)"]
            + ["group weight sum 3 over 3 matching tuple(s)"] * 4
            + ["group weight sum 1 over 1 matching tuple(s)"] * 2
        )

    def test_individual_simple(self, suppressed_cities, ig_db):
        assert IndividualRisk().assess(ig_db).details == [
            f"f=1, sum(W)={weight:g}, mode=simple"
            for weight in ig_db.weights()
        ]
        assert IndividualRisk().assess(suppressed_cities).details == (
            ["f=5, sum(W)=5, mode=simple"]
            + ["f=3, sum(W)=3, mode=simple"] * 4
            + ["f=1, sum(W)=1, mode=simple"] * 2
        )

    def test_differential(self, cities_db):
        assert DifferentialRisk(epsilon=0.5).assess(cities_db).details == (
            ["frequency 1, epsilon=0.5"]
            + ["frequency 2, epsilon=0.5"] * 4
            + ["frequency 1, epsilon=0.5"] * 2
        )

    def test_l_diversity(self, suppressed_cities):
        report = LDiversityRisk(sensitive="Sector", l=3).assess(
            suppressed_cities,
            attributes=["Area", "Employees", "Residential Revenue"],
        )
        assert report.details == (
            ["3 distinct 'Sector' value(s) in group vs l=3"] * 5
            + ["1 distinct 'Sector' value(s) in group vs l=3"] * 2
        )

    def test_t_closeness(self, suppressed_cities):
        report = TClosenessRisk(sensitive="Sector", t=0.3).assess(
            suppressed_cities,
            attributes=["Area", "Employees", "Residential Revenue"],
        )
        assert report.details == (
            ["group-vs-global TV 0.2857 vs t=0.3"] * 5
            + ["group-vs-global TV 0.7143 vs t=0.3"] * 2
        )

    def test_clusters(self, suppressed_cities):
        base = DifferentialRisk().assess(suppressed_cities)
        lifted = propagate_over_clusters(base, [{0, 1}, {5, 6}])
        assert lifted.details == [
            "cluster of 2 linked entities: combined risk 0.453428 "
            "(own 0.135335)",
            "cluster of 2 linked entities: combined risk 0.453428 "
            "(own 0.367879)",
            "frequency 3, epsilon=0.5",
            "frequency 3, epsilon=0.5",
            "frequency 3, epsilon=0.5",
            "cluster of 2 linked entities: combined risk 1 (own 1)",
            "cluster of 2 linked entities: combined risk 1 (own 1)",
        ]

    def test_clusters_over_a_report_without_details(self, cities_db):
        base = RiskReport("plain", [0.5] * 7, cities_db.quasi_identifiers)
        lifted = propagate_over_clusters(base, [{0, 1}])
        assert lifted.details == (
            ["cluster of 2 linked entities: combined risk 0.75 "
             "(own 0.5)"] * 2
            + [""] * 5
        )
        assert lifted.explain(2).endswith("'Residential Revenue']")

    def test_suda(self, cities_db, ig_db):
        assert SudaRisk(k=3).assess(cities_db).details == (
            ["1 MSU(s), sizes [1], k=3"]
            + ["no MSU up to size 3"] * 4
            + ["1 MSU(s), sizes [1], k=3"] * 2
        )
        details = SudaRisk(k=3).assess(ig_db).details
        assert details[0] == "2 MSU(s), sizes [2, 3], k=3"
        assert details[14] == "7 MSU(s), sizes [2, 2, 2, 2, 2, 2, 3], k=3"
        assert details[19] == "4 MSU(s), sizes [1, 2, 2, 2], k=3"

    def test_verdict_and_explain_carry_the_detail(self, cities_db):
        report = KAnonymityRisk(k=3).assess(cities_db)
        assert report.details[0] == "frequency 1 vs k=3 (sample unique)"
        assert report.details[1] == "frequency 2 vs k=3"
        assert report.verdict(0, 0.5).detail == report.details[0]
        assert report.explain(1).endswith(" — frequency 2 vs k=3")

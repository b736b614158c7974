"""Anonymization-cycle tests: convergence, minimality, tracker
consistency, explainability, business-knowledge clusters."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.anonymize import (
    AnonymizationCycle,
    GroupTracker,
    LocalSuppression,
    QISelection,
    RecodeThenSuppress,
    anonymize,
)
from repro.errors import AnonymizationError
from repro.model import (
    MAYBE_MATCH,
    STANDARD,
    DomainHierarchy,
    MicrodataDB,
    is_suppressed,
    survey_schema,
)
from repro.risk import KAnonymityRisk, ReidentificationRisk, SudaRisk
from repro.vadalog.terms import NullFactory


class TestFigure5Walkthrough:
    def test_suppression_cycle_matches_paper(self, cities_db):
        result = anonymize(
            cities_db, KAnonymityRisk(k=2), LocalSuppression()
        )
        assert result.converged
        # The greedy minimum: one null for tuple 1 (Sector), one null
        # covering the Milano/Torino pair.
        assert result.nulls_injected == 2
        freqs = KAnonymityRisk(k=2).frequencies(result.db)
        assert min(freqs) >= 2
        assert freqs[0] == 5  # the Figure 5b frequency for tuple 1

    def test_first_step_suppresses_sector_of_tuple1(self, cities_db):
        result = anonymize(
            cities_db, KAnonymityRisk(k=2), LocalSuppression()
        )
        first = result.steps[0]
        assert first.row == 0
        assert first.attribute == "Sector"

    def test_recoding_cycle_reproduces_fig5b(self, cities_db):
        hierarchy = DomainHierarchy.italian_geography()
        result = anonymize(
            cities_db,
            KAnonymityRisk(k=2),
            RecodeThenSuppress(hierarchy),
        )
        assert result.converged
        # Milano and Torino roll up to North (Figure 5b, tuples 6-7).
        assert result.db.rows[5]["Area"] == "North"
        assert result.db.rows[6]["Area"] == "North"

    def test_trace_explains_every_step(self, cities_db):
        result = anonymize(
            cities_db, KAnonymityRisk(k=2), LocalSuppression()
        )
        for step in result.steps:
            assert "k-anonymity" in step.reason
        story = result.explain_row(0)
        assert "initial" in story and "final" in story


class TestConvergence:
    def test_risk_never_above_threshold_after_convergence(self, small_u):
        result = anonymize(
            small_u, KAnonymityRisk(k=2), LocalSuppression()
        )
        assert result.converged
        final = KAnonymityRisk(k=2).assess(result.db)
        assert final.risky_indices(0.5) == []

    def test_reidentification_cycle(self, ig_db):
        result = anonymize(
            ig_db,
            ReidentificationRisk(),
            LocalSuppression(),
            threshold=0.02,
        )
        assert result.converged
        final = ReidentificationRisk().assess(result.db)
        assert max(final.scores) <= 0.02

    def test_suda_cycle_without_recheck(self, cities_db):
        result = anonymize(
            cities_db, SudaRisk(k=2), LocalSuppression()
        )
        assert result.converged
        final = SudaRisk(k=2).assess(result.db)
        assert final.risky_indices(0.5) == []

    def test_standard_semantics_needs_more_nulls(self, cities_db):
        maybe = anonymize(
            cities_db,
            KAnonymityRisk(k=2),
            LocalSuppression(),
            semantics=MAYBE_MATCH,
        )
        standard = anonymize(
            cities_db,
            KAnonymityRisk(k=2),
            LocalSuppression(),
            semantics=STANDARD,
        )
        assert maybe.nulls_injected < standard.nulls_injected

    def test_non_convergence_reported_not_raised(self):
        # Two rows that can never reach k=3 anonymity (only 2 rows).
        schema = survey_schema(quasi_identifiers=["A"])
        db = MicrodataDB("t", schema, [{"A": 1}, {"A": 2}])
        result = anonymize(db, KAnonymityRisk(k=3), LocalSuppression(),
                           semantics=STANDARD)
        assert not result.converged

    def test_invalid_threshold(self):
        with pytest.raises(AnonymizationError):
            AnonymizationCycle(
                KAnonymityRisk(), LocalSuppression(), threshold=1.5
            )

    def test_original_dataset_untouched(self, cities_db):
        snapshot = [dict(row) for row in cities_db.rows]
        anonymize(cities_db, KAnonymityRisk(k=2), LocalSuppression())
        assert cities_db.rows == snapshot


class TestWithinIterationRecheck:
    def test_recheck_avoids_redundant_suppressions(self, cities_db):
        with_recheck = anonymize(
            cities_db, KAnonymityRisk(k=2), LocalSuppression(),
            recheck=True,
        )
        without = anonymize(
            cities_db, KAnonymityRisk(k=2), LocalSuppression(),
            recheck=False,
        )
        assert with_recheck.nulls_injected <= without.nulls_injected

    def test_recheck_result_still_converges(self, small_v):
        result = anonymize(
            small_v, KAnonymityRisk(k=3), LocalSuppression(),
            recheck=True,
        )
        assert result.converged


class TestBusinessClusters:
    def test_cluster_forces_anonymization_of_safe_tuples(self, cities_db):
        plain = anonymize(
            cities_db, KAnonymityRisk(k=2), LocalSuppression()
        )
        clustered = anonymize(
            cities_db,
            KAnonymityRisk(k=2),
            LocalSuppression(),
            clusters=[{0, 1, 2, 3, 4}],
        )
        assert clustered.nulls_injected >= plain.nulls_injected
        assert clustered.converged

    def test_cluster_risk_in_trace(self, cities_db):
        result = anonymize(
            cities_db,
            KAnonymityRisk(k=2),
            LocalSuppression(),
            clusters=[{0, 1}],
        )
        assert any("cluster" in step.reason for step in result.steps)


class TestGroupTracker:
    def test_stats_match_semantics(self, cities_db):
        tracker = GroupTracker(
            cities_db, cities_db.quasi_identifiers, MAYBE_MATCH
        )
        counts = MAYBE_MATCH.match_counts(cities_db)
        for index in range(len(cities_db)):
            count, _ = tracker.stats(index)
            assert count == counts[index]

    def test_stats_after_suppression(self, cities_db):
        db = cities_db.copy()
        tracker = GroupTracker(db, db.quasi_identifiers, MAYBE_MATCH)
        factory = NullFactory()
        LocalSuppression().apply(db, 0, "Sector", factory)
        tracker.after_change(0)
        expected = MAYBE_MATCH.match_counts(db)
        for index in range(len(db)):
            count, _ = tracker.stats(index)
            assert count == expected[index]

    @given(
        st.sampled_from([MAYBE_MATCH, STANDARD]),
        st.sampled_from([
            None, [], ["Sector"], ["Area", "Employees"],
        ]),
        st.lists(
            st.tuples(
                st.integers(0, 6),
                st.sampled_from(
                    ["Area", "Sector", "Employees", "Residential Revenue"]
                ),
                st.one_of(st.just(None), st.integers(0, 6)),
            ),
            max_size=10,
        ),
    )
    def test_tracker_consistency_under_random_edits(
        self, semantics, attributes, edits
    ):
        """Property: after every edit of any sequence of suppressions
        and recodings, the tracker's per-row stats and each QI's
        leave-one-out count equal a fresh full computation, for all,
        one or zero QIs.  An edit ``(row, attribute, None)`` suppresses
        the cell; ``(row, attribute, j)`` recodes a constant cell to row
        j's constant in that column, so a null-free row must be
        re-projected.  Edits may hit attributes the tracker ignores."""
        from repro.data import city_fragment

        db = city_fragment()
        if attributes is None:
            attributes = db.quasi_identifiers
        tracker = GroupTracker(db, attributes, semantics)
        factory = NullFactory()
        method = LocalSuppression()
        _assert_tracker_is_fresh(tracker, db, attributes, semantics)
        for row, attribute, source in edits:
            if attribute not in method.applicable_attributes(db, row):
                continue
            value = None if source is None else db.rows[source][attribute]
            if is_suppressed(value):
                continue  # recoding writes constants only
            if source is None:
                method.apply(db, row, attribute, factory)
            else:
                db.with_value(row, attribute, value)
            tracker.after_change(row)
            _assert_tracker_is_fresh(tracker, db, attributes, semantics)


def _assert_tracker_is_fresh(tracker, db, attributes, semantics):
    expected_counts, expected_sums = semantics.match_aggregate(
        db, attributes, db.weights()
    )
    for index in range(len(db)):
        count, weight_sum = tracker.stats(index)
        assert count == expected_counts[index]
        assert weight_sum == pytest.approx(expected_sums[index])
    for attribute in attributes:
        remaining = [a for a in attributes if a != attribute]
        expected = semantics.match_counts(db, remaining)
        counts = tracker.index.counts_without(attribute, range(len(db)))
        assert [counts[index] for index in range(len(db))] == expected


class _PerQIRecount(QISelection):
    """Most-risky-first as a fresh ``match_counts`` per QI at the start
    of each iteration: the reference for the index-backed heuristic."""

    def prepare(self, index, rows):
        attributes = index.attributes
        self.counts = {
            attribute: MAYBE_MATCH.match_counts(
                index.db, [a for a in attributes if a != attribute]
            )
            for attribute in attributes
        }

    def select(self, db, row, applicable):
        return max(applicable, key=lambda a: self.counts[a][row])


class _LiveCounts(QISelection):
    """Most-risky-first on the counts at selection time, after the
    pass's earlier steps."""

    def prepare(self, index, rows):
        self.index = index

    def select(self, db, row, applicable):
        return max(
            applicable,
            key=lambda a: self.index.counts_without(a, [row])[row],
        )


class TestMostRiskyFirstSnapshot:
    """Within a pass, most-risky-first chooses from the counts as they
    were when the iteration started, even after an earlier step of the
    same pass changed a later row's groups."""

    @staticmethod
    def steps(qi_selection):
        rows = [("y", "q", "u"), ("x", "p", "u"), ("x", "p", "v")]
        db = MicrodataDB(
            "snapshot",
            survey_schema(quasi_identifiers=["A", "B", "C"], weight="W"),
            [
                {"A": a, "B": b, "C": c, "W": weight}
                for weight, (a, b, c) in enumerate(rows, start=1)
            ],
        )
        result = anonymize(
            db, KAnonymityRisk(k=2), LocalSuppression(),
            qi_selection=qi_selection,
        )
        return [(step.row, step.attribute) for step in result.steps]

    def test_uses_iteration_start_counts(self):
        # Suppressing row 0's A first lifts row 1's count without B
        # from 1 to 2.  At the start of the pass only C gave row 1 a
        # group of 2, so row 1 still loses C.
        steps = self.steps("most-risky-first")
        assert steps == [(0, "A"), (1, "C"), (0, "B")]
        assert steps == self.steps(_PerQIRecount())
        assert steps != self.steps(_LiveCounts())


# -- hypothesis: cycle-level invariants ---------------------------------------

@st.composite
def random_db(draw):
    n_rows = draw(st.integers(min_value=2, max_value=14))
    rows = [
        {
            "A": draw(st.integers(0, 2)),
            "B": draw(st.integers(0, 2)),
            "C": draw(st.integers(0, 1)),
            "W": draw(st.integers(1, 50)),
        }
        for _ in range(n_rows)
    ]
    schema = survey_schema(
        quasi_identifiers=["A", "B", "C"], weight="W"
    )
    return MicrodataDB("rand", schema, rows)


class TestCycleProperties:
    @given(random_db(), st.integers(min_value=2, max_value=3))
    def test_cycle_terminates_and_converges(self, db, k):
        result = anonymize(db, KAnonymityRisk(k=k), LocalSuppression())
        # With <= k rows full suppression may still not reach k under
        # any semantics only when rows < k.
        if len(db) >= k:
            assert result.converged
            final = KAnonymityRisk(k=k).assess(result.db)
            assert final.risky_indices(0.5) == []

    @given(random_db())
    def test_nulls_bounded_by_risky_cells(self, db):
        result = anonymize(db, KAnonymityRisk(k=2), LocalSuppression())
        bound = len(result.initial_risky) * len(db.quasi_identifiers)
        assert result.nulls_injected <= max(bound, 0) + len(db.quasi_identifiers)

    @given(random_db())
    def test_weights_and_non_qis_never_touched(self, db):
        result = anonymize(db, KAnonymityRisk(k=2), LocalSuppression())
        for before, after in zip(db.rows, result.db.rows):
            assert before["W"] == after["W"]


class TestSudaCycleGolden:
    """The SUDA suppression cycle on R50A9W (125 rows, nine QIs) pinned
    end to end: for three dataset seeds under both semantics, one hash
    over the ``(row, attribute)`` step sequence, the shared view (nulls
    by label) and every iteration's report scores and details.  Any
    change in which MSUs the search finds, or in their order, moves a
    score, a detail or a step."""

    EXPECTED = {
        ("maybe-match", 1): "fbc48075a4aeb4e259719ee90662d7990b7cb37d",
        ("maybe-match", 2): "580bbcd6a3867c2bcb9268a2c4db88b521f05a97",
        ("maybe-match", 3): "074707bd022378955a93d4e8346e9e403ebd410c",
        ("standard", 1): "3ef24c044ed9a49bdecc12838494c92c62fe07ad",
        ("standard", 2): "6b1404aca0af98f2b753f292ca8f88b647c7fc96",
        ("standard", 3): "36783a2cc8bdb9a6e8710f3767880dc938820550",
    }

    @pytest.mark.parametrize("semantics", [MAYBE_MATCH, STANDARD])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_steps_view_and_reports_are_pinned(self, semantics, seed):
        import hashlib

        from repro.data.generator import generate_dataset

        db = generate_dataset("R50A9W", seed=seed, scale=400)
        result = AnonymizationCycle(
            SudaRisk(k=3), LocalSuppression(), semantics=semantics,
            max_iterations=6,
        ).run(db)
        view = result.shared_view()
        digest = hashlib.sha1()
        digest.update(
            repr([(step.row, step.attribute) for step in result.steps])
            .encode()
        )
        digest.update(repr([
            tuple(str(row[a]) for a in view.schema.attributes)
            for row in view.rows
        ]).encode())
        for report in result.reports:
            digest.update(repr((report.scores, report.details)).encode())
        assert digest.hexdigest() == self.EXPECTED[(semantics.name, seed)]


class TestKAnonCycleGolden:
    """The k-anonymity cycle pinned end to end, with local suppression
    on wide R50A9W (nine QIs) and with recode-then-suppress on tall
    R100A4U (four QIs, the survey hierarchy): for three dataset seeds
    under both semantics, one hash over every step (row, attribute, old
    and new value, reason), the shared view (nulls by label) and every
    iteration's report scores, details and parameters.  Any change in
    how the cycle's assessments count groups moves a score, a detail
    or a step."""

    EXPECTED = {
        ("local-suppression", "maybe-match", 1):
            "84a5b768e43c4214f635e3e8cf5310f587d5a6f4",
        ("local-suppression", "maybe-match", 2):
            "b7fe8ecd222825e2cd13a02e1ca4360bb19ef323",
        ("local-suppression", "maybe-match", 3):
            "ebe3db46c8fc606d991b9305bfc3862bb41b564c",
        ("local-suppression", "standard", 1):
            "c00d4ace85e54ae3b7d90d470d4c044ab1d8b170",
        ("local-suppression", "standard", 2):
            "b7ba37ce38f7bc1b526a1e0400d230e75b59b325",
        ("local-suppression", "standard", 3):
            "5dce4d970e071bf35ff5a31c787563c62126db0b",
        ("recode-then-suppress", "maybe-match", 1):
            "cbf8bc40fa1ad00865ef646a0272928f0d94b672",
        ("recode-then-suppress", "maybe-match", 2):
            "a30f3ec370d56a6aada0fcc10960c96f1321af00",
        ("recode-then-suppress", "maybe-match", 3):
            "59d79176be0d545d4f3f3d91351e68c4e02b58a9",
        ("recode-then-suppress", "standard", 1):
            "77f16749a0873c8503d5e15b6fa5f2299a809446",
        ("recode-then-suppress", "standard", 2):
            "576e05a18f32b5f4324ff97ae369738d31f4e5b6",
        ("recode-then-suppress", "standard", 3):
            "492cb6d6fb50fffeebfe93e47c807b9ecb8efb78",
    }

    @pytest.mark.parametrize("method", ["local-suppression",
                                        "recode-then-suppress"])
    @pytest.mark.parametrize("semantics", [MAYBE_MATCH, STANDARD])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_steps_view_and_reports_are_pinned(self, method, semantics,
                                               seed):
        import hashlib

        from repro.data import survey_hierarchy
        from repro.data.generator import generate_dataset

        if method == "local-suppression":
            db = generate_dataset("R50A9W", seed=seed, scale=200)
            cycle = AnonymizationCycle(
                KAnonymityRisk(k=2), LocalSuppression(),
                semantics=semantics,
            )
        else:
            db = generate_dataset("R100A4U", seed=seed, scale=100)
            cycle = AnonymizationCycle(
                KAnonymityRisk(k=3), RecodeThenSuppress(survey_hierarchy()),
                semantics=semantics,
            )
        result = cycle.run(db)
        view = result.shared_view()
        digest = hashlib.sha1()
        digest.update(repr([
            (step.row, step.attribute, str(step.old_value),
             str(step.new_value), step.reason)
            for step in result.steps
        ]).encode())
        digest.update(repr([
            tuple(str(row[a]) for a in view.schema.attributes)
            for row in view.rows
        ]).encode())
        for report in result.reports:
            digest.update(repr((
                report.scores, report.details,
                sorted(report.parameters.items()),
            )).encode())
        assert digest.hexdigest() == self.EXPECTED[
            (method, semantics.name, seed)
        ]

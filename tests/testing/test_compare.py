"""The null-isomorphism comparison must itself be trustworthy: a bug
here silently masks (or fabricates) engine/oracle disagreements."""

from repro.testing.compare import (
    ComparisonResult,
    canonical_null_form,
    compare_fact_sets,
    diff_summary,
    homomorphically_equivalent,
    homomorphism_exists,
    isomorphic,
)
from repro.vadalog.atoms import Atom, Fact
from repro.vadalog.terms import LabelledNull


def fact(predicate, *values):
    return Fact.of(predicate, *values)


def null(label):
    return LabelledNull(label)


class TestIsomorphic:
    def test_identical_sets(self):
        facts = [fact("p", 1, 2), fact("q", "a")]
        assert isomorphic(facts, facts)

    def test_relabelled_nulls(self):
        a = [fact("p", 1, null(1)), fact("q", null(1))]
        b = [fact("p", 1, null(7)), fact("q", null(7))]
        assert isomorphic(a, b)

    def test_nulls_across_multiple_predicates(self):
        # The bijection must be consistent across predicates: ⊥1 plays
        # the role of ⊥3 in p AND q, ⊥2 the role of ⊥4.
        a = [
            fact("p", null(1), null(2)),
            fact("q", null(2)),
            fact("r", null(1), "x"),
        ]
        b = [
            fact("p", null(3), null(4)),
            fact("q", null(4)),
            fact("r", null(3), "x"),
        ]
        assert isomorphic(a, b)

    def test_inconsistent_cross_predicate_roles(self):
        # Same shapes per predicate, but no single bijection works:
        # p says ⊥1↦⊥3, q says ⊥1↦⊥4.
        a = [fact("p", null(1)), fact("q", null(1), "u")]
        b = [fact("p", null(3)), fact("q", null(4), "u")]
        assert not isomorphic(a, b)

    def test_injectivity(self):
        # Two distinct nulls may not collapse onto one target.
        a = [fact("p", null(1), null(2))]
        b = [fact("p", null(5), null(5))]
        assert not isomorphic(a, b)
        # ... and the symmetric direction also fails (not a bijection).
        assert not isomorphic(b, a)

    def test_ground_mismatch(self):
        assert not isomorphic([fact("p", 1)], [fact("p", 2)])

    def test_cardinality_mismatch(self):
        a = [fact("p", null(1))]
        b = [fact("p", null(1)), fact("p", null(2))]
        assert not isomorphic(a, b)

    def test_null_never_maps_to_constant(self):
        assert not isomorphic([fact("p", null(1))], [fact("p", "a")])


class TestHomomorphism:
    def test_null_to_constant_is_allowed(self):
        assert homomorphism_exists([fact("p", null(1))], [fact("p", "a")])
        # ... but not the reverse: constants are fixed.
        assert not homomorphism_exists([fact("p", "a")], [fact("p", null(1))])

    def test_non_injective_collapse_is_allowed(self):
        a = [fact("p", null(1), null(2))]
        b = [fact("p", null(5), null(5))]
        assert homomorphism_exists(a, b)
        assert not homomorphism_exists(b, a)

    def test_equivalence_of_differently_blocked_runs(self):
        # Classic restricted-chase divergence: one run blocked the
        # existential because q(a, b) already provided an image, the
        # other invented q(a, ⊥1).  Hom-equivalent, not isomorphic.
        a = [fact("q", "a", "b")]
        b = [fact("q", "a", "b"), fact("q", "a", null(1))]
        assert homomorphically_equivalent(a, b)
        assert not isomorphic(a, b)

    def test_different_certain_answers_are_not_equivalent(self):
        a = [fact("q", "a", "b")]
        b = [fact("q", "a", "b"), fact("q", "c", null(1))]
        assert not homomorphically_equivalent(a, b)


class TestCompareFactSets:
    def test_verdict_ladder(self):
        same = [fact("p", 1, null(1))]
        assert compare_fact_sets(same, same).verdict == ComparisonResult.EQUAL

        renamed = [fact("p", 1, null(9))]
        assert (
            compare_fact_sets(same, renamed).verdict
            == ComparisonResult.ISOMORPHIC
        )

        redundant = [fact("p", 1, null(1)), fact("p", 1, null(2))]
        assert (
            compare_fact_sets(same, redundant).verdict
            == ComparisonResult.HOM_EQUIVALENT
        )

        other = [fact("p", 2, null(1))]
        result = compare_fact_sets(same, other)
        assert result.verdict == ComparisonResult.DIFFERENT
        assert not result.agree

    def test_agree_covers_all_non_different_verdicts(self):
        assert ComparisonResult(ComparisonResult.EQUAL).agree
        assert ComparisonResult(ComparisonResult.ISOMORPHIC).agree
        assert ComparisonResult(ComparisonResult.HOM_EQUIVALENT).agree
        assert not ComparisonResult(ComparisonResult.DIFFERENT).agree

    def test_diff_summary_names_both_sides(self):
        summary = diff_summary([fact("p", 1)], [fact("p", 2)])
        assert "only in left: p(1)" in summary
        assert "only in right: p(2)" in summary


class TestCanonicalNullForm:
    def test_isomorphic_sets_canonicalize_equal(self):
        from repro.vadalog.terms import LabelledNull

        left = [
            Atom.of("p", LabelledNull(7), 1),
            Atom.of("p", LabelledNull(9), 2),
        ]
        right = [
            Atom.of("p", LabelledNull(2), 1),
            Atom.of("p", LabelledNull(1), 2),
        ]
        assert canonical_null_form(left) == canonical_null_form(right)

    def test_distinct_structures_stay_distinct(self):
        from repro.vadalog.terms import LabelledNull

        shared = [
            Atom.of("p", LabelledNull(1), 1),
            Atom.of("p", LabelledNull(1), 2),
        ]
        separate = [
            Atom.of("p", LabelledNull(1), 1),
            Atom.of("p", LabelledNull(2), 2),
        ]
        assert canonical_null_form(shared) != \
            canonical_null_form(separate)

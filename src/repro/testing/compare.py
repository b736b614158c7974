"""Fact-set comparison up to labelled-null renaming.

Two chase runs may invent different null labels for the same model, so
raw set equality is useless for differential testing.  The right
notions, from strongest to weakest:

* **equality** — identical fact sets, labels and all;
* **isomorphism** — a bijection on labelled nulls mapping one fact set
  exactly onto the other (same model, different labels);
* **homomorphic equivalence** — homomorphisms both ways, nulls mapped
  to arbitrary terms.  This is the semantically meaningful notion for
  restricted-chase results: firing order legitimately changes *which*
  existentials are blocked, so two correct runs can differ by facts
  that are homomorphically redundant, while still certifying the same
  certain answers (the null-free part is forced equal by the
  constant-fixing of homomorphisms).

All checks are exact backtracking searches — exponential in the worst
case, fine at conformance-harness instance sizes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..vadalog.atoms import Fact
from ..vadalog.terms import LabelledNull, Term


def _as_fact_set(facts: Iterable[Fact]) -> FrozenSet[Fact]:
    return frozenset(facts)


def _split_by_nulls(
    facts: FrozenSet[Fact],
) -> Tuple[FrozenSet[Fact], List[Fact]]:
    """Partition into (ground facts, facts carrying at least one null)."""
    with_nulls = [
        fact
        for fact in facts
        if any(isinstance(term, LabelledNull) for term in fact.terms)
    ]
    ground = frozenset(facts.difference(with_nulls))
    return ground, with_nulls


def isomorphic(a: Iterable[Fact], b: Iterable[Fact]) -> bool:
    """Is there a bijective null renaming mapping ``a`` exactly onto
    ``b``?"""
    set_a, set_b = _as_fact_set(a), _as_fact_set(b)
    if len(set_a) != len(set_b):
        return False
    ground_a, nulls_a = _split_by_nulls(set_a)
    ground_b, nulls_b = _split_by_nulls(set_b)
    if ground_a != ground_b or len(nulls_a) != len(nulls_b):
        return False
    labels_a = {
        term for fact in nulls_a for term in fact.terms
        if isinstance(term, LabelledNull)
    }
    labels_b = {
        term for fact in nulls_b for term in fact.terms
        if isinstance(term, LabelledNull)
    }
    if len(labels_a) != len(labels_b):
        return False
    # Most-constrained-first: facts with fewer candidate images early.
    nulls_a.sort(key=lambda fact: (fact.predicate, fact.arity))

    def candidates(fact: Fact) -> List[Fact]:
        return [
            other
            for other in nulls_b
            if other.predicate == fact.predicate
            and other.arity == fact.arity
        ]

    used: set = set()

    def search(index: int, mapping: Dict[LabelledNull, Term]) -> bool:
        if index == len(nulls_a):
            return True
        fact = nulls_a[index]
        for image in candidates(fact):
            if image in used:
                continue
            extension: Dict[LabelledNull, Term] = {}
            ok = True
            for term, value in zip(fact.terms, image.terms):
                if isinstance(term, LabelledNull):
                    if not isinstance(value, LabelledNull):
                        ok = False
                        break
                    prior = mapping.get(term, extension.get(term))
                    if prior is None:
                        # Injectivity: no two nulls map to one target.
                        if value in mapping.values() or (
                            value in extension.values()
                        ):
                            ok = False
                            break
                        extension[term] = value
                    elif prior != value:
                        ok = False
                        break
                elif term != value:
                    ok = False
                    break
            if not ok:
                continue
            mapping.update(extension)
            used.add(image)
            if search(index + 1, mapping):
                return True
            used.discard(image)
            for null in extension:
                mapping.pop(null, None)
        return False

    return search(0, {})


def canonical_null_form(facts: Iterable[Fact]) -> FrozenSet[Fact]:
    """Renumber labelled nulls canonically: nulls are relabelled
    1, 2, ... by first occurrence over the facts in sorted (string)
    order, so isomorphic fact sets from runs that used different null
    factories usually canonicalize equal.  Distinct canonical forms do
    not prove non-isomorphism (facts that tie once labels are masked
    may visit in either order); :func:`isomorphic` is the exact check."""
    renames: Dict[int, LabelledNull] = {}

    def rename(term: Term) -> Term:
        if isinstance(term, LabelledNull):
            fresh = renames.get(term.label)
            if fresh is None:
                fresh = LabelledNull(len(renames) + 1)
                renames[term.label] = fresh
            return fresh
        return term

    def masked_key(fact: Fact) -> str:
        # Sort with null labels masked out: the visiting order (and so
        # the renumbering) must not depend on the labels being erased.
        return str(
            Fact(
                fact.predicate,
                tuple(
                    LabelledNull(0) if isinstance(term, LabelledNull)
                    else term
                    for term in fact.terms
                ),
            )
        )

    return frozenset(
        Fact(fact.predicate, tuple(rename(term) for term in fact.terms))
        for fact in sorted(facts, key=masked_key)
    )


def homomorphism_exists(a: Iterable[Fact], b: Iterable[Fact]) -> bool:
    """Is there a homomorphism from ``a`` into ``b``?  Nulls of ``a``
    may map to any term of ``b`` (consistently); constants are fixed."""
    set_b = _as_fact_set(b)
    ground_a, nulls_a = _split_by_nulls(_as_fact_set(a))
    if not ground_a.issubset(set_b):
        return False
    by_pred: Dict[Tuple[str, int], List[Fact]] = {}
    for fact in set_b:
        by_pred.setdefault((fact.predicate, fact.arity), []).append(fact)
    facts = sorted(nulls_a, key=lambda fact: (fact.predicate, fact.arity))

    def search(index: int, mapping: Dict[LabelledNull, Term]) -> bool:
        if index == len(facts):
            return True
        fact = facts[index]
        for image in by_pred.get((fact.predicate, fact.arity), ()):
            extension: Dict[LabelledNull, Term] = {}
            ok = True
            for term, value in zip(fact.terms, image.terms):
                if isinstance(term, LabelledNull):
                    prior = mapping.get(term, extension.get(term))
                    if prior is None:
                        extension[term] = value
                    elif prior != value:
                        ok = False
                        break
                elif term != value:
                    ok = False
                    break
            if not ok:
                continue
            mapping.update(extension)
            if search(index + 1, mapping):
                return True
            for null in extension:
                mapping.pop(null, None)
        return False

    return search(0, {})


def homomorphically_equivalent(
    a: Iterable[Fact], b: Iterable[Fact]
) -> bool:
    """Homomorphisms both ways (same certain answers)."""
    set_a, set_b = _as_fact_set(a), _as_fact_set(b)
    return homomorphism_exists(set_a, set_b) and homomorphism_exists(
        set_b, set_a
    )


class ComparisonResult:
    """Structured verdict of a two-store comparison."""

    __slots__ = ("verdict", "detail")

    #: Verdict values, strongest agreement first.
    EQUAL = "equal"
    ISOMORPHIC = "isomorphic"
    HOM_EQUIVALENT = "hom-equivalent"
    DIFFERENT = "different"

    def __init__(self, verdict: str, detail: str = ""):
        self.verdict = verdict
        self.detail = detail

    @property
    def agree(self) -> bool:
        return self.verdict != self.DIFFERENT

    def __repr__(self):
        suffix = f": {self.detail}" if self.detail else ""
        return f"ComparisonResult({self.verdict}{suffix})"


def diff_summary(
    a: Iterable[Fact], b: Iterable[Fact], limit: int = 12
) -> str:
    """Human-readable asymmetric difference for failure artifacts."""
    set_a, set_b = _as_fact_set(a), _as_fact_set(b)
    only_a = sorted(str(fact) for fact in set_a - set_b)[:limit]
    only_b = sorted(str(fact) for fact in set_b - set_a)[:limit]
    lines = [f"left: {len(set_a)} facts, right: {len(set_b)} facts"]
    if only_a:
        lines.append("only in left: " + "; ".join(only_a))
    if only_b:
        lines.append("only in right: " + "; ".join(only_b))
    return "\n".join(lines)


def compare_fact_sets(
    a: Iterable[Fact], b: Iterable[Fact]
) -> ComparisonResult:
    """Classify two fact sets into the strongest agreement that holds."""
    set_a, set_b = _as_fact_set(a), _as_fact_set(b)
    if set_a == set_b:
        return ComparisonResult(ComparisonResult.EQUAL)
    if isomorphic(set_a, set_b):
        return ComparisonResult(ComparisonResult.ISOMORPHIC)
    if homomorphically_equivalent(set_a, set_b):
        return ComparisonResult(
            ComparisonResult.HOM_EQUIVALENT,
            "models differ only by homomorphically redundant facts "
            "(restricted-chase firing order)",
        )
    return ComparisonResult(
        ComparisonResult.DIFFERENT, diff_summary(set_a, set_b)
    )

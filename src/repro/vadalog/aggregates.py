"""Monotonic aggregation state.

Vadalog's monotonic aggregations (``msum``, ``mcount``, ``mprod``,
``mmin``, ``mmax``, ``munion``) group body bindings by the head
variables and key each contribution by a *contributor* tuple ``<I>``.
Per Section 4.3 of the paper, when several bindings share the same
contributor within a group, only one contribution counts — the one
furthest along the monotone direction — so that an anonymized
replacement of a tuple supersedes its original in every aggregate it
feeds, driving the anonymization cycle to convergence.

The chase keeps one :class:`AggregateState` per (rule, aggregate) and
feeds it contributions as bindings are discovered; the state reports
whether a group's value changed so the evaluator can emit (and, for
functional aggregate predicates, replace) head facts incrementally.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Tuple

from ..errors import EvaluationError


class _Group:
    __slots__ = ("contributions",)

    def __init__(self):
        # contributor key -> retained contribution
        self.contributions: Dict[Hashable, Any] = {}


class AggregateState:
    """Incremental state for one aggregate occurrence in one rule."""

    def __init__(self, function: str):
        self.function = function
        self._groups: Dict[Hashable, _Group] = {}

    def contribute(
        self,
        group_key: Hashable,
        contributor: Hashable,
        contribution: Any,
    ) -> Tuple[bool, Any]:
        """Record a contribution.

        Returns ``(changed, value)`` where ``changed`` tells whether the
        group's aggregate value may have changed and ``value`` is the
        current aggregate value for the group.
        """
        group = self._groups.get(group_key)
        if group is None:
            group = _Group()
            self._groups[group_key] = group
        previous = group.contributions.get(contributor)
        retained = self._combine(previous, contribution)
        if previous is not None and retained == previous:
            return False, self.value(group_key)
        group.contributions[contributor] = retained
        return True, self.value(group_key)

    def absorb_many(self, group_keys, contributors, contributions) -> None:
        """Bulk :meth:`contribute` over three parallel sequences (one
        entry per batch row), without reading any group's value — for
        batched evaluation, which defers that until every contribution
        of the rule application is in.  The common aggregate functions
        get dedicated loops so the per-row dispatch through
        :meth:`_combine` is paid only for the rare ones."""
        groups = self._groups
        function = self.function
        if function == "mcount":
            for group_key, contributor in zip(group_keys, contributors):
                group = groups.get(group_key)
                if group is None:
                    group = groups[group_key] = _Group()
                group.contributions[contributor] = 1
            return
        if function == "munion":
            for group_key, contributor, contribution in zip(
                group_keys, contributors, contributions
            ):
                group = groups.get(group_key)
                if group is None:
                    group = groups[group_key] = _Group()
                bucket = group.contributions
                if not isinstance(contribution, frozenset):
                    contribution = frozenset((contribution,))
                previous = bucket.get(contributor)
                if previous is None:
                    bucket[contributor] = contribution
                elif not contribution <= previous:
                    bucket[contributor] = previous | contribution
            return
        combine = self._combine
        for group_key, contributor, contribution in zip(
            group_keys, contributors, contributions
        ):
            group = groups.get(group_key)
            if group is None:
                group = groups[group_key] = _Group()
            bucket = group.contributions
            previous = bucket.get(contributor)
            retained = combine(previous, contribution)
            if previous is None or retained != previous:
                bucket[contributor] = retained

    def _combine(self, previous: Optional[Any], new: Any) -> Any:
        """Combine a repeated contribution from the same contributor."""
        if self.function == "mcount":
            return 1
        if previous is None:
            return self._normalize(new)
        new = self._normalize(new)
        if self.function in ("msum", "mmax", "mprod"):
            return max(previous, new)
        if self.function == "mmin":
            return min(previous, new)
        if self.function == "munion":
            return frozenset(previous) | frozenset(new)
        raise EvaluationError(f"unknown aggregate {self.function!r}")

    def _normalize(self, contribution: Any) -> Any:
        if self.function == "munion":
            if isinstance(contribution, frozenset):
                return contribution
            return frozenset([contribution])
        if self.function == "mcount":
            return 1
        if not isinstance(contribution, (int, float)):
            raise EvaluationError(
                f"{self.function} expects a numeric contribution, got "
                f"{contribution!r}"
            )
        return contribution

    def value(self, group_key: Hashable) -> Any:
        """Current aggregate value for a group."""
        group = self._groups.get(group_key)
        if group is None or not group.contributions:
            raise EvaluationError(
                f"aggregate group {group_key!r} has no contributions"
            )
        contributions = group.contributions.values()
        if self.function == "mcount":
            return len(group.contributions)
        if self.function == "msum":
            return sum(contributions)
        if self.function == "mprod":
            result = 1.0
            for value in contributions:
                result *= value
            return result
        if self.function == "mmin":
            return min(contributions)
        if self.function == "mmax":
            return max(contributions)
        if self.function == "munion":
            union: frozenset = frozenset()
            for value in contributions:
                union |= value
            return union
        raise EvaluationError(f"unknown aggregate {self.function!r}")

    def groups(self):
        return self._groups.keys()

    def clear(self) -> None:
        self._groups.clear()

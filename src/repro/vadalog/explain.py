"""Provenance tracking and explanation trees.

Full explainability (desideratum *vi*) is one of the paper's selling
points: "each anonymization decision taken by Rule 2 is motivated by the
specific binding of its body".  We make that concrete by recording, for
every derived fact, the rule label and the premises (body facts) of the
derivation that produced it, and by rendering derivation trees.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..telemetry import state as _telemetry
from .atoms import Fact


class Derivation:
    """One derivation step: ``fact`` was produced by ``rule_label``
    from the given premises (body facts that matched)."""

    __slots__ = ("fact", "rule_label", "premises", "note")

    def __init__(
        self,
        fact: Fact,
        rule_label: Optional[str],
        premises: Sequence[Fact],
        note: Optional[str] = None,
    ):
        self.fact = fact
        self.rule_label = rule_label
        self.premises = tuple(premises)
        self.note = note

    def __repr__(self):
        return (
            f"Derivation({self.fact} <- {self.rule_label}"
            f"({len(self.premises)} premises))"
        )


class ProvenanceLog:
    """First-derivation-wins provenance store.

    Keeping only the first derivation per fact is enough for
    explanation (why-provenance) while staying linear in the number of
    derived facts.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._derivations: Dict[Fact, Derivation] = {}
        self._per_rule: Counter = Counter()

    def record(
        self,
        fact: Fact,
        rule_label: Optional[str],
        premises: Sequence[Fact],
        note: Optional[str] = None,
    ) -> None:
        if not self.enabled or fact in self._derivations:
            return
        self._derivations[fact] = Derivation(fact, rule_label, premises, note)
        self._per_rule[rule_label or "<unlabelled>"] += 1
        if _telemetry.enabled:
            _telemetry.registry.counter(
                "provenance.derivations", rule=rule_label or "<unlabelled>"
            ).inc()

    def stats(self) -> Dict[str, object]:
        """Derivation counts, total and per rule label — the
        provenance-side view of which rules did the work."""
        return {
            "derivations": len(self._derivations),
            "estimated_bytes": self.estimated_bytes(),
            "by_rule": dict(
                sorted(self._per_rule.items(), key=lambda kv: kv[0])
            ),
        }

    def estimated_bytes(self, sample: int = 32) -> int:
        """Estimated size of the log itself: Derivation objects plus
        their premise tuples, sampled and scaled like
        :meth:`FactStore.memory_stats` (the facts themselves are
        owned by the store, not double-counted here)."""
        import sys
        from itertools import islice

        count = len(self._derivations)
        if count == 0:
            return 0
        sampled = list(
            islice(self._derivations.values(), max(sample, 1))
        )
        per_entry = sum(
            sys.getsizeof(d) + sys.getsizeof(d.premises)
            for d in sampled
        ) / len(sampled)
        return int(per_entry * count)

    def derivation_of(self, fact: Fact) -> Optional[Derivation]:
        return self._derivations.get(fact)

    def is_derived(self, fact: Fact) -> bool:
        return fact in self._derivations

    def derivations(self) -> Iterable[Derivation]:
        """Iterate all recorded derivations (first-derivation-wins
        order)."""
        return iter(self._derivations.values())

    def find(
        self,
        predicate: str,
        first_value: Optional[object] = None,
    ) -> List[Fact]:
        """Derived facts of a predicate, optionally filtered by their
        first term's constant value — the lookup the audit ledger uses
        to join a microdata row id to the ``riskOutput(I, R)`` fact the
        declarative risk programs derive for it."""
        matches = []
        for fact in self._derivations:
            if fact.predicate != predicate:
                continue
            if first_value is not None:
                if not fact.terms:
                    continue
                value = getattr(fact.terms[0], "value", None)
                if value != first_value:
                    continue
            matches.append(fact)
        return matches

    def rule_chain(self, fact: Fact, max_depth: int = 8) -> List[str]:
        """The rule labels along the first-premise derivation path of
        ``fact``, outermost rule first — the ``r7→r12`` backbone of an
        audit explanation, bounded like :meth:`explain`."""
        chain: List[str] = []
        seen = set()
        current: Optional[Fact] = fact
        while current is not None and len(chain) < max(0, max_depth):
            if current in seen:
                break
            seen.add(current)
            derivation = self._derivations.get(current)
            if derivation is None:
                break
            chain.append(derivation.rule_label or "<unlabelled>")
            current = derivation.premises[0] if derivation.premises \
                else None
        return chain

    def __len__(self):
        return len(self._derivations)

    # -- explanation rendering -------------------------------------------

    def explain(
        self,
        fact: Fact,
        max_depth: int = 12,
        max_nodes: int = 10_000,
    ) -> "ExplanationNode":
        """Build the derivation tree rooted at ``fact``.

        Facts without a recorded derivation are leaves (extensional
        input).  Both bounds are *hard*, whatever the provenance graph
        looks like: a fact that (re-)derives itself through recursion —
        directly (``f`` among its own premises) or through a cycle
        (``f ← g ← f``) — is cut at its second occurrence on a path and
        marked with a ``cycle`` note, ``max_depth`` caps every path,
        and ``max_nodes`` caps the whole tree (diamond-shaped sharing
        can otherwise blow up exponentially in the depth).
        """
        budget = [max(1, max_nodes)]
        return self._explain(fact, max(0, max_depth), set(), budget)

    def _explain(
        self, fact: Fact, depth: int, seen: set, budget: list
    ) -> "ExplanationNode":
        derivation = self._derivations.get(fact)
        budget[0] -= 1
        cyclic = fact in seen
        if (derivation is None or depth <= 0 or cyclic
                or budget[0] <= 0):
            node = ExplanationNode(
                fact, None, [], derivation is not None
            )
            if cyclic and derivation is not None:
                node.note = "cycle"
            return node
        seen = seen | {fact}
        children = []
        exhausted = False
        for premise in derivation.premises:
            if budget[0] <= 0:
                # Strict cap: stop before creating further nodes, so
                # the tree never exceeds max_nodes.
                exhausted = True
                break
            children.append(
                self._explain(premise, depth - 1, seen, budget)
            )
        node = ExplanationNode(fact, derivation.rule_label, children, False)
        node.note = "node budget exhausted" if exhausted \
            else derivation.note
        return node


class ExplanationNode:
    """A node in a rendered derivation tree."""

    def __init__(
        self,
        fact: Fact,
        rule_label: Optional[str],
        children: List["ExplanationNode"],
        truncated: bool,
    ):
        self.fact = fact
        self.rule_label = rule_label
        self.children = children
        self.truncated = truncated
        self.note: Optional[str] = None

    @property
    def is_extensional(self) -> bool:
        return self.rule_label is None and not self.truncated

    def render(self, indent: str = "") -> str:
        """Pretty-print the tree, one fact per line."""
        if self.truncated:
            suffix = "  [... derivation truncated]"
        elif self.rule_label is None:
            suffix = "  [input]"
        else:
            suffix = f"  [by {self.rule_label}]"
        if self.note:
            suffix += f"  ({self.note})"
        lines = [f"{indent}{self.fact}{suffix}"]
        for child in self.children:
            lines.append(child.render(indent + "  "))
        return "\n".join(lines)

    def __str__(self):
        return self.render()

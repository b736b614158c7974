"""Predicate dependency analysis and stratification.

Vadalog supports *stratified* negation: the predicate dependency graph
must not contain a cycle through a negated edge.  Monotonic aggregation,
by contrast, may be recursive (that is precisely what the anonymization
cycle relies on), so aggregate edges are allowed inside a stratum and
handled incrementally by the chase.

The stratification is computed from strongly connected components of
the dependency graph, condensed and topologically ordered.

**Operational negation.**  A program may declare a predicate as read
operationally with ``@operational_negation("p").``: a negated ``p``
literal then reads the live store when its rule applies, and again when
each of its rows fires, instead of a saturated lower stratum.  That is
how the Vadalog system reads Algorithm 6's ``not In(A, Z1)``, which
negates a predicate of its own recursive component.  The declaration
exempts exactly those same-component negations from the
stratifiability check; every other negation through recursion is
still an error.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

import networkx as nx

from ..errors import StratificationError
from .rules import EGD, Rule


def operational_predicates(
    annotations: Iterable[Tuple[str, Tuple]]
) -> FrozenSet[str]:
    """The predicates ``@operational_negation("p")`` annotations
    declare as read operationally."""
    return frozenset(
        str(args[0])
        for name, args in annotations
        if name == "operational_negation" and args
    )


class DependencyGraph:
    """Head->body predicate dependencies with negation/aggregation marks."""

    def __init__(self, rules: Sequence[Rule]):
        self.rules = tuple(rules)
        self.graph = nx.DiGraph()
        for rule in rules:
            heads = rule.head_predicates()
            for head in heads:
                self.graph.add_node(head)
            # Co-head predicates of a multi-head rule are derived by the
            # same firing, so they must live in the same stratum: link
            # them both ways to force a shared SCC.  Without this, the
            # rule would be scheduled with its highest-ranked head while
            # consumers of a lower-ranked head close their fixpoint
            # first and never see the co-derived facts.
            for first in heads:
                for second in heads:
                    if first == second:
                        continue
                    if not self.graph.has_edge(first, second):
                        self.graph.add_edge(
                            first, second, negated=False, aggregated=False
                        )
            for literal in rule.body:
                body_pred = literal.atom.predicate
                if body_pred.startswith("#"):
                    continue  # externals are not fixpoint-relevant
                self.graph.add_node(body_pred)
                for head in heads:
                    edge = self.graph.get_edge_data(body_pred, head)
                    negated = literal.negated
                    aggregated = rule.has_aggregates
                    if edge is None:
                        self.graph.add_edge(
                            body_pred,
                            head,
                            negated=negated,
                            aggregated=aggregated,
                        )
                    else:
                        edge["negated"] = edge["negated"] or negated
                        edge["aggregated"] = (
                            edge["aggregated"] or aggregated
                        )

    def predicates(self) -> Set[str]:
        return set(self.graph.nodes)

    def depends_on(self, predicate: str) -> Set[str]:
        """Predicates the given predicate (transitively) depends on."""
        if predicate not in self.graph:
            return set()
        return set(nx.ancestors(self.graph, predicate))


def stratify(
    rules: Sequence[Rule], operational: FrozenSet[str] = frozenset()
) -> List[List[Rule]]:
    """Partition rules into strata.

    Each stratum is a list of rules that may be evaluated together to a
    fixpoint; strata are returned bottom-up.  Raises
    :class:`StratificationError` when negation occurs inside a cycle,
    unless the negated predicate is one of the ``operational`` ones
    (see the module docstring).
    """
    dependency = DependencyGraph(rules)
    graph = dependency.graph
    components = list(nx.strongly_connected_components(graph))
    component_of: Dict[str, int] = {}
    for index, component in enumerate(components):
        for predicate in component:
            component_of[predicate] = index

    # Negation inside an SCC is unstratifiable unless declared
    # operational.
    for source, target, data in graph.edges(data=True):
        if (
            data.get("negated")
            and source not in operational
            and component_of[source] == component_of[target]
        ):
            raise StratificationError(
                f"negation cycle through predicates {source!r} and "
                f"{target!r}: the program is not stratifiable"
            )

    condensation = nx.condensation(graph, scc=components)
    order = list(nx.topological_sort(condensation))
    component_rank = {component: rank for rank, component in enumerate(order)}

    # A rule belongs to the stratum of its head component(s); with
    # multiple head atoms it goes to the highest-ranked one so all
    # dependencies are available.
    stratum_rules: Dict[int, List[Rule]] = defaultdict(list)
    for rule in rules:
        ranks = [
            component_rank[component_of[pred]]
            for pred in rule.head_predicates()
            if pred in component_of
        ]
        rank = max(ranks) if ranks else 0
        stratum_rules[rank].append(rule)

    return [
        stratum_rules[rank]
        for rank in sorted(stratum_rules)
        if stratum_rules[rank]
    ]


def check_negation_safety(rules: Sequence[Rule]) -> None:
    """Eagerly validate stratifiability, raising on failure."""
    stratify(rules)

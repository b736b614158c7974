"""Stratifiability pass.

Codes:

* ``VDL010`` (error) — negation occurs inside a dependency cycle: the
  program has no stratification and the chase will refuse it.  The
  offending cycle is printed predicate by predicate.  A predicate
  declared with ``@operational_negation("p")`` is exempt: its negation
  reads the live store (see :mod:`repro.vadalog.negation`).
* ``VDL011`` (warning) — vacuous negation: the negated predicate is
  never derivable (no rule head, no inline fact, not ``@input``, not
  external), so the literal is always true and can be deleted.

Aggregate edges may be recursive (monotonic aggregation is exactly the
mechanism behind the anonymization cycle), so only *negated* edges
inside a strongly connected component are fatal — same condition
:func:`repro.vadalog.negation.stratify` enforces, reported here as a
diagnostic with the cycle instead of a raise.
"""

from __future__ import annotations

from typing import Iterable, List

import networkx as nx

from ..negation import DependencyGraph, operational_predicates
from .diagnostics import Diagnostic, ERROR, Span, WARNING
from .manager import AnalysisContext, register_pass


def _cycle_through(graph, source: str, target: str) -> List[str]:
    """A predicate cycle witnessing the negated edge source -> target."""
    try:
        path = nx.shortest_path(graph, target, source)
    except nx.NetworkXNoPath:  # pragma: no cover - same SCC guarantees one
        return [source, target]
    return path + [target]


@register_pass("stratification")
def check_stratification(context: AnalysisContext) -> Iterable[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    if not context.rules:
        return diagnostics
    dependency = DependencyGraph(context.rules)
    graph = dependency.graph
    component_of = {}
    for index, component in enumerate(
        nx.strongly_connected_components(graph)
    ):
        for predicate in component:
            component_of[predicate] = index

    operational = operational_predicates(context.annotations)
    reported = set()
    for source, target, data in graph.edges(data=True):
        if not data.get("negated") or source in operational:
            continue
        if component_of[source] != component_of[target]:
            continue
        cycle = _cycle_through(graph, source, target)
        key = frozenset(cycle)
        if key in reported:
            continue
        reported.add(key)
        # Anchor the diagnostic at a rule that negates ``source``.
        span = Span()
        label = None
        for rule in context.rules:
            if source in {
                lit.atom.predicate for lit in rule.negative_body()
            } and component_of.get(
                next(iter(rule.head_predicates())), -1
            ) == component_of[source]:
                span = Span.of(rule)
                label = rule.label
                break
        diagnostics.append(
            Diagnostic(
                "VDL010",
                ERROR,
                "negation inside a recursive cycle "
                f"({' -> '.join(cycle)}): the program is not "
                "stratifiable",
                span=span,
                rule_label=label,
            )
        )

    derivable = set(context.head_predicates)
    derivable.update(context.fact_predicates)
    derivable.update(context.input_predicates())
    for rule in context.rules:
        for literal in rule.negative_body():
            predicate = literal.atom.predicate
            if predicate.startswith("#") or predicate in derivable:
                continue
            diagnostics.append(
                Diagnostic(
                    "VDL011",
                    WARNING,
                    f"negated predicate {predicate} is never derivable "
                    "(no rule, fact or @input provides it) — the "
                    "negation is vacuously true",
                    span=Span.of(literal.atom),
                    rule_label=rule.label,
                )
            )
    return diagnostics

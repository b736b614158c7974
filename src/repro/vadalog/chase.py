"""The chase: stratified semi-naive evaluation with existentials,
stratified negation, monotonic aggregation and external predicates.

Semantics implemented here:

* **Restricted chase** for existential rules: a head conjunction with
  fresh labelled nulls is only asserted when it has no joint
  homomorphic image in the current store — the standard termination
  device for warded programs.  The check runs once per rule
  application over the batch of frontier keys, as a join plan over
  the head atoms (:class:`~repro.vadalog.columnar.HeadImageCheck`).
* **Stratified negation**: negative literals are checked against the
  saturated lower strata (enforced by stratification).
* **Operational negation** for predicates the program declares with
  ``@operational_negation``: the negated literal reads the live store
  of its own stratum, as an absence check in the rule's plans, and
  again just before each row fires unless
  :func:`~repro.vadalog.plans.absence_exact` proves the
  application-start read exact.
* **Monotonic aggregation** with contributor semantics: aggregate
  predicates are *functional* per group — when a group's value improves
  the previously emitted fact is retracted and replaced, so downstream
  joins always see the most accurate value.  A group replaces only a
  fact it added itself: an emission that finds its fact already in the
  store (an input fact, or another rule's) leaves that fact alone and
  never retracts it later.  Recursion through aggregates is allowed
  (the ownership-closure rules of Section 4.4 depend on it).
* **External predicates** (``#``-prefixed) resolved through the
  registry; externals may inject facts (``#anonymize``), which re-enter
  the semi-naive frontier.
* **Firing**: a rule application fires in bulk from its batch columns
  when no row's firing can depend on an earlier row's (ground heads,
  monotonic aggregates); every other rule fires through one row loop
  that runs, per distinct binding, the absence recheck, the externals
  and the head (:meth:`ChaseEngine._fire_rows`).
* **Routing strategies** order the row loop's bindings before any of
  them fires, so side-effecting externals (``#anonymize``) follow the
  paper's heuristics (Section 4.4, "less significant first").
* **EGDs** are enforced at the end of every round of the stratum
  containing them; constant clashes are collected as violations.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from itertools import groupby, repeat
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, \
    Tuple

from .. import telemetry
from ..errors import EvaluationError
from ..telemetry.inspect import ChaseProgress, PlanAnalysis
from ..telemetry.metrics import MetricsRegistry
from .atoms import Fact
from .aggregates import AggregateState
from .columnar import HeadImageCheck, MaskRecord, absence_holds, \
    execute_batch
from .database import FactStore
from .egd import EGDViolation, enforce_egds
from .explain import ProvenanceLog
from .externals import ExternalContext, ExternalRegistry
from .negation import stratify
from .plans import RulePlans, compile_rule_plans
from .routing import RoutingTable, fifo_strategy
from .rules import EGD, Rule
from .terms import Constant, LabelledNull, NullFactory, Term, Variable, unwrap
from .unification import Substitution, conjunction_has_image


class ChaseResult:
    """Outcome of a reasoning task: the derived extensional component."""

    def __init__(
        self,
        store: FactStore,
        provenance: ProvenanceLog,
        null_factory: NullFactory,
        egd_violations: List[EGDViolation],
        rounds: int,
        telemetry_snapshot: Optional[Dict] = None,
        plan_report=None,
        explain_report: Optional[Dict] = None,
    ):
        self.store = store
        self.provenance = provenance
        self.null_factory = null_factory
        self.egd_violations = egd_violations
        self.rounds = rounds
        self._telemetry_snapshot = telemetry_snapshot
        #: rule label -> {plan name -> step descriptions}, or a
        #: zero-argument callable producing it (resolved lazily so a
        #: telemetry-free run pays nothing unless someone looks).
        self._plan_report = plan_report
        #: Engine explain document (see ``ChaseEngine.explain``);
        #: populated when the run executed with ``analyze=True``.
        self.explain_report = explain_report

    @property
    def plan_report(self) -> Optional[Dict[str, Dict[str, List[str]]]]:
        """rule label -> {plan name -> step descriptions}, telemetry or
        not."""
        if callable(self._plan_report):
            self._plan_report = self._plan_report()
        return self._plan_report

    @property
    def stats(self) -> Dict[str, object]:
        """Run statistics; includes a ``telemetry`` section (per-rule
        firing counts, nulls introduced, timing histograms) when the
        run executed with :mod:`repro.telemetry` enabled, and an
        ``explain`` section when it ran with ``analyze=True``."""
        data: Dict[str, object] = {
            "rounds": self.rounds,
            "facts": len(self.store),
            "nulls_introduced": self.null_factory.issued,
            "egd_violations": len(self.egd_violations),
            "derivations": len(self.provenance),
        }
        if self._telemetry_snapshot is not None:
            data["telemetry"] = self._telemetry_snapshot
        if self.plan_report is not None:
            data["plans"] = self.plan_report
        if self.explain_report is not None:
            data["explain"] = self.explain_report
        return data

    def facts(self, predicate: Optional[str] = None):
        return self.store.facts(predicate)

    def output_facts(self, outputs: Sequence[str]):
        """Facts restricted to the program's ``@output`` predicates."""
        for predicate in outputs:
            yield from self.store.facts(predicate)

    def query(self, pattern: str) -> List[Dict[str, object]]:
        """Match an atom pattern against the result, e.g.
        ``result.query("path(X, b)")`` returns one dict per match,
        mapping variable names to plain Python values.

        The pattern uses the same term syntax as rule bodies: uppercase
        identifiers are variables, everything else constants.
        """
        from .parser.parser import Parser

        parser = Parser(pattern.strip().rstrip(".") + ".")
        tokens_atom = parser._parse_atom()
        bound = {
            position: term
            for position, term in enumerate(tokens_atom.terms)
            if not isinstance(term, Variable)
        }
        answers: List[Dict[str, object]] = []
        from .unification import match_atom

        for fact in self.store.lookup(tokens_atom.predicate, bound):
            bindings = match_atom(tokens_atom, fact, {})
            if bindings is None:
                continue
            answers.append(
                {
                    variable.name: unwrap(value)
                    for variable, value in bindings.items()
                }
            )
        return answers

    def tuples(self, predicate: str) -> List[Tuple]:
        """All facts of a predicate as tuples of plain Python values
        (labelled nulls pass through as :class:`LabelledNull`)."""
        return [
            tuple(unwrap(term) for term in fact.terms)
            for fact in self.store.facts(predicate)
        ]

    def explain(self, fact: Fact, max_depth: int = 12,
                max_nodes: int = 10_000):
        return self.provenance.explain(
            fact, max_depth=max_depth, max_nodes=max_nodes
        )

    @property
    def nulls_introduced(self) -> int:
        return self.null_factory.issued


def _row(cols: Dict[Variable, list], i: int) -> Substitution:
    """Row ``i`` of a batch's columns as a substitution."""
    return {variable: column[i] for variable, column in cols.items()}


def _tuple_column(columns: List[List[Term]], n: int) -> List[Tuple]:
    """Row-wise tuples over parallel term columns, built column-at-a-time."""
    if not columns:
        return [()] * n
    if len(columns) == 1:
        return [(value,) for value in columns[0]]
    return list(zip(*columns))


@contextmanager
def gc_paused():
    """Pause Python's cyclic garbage collector for the duration of a
    chase.

    Reference counting frees every atom, term tuple and derivation the
    chase drops; the store it builds is acyclic, so the full
    collections its allocations trigger rescan tens of thousands of
    live facts and free almost nothing.  Entered while the collector
    is already off (a nested run, or a caller who disabled it), this
    does nothing and leaves the state to the outermost owner.  The
    switch is process-wide: while a chase runs, cyclic garbage made by
    other threads waits for the collector too.

    On exit every tracked object moves into the oldest generation (a
    freeze and unfreeze, two list splices), so the first young
    collection after the run does not traverse the whole result.  A
    caller's own ``gc.freeze()`` is left alone: with objects already
    frozen, the promotion is skipped.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        if gc.get_freeze_count() == 0:
            gc.freeze()
            gc.unfreeze()
        gc.enable()


class ChaseEngine:
    """Evaluates a set of rules (and EGDs) over an input fact store."""

    def __init__(
        self,
        rules: Sequence[Rule],
        egds: Sequence[EGD] = (),
        externals: Optional[ExternalRegistry] = None,
        routing: Optional[RoutingTable] = None,
        provenance: bool = True,
        max_rounds: int = 10_000,
        max_facts: int = 5_000_000,
        strict_egds: bool = False,
        null_factory: Optional[NullFactory] = None,
        termination: str = "restricted",
        analyze: bool = False,
        heartbeat_interval: float = 0.0,
        stall_threshold: float = 30.0,
        operational_negation: Iterable[str] = (),
    ):
        if termination not in ("restricted", "isomorphic"):
            raise EvaluationError(
                f"unknown termination strategy {termination!r}; use "
                "'restricted' or 'isomorphic'"
            )
        self.termination = termination
        self.rules = list(rules)
        self.egds = list(egds)
        #: Predicates whose negation reads the live store (declared
        #: with ``@operational_negation``; see
        #: :mod:`repro.vadalog.negation`).
        self.operational_negation = frozenset(operational_negation)
        self.externals = externals or ExternalRegistry()
        self.routing = routing or RoutingTable()
        self.provenance_enabled = provenance
        self.max_rounds = max_rounds
        self.max_facts = max_facts
        self.strict_egds = strict_egds
        self._null_factory = null_factory
        # Negative labels for the isomorphic check's trial nulls; these
        # are never stored and never counted as injected.
        self._placeholder_label = 0
        # Stable metric label per rule (telemetry): @label when given.
        self._rule_names = {
            id(rule): rule.label or f"rule_{index}"
            for index, rule in enumerate(self.rules)
        }
        self.analyze = analyze
        # Live-progress knobs: how often heartbeat *events* may fire
        # (gauges refresh every round regardless; 0 = every round) and
        # how long the chase may go without any rule firing before a
        # stall is reported.  Only consulted when telemetry is on.
        self.heartbeat_interval = heartbeat_interval
        self.stall_threshold = stall_threshold
        # id(rule) -> RulePlans; survives across run() calls so a
        # reused engine pays compilation once.
        self._plan_cache: Dict[int, RulePlans] = {}
        # id(rule) -> FIFO fire mode ('facts'/'aggregates'/'rows'),
        # static per rule.
        self._batch_fire_modes: Dict[int, str] = {}
        # id(JoinPlan) -> PlanAnalysis, reset per run (ANALYZE only).
        self._plan_analysis: Dict[int, PlanAnalysis] = {}
        # Per-run metrics registry; None while telemetry is disabled so
        # the hot paths pay one attribute check and nothing else.
        self._metrics: Optional[MetricsRegistry] = None
        # Structured event log (None unless telemetry attached one) and
        # the stratum/round the engine is currently in, for decision
        # events ("rule R derived N facts in round K of stratum S").
        self._events = None
        self._stratum_index = 0
        self._round = 0

    # -- public API ------------------------------------------------------

    @gc_paused()
    def run(self, facts: Iterable[Fact]) -> ChaseResult:
        """Run the reasoning task over the given extensional facts,
        with the cyclic garbage collector paused (:func:`gc_paused`)."""
        store = facts if isinstance(facts, FactStore) else FactStore(facts)
        provenance = ProvenanceLog(enabled=self.provenance_enabled)
        null_factory = self._null_factory or NullFactory()
        context = ExternalContext(store, null_factory)
        violations: List[EGDViolation] = []
        strata = (
            stratify(self.rules, self.operational_negation)
            if self.rules else []
        )
        total_rounds = 0

        metrics = MetricsRegistry() if telemetry.state.enabled else None
        self._metrics = metrics
        self._events = (
            telemetry.state.events if telemetry.state.enabled else None
        )
        if self.analyze:
            self._plan_analysis = {}
        # Live progress (heartbeat + stall detection) rides the same
        # switch as metrics: None while telemetry is off, so disabled
        # runs never touch a clock.  ANALYZE alone does not enable it.
        progress = (
            ChaseProgress(
                stall_threshold=self.stall_threshold,
                heartbeat_interval=self.heartbeat_interval,
            )
            if metrics is not None
            else None
        )
        self._compile_plans(metrics)
        run_start = time.perf_counter_ns() if metrics is not None else 0
        nulls_before = null_factory.issued
        if metrics is not None:
            for stratum_index, stratum in enumerate(strata):
                for rule in stratum:
                    metrics.gauge(
                        "chase.rule_stratum",
                        rule=self._rule_names[id(rule)],
                    ).set(stratum_index)

        with telemetry.span(
            "chase.run", rules=len(self.rules), strata=len(strata),
            input_facts=len(store),
        ) as run_span:
            for stratum_index, stratum in enumerate(strata):
                # Per-stratum aggregate state and last-emitted aggregate
                # facts (for functional replacement).
                aggregate_states: Dict[Tuple[int, int], AggregateState] = {}
                emitted_aggregates: Dict[Tuple[int, int, Tuple], Fact] = {}
                store.reset_delta_to_all()
                rounds = 0
                with telemetry.span(
                    "chase.stratum", stratum=stratum_index,
                    rules=len(stratum),
                ) as stratum_span:
                    while True:
                        rounds += 1
                        total_rounds += 1
                        self._stratum_index = stratum_index
                        self._round = rounds
                        if rounds > self.max_rounds:
                            raise EvaluationError(
                                f"chase exceeded {self.max_rounds} rounds "
                                "in one stratum; the program may not "
                                "terminate"
                            )
                        round_start = (
                            time.perf_counter_ns()
                            if metrics is not None else 0
                        )
                        facts_before = len(store)
                        changed = False
                        with telemetry.span(
                            "chase.round", stratum=stratum_index,
                            round=rounds,
                        ) as round_span:
                            for rule_index, rule in enumerate(stratum):
                                fired = self._apply_rule(
                                    rule,
                                    rule_index,
                                    store,
                                    provenance,
                                    null_factory,
                                    context,
                                    aggregate_states,
                                    emitted_aggregates,
                                    first_round=(rounds == 1),
                                )
                                changed = fired or changed
                                if metrics is not None:
                                    store.publish_counters()
                                if progress is not None:
                                    self._track_progress(
                                        progress, fired, rule
                                    )
                                if len(store) > self.max_facts:
                                    raise EvaluationError(
                                        f"chase exceeded {self.max_facts} "
                                        "facts; aborting as a "
                                        "non-termination guard"
                                    )
                            round_span.set(
                                new_facts=len(store) - facts_before
                            )
                        round_ns = 0
                        if metrics is not None:
                            round_ns = (
                                time.perf_counter_ns() - round_start
                            )
                            metrics.counter("chase.iterations").inc()
                            metrics.histogram("chase.round_ns").observe(
                                round_ns
                            )
                        store.advance_delta()
                        if progress is not None:
                            self._publish_heartbeat(
                                progress,
                                stratum_index,
                                rounds,
                                new_facts=len(store) - facts_before,
                                frontier=store.frontier_size(),
                                seconds=round_ns / 1e9,
                                total_facts=len(store),
                            )
                        if self.egds:
                            new_violations = enforce_egds(
                                self.egds, store, strict=self.strict_egds
                            )
                            violations.extend(new_violations)
                        if not store.has_delta():
                            break
                    stratum_span.set(rounds=rounds)

            if not strata and self.egds:
                # EGD-only program: enforce once over extensional facts.
                violations.extend(
                    enforce_egds(self.egds, store, strict=self.strict_egds)
                )

            store.advance_delta()
            if metrics is not None:
                store.publish_counters()
            run_span.set(
                rounds=total_rounds,
                facts=len(store),
                nulls_introduced=null_factory.issued - nulls_before,
                egd_violations=len(violations),
            )

        snapshot = None
        if metrics is not None:
            metrics.counter("chase.runs").inc()
            metrics.counter("chase.egd_violations").inc(len(violations))
            metrics.gauge("chase.facts").set(len(store))
            metrics.histogram("chase.run_ns").observe(
                time.perf_counter_ns() - run_start
            )
            self._record_memory_gauges(metrics, store, provenance)
            snapshot = metrics.snapshot()
            telemetry.state.registry.merge(metrics)
            self._metrics = None
        self._events = None
        explain_report = self.explain() if self.analyze else None
        return ChaseResult(
            store, provenance, null_factory, violations, total_rounds,
            telemetry_snapshot=snapshot,
            # Lazy: describing every plan is pure rendering work, so it
            # runs only if someone actually reads result.plan_report —
            # and it is available on telemetry-free runs too.
            plan_report=self.plan_report,
            explain_report=explain_report,
        )

    # -- compiled plans ----------------------------------------------------

    def _compile_plans(self, metrics: Optional[MetricsRegistry]) -> None:
        """Compile every rule's join plans once per engine (cached
        across runs); see :mod:`repro.vadalog.plans`."""
        for rule in self.rules:
            if id(rule) in self._plan_cache:
                if metrics is not None:
                    metrics.counter("chase.plan_cache_hits").inc()
                continue
            start = time.perf_counter_ns() if metrics is not None else 0
            plans = compile_rule_plans(rule, self.operational_negation)
            self._plan_cache[id(rule)] = plans
            if metrics is not None:
                metrics.histogram("chase.plan_compile_ns").observe(
                    time.perf_counter_ns() - start
                )
                metrics.counter("chase.plans_compiled").inc()

    def plan_report(self) -> Dict[str, Dict[str, List[str]]]:
        """Step-by-step description of every compiled plan, keyed by
        rule label — the ``--rule-profile`` plan dump."""
        report: Dict[str, Dict[str, List[str]]] = {}
        for rule in self.rules:
            plans = self._plan_cache.get(id(rule))
            if plans is not None:
                report[self._rule_names[id(rule)]] = plans.describe()
        return report

    def explain(self) -> Dict[str, Any]:
        """The engine's explain document: every compiled plan as
        structured JSON, annotated with per-step actuals when the
        engine ran with ``analyze=True``.  Render it with
        :func:`repro.telemetry.inspect.render_explain`."""
        self._compile_plans(self._metrics)
        try:
            strata = (
                stratify(self.rules, self.operational_negation)
                if self.rules else []
            )
        except Exception:
            # Unstratifiable programs still get a static explain —
            # the chase would reject them, the plan dump should not.
            strata = []
        stratum_of = {
            id(rule): index
            for index, stratum in enumerate(strata)
            for rule in stratum
        }
        rules_doc: List[Dict[str, Any]] = []
        for rule in self.rules:
            plans = self._plan_cache.get(id(rule))
            if plans is None:  # pragma: no cover — cache is eager
                continue
            entry = plans.explain()
            entry["rule"] = self._rule_names[id(rule)]
            entry["stratum"] = stratum_of.get(id(rule))
            if self.analyze:
                for (name, plan), plan_doc in zip(
                    plans.named_plans(), entry["plans"]
                ):
                    analysis = self._plan_analysis.get(id(plan))
                    if analysis is None:
                        continue
                    plan_doc["executions"] = analysis.executions
                    plan_doc["matches"] = analysis.matches
                    for step_doc, stats in zip(
                        plan_doc["steps"], analysis.steps
                    ):
                        step_doc["actual"] = stats.to_json()
            rules_doc.append(entry)
        return {
            "version": 1,
            "analyze": bool(self.analyze),
            "rules": rules_doc,
        }

    def _analysis_for(self, plan) -> PlanAnalysis:
        analysis = self._plan_analysis.get(id(plan))
        if analysis is None:
            analysis = PlanAnalysis(len(plan.steps))
            self._plan_analysis[id(plan)] = analysis
        return analysis

    # -- live progress -----------------------------------------------------

    def _track_progress(self, progress, fired: bool, rule: Rule) -> None:
        """Per-rule stall bookkeeping (telemetry-on runs only)."""
        if fired:
            if progress.progressed():
                # Recovery ends the stall episode on the live gauge.
                telemetry.state.registry.gauge("chase.stalled").set(0)
            return
        stall = progress.check_stall()
        if stall is None:
            return
        telemetry.state.registry.gauge("chase.stalled").set(1)
        if self._metrics is not None:
            self._metrics.counter("chase.stalls").inc()
        if self._events is not None:
            self._events.emit(
                "stall",
                stratum=self._stratum_index,
                round=self._round,
                rule=self._rule_names.get(id(rule), rule.label or "?"),
                idle_seconds=round(stall["idle_seconds"], 6),
                threshold=stall["threshold"],
            )

    def _publish_heartbeat(
        self,
        progress,
        stratum: int,
        round_: int,
        new_facts: int,
        frontier: int,
        seconds: float,
        total_facts: int,
    ) -> None:
        """End-of-round heartbeat: live gauges on the *global* registry
        (so a concurrent ``/metrics`` scrape sees mid-run state) plus a
        rate-limited JSONL event."""
        beat = progress.heartbeat(
            stratum, round_, new_facts, frontier, seconds, total_facts
        )
        live = telemetry.state.registry
        live.gauge("chase.heartbeat.stratum").set(stratum)
        live.gauge("chase.heartbeat.round").set(round_)
        live.gauge("chase.heartbeat.frontier").set(frontier)
        live.gauge("chase.heartbeat.new_facts").set(new_facts)
        live.gauge("chase.heartbeat.fire_rate").set(
            round(beat["fire_rate"], 3)
        )
        live.gauge("chase.heartbeat.facts").set(total_facts)
        if self._events is not None and progress.event_due():
            beat["fire_rate"] = round(beat["fire_rate"], 3)
            self._events.emit("heartbeat", **beat)

    def _record_memory_gauges(
        self,
        metrics: MetricsRegistry,
        store: FactStore,
        provenance: ProvenanceLog,
    ) -> None:
        """End-of-run memory accounting: per-predicate cardinality and
        estimated bytes, index-entry counts, provenance-log size."""
        report = store.memory_stats()
        for name, info in report["predicates"].items():
            metrics.gauge(
                "store.predicate_facts", predicate=name
            ).set(info["facts"])
            metrics.gauge(
                "store.predicate_bytes", predicate=name
            ).set(info["estimated_bytes"])
        metrics.gauge("store.estimated_bytes").set(
            report["estimated_bytes"]
        )
        metrics.gauge("store.index_entries").set(
            report["index_entries"]
        )
        metrics.gauge("provenance.entries").set(len(provenance))
        metrics.gauge("provenance.estimated_bytes").set(
            provenance.estimated_bytes()
        )

    def _applicable_plans(
        self, plans: RulePlans, store: FactStore, first_round: bool
    ):
        """The plans a rule application executes: the first-round plan
        when every fact is frontier (or the rule has no positive
        literal), otherwise one delta plan per positive literal with a
        non-empty frontier."""
        if not plans.has_positives or first_round:
            yield plans.first_round
            return
        for _index, predicate, plan in plans.delta_plans:
            if store.has_delta(predicate):
                yield plan

    def _execute(
        self,
        rule: Rule,
        plans: RulePlans,
        store: FactStore,
        first_round: bool,
    ):
        """Run every applicable plan as one batch pipeline over the
        whole frontier and return the non-empty batches.  All batches
        complete before any firing, so recursive rules never observe
        their own additions mid-enumeration.  With telemetry on, rows
        an expression error masked out are reported."""
        metrics = self._metrics
        masks: Optional[List[MaskRecord]] = (
            [] if (metrics is not None or self._events is not None)
            else None
        )
        batches = []
        for plan in self._applicable_plans(plans, store, first_round):
            analysis = self._analysis_for(plan) if self.analyze else None
            batch = execute_batch(
                plan, rule, store, track_premises=self.provenance_enabled,
                analysis=analysis, masks=masks,
            )
            if metrics is not None:
                metrics.counter("chase.batch_executions").inc()
                metrics.counter("chase.batch_rows").inc(batch.n)
            if batch.n:
                batches.append(batch)
        if masks:
            self._report_masks(rule, masks)
        return batches

    def _report_masks(
        self, rule: Rule, masks: List[MaskRecord]
    ) -> None:
        """Surface batched error masking: a counter per rule and one
        schema-versioned ``batch_mask`` event per masked step."""
        name = self._rule_names.get(id(rule), rule.label or "?")
        for record in masks:
            if self._metrics is not None:
                self._metrics.counter(
                    "chase.batch_masked_rows", rule=name
                ).inc(record.rows)
            if self._events is not None:
                self._events.emit(
                    "batch_mask",
                    rule=name,
                    op=record.op,
                    step=record.detail,
                    error=record.error,
                    rows=record.rows,
                    stratum=self._stratum_index,
                    round=self._round,
                )

    def _batch_fire_mode(self, rule: Rule) -> str:
        """How a FIFO-routed rule fires: ``'facts'`` (bulk head firing
        from the batch columns), ``'aggregates'`` (deferred per-group
        emission) or ``'rows'`` (:meth:`_fire_rows`, the row loop every
        other rule and every non-FIFO rule fires through).  It depends
        on the rule's shape alone, so it is computed once per rule.

        Everything the bulk paths skip must be unobservable: no
        externals (they expand at fire time, in routing order).  The
        facts path needs rows that no earlier row can change: no
        existentials (a firing blocks later rows' keys and draws
        nulls), no absence recheck (a firing can fill an absence key)
        and every head atom ground by construction (else the first row
        to reach it raises).  The aggregate path needs no
        post-aggregate conditions (the row loop checks them against
        intermediate values, an order-dependent effect) and no
        aggregate input reading another aggregate's target (the row
        loop evaluates later aggregates with earlier targets already
        substituted).  It also needs an exact absence read: it
        contributes every row before emitting.  Provenance does not
        matter: the aggregate path records one derivation per group
        fact it adds."""
        mode = self._batch_fire_modes.get(id(rule))
        if mode is None:
            mode = self._compute_batch_fire_mode(rule)
            self._batch_fire_modes[id(rule)] = mode
        return mode

    def _compute_batch_fire_mode(self, rule: Rule) -> str:
        plans = self._plan_cache[id(rule)]
        if any(lit.atom.is_external for lit in rule.body):
            return "rows"
        if plans.absence_recheck:
            return "rows"
        if rule.has_aggregates:
            targets = {agg.target for agg in rule.aggregates}
            for condition in rule.conditions:
                if targets & set(condition.variables()):
                    return "rows"
            for agg in rule.aggregates:
                inputs = set(agg.variables()) - {agg.target}
                if inputs & targets:
                    return "rows"
            return "aggregates"
        if plans.head_plan is not None or not all(
            head.ground for head in plans.heads
        ):
            return "rows"
        return "facts"

    def _fire_facts_batched(
        self,
        rule: Rule,
        plans: RulePlans,
        batches,
        store: FactStore,
        provenance: ProvenanceLog,
        firings: Optional[List[List[Fact]]],
    ) -> bool:
        """Bulk head firing from the batch columns.  Each head atom is
        projected column-wise (:class:`~repro.vadalog.plans.HeadProjector`)
        and bulk-inserted; the store drops duplicates (within or across
        delta plans) and returns only the new facts, so no dedup pass
        is needed and provenance records first-added facts only,
        exactly as the deduplicated row loop would.  Each row that adds
        facts is one firing, appended to ``firings`` when given."""
        heads = plans.heads
        # Head atoms grouped by predicate: a relation must receive a
        # firing's facts in row-major order, as row-by-row firing adds
        # them, so atoms sharing a predicate are interleaved.
        by_predicate: Dict[str, List[int]] = {}
        for index, head in enumerate(heads):
            by_predicate.setdefault(head.predicate, []).append(index)
        label = rule.label
        track = self.provenance_enabled
        changed = False
        for batch in batches:
            n = batch.n
            cols = batch.cols
            # (row, head index, fact) per new fact, per predicate.
            rows: List[int] = []
            atoms: List[int] = []
            new: List[Fact] = []
            for predicate, indices in by_predicate.items():
                width = len(indices)
                if width == 1:
                    tuples = heads[indices[0]].project(cols, n)
                else:
                    tuples = [
                        terms
                        for row in zip(*(
                            heads[index].project(cols, n)
                            for index in indices
                        ))
                        for terms in row
                    ]
                positions, facts = store.insert(predicate, tuples)
                if width == 1:
                    rows.extend(positions)
                    atoms.extend(repeat(indices[0], len(positions)))
                else:
                    rows.extend(position // width for position in positions)
                    atoms.extend(
                        indices[position % width] for position in positions
                    )
                new.extend(facts)
            if not new:
                continue
            changed = True
            order = range(len(new))
            if len(by_predicate) > 1:
                # Row by row, then head order: the order firing adds.
                order = sorted(order, key=lambda k: (rows[k], atoms[k]))
            if track:
                premises = None
                last = -1
                for k in order:
                    row = rows[k]
                    if row != last:
                        premises = batch.premises_row(row)
                        last = row
                    provenance.record(new[k], label, premises)
            if firings is not None:
                for _row, group in groupby(order, key=rows.__getitem__):
                    firings.append([new[k] for k in group])
        return changed

    def _row_order(
        self, rule: Rule, plans: RulePlans, batches
    ) -> List[Tuple[int, int]]:
        """The ``(batch, row)`` pairs :meth:`_fire_rows` visits: the
        first row of each distinct binding of ``plans.binds``, in batch
        order.  A non-FIFO routing strategy orders those rows, seen as
        substitution dicts, before any of them fires."""
        seen: Set[Tuple] = set()
        order: List[Tuple[int, int]] = []
        for b, batch in enumerate(batches):
            keys = _tuple_column(
                [batch.cols[variable] for variable in plans.binds], batch.n
            )
            for i, key in enumerate(keys):
                if key not in seen:
                    seen.add(key)
                    order.append((b, i))
        strategy = self.routing.strategy_for(rule)
        if strategy is fifo_strategy:
            return order
        position: Dict[int, Tuple[int, int]] = {}
        substitutions = []
        for b, i in order:
            substitution = _row(batches[b].cols, i)
            position[id(substitution)] = (b, i)
            substitutions.append(substitution)
        return [position[id(s)] for s in strategy(rule, substitutions)]

    def _fire_rows(
        self,
        rule: Rule,
        rule_index: int,
        plans: RulePlans,
        batches,
        store: FactStore,
        provenance: ProvenanceLog,
        null_factory: NullFactory,
        context: ExternalContext,
        aggregate_states: Dict,
        emitted_aggregates: Dict,
        firings: Optional[List[List[Fact]]],
    ) -> bool:
        """Fire one rule application row by row, in :meth:`_row_order`,
        for rules whose rows depend on earlier rows.  Per row:

        * the absence recheck: a row whose absence key is no longer
          absent (:attr:`RulePlans.absence_recheck`) does not fire; it
          runs before the externals, so a rejected row causes no side
          effects;
        * the rule's externals (:meth:`_expand_externals`); each
          binding they expand to fires on its own;
        * the head.  An aggregate rule contributes each binding through
          :meth:`_fire_with_aggregates`.  An existential rule's binding
          fires unless its frontier key is blocked, by the
          application's one :class:`HeadImageCheck` under the
          restricted chase or by :meth:`_isomorphic_image` under
          ``termination="isomorphic"``, and draws its fresh nulls when
          it fires.  A rule without externals whose head atoms are
          ground by construction projects them from the columns; any
          other binding is substituted into the head, and a head atom
          it leaves non-ground raises.

        Each binding that adds facts is one firing, appended to
        ``firings`` when given; its derivations carry the row's
        premises (the first occurrence's)."""
        order = self._row_order(rule, plans, batches)
        externals = [lit for lit in rule.body if lit.atom.is_external]
        aggregates = rule.has_aggregates
        project = not (externals or aggregates) and all(
            head.ground for head in plans.heads
        )
        head_plan = None if aggregates else plans.head_plan
        check = None
        if head_plan is not None:
            existentials = head_plan.existentials
            if self.termination == "restricted":
                # Keys an external binds are decided when first queried.
                keys = None
                if set(head_plan.frontier) <= set(plans.binds):
                    keys = [
                        _tuple_column(
                            [batch.cols[v] for v in head_plan.frontier],
                            batch.n,
                        )
                        for batch in batches
                    ]
                check = HeadImageCheck(head_plan, store, (
                    () if keys is None else (keys[b][i] for b, i in order)
                ))
            if project:
                # Fired rows fill their existentials' columns in place.
                for batch in batches:
                    for variable in existentials:
                        batch.cols[variable] = [None] * batch.n
        parts = [
            [head.parts(batch.cols, batch.n) for head in plans.heads]
            for batch in batches
        ] if project else None
        recheck = plans.absence_recheck
        recheck_vars = {
            variable for step in recheck for _, variable in step.key_vars
        }
        label = rule.label
        track = self.provenance_enabled
        changed = False
        for b, i in order:
            batch = batches[b]
            cols = batch.cols
            if recheck and not absence_holds(
                recheck, store, {v: cols[v][i] for v in recheck_vars}
            ):
                continue
            bindings = (None,) if project else self._expand_externals(
                plans.deferred, externals, _row(cols, i), context
            )
            for binding in bindings:
                if aggregates:
                    added = self._fire_with_aggregates(
                        rule, rule_index, binding, batch.premises_row(i),
                        store, provenance, aggregate_states,
                        emitted_aggregates,
                    )
                else:
                    fresh = {}
                    if head_plan is not None:
                        if check is not None:
                            key = (
                                keys[b][i] if keys is not None
                                else head_plan.key(binding)
                            )
                            if check.blocks(key):
                                continue
                        elif self._isomorphic_image(
                            rule,
                            _row(cols, i) if binding is None else binding,
                            existentials, store,
                        ):
                            continue
                        fresh = self._invent_nulls(
                            rule, existentials, null_factory
                        )
                    if binding is None:
                        for variable, null in fresh.items():
                            cols[variable][i] = null
                        head_terms = [
                            (head.predicate, tuple([col[i] for col in part]))
                            for head, part in zip(plans.heads, parts[b])
                        ]
                    else:
                        final = {**binding, **fresh}
                        head_terms = []
                        for atom in rule.head:
                            atom = atom.substitute(final)
                            if not atom.is_ground:
                                raise EvaluationError(
                                    f"head atom {atom} not ground after "
                                    "substitution in rule "
                                    f"{rule.label or rule}"
                                )
                            head_terms.append((atom.predicate, atom.terms))
                    added = []
                    for predicate, terms in head_terms:
                        added.extend(store.insert(predicate, (terms,))[1])
                    if check is not None:
                        check.fired(key)
                    if track and added:
                        premises = batch.premises_row(i)
                        for fact in added:
                            provenance.record(fact, label, premises)
                if added:
                    changed = True
                    if firings is not None:
                        firings.append(added)
        return changed

    def _fire_aggregates_batched(
        self,
        rule: Rule,
        rule_index: int,
        plans: RulePlans,
        batches,
        store: FactStore,
        provenance: ProvenanceLog,
        aggregate_states: Dict,
        emitted_aggregates: Dict,
        firings: Optional[List[List[Fact]]],
    ) -> bool:
        """Deferred per-group aggregate emission: contribute every
        batch row, then emit each touched group's head atoms once with
        the final values.  Equivalent to per-binding
        retract-and-replace (:meth:`_fire_with_aggregates`) under this
        path's gates: monotonic values make contributions
        order-independent and idempotent (duplicate bindings are
        no-ops, so no dedup pass is needed), intermediate emissions are
        invisible (firing performs no lookups, and by the end of the
        application only the final atom remains), and the final atom
        differs from the previously emitted one iff any contribution
        changed the group — so rounds, delta frontiers and the changed
        flag all match.

        Contributions come from the rule's compiled evaluators over the
        batch columns; the head atoms are projected from columns of the
        touched groups' keys and values, and are ground by
        construction (every head variable is a group-by variable or an
        aggregate target).  With provenance on, each added group fact
        gets one derivation whose premises are the group's last batch
        row.  Each group emission that adds facts is one firing,
        appended to ``firings`` when given."""
        targets = {agg.target for agg in rule.aggregates}
        group_vars = sorted(
            (v for v in rule.head_variables() if v not in targets),
            key=lambda v: v.name,
        )
        specs = []
        for agg_index, agg in enumerate(rule.aggregates):
            state_key = (rule_index, agg_index)
            state = aggregate_states.get(state_key)
            if state is None:
                state = AggregateState(agg.function)
                aggregate_states[state_key] = state
            specs.append((agg, state, plans.contributions[agg_index]))
        # Group key -> its last (batch index, row), in first-touch order.
        touched: Dict[Tuple, Tuple[int, int]] = {}
        for b, batch in enumerate(batches):
            cols = batch.cols
            try:
                group_cols = [cols[v] for v in group_vars]
            except KeyError as exc:
                raise EvaluationError(
                    f"group-by variable unbound in aggregate rule "
                    f"{rule.label or rule}: {exc}"
                ) from exc
            n = batch.n
            group_keys = _tuple_column(group_cols, n)
            touched.update(zip(group_keys, zip(repeat(b), range(n))))
            for agg, state, contribution in specs:
                contributors = _tuple_column(
                    [cols[v] for v in agg.contributors], n
                )
                contributions = (
                    [1] * n if contribution is None
                    else contribution.values(cols, n)
                )
                state.absorb_many(group_keys, contributors, contributions)
        groups = list(touched)
        emitted = {
            variable: [key[j] for key in groups]
            for j, variable in enumerate(group_vars)
        }
        for agg, state, _ in specs:
            emitted[agg.target] = [
                Constant(state.value(key)) for key in groups
            ]
        projected = [
            head.project(emitted, len(groups)) for head in plans.heads
        ]
        track = self.provenance_enabled
        changed = False
        for g, group_key in enumerate(groups):
            added = None
            for atom_index, head in enumerate(plans.heads):
                terms = projected[atom_index][g]
                emit_key = (rule_index, atom_index, group_key)
                previous = emitted_aggregates.get(emit_key)
                if previous is not None:
                    if previous.terms == terms:
                        continue
                    store.retract(previous)
                    del emitted_aggregates[emit_key]
                new = store.insert(head.predicate, (terms,))[1]
                if not new:
                    continue
                grounded = new[0]
                changed = True
                emitted_aggregates[emit_key] = grounded
                if track:
                    b, row = touched[group_key]
                    provenance.record(
                        grounded,
                        rule.label,
                        batches[b].premises_row(row),
                        note="monotonic aggregate update",
                    )
                if firings is not None:
                    if added is None:
                        added = []
                        firings.append(added)
                    added.append(grounded)
        return changed

    # -- rule application --------------------------------------------------

    def _apply_rule(
        self,
        rule: Rule,
        rule_index: int,
        store: FactStore,
        provenance: ProvenanceLog,
        null_factory: NullFactory,
        context: ExternalContext,
        aggregate_states,
        emitted_aggregates,
        first_round: bool,
    ) -> bool:
        """One semi-naive application of ``rule``: match every
        applicable plan as a batch, then fire.  A FIFO-routed rule
        whose shape allows it fires in bulk from the batch columns
        (:meth:`_batch_fire_mode`); every other rule fires through the
        row loop, :meth:`_fire_rows`, in routing order.  Telemetry only
        observes the application (see :meth:`_record_firings`); it
        never changes the path."""
        plans = self._plan_cache[id(rule)]
        metrics = self._metrics
        start = time.perf_counter_ns() if metrics is not None else 0
        batches = self._execute(rule, plans, store, first_round)
        fire_start = time.perf_counter_ns() if metrics is not None else 0
        if metrics is not None:
            metrics.histogram(
                "chase.match_ns", rule=self._rule_names[id(rule)]
            ).observe(fire_start - start)
        if not batches:
            return False
        # One list of added facts per firing that added any; collected
        # only while telemetry observes the run.
        firings: Optional[List[List[Fact]]] = (
            [] if (metrics is not None or self._events is not None)
            else None
        )
        mode = (
            self._batch_fire_mode(rule)
            if self.routing.strategy_for(rule) is fifo_strategy
            else "rows"
        )
        if mode == "facts":
            changed = self._fire_facts_batched(
                rule, plans, batches, store, provenance, firings,
            )
        elif mode == "aggregates":
            changed = self._fire_aggregates_batched(
                rule, rule_index, plans, batches, store, provenance,
                aggregate_states, emitted_aggregates, firings,
            )
        else:
            changed = self._fire_rows(
                rule, rule_index, plans, batches, store, provenance,
                null_factory, context, aggregate_states,
                emitted_aggregates, firings,
            )
        if firings is not None:
            self._record_firings(
                rule, sum(batch.n for batch in batches), firings,
                fire_start,
            )
        return changed

    def _record_firings(
        self,
        rule: Rule,
        rows: int,
        firings: List[List[Fact]],
        fire_start: int,
    ) -> None:
        """Per-rule telemetry of one rule application, whichever path
        fired it: the fire time, the batch rows it fired from, the
        firings that added facts (a bulk row, a binding of the row
        loop or a group emission) with their facts, and one ``derive``
        decision event per firing."""
        name = self._rule_names[id(rule)]
        metrics = self._metrics
        if metrics is not None:
            metrics.histogram("chase.fire_ns", rule=name).observe(
                time.perf_counter_ns() - fire_start
            )
            metrics.counter("chase.bindings", rule=name).inc(rows)
            if firings:
                metrics.counter("chase.rule_firings", rule=name).inc(
                    len(firings)
                )
                metrics.counter("chase.new_facts", rule=name).inc(
                    sum(map(len, firings))
                )
        if self._events is not None:
            for added in firings:
                self._events.emit(
                    "decision",
                    kind="derive",
                    rule=name,
                    stratum=self._stratum_index,
                    round=self._round,
                    facts=len(added),
                    derived=[str(atom) for atom in added[:5]],
                )

    def _expand_externals(
        self,
        deferred,
        external_literals,
        substitution: Substitution,
        context: ExternalContext,
        position: int = 0,
    ):
        """Evaluate the rule's external atoms (in order, from
        ``position``) against a regular-body binding, then the
        ``deferred`` conditions that needed their outputs.  It recurses
        as a method: a closure that named itself would be a reference
        cycle per row, kept until the paused collector (:func:`gc_paused`)
        runs again."""
        if not external_literals:
            yield substitution
            return
        if position == len(external_literals):
            for condition in deferred:
                if not condition.holds(substitution):
                    return
            yield substitution
            return
        atom = external_literals[position].atom
        for extended in self.externals.evaluate(
            atom.predicate, atom.terms, substitution, context
        ):
            yield from self._expand_externals(
                deferred, external_literals, extended, context, position + 1
            )

    def _isomorphic_image(
        self,
        rule: Rule,
        substitution: Substitution,
        existentials: Set[Variable],
        store: FactStore,
    ) -> bool:
        """Isomorphic-pattern blocking: instantiate the head with
        *placeholder* nulls (negative labels, never stored or counted)
        and search for an image in which body nulls may map onto other
        nulls."""
        trial = dict(substitution)
        placeholders = set()
        for var in existentials:
            self._placeholder_label -= 1
            placeholder = LabelledNull(self._placeholder_label)
            trial[var] = placeholder
            placeholders.add(placeholder)
        trial_atoms = [atom.substitute(trial) for atom in rule.head]
        return conjunction_has_image(
            trial_atoms, store, placeholders, null_to_null=True
        )

    def _invent_nulls(
        self,
        rule: Rule,
        existentials: Set[Variable],
        null_factory: NullFactory,
    ) -> Dict[Variable, LabelledNull]:
        """One firing's fresh nulls, one per existential, with their
        telemetry: the ``chase.nulls_introduced{,_by_rule}`` counters
        and one ``invent_null`` decision event."""
        fresh = {var: null_factory.fresh() for var in existentials}
        if self._metrics is not None:
            self._metrics.counter("chase.nulls_introduced").inc(
                len(fresh)
            )
            self._metrics.counter(
                "chase.nulls_introduced_by_rule",
                rule=self._rule_names.get(id(rule), rule.label or "?"),
            ).inc(len(fresh))
        if self._events is not None:
            self._events.emit(
                "decision",
                kind="invent_null",
                rule=self._rule_names.get(id(rule), rule.label or "?"),
                stratum=self._stratum_index,
                round=self._round,
                nulls=len(fresh),
            )
        return fresh

    def _fire_with_aggregates(
        self,
        rule: Rule,
        rule_index: int,
        substitution: Substitution,
        premises: List[Fact],
        store: FactStore,
        provenance: ProvenanceLog,
        aggregate_states: Dict,
        emitted_aggregates: Dict,
    ) -> List[Fact]:
        """Contribute this binding to the rule's aggregates, and emit
        (or update) head facts with the current aggregate values;
        returns the head facts it added."""
        # Group key: every head variable that is not an aggregate target.
        targets = {agg.target for agg in rule.aggregates}
        group_vars = sorted(
            (v for v in rule.head_variables() if v not in targets),
            key=lambda v: v.name,
        )
        try:
            group_key = tuple(substitution[v] for v in group_vars)
        except KeyError as exc:
            raise EvaluationError(
                f"group-by variable unbound in aggregate rule "
                f"{rule.label or rule}: {exc}"
            ) from exc

        substitution = dict(substitution)
        for agg_index, agg in enumerate(rule.aggregates):
            state_key = (rule_index, agg_index)
            state = aggregate_states.get(state_key)
            if state is None:
                state = AggregateState(agg.function)
                aggregate_states[state_key] = state
            contributor = tuple(
                substitution[v] for v in agg.contributors
            )
            if agg.argument is not None:
                contribution = agg.argument.evaluate(substitution)
            else:
                contribution = 1
            _, value = state.contribute(
                group_key, contributor, contribution
            )
            substitution[agg.target] = Constant(value)

        # Post-aggregate conditions (e.g. msum(...) > 0.5).
        for condition in rule.conditions:
            if targets & set(condition.variables()):
                if not condition.holds(substitution):
                    return []

        head_atoms = [atom.substitute(substitution) for atom in rule.head]
        added = []
        for atom_index, atom in enumerate(head_atoms):
            if not atom.is_ground:
                raise EvaluationError(
                    f"aggregate head atom {atom} not ground in rule "
                    f"{rule.label or rule}"
                )
            emit_key = (rule_index, atom_index, group_key)
            previous = emitted_aggregates.get(emit_key)
            if previous == atom:
                continue
            if previous is not None:
                store.retract(previous)
                del emitted_aggregates[emit_key]
            if store.add(atom):
                added.append(atom)
                provenance.record(
                    atom,
                    rule.label,
                    premises,
                    note="monotonic aggregate update",
                )
                emitted_aggregates[emit_key] = atom
        return added

"""Columnar fact storage and batched plan execution.

Three pieces live here:

* :class:`ColumnarRelation` — the storage of one predicate inside
  :class:`~repro.vadalog.database.FactStore`.  A fact has one
  representation, its term tuple: a bulk insert dedups on it without
  building a fact per candidate, a full-key probe is one dict lookup,
  and a partial-key probe goes through a lazily built group index
  ``positions -> term sub-tuple -> [rowid]`` (ground terms hash and
  compare in C, so the keys need no encoding).  Facts themselves are
  kept in a rowid-indexed list so probe results stay ordinary
  :class:`~repro.vadalog.atoms.Fact` tuples and every row-at-a-time
  consumer (the error-masking completion search, EGDs, externals,
  the isomorphic chase's ``conjunction_has_image``) works unchanged.
* :func:`execute_batch` — the executor for the compiled join plans of
  :mod:`repro.vadalog.plans`.  The whole delta frontier flows through
  a plan as parallel columns: scan steps are hash joins that expand
  the batch, probing the store once per distinct key; assignments and
  conditions run their compiled column evaluators
  (:mod:`repro.vadalog.compiled`); negation and absence checks filter
  rows, also with one probe per distinct key.  :func:`absence_holds`
  probes one row's absence keys again just before it fires, when the
  application-start read is not exact.
* :class:`HeadImageCheck` — the restricted chase's blocking decision
  for one rule application, made by running the rule's compiled head
  plan over the batch of frontier keys.

**Errors in pushed-down expressions.**  A rule body joins *all*
positive literals and checks negation before it evaluates assignments
and conditions (in rule order, stopping at the first failure).  A
pushed-down expression may therefore raise on a row the full body
would reject.  When an assignment or condition raises for a row, the
executor looks for a completing join of that row: the remaining
positive literals, agreeing with every variable the row binds, with
every negation check passing.

* If none exists, the rule body never reaches the expression for this
  row — the error is *masked*: only that row is dropped, the rest of
  the batch proceeds, and the engine emits a schema-versioned
  ``batch_mask`` event;
* if one exists, the body evaluates the expression on it (every
  earlier assignment and condition passed on the row's values), so the
  executor raises the error in place.

A step first evaluates its whole column; only when that raises does it
run the compiled row evaluator under ``try``, row by row, to make the
decision above per raising row.
"""

from __future__ import annotations

import sys
from itertools import compress, repeat
from operator import itemgetter
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, Iterator, List, \
    Optional, Sequence, Set, Tuple

from ..telemetry import state as _telemetry
from .atoms import Fact
from .plans import AssignStep, FilterStep, JoinPlan, NegationStep, ScanStep
from .rules import Rule
from .terms import Term, Variable
from .unification import bound_positions, match_atom


def _no_facts(key) -> Tuple[Fact, ...]:
    return ()


def _keys(
    positions: Tuple[int, ...], tuples: Iterable[Tuple[Term, ...]]
) -> Iterable[Tuple[Term, ...]]:
    """Each term tuple's sub-tuple at ``positions``."""
    if len(positions) == 1:
        position = positions[0]
        return [(terms[position],) for terms in tuples]
    return map(itemgetter(*positions), tuples)


class ColumnarRelation:
    """Storage for one predicate: append-only rows of facts, keyed by
    their term tuples.

    Rows are append-only, so the semi-naive frontier is a rowid range:
    the live rows in ``[delta_lo, delta_hi)`` are new as of the
    previous round, and every row from ``delta_hi`` on is pending —
    added this round, frontier after :meth:`FactStore.advance_delta`.
    Frontier probes scan that range in rowid order; full-key probes
    are one lookup in the dedup dict; partial-key probes read a group
    index keyed on the probed positions' term sub-tuple.  Retraction
    (functional aggregates, EGD null unification) tombstones the rowid,
    which drops it from the frontier too.
    """

    backend = "columnar"

    __slots__ = (
        "arity", "fact_of", "rowid_of", "rows", "dead", "groups",
        "delta_lo", "delta_hi", "indexed_upto", "probes", "probe_hits",
        "adds", "dedup_hits",
    )

    def __init__(self, arity: int):
        self.arity = arity
        #: term tuple -> every live fact (dedup, membership and
        #: full-key probes).
        self.fact_of: Dict[Tuple[Term, ...], Fact] = {}
        #: term tuple -> rowid of every live fact, built by the first
        #: retraction (functional aggregates, EGD repairs) and kept
        #: incremental from then on; most relations never need it.
        self.rowid_of: Optional[Dict[Tuple[Term, ...], int]] = None
        #: rowid -> Fact (probe results read through this list).
        self.rows: List[Fact] = []
        #: tombstoned rowids (retracted facts).
        self.dead: Set[int] = set()
        #: positions -> term sub-tuple -> [rowid, ...] in rowid order
        #: (live rows only; a key whose last row is retracted leaves the
        #: index).  Built by the first partial probe on ``positions``.
        self.groups: Dict[
            Tuple[int, ...], Dict[Tuple[Term, ...], List[int]]
        ] = {}
        #: the frontier's rowid range (live rows only count).
        self.delta_lo = 0
        self.delta_hi = 0
        #: every built group index holds the live rows below this
        #: rowid; appends past it join them at the next probe.
        self.indexed_upto = 0
        # Always-on accounting (ints, no telemetry gate): the memory
        # report surfaces the probe counts, and
        # :meth:`FactStore.publish_counters` turns all four into the
        # ``store.*`` telemetry counters.
        self.probes = 0
        self.probe_hits = 0
        self.adds = 0
        self.dedup_hits = 0

    # -- mutation ----------------------------------------------------------

    def insert(
        self,
        predicate: str,
        tuples: Sequence[Tuple[Term, ...]],
        facts: Optional[Sequence[Fact]] = None,
    ) -> Tuple[List[int], List[Fact]]:
        """Store the facts of ``predicate`` with these ground term
        tuples, in order, skipping any already stored (earlier in the
        same call included).  Returns the positions in ``tuples`` of
        the new ones and their facts, as two parallel lists.  A fact
        object is built only for a new tuple, unless the caller passes
        the ``facts`` (parallel to ``tuples``) to store as they are."""
        fact_of = self.fact_of
        rowid_of = self.rowid_of
        rows = self.rows
        positions: List[int] = []
        new: List[Fact] = []
        for position, terms in enumerate(tuples):
            if terms in fact_of:
                continue
            fact = (
                Fact.ground(predicate, terms) if facts is None
                else facts[position]
            )
            fact_of[terms] = fact
            if rowid_of is not None:
                rowid_of[terms] = len(rows)
            rows.append(fact)
            positions.append(position)
            new.append(fact)
        self.adds += len(new)
        self.dedup_hits += len(tuples) - len(new)
        return positions, new

    def _index_rows(
        self,
        positions: Tuple[int, ...],
        index: Dict[Tuple[Term, ...], List[int]],
        start: int,
        stop: int,
    ) -> None:
        """Add the live rows ``start <= rowid < stop`` to ``index``."""
        dead = self.dead
        keys = _keys(positions, [fact.terms for fact in self.rows[start:stop]])
        for rowid, key in enumerate(keys, start):
            if rowid in dead:
                continue
            bucket = index.get(key)
            if bucket is None:
                index[key] = [rowid]
            else:
                bucket.append(rowid)

    def _catch_up(self) -> None:
        """Add the rows appended since the last call to every built
        group index."""
        total = len(self.rows)
        upto = self.indexed_upto
        if upto == total:
            return
        for positions, index in self.groups.items():
            self._index_rows(positions, index, upto, total)
        self.indexed_upto = total

    def reset_frontier(self) -> None:
        """Make every stored fact frontier, and none pending."""
        self.delta_lo = 0
        self.delta_hi = len(self.rows)

    def frontier(self) -> Tuple[Fact, ...]:
        """The live frontier facts, in rowid order."""
        lo = self.delta_lo
        rows = self.rows[lo:self.delta_hi]
        dead = self.dead
        if not dead:
            return tuple(rows)
        return tuple([
            fact for rowid, fact in enumerate(rows, lo)
            if rowid not in dead
        ])

    def has_frontier(self) -> bool:
        """Is any frontier row live?  Stops at the first one."""
        dead = self.dead
        return any(
            rowid not in dead for rowid in range(self.delta_lo, self.delta_hi)
        )

    def remove(self, fact: Fact) -> bool:
        terms = fact.terms
        if self.fact_of.pop(terms, None) is None:
            return False
        if self.rowid_of is None:
            dead = self.dead
            self.rowid_of = {
                stored.terms: rowid
                for rowid, stored in enumerate(self.rows)
                if rowid not in dead
            }
        rowid = self.rowid_of.pop(terms)
        self.dead.add(rowid)
        if rowid < self.indexed_upto:
            # A row past the watermark is in no index yet, and the
            # catch-up skips tombstones.
            for positions, index in self.groups.items():
                key = tuple([terms[p] for p in positions])
                bucket = index[key]
                bucket.remove(rowid)
                if not bucket:
                    del index[key]
        return True

    # -- lookup ------------------------------------------------------------

    def fact_count(self) -> int:
        return len(self.fact_of)

    def iter_facts(self) -> Iterator[Fact]:
        if not self.dead:
            return iter(self.rows)
        dead = self.dead
        return (
            fact for rowid, fact in enumerate(self.rows)
            if rowid not in dead
        )

    def contains_fact(self, fact: Fact) -> bool:
        return fact.terms in self.fact_of

    def ensure_group(
        self, positions: Tuple[int, ...]
    ) -> Dict[Tuple[Term, ...], List[int]]:
        self._catch_up()
        index = self.groups.get(positions)
        if index is None:
            index = {}
            self._index_rows(positions, index, 0, len(self.rows))
            self.groups[positions] = index
            if _telemetry.enabled:
                _telemetry.registry.counter(
                    "store.columnar.group_index_builds"
                ).inc()
        return index

    def distinct_keys(self, positions: Tuple[int, ...]) -> int:
        """How many keys the group index on ``positions`` has: read
        from the index when one exists, else counted over the live
        term tuples without building one."""
        index = self.groups.get(positions)
        if index is not None:
            self._catch_up()
            return len(index)
        return len(set(_keys(positions, self.fact_of)))

    def prober(
        self, positions: Tuple[int, ...], delta_only: bool = False
    ) -> Callable[[Tuple[Term, ...]], Tuple[Fact, ...]]:
        """A ``key -> facts`` function for repeated probes on
        ``positions`` (the contract of :meth:`FactStore.probe`), with
        the frontier and group index resolved once rather than per
        probe.  Valid while the relation is unchanged: a batch plan
        step probes through one.

        ``delta_only`` probes the frontier by filtering its rows on the
        key, in rowid order.  A delta literal leads its plan, so its
        key holds only constants and input-free assignments: one key
        per prober, and no index is worth building for it."""
        if delta_only:
            frontier = self.frontier()
            if not frontier:
                return _no_facts
            if not positions:
                return lambda key: frontier

            def probe_frontier(key):
                return tuple([
                    fact for fact in frontier
                    if tuple([fact.terms[p] for p in positions]) == key
                ])

            return probe_frontier
        if not self.fact_of:
            return _no_facts
        if not positions:
            everything = tuple(self.iter_facts())
            return lambda key: everything
        if len(positions) == self.arity:
            fact_of = self.fact_of

            def probe_full(key):
                self.probes += 1
                fact = fact_of.get(key)
                if fact is None:
                    return ()
                self.probe_hits += 1
                return (fact,)

            return probe_full
        rows = self.rows
        index = None

        def probe_partial(key):
            nonlocal index
            self.probes += 1
            if index is None:
                index = self.ensure_group(positions)
            bucket = index.get(key)
            if not bucket:
                return ()
            self.probe_hits += 1
            if len(bucket) == 1:
                return (rows[bucket[0]],)
            return tuple(map(rows.__getitem__, bucket))

        return probe_partial

    # -- memory accounting -------------------------------------------------

    def memory_info(self) -> Dict[str, Any]:
        """Cardinality, probe counts and bytes.  ``estimated_bytes`` is
        real but shallow (``sys.getsizeof``): the row list, the dedup
        dict, and the group-index dicts with their bucket lists — not
        the facts and terms they point to."""
        self._catch_up()
        index_entries = 0
        estimated = sys.getsizeof(self.rows) + sys.getsizeof(self.fact_of)
        for index in self.groups.values():
            estimated += sys.getsizeof(index)
            for bucket in index.values():
                index_entries += len(bucket)
                estimated += sys.getsizeof(bucket)
        return {
            "facts": len(self.fact_of),
            "delta": len(self.frontier()),
            "estimated_bytes": estimated,
            "index_entries": index_entries,
            "backend": self.backend,
            "probes": self.probes,
            "probe_hits": self.probe_hits,
        }


# ---------------------------------------------------------------------------
# Batched plan execution.


class Batch:
    """Parallel columns for the rows surviving a plan prefix.

    ``cols`` maps every bound variable to a list of terms (length
    ``n``); ``premises`` — tracked only when provenance needs them —
    holds one fact column per completed scan step, in plan order.
    """

    __slots__ = ("n", "cols", "premises")

    def __init__(self, n: int, cols: Dict[Variable, list],
                 premises: Optional[List[list]]):
        self.n = n
        self.cols = cols
        self.premises = premises

    @classmethod
    def unit(cls, track_premises: bool) -> "Batch":
        return cls(1, {}, [] if track_premises else None)

    def premises_row(self, i: int) -> Tuple[Fact, ...]:
        if not self.premises:
            return ()
        return tuple([column[i] for column in self.premises])

    def take(self, keep: List[int]) -> "Batch":
        """A new batch holding only the rows at ``keep``."""
        cols = {
            var: list(map(col.__getitem__, keep))
            for var, col in self.cols.items()
        }
        premises = None
        if self.premises is not None:
            premises = [
                list(map(col.__getitem__, keep)) for col in self.premises
            ]
        return Batch(len(keep), cols, premises)


class MaskRecord:
    """One masked batch step: how many rows an eval step dropped
    because the raising expression lies on no complete body match."""

    __slots__ = ("op", "detail", "error", "rows")

    def __init__(self, op: str, detail: str, error: str, rows: int):
        self.op = op
        self.detail = detail
        self.error = error
        self.rows = rows


def _row_completes(rule: Rule, store, batch: Batch, i: int) -> bool:
    """Does batch row ``i`` extend to a complete body match?  True iff
    the positive body joins to completion, agreeing with every variable
    the row binds (scan outputs and assignment targets alike), and
    every negation check passes — the decision between masking a
    raising row and raising its error."""
    positives = [
        lit for lit in rule.body
        if not lit.negated and not lit.atom.is_external
    ]
    negatives = [lit for lit in rule.body if lit.negated]
    positive_vars = {v for lit in positives for v in lit.variables()}

    def negation_ok(substitution: Dict[Variable, Term]) -> bool:
        # Negation sees the positive join only, as in the rule body.
        substitution = {
            v: t for v, t in substitution.items() if v in positive_vars
        }
        for literal in negatives:
            atom = literal.atom
            grounded = atom.substitute(substitution)
            if grounded.is_ground:
                if store.contains(grounded):
                    return False
            else:
                bound = bound_positions(atom, substitution)
                if any(
                    True for _ in store.lookup(atom.predicate, bound)
                ):
                    return False
        return True

    def extend(remaining, substitution) -> bool:
        if not remaining:
            return negation_ok(substitution)
        literal = remaining[0]
        atom = literal.atom
        bound = bound_positions(atom, substitution)
        for fact in store.lookup(atom.predicate, bound):
            extended = match_atom(atom, fact, substitution)
            if extended is None:
                continue
            if extend(remaining[1:], extended):
                return True
        return False

    return extend(
        positives, {var: col[i] for var, col in batch.cols.items()}
    )


def _probe_rows(step, store, batch: Batch, stats, delta_only=False):
    """Each batch row's probe result for ``step``, probing the store
    once per distinct key.  Keys are built column-wise: constants in
    place, bound variables read from their columns (a one-slot key is
    deduplicated on the bare term)."""
    lookup = store.prober(step.predicate, step.key_positions, delta_only)
    n = batch.n
    cols = batch.cols
    if len(step.key_consts) == 1:
        keys = cols[step.key_vars[0][1]]
        single = True
    else:
        parts: List[Iterable] = [
            repeat(const, n) for const in step.key_consts
        ]
        for slot, variable in step.key_vars:
            parts[slot] = cols[variable]
        keys = zip(*parts)
        single = False
    found: Dict[Any, Tuple[Fact, ...]] = {}
    results: List[Tuple[Fact, ...]] = []
    append = results.append
    for key in keys:
        facts = found.get(key)
        if facts is None:
            facts = found[key] = lookup((key,) if single else key)
        append(facts)
    if stats is not None:
        stats.probe_calls += len(found)
        for facts in found.values():
            if facts:
                stats.probe_hits += 1
                stats.rows_scanned += len(facts)
    return results


def _expand_scan(
    step: ScanStep, store, batch: Batch, stats
) -> Batch:
    """Hash-join one positive literal against the whole batch, probing
    once per distinct key."""
    source_rows: List[int] = []
    matched: List[Fact] = []
    if step.key_vars:
        for i, facts in enumerate(
            _probe_rows(step, store, batch, stats, step.delta_only)
        ):
            if not facts:
                continue
            if len(facts) == 1:
                matched.append(facts[0])
                source_rows.append(i)
            else:
                matched.extend(facts)
                source_rows.extend(repeat(i, len(facts)))
    else:
        facts = store.prober(
            step.predicate, step.key_positions, step.delta_only
        )(step.key_consts)
        if stats is not None:
            stats.probe_calls += 1
            if facts:
                stats.probe_hits += 1
                stats.rows_scanned += len(facts)
        if facts:
            if batch.n == 1:
                matched = list(facts)
                source_rows = [0] * len(facts)
            else:
                for i in range(batch.n):
                    matched.extend(facts)
                    source_rows.extend(repeat(i, len(facts)))
    if step.repeats and matched:
        # A repeat is always a later occurrence of one of THIS step's
        # output variables (bound occurrences become key positions),
        # so the equality check stays within the matched fact.
        first_occurrence = {
            variable: position for position, variable in step.outputs
        }
        checks = [
            (position, first_occurrence[variable])
            for position, variable in step.repeats
        ]
        kept_rows: List[int] = []
        kept_facts: List[Fact] = []
        for fact, i in zip(matched, source_rows):
            terms = fact.terms
            ok = True
            for position, out_position in checks:
                if terms[position] != terms[out_position]:
                    ok = False
                    break
            if ok:
                kept_rows.append(i)
                kept_facts.append(fact)
        source_rows = kept_rows
        matched = kept_facts
    # Gather: replicate surviving upstream columns, then bind the
    # step's outputs straight out of the matched facts.
    cols = {
        var: list(map(col.__getitem__, source_rows))
        for var, col in batch.cols.items()
    }
    if step.outputs:
        terms = [fact.terms for fact in matched]
        for position, variable in step.outputs:
            cols[variable] = list(map(itemgetter(position), terms))
    premises = None
    if batch.premises is not None:
        premises = [
            list(map(col.__getitem__, source_rows))
            for col in batch.premises
        ]
        premises.append(matched)
    return Batch(len(matched), cols, premises)


def _evaluate_rows(
    evaluate, rule: Rule, store, batch: Batch
) -> Tuple[List[int], list, int, str]:
    """Evaluate a compiled expression row by row, after its column
    form raised: ``(rows kept, their values, rows masked, first masked
    error)``.  A raising row that extends to a complete body match
    raises its error in place; any other raising row is masked."""
    keep: List[int] = []
    values: list = []
    masked = 0
    first_error = ""
    for i in range(batch.n):
        try:
            value = evaluate(i)
        except Exception as exc:  # noqa: BLE001 — masking decision
            if _row_completes(rule, store, batch, i):
                raise
            masked += 1
            if not first_error:
                first_error = type(exc).__name__
            continue
        keep.append(i)
        values.append(value)
    return keep, values, masked, first_error


def _apply_assign(
    step: AssignStep, rule: Rule, store, batch: Batch,
    masks: Optional[List[MaskRecord]],
) -> Batch:
    evaluator = step.evaluator
    target = step.assignment.target
    cols = batch.cols
    n = batch.n
    masked = 0
    try:
        values = evaluator.terms(cols, n)
        keep = None
    except Exception:  # noqa: BLE001 — decided row by row below
        keep, values, masked, first_error = _evaluate_rows(
            lambda i: evaluator.term_at(cols, n, i), rule, store, batch,
        )
        if masked and masks is not None:
            masks.append(MaskRecord(
                "assign", step.describe(), first_error, masked
            ))
    bound_col = cols.get(target)
    if bound_col is not None:
        # A bound target degrades to an equality filter.
        rows = range(n) if keep is None else keep
        kept = [
            i for i, value in zip(rows, values) if bound_col[i] == value
        ]
        return batch if len(kept) == n else batch.take(kept)
    if keep is not None and len(keep) != n:
        batch = batch.take(keep)
    batch.cols[target] = values
    return batch


def _apply_filter(
    step: FilterStep, rule: Rule, store, batch: Batch,
    masks: Optional[List[MaskRecord]],
) -> Batch:
    evaluator = step.evaluator
    cols = batch.cols
    n = batch.n
    try:
        keep = list(compress(range(n), evaluator.values(cols, n)))
    except Exception:  # noqa: BLE001 — decided row by row below
        rows, truths, masked, first_error = _evaluate_rows(
            lambda i: bool(evaluator.value_at(cols, n, i)),
            rule, store, batch,
        )
        keep = list(compress(rows, truths))
        if masked and masks is not None:
            masks.append(MaskRecord(
                "filter", step.describe(), first_error, masked
            ))
    if len(keep) == n:
        return batch
    return batch.take(keep)


def _apply_negation(
    step: NegationStep, store, batch: Batch, stats
) -> Batch:
    """Keep the rows whose negated atom has no fact, probing the store
    once per distinct key."""
    if step.key_vars:
        keep = [
            i for i, facts in enumerate(
                _probe_rows(step, store, batch, stats)
            )
            if not facts
        ]
    else:
        facts = store.probe(step.predicate, step.key_positions,
                            step.key_consts)
        if stats is not None:
            stats.probe_calls += 1
            if facts:
                stats.probe_hits += 1
                stats.rows_scanned += len(facts)
        if not facts:
            return batch
        keep = []
    if len(keep) == batch.n:
        return batch
    return batch.take(keep)


def absence_holds(steps, store, row) -> bool:
    """Whether ``row`` (a mapping of variables) passes every absence
    check in ``steps`` against the store as it stands: the probe just
    before a row fires, shared by bulk and per-binding firing."""
    for step in steps:
        template = list(step.key_consts)
        for slot, variable in step.key_vars:
            template[slot] = row[variable]
        if store.probe(step.predicate, step.key_positions, tuple(template)):
            return False
    return True


def execute_batch(
    plan: JoinPlan,
    rule: Rule,
    store,
    track_premises: bool = False,
    analysis=None,
    masks: Optional[List[MaskRecord]] = None,
    batch: Optional[Batch] = None,
) -> Batch:
    """Run one compiled plan over the store as a batch pipeline.

    Returns the final batch — one row per complete body match, columns
    for every bound variable (scan outputs plus assignment targets).
    The pipeline starts from ``batch`` when given (rows of variables
    the plan treats as bound on input), else from the one empty row.
    An expression error surfaces or is masked per the module
    docstring.  When ``analysis`` is given (EXPLAIN ANALYZE), per-step
    actuals are recorded batch-wise: ``invocations`` counts rows
    entering the step, ``rows_out`` rows leaving it.
    """
    if batch is None:
        batch = Batch.unit(track_premises)
    if analysis is not None:
        analysis.executions += 1
    for index, step in enumerate(plan.steps):
        stats = None
        started = 0
        if analysis is not None:
            stats = analysis.steps[index]
            stats.invocations += batch.n
            started = perf_counter_ns()
        if type(step) is ScanStep:
            batch = _expand_scan(step, store, batch, stats)
        elif type(step) is AssignStep:
            batch = _apply_assign(step, rule, store, batch, masks)
        elif type(step) is FilterStep:
            batch = _apply_filter(step, rule, store, batch, masks)
        else:
            batch = _apply_negation(step, store, batch, stats)
        if analysis is not None:
            stats.wall_ns += perf_counter_ns() - started
            stats.rows_out += batch.n
        if not batch.n:
            return batch
    if analysis is not None:
        analysis.matches += batch.n
    return batch


class HeadImageCheck:
    """Restricted-chase blocking for one rule application: which
    frontier keys of an existential rule must not fire, decided by the
    rule's :class:`~repro.vadalog.plans.HeadPlan` over whole key
    batches instead of one homomorphism search per binding.

    The keys with a head image when the check is built are blocked.
    The rest fire in the caller's order, and each firing blocks its
    own key (its facts are an image of its own head).  For a head of
    the :func:`~repro.vadalog.plans.own_key_exact` shape that is the
    whole effect of a firing; for any other head, the plan re-runs
    over the keys not yet fired at the next query after a firing.  It
    also re-runs when the head relations grew by anything but this
    application's firings (an external asserting facts), since images
    only ever appear as facts are added.
    """

    __slots__ = (
        "head_plan", "store", "blocked", "clear", "pending", "size",
    )

    def __init__(self, head_plan, store, keys: Iterable[Tuple]):
        self.head_plan = head_plan
        self.store = store
        #: keys with an image (never unblocked: facts are only added).
        self.blocked: Set[Tuple] = set()
        #: keys without an image while the head relations hold
        #: ``size`` facts.
        self.clear: Set[Tuple] = set()
        #: keys not yet fired, in firing order.
        self.pending: Dict[Tuple, None] = dict.fromkeys(keys)
        self.size = 0
        self._decide(self.pending)

    def _decide(self, keys) -> None:
        undecided = [key for key in keys if key not in self.blocked]
        found: Set[Tuple] = set()
        if undecided:
            head_plan = self.head_plan
            frontier = head_plan.frontier
            cols = {
                variable: list(column)
                for variable, column in zip(frontier, zip(*undecided))
            }
            rows = execute_batch(
                head_plan.plan(self.store), head_plan.rule, self.store,
                batch=Batch(len(undecided), cols, None),
            )
            if frontier:
                found = set(zip(*(rows.cols[v] for v in frontier)))
            elif rows.n:
                found = {()}
        self.blocked |= found
        self.clear = set(undecided) - found
        self.size = self._size()

    def _size(self) -> int:
        return sum(map(self.store.count, self.head_plan.predicates))

    def blocks(self, key: Tuple) -> bool:
        """Whether ``key`` has a head image in the store as it stands."""
        if key in self.blocked:
            return True
        if self._size() != self.size:
            self.clear = set()
        if key not in self.clear:
            self._decide(dict.fromkeys((key, *self.pending)))
        return key in self.blocked

    def fired(self, key: Tuple) -> None:
        """Record that ``key`` fired; call after its facts were added."""
        self.blocked.add(key)
        self.pending.pop(key, None)
        self.size = self._size()
        if not self.head_plan.exact:
            self.clear = set()

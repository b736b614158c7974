"""Compiled join plans: the chase engine's query-plan layer.

Every rule is compiled once into reusable execution pipelines, the way
the Vadalog system compiles rules instead of interpreting them tuple by
tuple: one :class:`JoinPlan` per semi-naive delta literal plus a
first-round plan.  A plan is a flat sequence of steps, which
:func:`repro.vadalog.columnar.execute_batch` runs over whole batches of
partial bindings:

* :class:`ScanStep` — probe one positive literal through a composite
  (multi-position) index; the probe layout (which positions form the
  key, which bind new variables, which check repeated variables) is
  fixed at compile time by :func:`~.unification.probe_layout`.
* :class:`AssignStep` / :class:`FilterStep` — assignments and boolean
  conditions *pushed down* to the earliest point where their inputs
  are bound.  This is the plan layer's big win: an assignment target
  that feeds a later literal (``Q = project(VSet, ASet)`` feeding
  ``tupleFreq(Q, F)``) turns that literal's enumeration from a cross
  product filtered afterwards into a single hash probe.
* :class:`NegationStep` — a negation check, scheduled once every
  positively-bindable variable of the negated atom is bound.  Its
  layout deliberately ignores assignment-bound variables: a rule body
  checks negation over its positive join, before assignments run.  A
  stratified check reads the saturated lower strata; an *absence
  check* (a predicate declared ``@operational_negation``) reads the
  live store inside the stratum, and :func:`absence_exact` decides
  whether that application-start read still holds when each row
  fires.

Literal order is fixed up front by a greedy bound-position /
shared-variable / arity heuristic; the delta literal always leads.

An existential rule also compiles its head into a :class:`HeadPlan`:
scan steps over the head atoms with the frontier bound on input, the
restricted chase's image check for a whole batch of bindings.  Its
atom order is picked at run time from the stored relations' sizes.

**Rule semantics.** A body match is a complete positive join that
passes every negation check; assignments then run in rule order, then
conditions in rule order, stopping at the first failure.  The naive
oracle (:mod:`repro.vadalog.reference`) evaluates exactly that.  Plans
keep assignments and conditions in rule order, so the one place they
can differ is a pushed-down expression that raises on a partial
binding the full join would reject; the batch executor decides those
rows (see :mod:`repro.vadalog.columnar`).  A rule with an assignment
that reads variables only an external binds is rejected at
compilation with an :class:`~repro.errors.EvaluationError`.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, \
    Tuple

from ..errors import EvaluationError
from .atoms import Assignment, Atom, Condition, Literal
from .compiled import CompiledExpression
from .rules import Rule
from .terms import Term, Variable
from .unification import probe_layout


class _Step:
    """One plan step; :func:`repro.vadalog.columnar.execute_batch` runs
    it over a whole batch of partial bindings."""

    __slots__ = ()

    def describe(self) -> str:
        raise NotImplementedError

    def explain(self) -> Dict[str, Any]:
        """Static, JSON-serialisable description of this step — the
        shape :func:`repro.telemetry.inspect.render_explain` consumes."""
        return {"op": type(self).__name__, "detail": self.describe()}


class ScanStep(_Step):
    """Probe one positive literal via a composite index."""

    __slots__ = (
        "atom", "predicate", "delta_only",
        "key_positions", "key_consts", "key_vars", "outputs", "repeats",
    )

    def __init__(self, atom: Atom, known: Set[Variable],
                 delta_only: bool = False):
        self.atom = atom
        self.predicate = atom.predicate
        self.delta_only = delta_only
        positions, sources, outputs, repeats = probe_layout(atom, known)
        self.key_positions = positions
        # Split constants from runtime-bound variables once: the probe
        # key template carries constants in place and None where a
        # variable's current value is patched in per call.
        self.key_consts: Tuple = tuple(
            None if isinstance(source, Variable) else source
            for source in sources
        )
        self.key_vars: Tuple[Tuple[int, Variable], ...] = tuple(
            (slot, source)
            for slot, source in enumerate(sources)
            if isinstance(source, Variable)
        )
        self.outputs = outputs
        self.repeats = repeats

    def describe(self) -> str:
        tag = "delta-scan" if self.delta_only else "scan"
        if self.key_positions:
            tag = "delta-probe" if self.delta_only else "probe"
            keys = ",".join(str(p) for p in self.key_positions)
            return f"{tag} {self.atom} [key positions {keys}]"
        return f"{tag} {self.atom}"

    def explain(self) -> Dict[str, Any]:
        return {
            "op": "scan",
            "detail": self.describe(),
            "predicate": self.predicate,
            "delta_only": self.delta_only,
            "key_positions": list(self.key_positions),
            "binds": [v.name for _, v in self.outputs],
        }


class AssignStep(_Step):
    """Evaluate an assignment as soon as its inputs are bound.  A
    bound target degrades to an equality filter."""

    __slots__ = ("assignment", "evaluator")

    def __init__(self, assignment: Assignment):
        self.assignment = assignment
        self.evaluator = CompiledExpression(assignment.expression)

    def describe(self) -> str:
        return f"assign {self.assignment.target.name} = " \
               f"{self.assignment.expression!r}"

    def explain(self) -> Dict[str, Any]:
        return {
            "op": "assign",
            "detail": self.describe(),
            "target": self.assignment.target.name,
        }


class FilterStep(_Step):
    """Check a boolean condition as soon as its variables are bound."""

    __slots__ = ("condition", "evaluator")

    def __init__(self, condition: Condition):
        self.condition = condition
        self.evaluator = CompiledExpression(condition.expression)

    def describe(self) -> str:
        return f"filter {self.condition.expression!r}"

    def explain(self) -> Dict[str, Any]:
        return {"op": "filter", "detail": self.describe()}


class NegationStep(_Step):
    """Negation-as-failure: the batch rows whose key has no fact.

    A stratified check reads the saturated lower strata.  An
    ``operational`` one (an *absence check*) reads the live store of
    its own stratum; the rows it keeps may still have to be probed
    again when they fire (see :func:`absence_exact`).

    The probe layout treats only *positively* bindable variables as
    bound — negation is checked over the positive join, before
    assignments run — so scheduling the check early cannot change its
    outcome (the store is stable during enumeration and the check
    depends only on its own key values).
    """

    __slots__ = ("atom", "predicate", "key_positions", "key_consts",
                 "key_vars", "operational")

    def __init__(self, atom: Atom, positive_vars: Set[Variable],
                 operational: bool = False):
        self.atom = atom
        self.predicate = atom.predicate
        self.operational = operational
        bindable = {
            v for v in atom.variables()
            if not v.is_anonymous and v in positive_vars
        }
        positions, sources, _outputs, _repeats = probe_layout(
            atom, bindable
        )
        self.key_positions = positions
        self.key_consts: Tuple = tuple(
            None if isinstance(source, Variable) else source
            for source in sources
        )
        self.key_vars: Tuple[Tuple[int, Variable], ...] = tuple(
            (slot, source)
            for slot, source in enumerate(sources)
            if isinstance(source, Variable)
        )

    @property
    def op(self) -> str:
        return "absence-check" if self.operational else "negation-check"

    def describe(self) -> str:
        keys = ",".join(str(p) for p in self.key_positions)
        return f"{self.op} not {self.atom} [key positions {keys}]"

    def explain(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "detail": self.describe(),
            "predicate": self.predicate,
            "key_positions": list(self.key_positions),
        }


class JoinPlan:
    """A fixed step sequence for one (rule, delta literal) pair."""

    __slots__ = ("rule", "steps", "delta_index")

    def __init__(self, rule: Rule, steps: Sequence[_Step],
                 delta_index: Optional[int]):
        self.rule = rule
        self.steps = tuple(steps)
        self.delta_index = delta_index

    def describe(self) -> List[str]:
        return [step.describe() for step in self.steps]

    def explain(self) -> List[Dict[str, Any]]:
        return [step.explain() for step in self.steps]


def own_key_exact(atoms: Sequence[Atom], existentials: Set[Variable]) -> bool:
    """Does firing one frontier key create a head image for that key
    only?  True for a head where every atom carries an existential,
    the atoms are connected through shared existentials, and no
    predicate repeats.

    Proof.  Let key ``k`` fire with fresh nulls ``ν`` (one per
    existential ``Z``; fresh means no fact stored before the firing
    carries them), and let ``h`` be an image of the head instantiated
    at another key ``k'`` in the store after the firing.  If ``h``
    uses no fact of this firing, the image existed before it.
    Otherwise some head atom ``a`` maps onto a fired fact ``f``; the
    predicates are distinct, so ``f`` is ``a`` instantiated at ``k``
    and ``ν``.  ``a`` carries an existential ``Z``, so ``h(Z) = ν_Z``.
    Any atom ``b`` sharing ``Z`` maps onto a fact carrying ``ν_Z``;
    only this firing's facts carry it, and only one of them has ``b``'s
    predicate, so ``b`` too maps onto its own instantiation at ``k``.
    Connectivity carries this to every head atom, and a frontier
    position maps onto its own value, so ``k'`` agrees with ``k`` on
    every frontier variable: ``k' = k``.  So a firing blocks its own
    key and leaves every other key's decision unchanged.  ∎

    Without the shape the argument fails: an atom with no existential
    fires a plain fact that can serve other keys, and a repeated
    predicate or a second existential component lets an image mix
    facts of different firings."""
    if len({atom.predicate for atom in atoms}) != len(atoms):
        return False
    per_atom = [set(atom.variables()) & existentials for atom in atoms]
    if not all(per_atom):
        return False
    reached = set(per_atom[0])
    pending = list(range(1, len(per_atom)))
    while pending:
        linked = [i for i in pending if per_atom[i] & reached]
        if not linked:
            return False
        for i in linked:
            reached |= per_atom[i]
            pending.remove(i)
    return True


def absence_exact(rule: Rule, checks: Sequence[NegationStep]) -> bool:
    """Is the application-start read of the rule's absence ``checks``
    still right when each row fires?  True when every head atom on an
    absent predicate carries, at one of that check's key positions, an
    existential variable or a constant other than the check's, and the
    rule is not an aggregate rule writing an absent predicate.

    Proof.  A rule application runs its plans, then fires its rows;
    other rules' applications (aggregate ones included) and the EGD
    pass never run in between, so the store changes only by the
    application's own firings (external atoms could assert anything,
    so a rule with one probes again whatever this predicate says).  An
    aggregate rule's emission replaces facts as well as adding them,
    which the second condition rules out for absent predicates; every
    other firing only adds facts, the head atoms instantiated at its
    binding with fresh nulls for the existentials.  Such a fact ``f``
    from head atom ``h`` matches a row's absence key only if ``f``
    agrees with the key at every key position ``p``.  Where ``h`` has
    an existential at ``p``, ``f`` holds a null drawn after the plans
    ran, while the key holds a constant or a term bound from a fact
    stored before them: no match.  Where ``h`` has a constant other
    than the check's constant at ``p``: no match.  So a key absent
    when the plans ran is absent when its row fires.  ∎

    For SUDA's rule 3, ``not in(A, Z1)`` keys on both positions and
    the head's ``in(A, Z)`` carries the existential ``Z`` at position
    1.  A head writing the absent predicate at body-bound values, as
    in ``p(X, Y), not seen(Y) -> seen(Y)``, is not exact: the first
    row per ``Y`` to fire blocks the rest."""
    existentials = rule.existential_variables()
    for check in checks:
        for atom in rule.head:
            if atom.predicate != check.predicate:
                continue
            if rule.has_aggregates or not any(
                atom.terms[p] in existentials
                or (
                    not isinstance(atom.terms[p], Variable)
                    and not isinstance(check.atom.terms[p], Variable)
                    and atom.terms[p] != check.atom.terms[p]
                )
                for p in check.key_positions
            ):
                return False
    return True


class HeadPlan:
    """The restricted-chase image check of one existential rule,
    compiled once per rule: :meth:`plan` lays the head atoms out as
    scan steps with the frontier variables bound on input.

    Run over a batch of frontier keys (see
    :class:`repro.vadalog.columnar.HeadImageCheck`), the plan's output
    rows are exactly the keys whose head conjunction has a homomorphic
    image: existentials bind to any stored term, consistently across
    atoms; frontier values and constants are matched exactly.  The
    atom order is picked at run time, since the best order depends on
    how the head relations have grown."""

    __slots__ = ("rule", "existentials", "atoms", "predicates",
                 "frontier", "exact")

    def __init__(self, rule: Rule):
        self.rule = rule
        #: The rule's existential variables (fresh nulls are drawn in
        #: this set's iteration order).
        self.existentials = existentials = rule.existential_variables()
        # Anonymous existentials are still existentials: named, their
        # repeated occurrences must bind consistently, as in the
        # restricted chase's homomorphism.
        named = {
            v: Variable("?" + v.name)
            for v in existentials if v.is_anonymous
        }
        self.atoms = tuple(atom.substitute(named) for atom in rule.head)
        #: The head's distinct predicates: the relations images live in.
        self.predicates = tuple(dict.fromkeys(a.predicate for a in self.atoms))
        #: Non-existential head variables in name order: the column
        #: order of the frontier keys the check decides.
        self.frontier: Tuple[Variable, ...] = tuple(sorted(
            rule.head_variables() - existentials, key=lambda v: v.name
        ))
        #: Whether a firing blocks exactly its own key
        #: (:func:`own_key_exact`).
        self.exact = own_key_exact(
            self.atoms, (existentials - set(named)) | set(named.values())
        )

    def key(self, bindings) -> Tuple:
        """The frontier key of one binding (a mapping of variables;
        None where it leaves a frontier variable unbound)."""
        return tuple(bindings.get(v) for v in self.frontier)

    def plan(self, store) -> JoinPlan:
        """The join plan for the store as it stands.  Each next atom is
        the one whose probe hits the smallest groups on average (facts
        per distinct key of the composite index it would probe), ties
        in head order."""
        known = set(self.frontier)
        remaining = list(self.atoms)
        steps = []
        while remaining:
            # min keeps the first of equal costs: ties go in head order.
            atom = min(remaining, key=lambda atom: store.average_group_size(
                atom.predicate, probe_layout(atom, known)[0]
            ))
            remaining.remove(atom)
            steps.append(ScanStep(atom, known))
            known.update(atom.variables())
        return JoinPlan(self.rule, steps, None)


class HeadProjector:
    """One head atom as a projection of batch columns: each position
    reads a variable's column or holds a constant.

    ``ground`` is decided once per rule: whether every variable of the
    atom is one the firing path binds.  A projector that is ground by
    construction yields ground term tuples, so firing skips the
    per-fact ground check; one that is not cannot project, and firing
    raises on the first row that reaches it."""

    __slots__ = ("atom", "predicate", "ground")

    def __init__(self, atom: Atom, bound: Set[Variable]):
        self.atom = atom
        self.predicate = atom.predicate
        self.ground = all(
            term in bound for term in atom.terms
            if isinstance(term, Variable)
        )

    def parts(self, cols: Dict[Variable, list], n: int) -> List[Sequence]:
        """Per position, the ``n`` row values: a variable's column, or
        the constant repeated."""
        return [
            cols[term] if isinstance(term, Variable) else [term] * n
            for term in self.atom.terms
        ]

    def project(
        self, cols: Dict[Variable, list], n: int
    ) -> List[Tuple[Term, ...]]:
        """The atom's term tuple for each of ``n`` rows."""
        if not self.atom.terms:
            return [()] * n
        return list(zip(*self.parts(cols, n)))


class RulePlans:
    """All compiled plans for one rule: a first-round plan plus one
    delta plan per positive body literal, the head plan of an
    existential rule, the head projectors and aggregate contributions
    firing evaluates over the batch columns, and the rule facts the
    engine reads per application."""

    __slots__ = (
        "rule", "first_round", "delta_plans", "has_positives", "binds",
        "deferred", "head_plan", "absence_recheck", "heads",
        "contributions",
    )

    def __init__(self, rule, first_round, delta_plans, has_positives,
                 binds, deferred, head_plan=None, absence_recheck=(),
                 heads=(), contributions=()):
        self.rule = rule
        self.first_round = first_round
        #: ``(literal_index, predicate, plan)`` triples.
        self.delta_plans = delta_plans
        self.has_positives = has_positives
        #: Every variable a plan binds (non-anonymous positive-body
        #: variables plus assignment targets) in name order: the column
        #: order of binding dedup keys.
        self.binds = binds
        #: Conditions checked after external expansion.
        self.deferred = deferred
        #: :class:`HeadPlan` of an existential rule, else None.
        self.head_plan = head_plan
        #: Absence checks each row is probed against again just before
        #: it fires: the rule's operational negations, unless
        #: :func:`absence_exact` holds and the rule has no externals.
        self.absence_recheck = absence_recheck
        #: One :class:`HeadProjector` per head atom, in head order.
        self.heads = heads
        #: Per aggregate, its compiled contribution argument (None for
        #: an implicit ``mcount`` contribution of 1).
        self.contributions = contributions

    def describe(self) -> Dict[str, List[str]]:
        return {name: plan.describe() for name, plan in self.named_plans()}

    def named_plans(self) -> List[Tuple[str, "JoinPlan"]]:
        """``(name, plan)`` pairs in execution order (first-round plan
        first) — the iteration order every explain consumer shares."""
        named = [("first-round", self.first_round)]
        for index, predicate, plan in self.delta_plans:
            named.append((f"delta[{index}:{predicate}]", plan))
        return named

    def explain(self) -> Dict[str, Any]:
        """Structured, JSON-serialisable description of every plan."""
        return {
            "plans": [
                {"name": name, "steps": plan.explain()}
                for name, plan in self.named_plans()
            ]
        }


def deferred_conditions(rule: Rule) -> List[Condition]:
    """Conditions mentioning variables bound only by externals — they
    run after external expansion, never inside a plan."""
    regular_vars: Set[Variable] = set()
    for lit in rule.body:
        if not lit.atom.is_external:
            regular_vars.update(lit.variables())
    regular_vars.update(a.target for a in rule.assignments)
    regular_vars.update(agg.target for agg in rule.aggregates)
    deferred = []
    for condition in rule.conditions:
        if any(v not in regular_vars for v in condition.variables()):
            deferred.append(condition)
    return deferred


def _order_score(literal: Literal, known: Set[Variable]):
    """Greedy static join-order key (higher is better): bound
    positions first, then shared-variable connectivity, then smaller
    arity (fewer fresh bindings per matched fact)."""
    atom = literal.atom
    bound = 0
    shared = set()
    for term in atom.terms:
        if isinstance(term, Variable):
            if not term.is_anonymous and term in known:
                bound += 1
                shared.add(term)
        else:
            bound += 1
    return (bound, len(shared), -atom.arity)


def _build_plan(
    rule: Rule,
    positives: List[Literal],
    negatives: List[Literal],
    assignments: List[Assignment],
    conditions: List[Condition],
    positive_vars: Set[Variable],
    delta_index: Optional[int],
    operational: FrozenSet[str],
) -> JoinPlan:
    steps: List[_Step] = []
    known: Set[Variable] = set()
    known_positive: Set[Variable] = set()
    pending_assignments = list(assignments)
    pending_conditions = list(conditions)
    pending_negatives = list(negatives)

    def flush():
        """Schedule whatever just became evaluable.

        Ordering here is a fidelity constraint, not a style choice.
        A rule evaluates assignments in rule order, then conditions in
        rule order, stopping at the first failure — so a later
        expression's error is *suppressed* by an earlier failure.  To
        keep that error behaviour we only ever pop assignments and
        conditions from the front of their queues (rule order), and a
        condition may not run before the assignment queue has
        drained.  Negation
        checks are pure store probes over positively-bound variables:
        they cannot raise and their outcome is fixed by their key
        values, so they schedule freely (an absence check too: the
        store does not change while the plan runs).
        """
        changed = True
        while changed:
            changed = False
            for literal in list(pending_negatives):
                needed = {
                    v for v in literal.variables()
                    if not v.is_anonymous and v in positive_vars
                }
                if needed <= known_positive:
                    steps.append(NegationStep(
                        literal.atom, known_positive,
                        literal.atom.predicate in operational,
                    ))
                    pending_negatives.remove(literal)
                    changed = True
            while pending_assignments and all(
                v in known
                for v in pending_assignments[0].input_variables()
            ):
                assignment = pending_assignments.pop(0)
                steps.append(AssignStep(assignment))
                known.add(assignment.target)
                changed = True
            while (
                not pending_assignments
                and pending_conditions
                and all(
                    v in known
                    for v in pending_conditions[0].variables()
                )
            ):
                steps.append(FilterStep(pending_conditions.pop(0)))
                changed = True

    remaining = list(enumerate(positives))
    flush()  # constant-only conditions / input-free assignments
    first = True
    while remaining:
        if first and delta_index is not None:
            choice = next(
                entry for entry in remaining if entry[0] == delta_index
            )
        else:
            choice = max(
                remaining,
                key=lambda entry: (_order_score(entry[1], known),
                                   -entry[0]),
            )
        remaining.remove(choice)
        index, literal = choice
        steps.append(ScanStep(
            literal.atom, known,
            delta_only=(delta_index is not None and index == delta_index),
        ))
        fresh = {
            v for v in literal.variables() if not v.is_anonymous
        }
        known.update(fresh)
        known_positive.update(fresh)
        flush()
        first = False

    flush()
    assert not pending_negatives, "negation left unscheduled"
    assert not pending_assignments, "assignment left unscheduled"
    assert not pending_conditions, "condition left unscheduled"
    return JoinPlan(rule, steps, delta_index)


def compile_rule_plans(
    rule: Rule, operational: FrozenSet[str] = frozenset()
) -> RulePlans:
    """Compile one rule into its first-round and per-delta plans.
    Negations of ``operational`` predicates become absence checks."""
    positives = [
        lit for lit in rule.body
        if not lit.negated and not lit.atom.is_external
    ]
    negatives = [lit for lit in rule.body if lit.negated]
    aggregate_targets = {agg.target for agg in rule.aggregates}
    deferred = {id(c) for c in deferred_conditions(rule)}
    plan_conditions = [
        condition for condition in rule.conditions
        if id(condition) not in deferred
        and not (set(condition.variables()) & aggregate_targets)
    ]
    positive_vars: Set[Variable] = set()
    for literal in positives:
        positive_vars.update(
            v for v in literal.variables() if not v.is_anonymous
        )

    # An assignment must read only variables that regular atoms or
    # earlier assignments bind; externals run after the plan.
    available = set(positive_vars)
    for assignment in rule.assignments:
        if any(v not in available for v in assignment.input_variables()):
            raise EvaluationError(
                f"assignment to {assignment.target.name} in rule "
                f"{rule.label or rule} depends on external-only "
                "variables; bind them with regular atoms instead"
            )
        available.add(assignment.target)

    def build(delta_index):
        return _build_plan(
            rule, positives, negatives, list(rule.assignments),
            plan_conditions, positive_vars, delta_index, operational,
        )

    absence = [
        NegationStep(literal.atom, positive_vars, operational=True)
        for literal in negatives
        if literal.atom.predicate in operational
    ]
    has_externals = any(lit.atom.is_external for lit in rule.body)
    if not has_externals and absence_exact(rule, absence):
        absence = []
    # What firing binds: the plans' columns, then fresh nulls for the
    # existentials and the aggregate targets.
    bound = available | rule.existential_variables() | {
        agg.target for agg in rule.aggregates
    }

    return RulePlans(
        rule,
        build(None),
        [
            (index, literal.atom.predicate, build(index))
            for index, literal in enumerate(positives)
        ],
        has_positives=bool(positives),
        binds=sorted(available, key=lambda v: v.name),
        deferred=deferred_conditions(rule),
        head_plan=(
            HeadPlan(rule) if rule.existential_variables() else None
        ),
        absence_recheck=tuple(absence),
        heads=tuple(HeadProjector(atom, bound) for atom in rule.head),
        contributions=tuple(
            None if agg.argument is None
            else CompiledExpression(agg.argument)
            for agg in rule.aggregates
        ),
    )

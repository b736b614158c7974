"""Rules: existential rules (TGDs), EGDs and aggregate specifications.

A Vadalog rule is a first-order sentence
``forall x,y (phi(x, y) -> exists z psi(x, z))`` where *phi* (the body)
and *psi* (the head) are conjunctions of atoms.  Following the Vadalog
convention, existential quantification is implicit: any head variable
that does not occur in the body is existentially quantified and the
chase satisfies it with a fresh labelled null.

Bodies may also carry negated literals (stratified), boolean conditions,
assignments and *monotonic aggregations* (Section 4.3 of the paper):
``R = msum(W, <I>)`` sums ``W`` over the bindings of the group defined
by the remaining head variables, keyed by contributor ``I`` — per
contributor only the "best" (monotone-direction) contribution counts,
which is exactly the mechanism that lets more-anonymized versions of a
tuple replace earlier ones during the anonymization cycle.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import SafetyError
from .atoms import Assignment, Atom, Condition, Literal
from .expressions import Expression
from .terms import Term, Variable


#: The monotonic aggregate functions; how each combines repeated
#: contributions is defined in :mod:`repro.vadalog.aggregates`.
AGGREGATE_FUNCTIONS = frozenset(
    {"msum", "mcount", "mprod", "mmin", "mmax", "munion"}
)


class AggregateSpec:
    """An aggregate assignment ``target = func(argument, <contributors>)``.

    ``argument`` is an expression evaluated per body binding;
    ``contributors`` is the tuple of variables identifying the
    contributor (``<I>`` in the paper's notation).  The group key is
    determined by the rule head: every head variable other than
    ``target``.
    """

    __slots__ = ("target", "function", "argument", "contributors")

    def __init__(
        self,
        target: Variable,
        function: str,
        argument: Optional[Expression],
        contributors: Sequence[Variable],
    ):
        if function not in AGGREGATE_FUNCTIONS:
            raise SafetyError(f"unknown aggregate function {function!r}")
        if function != "mcount" and argument is None:
            raise SafetyError(f"{function} requires an argument expression")
        self.target = target
        self.function = function
        self.argument = argument
        self.contributors = tuple(contributors)

    def variables(self):
        yield self.target
        if self.argument is not None:
            yield from self.argument.variables()
        yield from self.contributors

    def __repr__(self):
        contrib = ", ".join(v.name for v in self.contributors)
        return (
            f"AggregateSpec({self.target.name} = {self.function}"
            f"(..., <{contrib}>))"
        )


class Rule:
    """An existential rule (TGD) with optional conditions, assignments,
    negation and at most a handful of aggregates."""

    def __init__(
        self,
        head: Sequence[Atom],
        body: Sequence[Literal],
        conditions: Sequence[Condition] = (),
        assignments: Sequence[Assignment] = (),
        aggregates: Sequence[AggregateSpec] = (),
        label: Optional[str] = None,
        declared_existentials: Sequence[Variable] = (),
        line: Optional[int] = None,
        column: Optional[int] = None,
        validate: bool = True,
    ):
        if not head:
            raise SafetyError("rule must have at least one head atom")
        self.head = tuple(head)
        self.body = tuple(body)
        self.conditions = tuple(conditions)
        self.assignments = tuple(assignments)
        self.aggregates = tuple(aggregates)
        self.label = label
        #: Variables the author *explicitly* marked existential with an
        #: ``exists(...)`` prefix.  Semantics are unchanged (existentials
        #: stay implicit, per the Vadalog convention) — the analyzer uses
        #: this to warn about undeclared existentials (VDL002).
        self.declared_existentials = frozenset(declared_existentials)
        #: 1-based source location of the rule's first token when parsed.
        self.line = line
        self.column = column
        if validate:
            self._validate()

    # -- static structure ------------------------------------------------

    def positive_body(self) -> List[Literal]:
        return [lit for lit in self.body if not lit.negated]

    def negative_body(self) -> List[Literal]:
        return [lit for lit in self.body if lit.negated]

    def body_predicates(self) -> Set[str]:
        return {lit.atom.predicate for lit in self.body}

    def head_predicates(self) -> Set[str]:
        return {atom.predicate for atom in self.head}

    def body_variables(self) -> Set[Variable]:
        found: Set[Variable] = set()
        for lit in self.body:
            found.update(lit.variables())
        return found

    def derived_variables(self) -> Set[Variable]:
        """Variables bound by assignments or aggregates (not by atoms)."""
        found = {a.target for a in self.assignments}
        found.update(agg.target for agg in self.aggregates)
        return found

    def head_variables(self) -> Set[Variable]:
        found: Set[Variable] = set()
        for atom in self.head:
            found.update(atom.variables())
        return found

    def frontier(self) -> Set[Variable]:
        """Variables shared between body and head (the rule frontier)."""
        return self.body_variables() & self.head_variables()

    def existential_variables(self) -> Set[Variable]:
        """Head variables bound neither in the body nor by assignments
        or aggregates — satisfied with fresh labelled nulls."""
        bound = self.body_variables() | self.derived_variables()
        return {v for v in self.head_variables() if v not in bound}

    @property
    def has_aggregates(self) -> bool:
        return bool(self.aggregates)

    # -- safety ----------------------------------------------------------

    def _validate(self) -> None:
        positive_vars: Set[Variable] = set()
        for lit in self.positive_body():
            positive_vars.update(lit.variables())
        available = set(positive_vars)
        for assignment in self.assignments:
            missing = [
                v
                for v in assignment.input_variables()
                if v not in available
            ]
            if missing:
                names = ", ".join(v.name for v in missing)
                raise SafetyError(
                    f"assignment to {assignment.target.name} uses unbound "
                    f"variable(s) {names} in rule {self.label or self}"
                )
            available.add(assignment.target)
        for agg in self.aggregates:
            if agg.argument is not None:
                missing = [
                    v
                    for v in agg.argument.variables()
                    if v not in available
                ]
                if missing:
                    names = ", ".join(v.name for v in missing)
                    raise SafetyError(
                        f"aggregate {agg.function} uses unbound "
                        f"variable(s) {names}"
                    )
            for contributor in agg.contributors:
                if contributor not in available:
                    raise SafetyError(
                        f"aggregate contributor {contributor.name} "
                        "is unbound"
                    )
            available.add(agg.target)
        for lit in self.negative_body():
            for var in lit.variables():
                if var not in available and not var.is_anonymous:
                    raise SafetyError(
                        f"negated literal {lit} uses variable "
                        f"{var.name} not bound positively"
                    )
        for condition in self.conditions:
            for var in condition.variables():
                if var not in available:
                    raise SafetyError(
                        f"condition uses unbound variable {var.name}"
                    )

    def __repr__(self):
        body = ", ".join(str(lit) for lit in self.body)
        head = ", ".join(str(atom) for atom in self.head)
        tag = f"[{self.label}] " if self.label else ""
        return f"{tag}{head} :- {body}."

    __str__ = __repr__


class EGD:
    """An equality-generating dependency:
    ``phi(x) -> x_i = x_j`` (Rule 4 of Algorithm 1).

    When the chase finds a body match binding the two sides to different
    terms it must either unify them (if at least one is a labelled null)
    or report a *violation* for human inspection (both constants).
    """

    def __init__(
        self,
        body: Sequence[Literal],
        equalities: Sequence[Tuple[Variable, Variable]],
        label: Optional[str] = None,
        line: Optional[int] = None,
        column: Optional[int] = None,
    ):
        if not equalities:
            raise SafetyError("EGD must equate at least one variable pair")
        self.body = tuple(body)
        self.equalities = tuple(equalities)
        self.label = label
        self.line = line
        self.column = column
        body_vars: Set[Variable] = set()
        for lit in self.body:
            if not lit.negated:
                body_vars.update(lit.variables())
        for left, right in self.equalities:
            if left not in body_vars or right not in body_vars:
                raise SafetyError(
                    "EGD equality variables must occur in the positive body"
                )

    def __repr__(self):
        body = ", ".join(str(lit) for lit in self.body)
        eqs = ", ".join(f"{a.name} = {b.name}" for a, b in self.equalities)
        tag = f"[{self.label}] " if self.label else ""
        return f"{tag}{eqs} :- {body}."

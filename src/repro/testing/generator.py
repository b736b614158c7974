"""Random warded-program generation, after iWarded.

iWarded ("iWarded: A System for Benchmarking Datalog+/- Reasoning")
generates warded Datalog± scenarios by controlling the *join structure*
of rules: linear rules, harmless joins (join variables that can never
bind a labelled null) and harmful joins (join variables at affected
positions).  This module grows random programs in that spirit, with
knobs for every feature the chase supports:

* linear vs join rules (``p_linear``, ``max_body_atoms``);
* existential heads — the source of labelled nulls, and hence of
  harmful joins downstream (``p_existential``, ``p_multi_head``);
* stratified negation, safe and stratifiable **by construction**: a
  rule deriving ``p_i`` may only negate EDB predicates or ``p_j`` with
  ``j < i``, so negative edges always point up the predicate order;
* monotonic aggregates on dedicated head predicates
  (``p_aggregate``), optionally with post-aggregate conditions;
* EGDs (functional dependencies over a binary-or-wider predicate);
* inequality/equality conditions between bound variables;
* assignment rules (``p_assignment``, off by default): an assignment
  literal — arithmetic, a division whose divisor can be zero, or a
  ``case`` — that raises on some rows (string constants in
  arithmetic, zero divisors), so the batch executor's masking and
  in-place raising meet the oracle's interpreter.  Their heads are
  predicates no rule reads, so computed values cannot recurse;
* confidentiality seeding (``p_identifier_seed``): one EDB position
  is declared ``@category(..., "identifier")`` and filled with unique
  sentinel constants, and every derived predicate is ``@output`` — the
  substrate for the static-vs-dynamic leakage cross-check.

Wardedness is guaranteed by *pruning*: after generation the program is
checked with the engine's own :func:`~repro.vadalog.wardedness.
check_wardedness` analysis and violating rules are dropped until the
report is clean (wardedness is a whole-program property, so this loops
to a fixpoint).

The generator draws every decision from a caller-supplied ``rng``
(anything exposing ``random``/``randint``/``choice``), which makes it
replayable from a seed *and* shrinkable when driven by hypothesis's
``st.randoms()``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import StratificationError
from ..vadalog.atoms import Annotation, Assignment, Atom, Condition, \
    Literal
from ..vadalog.expressions import BinOp, Case, Expression, Lit, VarRef
from ..vadalog.negation import stratify
from ..vadalog.program import Program
from ..vadalog.rules import AggregateSpec, Rule
from ..vadalog.terms import Constant, Variable
from ..vadalog.wardedness import check_wardedness


@dataclass
class GeneratorConfig:
    """Knobs for one generated program/database pair.

    The defaults produce small, feature-dense programs that both
    evaluators finish in milliseconds — the conformance smoke lane runs
    hundreds of them per invocation.
    """

    n_edb: int = 3
    n_idb: int = 4
    min_arity: int = 1
    max_arity: int = 3
    constants: Tuple = ("a", "b", "c", 1, 2)
    min_facts: int = 3
    max_facts: int = 12
    min_rules: int = 2
    max_rules: int = 6
    max_body_atoms: int = 3
    #: Probability of a single-atom (linear, in iWarded's sense) body.
    p_linear: float = 0.4
    #: Probability a non-aggregate rule gets existential head variables.
    p_existential: float = 0.3
    #: Probability an existential rule has a two-atom head sharing the
    #: existential (the joint-homomorphism corner).
    p_multi_head: float = 0.2
    p_negation: float = 0.25
    p_condition: float = 0.2
    #: Probability a non-aggregate rule gets an assignment literal
    #: binding a fresh variable (which the head and conditions may
    #: then use).  At 0 no draw is made, so the default mix generates
    #: the same programs with or without this knob.
    p_assignment: float = 0.0
    p_aggregate: float = 0.2
    #: Probability a generated aggregate gets a post-aggregate
    #: threshold condition.
    p_aggregate_condition: float = 0.3
    max_egds: int = 2
    p_egd: float = 0.35
    #: Probability the program gets confidentiality seeding: one EDB
    #: position is declared ``@category(..., "identifier")`` and filled
    #: with unique sentinel constants, and every derived predicate is
    #: declared ``@output`` — so the conformance harness can cross-check
    #: the static VDL070 verdict against the dynamic disclosure oracle
    #: (:mod:`repro.attack.disclosure`).
    p_identifier_seed: float = 0.85

    def to_dict(self) -> Dict:
        data = asdict(self)
        data["constants"] = list(self.constants)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "GeneratorConfig":
        data = dict(data)
        if "constants" in data:
            data["constants"] = tuple(data["constants"])
        return cls(**data)


#: A fixed pool of variable names; joins arise from drawing the same
#: variable for several positions.
_VAR_POOL = [Variable(name) for name in ("X", "Y", "Z", "U", "V", "W")]


class _Generation:
    """One generation run: predicate pools, rules, facts."""

    def __init__(self, rng, config: GeneratorConfig):
        self.rng = rng
        self.config = config
        self.arities: Dict[str, int] = {}
        self.edb: List[str] = []
        self.idb: List[str] = []
        #: Aggregate head predicates are exclusive to their one rule
        #: (functional emission assumes a single producer).
        self.aggregate_preds: List[str] = []
        for index in range(config.n_edb):
            name = f"e{index}"
            self.edb.append(name)
            self.arities[name] = rng.randint(
                config.min_arity, config.max_arity
            )
        for index in range(config.n_idb):
            name = f"p{index}"
            self.idb.append(name)
            self.arities[name] = rng.randint(
                config.min_arity, config.max_arity
            )
        #: (predicate, position) carrying unique sentinel identifiers,
        #: or ``None`` when the program is generated unseeded.
        self.identifier_position: Optional[Tuple[str, int]] = None
        self._sentinel_count = 0
        if rng.random() < config.p_identifier_seed:
            predicate = rng.choice(self.edb)
            self.identifier_position = (
                predicate,
                rng.randint(0, self.arities[predicate] - 1),
            )

    # -- small draws ----------------------------------------------------

    def constant(self) -> Constant:
        return Constant(self.rng.choice(list(self.config.constants)))

    def _body_atom(
        self, pool: Sequence[str], bound: List[Variable]
    ) -> Atom:
        predicate = self.rng.choice(list(pool))
        terms = []
        for _ in range(self.arities[predicate]):
            roll = self.rng.random()
            if roll < 0.15:
                terms.append(self.constant())
            elif bound and roll < 0.6:
                terms.append(self.rng.choice(bound))
            else:
                variable = self.rng.choice(_VAR_POOL)
                terms.append(variable)
        for term in terms:
            if isinstance(term, Variable) and term not in bound:
                bound.append(term)
        return Atom(predicate, tuple(terms))

    # -- rule generation -------------------------------------------------

    def rule(self, rule_no: int) -> Rule:
        rng = self.rng
        config = self.config
        if rng.random() < config.p_linear:
            n_body = 1
        else:
            n_body = rng.randint(2, config.max_body_atoms)
        body_pool = self.edb + self.idb + self.aggregate_preds
        bound: List[Variable] = []
        body = [
            Literal(self._body_atom(body_pool, bound))
            for _ in range(n_body)
        ]

        if rng.random() < config.p_aggregate:
            return self._aggregate_rule(rule_no, body, bound)
        if (config.p_assignment and bound
                and rng.random() < config.p_assignment):
            return self._assignment_rule(rule_no, body, bound)

        head_index = rng.randint(0, len(self.idb) - 1)
        head_pred = self.idb[head_index]

        # Negation: only strictly-lower predicates, so stratification
        # holds by construction; all negated variables are body-bound.
        if rng.random() < config.p_negation:
            negatable = self.edb + self.idb[:head_index]
            if negatable:
                predicate = rng.choice(negatable)
                terms = tuple(
                    rng.choice(bound) if bound and rng.random() < 0.8
                    else self.constant()
                    for _ in range(self.arities[predicate])
                )
                body.append(Literal(Atom(predicate, terms), negated=True))

        conditions = []
        if len(bound) >= 2 and rng.random() < config.p_condition:
            left, right = rng.choice(bound), rng.choice(bound)
            if left != right:
                op = "!=" if rng.random() < 0.8 else "=="
                conditions.append(
                    Condition(BinOp(op, VarRef(left), VarRef(right)))
                )

        existentials: List[Variable] = []
        if rng.random() < config.p_existential:
            existentials = [
                Variable(f"E{index}")
                for index in range(rng.randint(1, 2))
            ]

        head_terms = []
        for _ in range(self.arities[head_pred]):
            roll = rng.random()
            if existentials and roll < 0.45:
                head_terms.append(rng.choice(existentials))
            elif bound and roll < 0.9:
                head_terms.append(rng.choice(bound))
            else:
                head_terms.append(self.constant())
        head = [Atom(head_pred, tuple(head_terms))]

        used_existentials = [v for v in existentials if v in head_terms]
        if used_existentials and rng.random() < config.p_multi_head:
            other = rng.choice(self.idb)
            extra_terms = []
            for _ in range(self.arities[other]):
                roll = rng.random()
                if roll < 0.5:
                    extra_terms.append(rng.choice(used_existentials))
                elif bound and roll < 0.9:
                    extra_terms.append(rng.choice(bound))
                else:
                    extra_terms.append(self.constant())
            head.append(Atom(other, tuple(extra_terms)))

        return Rule(
            head,
            body,
            conditions=conditions,
            label=f"r{rule_no}",
            declared_existentials=used_existentials,
        )

    def _assignment_rule(
        self, rule_no: int, body: List[Literal], bound: List[Variable]
    ) -> Rule:
        """A rule computing ``A0`` from its body into a predicate of its
        own that no rule reads, so computed values never feed back into
        a body and the chase stays finite.  It may negate an EDB atom
        and test ``A0`` in a condition, so masking meets both."""
        rng = self.rng
        config = self.config
        target = Variable("A0")
        assignment = Assignment(target, self._expression(bound))
        if rng.random() < config.p_negation:
            predicate = rng.choice(self.edb)
            terms = tuple(
                rng.choice(bound) if rng.random() < 0.8
                else self.constant()
                for _ in range(self.arities[predicate])
            )
            body.append(Literal(Atom(predicate, terms), negated=True))
        conditions = []
        if rng.random() < config.p_condition:
            conditions.append(Condition(
                BinOp("!=", VarRef(target), Lit(rng.randint(0, 1)))
            ))
        kept = [v for v in bound if rng.random() < 0.5][:2]
        predicate = f"asg{rule_no}"
        self.arities[predicate] = len(kept) + 1
        return Rule(
            [Atom(predicate, tuple(kept) + (target,))],
            body,
            conditions=conditions,
            assignments=[assignment],
            label=f"r{rule_no}",
        )

    def _expression(self, bound: List[Variable]) -> Expression:
        """An assignment expression over bound variables.  Every shape
        that can fail raises ``EvaluationError`` (type errors, a zero
        divisor), so a program failing on several rows fails with the
        same error type whichever row the engine or the oracle reaches
        first."""
        rng = self.rng
        x = VarRef(rng.choice(bound))
        y = VarRef(rng.choice(bound))
        small = Lit(rng.randint(1, 2))
        shape = rng.randint(0, 4)
        if shape == 0:
            # Arithmetic: raises on string or null operands.
            return BinOp(rng.choice(["+", "-", "*"]), x, y)
        if shape == 1:
            # The divisor is zero whenever Y holds the literal.
            return BinOp("/", Lit(6), BinOp("-", y, small))
        if shape == 2:
            return BinOp("%", x, Lit(2))
        if shape == 3:
            return Case(BinOp("==", x, Lit(self.constant().value)),
                        Lit(1), y)
        # A raising branch taken only on some rows: X == k divides by
        # zero, other values take the safe branch.
        return Case(BinOp("==", x, small),
                    BinOp("/", Lit(6), BinOp("-", x, small)), Lit(0))

    def _aggregate_rule(
        self, rule_no: int, body: List[Literal], bound: List[Variable]
    ) -> Rule:
        rng = self.rng
        config = self.config
        target = Variable("AGG")
        function = rng.choice(["mcount", "msum", "mmax", "mmin"])
        if function == "mcount":
            argument = None
        elif not bound or rng.random() < 0.5:
            argument = Lit(rng.randint(1, 3))
        else:
            argument = VarRef(rng.choice(bound))
        contributors: List[Variable] = []
        if bound:
            contributors = [
                rng.choice(bound)
                for _ in range(rng.randint(1, min(2, len(bound))))
            ]
        if not contributors:
            # Degenerate all-constant body: aggregates need at least
            # one bound contributor, so give the first atom a variable.
            filler = _VAR_POOL[0]
            first = body[0].atom
            new_terms = (filler,) + first.terms[1:]
            body[0] = Literal(Atom(first.predicate, new_terms))
            bound.append(filler)
            contributors = [filler]
        group = [
            v for v in bound
            if v not in contributors and rng.random() < 0.4
        ][:2]
        predicate = f"agg{rule_no}"
        self.arities[predicate] = len(group) + 1
        self.aggregate_preds.append(predicate)
        head = [Atom(predicate, tuple(group) + (target,))]
        conditions = []
        if rng.random() < config.p_aggregate_condition:
            conditions.append(
                Condition(BinOp(">", VarRef(target), Lit(1)))
            )
        return Rule(
            head,
            body,
            conditions=conditions,
            aggregates=[
                AggregateSpec(target, function, argument, contributors)
            ],
            label=f"r{rule_no}",
        )

    # -- EGDs and facts ---------------------------------------------------

    def egds(self):
        from ..vadalog.rules import EGD

        rng = self.rng
        candidates = [
            name
            for name in self.edb + self.idb
            if self.arities[name] >= 2
        ]
        egds = []
        for index in range(self.config.max_egds):
            if not candidates or rng.random() >= self.config.p_egd:
                continue
            predicate = rng.choice(candidates)
            arity = self.arities[predicate]
            key = rng.randint(0, arity - 1)
            dependent = rng.choice(
                [i for i in range(arity) if i != key]
            )
            left_terms = []
            right_terms = []
            equalities = []
            shared = Variable("K")
            for position in range(arity):
                if position == key:
                    left_terms.append(shared)
                    right_terms.append(shared)
                elif position == dependent:
                    left, right = Variable("D1"), Variable("D2")
                    left_terms.append(left)
                    right_terms.append(right)
                    equalities.append((left, right))
                else:
                    left_terms.append(Variable(f"L{position}"))
                    right_terms.append(Variable(f"R{position}"))
            egds.append(
                EGD(
                    [
                        Literal(Atom(predicate, tuple(left_terms))),
                        Literal(Atom(predicate, tuple(right_terms))),
                    ],
                    equalities,
                    label=f"fd{index}_{predicate}",
                )
            )
        return egds

    def facts(self) -> List[Atom]:
        rng = self.rng
        count = rng.randint(self.config.min_facts, self.config.max_facts)
        facts = []
        for _ in range(count):
            predicate = rng.choice(self.edb)
            terms = []
            for index in range(self.arities[predicate]):
                if (predicate, index) == self.identifier_position:
                    # Unique sentinels: never drawn from the shared
                    # constant pool, so one surfacing in an @output
                    # fact is unambiguously a flow from this position.
                    self._sentinel_count += 1
                    terms.append(Constant(f"id!{self._sentinel_count}"))
                else:
                    terms.append(self.constant())
            facts.append(Atom(predicate, tuple(terms)))
        return facts

    def annotations(self, rules: Sequence[Rule]) -> List[Annotation]:
        """Sensitivity/output declarations for the surviving rules."""
        annotations: List[Annotation] = []
        if self.identifier_position is not None:
            predicate, index = self.identifier_position
            annotations.append(
                Annotation("category", (predicate, index, "identifier"))
            )
        derived = sorted(
            {
                predicate
                for rule in rules
                for predicate in rule.head_predicates()
            }
        )
        annotations.extend(
            Annotation("output", (predicate,)) for predicate in derived
        )
        return annotations


def generate_program(
    rng, config: Optional[GeneratorConfig] = None
) -> Program:
    """Generate one warded, stratifiable program with its fact base."""
    config = config or GeneratorConfig()
    generation = _Generation(rng, config)
    n_rules = rng.randint(config.min_rules, config.max_rules)
    rules = [generation.rule(number) for number in range(n_rules)]

    # Prune to wardedness: affected positions are a whole-program
    # fixpoint, so dropping one rule can heal (or expose) others.
    while rules:
        report = check_wardedness(rules)
        if report.is_warded:
            break
        offender = report.violations()[0].rule
        rules = [rule for rule in rules if rule is not offender]

    # Negation is stratifiable by construction; keep the check as a
    # belt-and-braces guard against generator drift.
    while True:
        try:
            stratify(rules)
            break
        except StratificationError:
            rules = [
                rule for rule in rules if not rule.negative_body()
            ]

    if not rules:
        fallback_pred = generation.idb[0]
        source = generation.edb[0]
        width = min(
            generation.arities[fallback_pred], generation.arities[source]
        )
        variables = [Variable(f"X{i}") for i in range(width)]
        body_terms = list(variables) + [
            Variable(f"_a{i}")
            for i in range(generation.arities[source] - width)
        ]
        head_terms = list(variables) + [
            Constant(config.constants[0])
            for _ in range(generation.arities[fallback_pred] - width)
        ]
        rules = [
            Rule(
                [Atom(fallback_pred, tuple(head_terms))],
                [Literal(Atom(source, tuple(body_terms)))],
                label="r_fallback",
            )
        ]

    return Program(
        rules=rules,
        egds=generation.egds(),
        facts=generation.facts(),
        annotations=generation.annotations(rules),
        name="generated",
    )

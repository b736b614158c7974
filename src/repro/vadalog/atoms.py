"""Atoms, facts and body literals.

An *atom* is ``R(t1, ..., tn)`` for a predicate ``R`` and terms ``ti``.
A ground atom is a *fact*.  Rule bodies additionally contain negated
literals (``not R(...)``, under stratified negation), boolean conditions
and assignments over expressions, and calls to ``#``-prefixed external
predicates (the plug-in mechanism behind ``#risk`` / ``#anonymize``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

from .expressions import Expression
from .terms import Term, Variable, wrap_tuple


class Atom:
    """A relational atom ``predicate(terms...)``.

    Predicates whose name starts with ``#`` are external: they are not
    stored in the fact store but resolved through the external-predicate
    registry at evaluation time.
    """

    __slots__ = ("predicate", "terms", "_hash", "_ground", "line", "column")

    def __init__(
        self,
        predicate: str,
        terms: Iterable[Term],
        line: Optional[int] = None,
        column: Optional[int] = None,
    ):
        self.predicate = predicate
        self.terms = tuple(terms)
        self._hash = hash((self.predicate, self.terms))
        self._ground = None
        #: 1-based source location of the predicate token when the atom
        #: came from the parser; ``None`` for programmatic atoms.
        #: Excluded from equality/hashing — two occurrences of the same
        #: fact are the same fact wherever they were written.
        self.line = line
        self.column = column

    @classmethod
    def ground(cls, predicate: str, terms: Tuple[Term, ...]) -> "Atom":
        """The fact ``predicate(terms)`` for a tuple of ground terms the
        caller vouches for: no copy of ``terms``, no ground check."""
        atom = cls.__new__(cls)
        atom.predicate = predicate
        atom.terms = terms
        atom._hash = hash((predicate, terms))
        atom._ground = True
        atom.line = None
        atom.column = None
        return atom

    @classmethod
    def of(cls, predicate: str, *values) -> "Atom":
        """Build an atom wrapping plain Python values into constants."""
        return cls(predicate, wrap_tuple(values))

    @property
    def arity(self) -> int:
        return len(self.terms)

    @property
    def is_external(self) -> bool:
        return self.predicate.startswith("#")

    @property
    def is_ground(self) -> bool:
        cached = self._ground
        if cached is None:
            cached = self._ground = all(t.is_ground for t in self.terms)
        return cached

    def variables(self) -> Iterator[Variable]:
        for term in self.terms:
            if isinstance(term, Variable):
                yield term

    def substitute(self, bindings) -> "Atom":
        """Apply a substitution, leaving unbound variables in place."""
        new_terms = tuple(
            bindings.get(t, t) if isinstance(t, Variable) else t
            for t in self.terms
        )
        return Atom(self.predicate, new_terms)

    def __eq__(self, other):
        return (
            isinstance(other, Atom)
            and self.predicate == other.predicate
            and self.terms == other.terms
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Atom({self.predicate!r}, {list(self.terms)!r})"

    def __str__(self):
        args = ", ".join(str(t) for t in self.terms)
        return f"{self.predicate}({args})"


#: A fact is simply a ground atom; the alias documents intent.
Fact = Atom


class Literal:
    """A body literal: an atom, possibly negated."""

    __slots__ = ("atom", "negated")

    def __init__(self, atom: Atom, negated: bool = False):
        self.atom = atom
        self.negated = negated

    def variables(self) -> Iterator[Variable]:
        return self.atom.variables()

    def __eq__(self, other):
        return (
            isinstance(other, Literal)
            and self.atom == other.atom
            and self.negated == other.negated
        )

    def __hash__(self):
        return hash((self.atom, self.negated))

    def __repr__(self):
        prefix = "not " if self.negated else ""
        return f"Literal({prefix}{self.atom})"

    def __str__(self):
        prefix = "not " if self.negated else ""
        return f"{prefix}{self.atom}"


class Condition:
    """A boolean expression that filters body bindings (``R > T``)."""

    __slots__ = ("expression", "line", "column")

    def __init__(
        self,
        expression: Expression,
        line: Optional[int] = None,
        column: Optional[int] = None,
    ):
        self.expression = expression
        self.line = line
        self.column = column

    def variables(self) -> Iterator[Variable]:
        return self.expression.variables()

    def holds(self, bindings) -> bool:
        return bool(self.expression.evaluate(bindings))

    def __repr__(self):
        return f"Condition({self.expression!r})"


class Assignment:
    """An assignment ``X = <expr>`` binding a new variable from bound
    ones.  Distinct from a :class:`Condition` on equality: the target
    variable must be unbound when the assignment is reached."""

    __slots__ = ("target", "expression", "line", "column")

    def __init__(
        self,
        target: Variable,
        expression: Expression,
        line: Optional[int] = None,
        column: Optional[int] = None,
    ):
        self.target = target
        self.expression = expression
        self.line = line
        self.column = column

    def variables(self) -> Iterator[Variable]:
        yield self.target
        yield from self.expression.variables()

    def input_variables(self) -> Iterator[Variable]:
        return self.expression.variables()

    def __repr__(self):
        return f"Assignment({self.target.name} = {self.expression!r})"


class Annotation(tuple):
    """A program annotation ``@name(args...).`` with its source span.

    Subclasses ``tuple`` so existing consumers that unpack annotations
    as ``(name, args)`` pairs keep working unchanged, while span-aware
    code (the flow analysis, SARIF output) reads ``.line``/``.column``.
    Programmatically built annotations may omit the span.
    """

    def __new__(
        cls,
        name: str,
        args: Iterable = (),
        line: Optional[int] = None,
        column: Optional[int] = None,
    ):
        self = super().__new__(cls, (name, tuple(args)))
        self.line = line
        self.column = column
        return self

    @property
    def name(self) -> str:
        return self[0]

    @property
    def args(self) -> Tuple:
        return self[1]

    def __repr__(self):
        rendered = ", ".join(repr(arg) for arg in self.args)
        return f"Annotation(@{self.name}({rendered}))"


def project(atom: Atom, positions: Iterable[int]) -> Tuple[Term, ...]:
    """Project an atom's terms onto the given positions."""
    return tuple(atom.terms[i] for i in positions)

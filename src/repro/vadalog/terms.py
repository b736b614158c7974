"""Term model for the Vadalog engine.

Vadalog (and Datalog± generally) works over three disjoint countably
infinite sets: constants **C**, labelled nulls **N**, and variables **V**
(Section 2.1 of the paper).  This module provides the corresponding Python
types plus a couple of helpers used throughout the engine:

* :class:`Constant` — wraps an arbitrary hashable Python value.
* :class:`Variable` — a named logical variable; names starting with an
  underscore are anonymous ("don't care") variables.
* :class:`LabelledNull` — a fresh symbol invented by the chase when an
  existentially quantified head variable must be satisfied.  Nulls carry a
  monotonically increasing label so ⊥1, ⊥2, ... are distinguishable, which
  the *standard* null semantics relies on (Section 5.1, Fig. 7c).

Terms are immutable and hashable so they can live in fact tuples and in
dict-based indices.
"""

from __future__ import annotations

import itertools
import threading
from operator import itemgetter
from typing import Any, Tuple, Union


class Term:
    """Abstract base class for all terms."""

    __slots__ = ()

    @property
    def is_constant(self) -> bool:
        return isinstance(self, Constant)

    @property
    def is_variable(self) -> bool:
        return isinstance(self, Variable)

    @property
    def is_null(self) -> bool:
        return isinstance(self, LabelledNull)

    @property
    def is_ground(self) -> bool:
        """A term is ground when it contains no variables.  Labelled
        nulls *are* ground: they denote (unknown) domain elements."""
        return not isinstance(self, Variable)


class Constant(Term, tuple):
    """A constant wrapping an arbitrary hashable Python value.

    A constant is the 1-tuple of its value, so hashing and equality
    run in C wherever a tuple of terms meets a dict or a set: ``Constant(1) == Constant(1.0) == Constant(True)`` with equal
    hashes, exactly as their values compare.  It also equals the plain
    1-tuple ``(value,)``, which the engine never compares with a term;
    it never equals a :class:`LabelledNull` or a :class:`Variable`.
    """

    __slots__ = ()

    def __new__(cls, value: Any):
        return tuple.__new__(cls, (value,))

    #: The wrapped Python value.
    value = property(itemgetter(0))

    def __getnewargs__(self):
        # ``tuple.__getnewargs__`` would hand ``(value,)`` to ``__new__``
        # and wrap it once more on unpickling or copying.
        return (self[0],)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Constant is immutable")

    def __repr__(self):
        return f"Constant({self.value!r})"

    def __str__(self):
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return value_text(self.value)


def value_text(value: Any) -> str:
    """``str(value)``, except that a set prints its elements sorted by
    their text, so the same set prints the same under any hash seed."""
    if not isinstance(value, frozenset) or not value:
        return str(value)
    return "frozenset({%s})" % ", ".join(sorted(
        value_text(element) if isinstance(element, frozenset)
        else repr(element)
        for element in value
    ))


class Variable(Term):
    """A regular (universally quantified, unless head-only) variable."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if not name:
            raise ValueError("variable name must be non-empty")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("var", name)))

    def __setattr__(self, name, value):
        raise AttributeError("Variable is immutable")

    @property
    def is_anonymous(self) -> bool:
        return self.name.startswith("_")

    def __eq__(self, other):
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Variable({self.name!r})"

    def __str__(self):
        return self.name


class LabelledNull(Term):
    """A labelled null ⊥n invented by the chase (or by local suppression,
    Algorithm 7).  Two nulls are equal iff they carry the same label."""

    __slots__ = ("label", "_hash")

    def __init__(self, label: int):
        object.__setattr__(self, "label", int(label))
        object.__setattr__(self, "_hash", hash(("null", self.label)))

    def __setattr__(self, name, value):
        raise AttributeError("LabelledNull is immutable")

    def __eq__(self, other):
        return isinstance(other, LabelledNull) and self.label == other.label

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"LabelledNull({self.label})"

    def __str__(self):
        return f"⊥{self.label}"


class NullFactory:
    """Thread-safe generator of fresh labelled nulls.

    The engine holds one factory per evaluation so labels restart at 1
    for every reasoning task — matching how the paper counts "injected
    nulls" per anonymization run.
    """

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)
        self._lock = threading.Lock()
        self._issued = 0

    def fresh(self) -> LabelledNull:
        with self._lock:
            self._issued += 1
            return LabelledNull(next(self._counter))

    @property
    def issued(self) -> int:
        """Number of nulls handed out so far (the Fig. 7a/7c metric)."""
        return self._issued


#: Python values accepted where a term is expected by the wrapping helpers.
TermLike = Union[Term, str, int, float, bool, tuple, frozenset, None]


def wrap(value: TermLike) -> Term:
    """Coerce a Python value into a :class:`Term`.

    Terms pass through unchanged; everything else becomes a
    :class:`Constant`.  ``None`` is *not* a null — it wraps to
    ``Constant(None)``; labelled nulls must be created explicitly via a
    :class:`NullFactory` so that injections are counted.
    """
    if isinstance(value, Term):
        return value
    return Constant(value)


def unwrap(term: Term) -> Any:
    """Return the Python value under a constant, the null itself for a
    labelled null, and raise for variables (which have no value)."""
    if isinstance(term, Constant):
        return term.value
    if isinstance(term, LabelledNull):
        return term
    raise ValueError(f"cannot unwrap non-ground term {term!r}")


def wrap_tuple(values) -> Tuple[Term, ...]:
    """Wrap every element of an iterable into a term tuple."""
    return tuple(wrap(v) for v in values)


def unwrap_tuple(terms) -> Tuple[Any, ...]:
    """Unwrap every element of a ground term tuple into Python values."""
    return tuple(unwrap(t) for t in terms)

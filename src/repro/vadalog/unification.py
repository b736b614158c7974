"""Matching and homomorphism utilities.

The chase needs two operations:

* **matching** a body atom (with variables) against a ground fact,
  extending a substitution;
* **homomorphism checking** — does a (possibly null-carrying) head
  instantiation already have a homomorphic image in the store?  The
  *restricted* chase only fires an existential rule when the answer is
  no, which is the standard termination device for warded programs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, \
    Tuple

from .atoms import Atom, Fact
from .terms import LabelledNull, Term, Variable

if TYPE_CHECKING:
    # Annotations only: the store imports the batch executor, which
    # imports this module.
    from .database import FactStore

#: A substitution maps variables to ground terms.
Substitution = Dict[Variable, Term]


def match_atom(
    atom: Atom, fact: Fact, bindings: Substitution
) -> Optional[Substitution]:
    """Try to extend ``bindings`` so that ``atom`` maps onto ``fact``.

    Returns the extended substitution, or None when the match fails.
    The input substitution is never mutated.
    """
    if atom.predicate != fact.predicate or atom.arity != fact.arity:
        return None
    extended: Optional[Substitution] = None
    for pattern, value in zip(atom.terms, fact.terms):
        if isinstance(pattern, Variable):
            if pattern.is_anonymous:
                continue
            bound = (extended or bindings).get(pattern)
            if bound is None:
                if extended is None:
                    extended = dict(bindings)
                extended[pattern] = value
            elif bound != value:
                return None
        elif pattern != value:
            return None
    if extended is None:
        extended = dict(bindings)
    return extended


def bound_positions(atom: Atom, bindings: Substitution) -> Dict[int, Term]:
    """Positions of ``atom`` whose value is already determined by the
    current substitution (or is a constant) — used for index lookups."""
    determined: Dict[int, Term] = {}
    for position, term in enumerate(atom.terms):
        if isinstance(term, Variable):
            value = bindings.get(term)
            if value is not None:
                determined[position] = value
        else:
            determined[position] = term
    return determined


def probe_layout(atom: Atom, known: Iterable[Variable]):
    """Static split of an atom's positions for a compiled plan step.

    Given the set of variables guaranteed bound *before* the step runs,
    classify every position once, at compile time, instead of
    re-deriving :func:`bound_positions` per partial binding:

    * ``key_positions`` / ``key_sources`` — positions probed through a
      (composite) index; each source is either a constant :class:`Term`
      or an already-bound :class:`Variable` to read from the
      substitution at run time;
    * ``outputs`` — ``(position, variable)`` pairs the step binds (the
      first occurrence of each new variable);
    * ``repeats`` — later occurrences of an output variable within the
      same atom, checked for equality against the freshly bound value.

    Anonymous variables constrain nothing and appear nowhere.
    """
    known = set(known)
    key_positions: List[int] = []
    key_sources: list = []
    outputs: List[Tuple[int, Variable]] = []
    repeats: List[Tuple[int, Variable]] = []
    fresh: set = set()
    for position, term in enumerate(atom.terms):
        if isinstance(term, Variable):
            if term.is_anonymous:
                continue
            if term in known:
                key_positions.append(position)
                key_sources.append(term)
            elif term in fresh:
                repeats.append((position, term))
            else:
                fresh.add(term)
                outputs.append((position, term))
        else:
            key_positions.append(position)
            key_sources.append(term)
    return (
        tuple(key_positions),
        tuple(key_sources),
        tuple(outputs),
        tuple(repeats),
    )


def is_homomorphic_image(
    atom: Fact,
    store: FactStore,
    mappable: Optional[set] = None,
    null_to_null: bool = False,
) -> bool:
    """Check whether a ground, possibly null-carrying atom has a
    homomorphic image among the stored facts.

    A homomorphism may map each *mappable* labelled null of ``atom`` to
    any term, consistently; constants must map to themselves.
    ``mappable=None`` means every null is mappable.  With
    ``null_to_null=True`` the remaining (body-bound) nulls become
    *soft*: they may map to any labelled null, consistently — the
    isomorphic-pattern blocking Vadalog uses to terminate recursive
    existentials.
    """
    return conjunction_has_image([atom], store, mappable, null_to_null)


def conjunction_has_image(
    atoms: Iterable[Fact],
    store: FactStore,
    mappable: Optional[set] = None,
    null_to_null: bool = False,
) -> bool:
    """Check whether a conjunction of ground head atoms has a *joint*
    homomorphic image (mappable nulls mapped consistently across
    atoms; other terms fixed, or — with ``null_to_null`` — body nulls
    mapped to nulls).

    Used when an existential rule has multiple head atoms sharing an
    existential variable (e.g. Rule 2 of Algorithm 6:
    ``exists Z Comb(Z, I), In(A, Z)``).
    """
    atoms = list(atoms)
    if len(atoms) == 1 and store.contains(atoms[0]):
        return True
    return _joint_image_search(atoms, store, {}, 0, mappable, null_to_null)


def _joint_image_search(
    atoms: List[Fact],
    store: FactStore,
    mapping: Dict[LabelledNull, Term],
    index: int,
    mappable: Optional[set],
    null_to_null: bool,
) -> bool:
    if index == len(atoms):
        return True
    atom = atoms[index]
    fixed: Dict[int, Term] = {}
    # position -> (null, nulls_only constraint)
    open_positions: List[Tuple[int, LabelledNull, bool]] = []
    for position, term in enumerate(atom.terms):
        if isinstance(term, LabelledNull):
            fully_mappable = mappable is None or term in mappable
            soft = null_to_null and not fully_mappable
            if fully_mappable or soft:
                image = mapping.get(term)
                if image is not None:
                    fixed[position] = image
                else:
                    open_positions.append((position, term, soft))
                continue
        fixed[position] = term
    for candidate in store.lookup(atom.predicate, fixed):
        extension: Dict[LabelledNull, Term] = {}
        compatible = True
        for position, null, soft in open_positions:
            value = candidate.terms[position]
            if soft and not isinstance(value, LabelledNull):
                compatible = False
                break
            prior = extension.get(null)
            if prior is None:
                extension[null] = value
            elif prior != value:
                compatible = False
                break
        if not compatible:
            continue
        mapping.update(extension)
        if _joint_image_search(
            atoms, store, mapping, index + 1, mappable, null_to_null
        ):
            return True
        for null in extension:
            mapping.pop(null, None)
    return False

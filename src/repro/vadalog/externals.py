"""External predicate registry — the ``#`` plug-in mechanism.

The paper's Algorithm 2 calls ``#risk(I, R)`` and ``#anonymize(I)``:
"atoms defined in external libraries".  We model an external predicate
as a Python callable invoked during body evaluation:

* it receives the *input* terms (those bound by the current
  substitution) as plain Python values,
* it returns an iterable of output tuples for the unbound positions —
  empty meaning "no match", several meaning multiple bindings,
* side-effecting externals (like ``#anonymize``) may also inject new
  facts through the :class:`ExternalContext` handle they receive.

This is exactly the escape hatch the authors use to plug an
"off-the-shelf statistical library" for the negative-binomial sampling
in Section 5.2.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import UnknownExternalError
from .terms import Constant, Term, Variable, unwrap, wrap


class ExternalContext:
    """Handle passed to external predicates for controlled side effects."""

    def __init__(self, store, null_factory):
        self.store = store
        self.null_factory = null_factory

    def fresh_null(self):
        return self.null_factory.fresh()

    def assert_fact(self, predicate: str, *values) -> None:
        from .atoms import Atom

        self.store.add(Atom(predicate, tuple(wrap(v) for v in values)))


#: An external implementation takes (context, input values by position)
#: and yields full argument tuples (Python values) consistent with them.
ExternalImpl = Callable[..., Iterable[Tuple[Any, ...]]]


class ExternalRegistry:
    """Named registry of external predicates."""

    def __init__(self):
        self._externals: Dict[str, ExternalImpl] = {}

    def register(self, name: str, impl: ExternalImpl) -> None:
        """Register an external under ``name`` (without the ``#``)."""
        self._externals[name.lstrip("#")] = impl

    def unregister(self, name: str) -> None:
        self._externals.pop(name.lstrip("#"), None)

    def __contains__(self, name: str) -> bool:
        return name.lstrip("#") in self._externals

    def copy(self) -> "ExternalRegistry":
        clone = ExternalRegistry()
        clone._externals.update(self._externals)
        return clone

    def evaluate(
        self,
        name: str,
        args: Sequence[Term],
        bindings,
        context: ExternalContext,
    ):
        """Evaluate ``#name(args)`` under the current substitution.

        Yields extended substitutions, one per output tuple produced by
        the external implementation.
        """
        impl = self._externals.get(name.lstrip("#"))
        if impl is None:
            raise UnknownExternalError(
                f"external predicate #{name.lstrip('#')} is not registered"
            )
        resolved: List[Optional[Any]] = []
        open_positions: List[int] = []
        for position, term in enumerate(args):
            if isinstance(term, Variable):
                bound = bindings.get(term)
                if bound is None:
                    resolved.append(None)
                    open_positions.append(position)
                else:
                    resolved.append(unwrap(bound))
            else:
                resolved.append(unwrap(term))
        for output in impl(context, *resolved):
            if output is None:
                continue
            if not isinstance(output, tuple) or isinstance(output, Term):
                output = (output,)
            if len(output) != len(args):
                raise UnknownExternalError(
                    f"external #{name.lstrip('#')} returned a tuple of "
                    f"arity {len(output)}, expected {len(args)}"
                )
            extended = dict(bindings)
            compatible = True
            for position, term in enumerate(args):
                value = wrap(output[position])
                if isinstance(term, Variable):
                    prior = extended.get(term)
                    if prior is None:
                        extended[term] = value
                    elif prior != value:
                        compatible = False
                        break
                elif term != value and unwrap(term) != output[position]:
                    compatible = False
                    break
            if compatible:
                yield extended


def boolean_external(func: Callable[..., bool]) -> ExternalImpl:
    """Adapt a boolean Python function into an external predicate: when
    the function returns truthy the input tuple itself is echoed back
    (one match), otherwise there is no match."""

    def impl(context, *values):
        if func(*values):
            yield tuple(values)

    return impl


def tabular_external(
    func: Callable[..., Iterable[Tuple[Any, ...]]]
) -> ExternalImpl:
    """Adapt a function producing full output tuples (ignoring the
    context handle) into an external predicate."""

    def impl(context, *values):
        yield from func(*values)

    return impl

"""Expressions compiled to evaluators over batch columns.

The batch executor (:mod:`repro.vadalog.columnar`) evaluates every
pushed-down assignment, filter condition and aggregate contribution
over whole columns of terms.  :class:`CompiledExpression` turns an
:class:`~repro.vadalog.expressions.Expression` tree into Python source
once, at plan compile time: one expression text per tree, wrapped into

* a *column* function — a list comprehension over the zipped input
  columns, the fast path for a whole batch; and
* a *row* function — the same expression text for one row index, run
  under ``try`` only when the column function raised, to find which
  rows raise.

Both functions share one expression text, so a row's value and error
are the same whichever of the two computes it, and the column function
raises the error of the first raising row.  The text follows the tree
interpreter's semantics operator by operator (variables unwrap
constants and pass labelled nulls through; a labelled null operand
only compares with ``==``/``!=``; type errors and builtin failures are
wrapped into :class:`~repro.errors.EvaluationError` with the same
messages; ``case`` evaluates only the branch it takes; both operands
of ``&&``/``||`` are evaluated).  The naive oracle keeps
:meth:`Expression.evaluate`, so the differential harnesses compare
two implementations.

Generated source names only the compiler's own identifiers: literal
values, variables and builtin names reach it through the function's
globals, never through their text.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Any, Callable, Dict, List, Tuple

from ..errors import EvaluationError
from .expressions import (
    SCALAR_FUNCTIONS,
    BinOp,
    Case,
    Expression,
    FuncCall,
    Lit,
    TupleExpr,
    UnaryOp,
    VarRef,
)
from .terms import Constant, LabelledNull, Term, Variable, unwrap


def _term_value(term, variable: Variable):
    """The value a variable reference reads from a term that is not a
    plain :class:`Constant` (the generated code inlines that case)."""
    if term is None:
        raise EvaluationError(f"variable {variable} is unbound in expression")
    if isinstance(term, LabelledNull):
        return term
    return unwrap(term)


def _divide(left, right):
    if right == 0:
        raise EvaluationError("division by zero in rule expression")
    return left / right


_OPERATORS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "%": operator.mod,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "&&": lambda left, right: bool(left) and bool(right),
    "||": lambda left, right: bool(left) or bool(right),
    "in": lambda left, right: left in right,
}


def _binary(op: str) -> Callable[[Any, Any], Any]:
    """The checked application of one binary operator."""
    apply = _OPERATORS[op]

    def binary(left, right):
        if isinstance(left, LabelledNull) or isinstance(right, LabelledNull):
            if op == "==":
                return left == right
            if op == "!=":
                return left != right
            raise EvaluationError(
                f"cannot apply {op!r} to labelled null operand"
            )
        try:
            return apply(left, right)
        except TypeError as exc:
            raise EvaluationError(
                f"type error evaluating {left!r} {op} {right!r}: {exc}"
            ) from exc

    return binary


_BINARY = {op: _binary(op) for op in _OPERATORS}


def _unknown(name: str):
    raise EvaluationError(f"unknown scalar function {name!r}")


def _call(func, name: str, *values):
    try:
        return func(*values)
    except EvaluationError:
        raise
    except Exception as exc:  # surface builtin failures with context
        raise EvaluationError(
            f"error in builtin {name}({list(values)!r}): {exc}"
        ) from exc


@lru_cache(maxsize=1024)
def _code(source: str):
    """Python source compiled once per text.  The text depends only on
    the tree's shape (values reach it through the namespace), so every
    engine compiling the same rules reuses the code objects."""
    return compile(source, "<compiled expression>", "exec")


#: Tree depth at which a subtree becomes a helper function of its own:
#: Python's parser caps the nesting of one expression at 200
#: parentheses.
_MAX_DEPTH = 40


class _Codegen:
    """Translate one expression tree into a Python expression text."""

    def __init__(self):
        self.namespace: Dict[str, Any] = {
            "_K": Constant,
            "_T": Term,
            "_tv": _term_value,
            "_call": _call,
            "_unknown": _unknown,
        }
        #: input variables in first-occurrence order (row slot i reads
        #: ``x{i}``).
        self.variables: List[Variable] = []
        #: builtin names in first-occurrence order (resolved per
        #: evaluation as parameter ``f{i}``).
        self.functions: List[str] = []
        #: source of the helper functions deep subtrees were hoisted to.
        self.helpers: List[str] = []

    def _bind(self, prefix: str, value: Any) -> str:
        name = f"{prefix}{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def _hoist(self, node: Expression) -> str:
        """Compile a deep subtree as a helper function and call it with
        every row slot and builtin bound so far (a superset of what the
        subtree reads, all in scope at the call site)."""
        body = self.text(node)
        params = ", ".join(
            [f"x{i}" for i in range(len(self.variables))]
            + [f"f{i}" for i in range(len(self.functions))]
        )
        name = f"_h{len(self.helpers)}"
        self.helpers.append(f"def {name}({params}):\n    return {body}\n")
        return f"{name}({params})"

    def text(self, node: Expression, depth: int = 0) -> str:
        if depth >= _MAX_DEPTH:
            return self._hoist(node)
        depth += 1
        kind = type(node)
        if kind is Lit:
            return self._bind("_l", node.value)
        if kind is VarRef:
            variable = node.variable
            if variable not in self.variables:
                self.variables.append(variable)
            slot = f"x{self.variables.index(variable)}"
            name = self._bind("_v", variable)
            return f"({slot}.value if {slot}.__class__ is _K " \
                   f"else _tv({slot}, {name}))"
        if kind is BinOp:
            helper = self._bind("_b", _BINARY[node.op])
            return f"{helper}({self.text(node.left, depth)}, " \
                   f"{self.text(node.right, depth)})"
        if kind is UnaryOp:
            operand = self.text(node.operand, depth)
            if node.op == "-":
                return f"(-{operand})"
            return f"(not {operand})"
        if kind is Case:
            return f"({self.text(node.then_value, depth)} " \
                   f"if {self.text(node.condition, depth)} " \
                   f"else {self.text(node.else_value, depth)})"
        if kind is TupleExpr:
            return "(" + "".join(
                f"{self.text(item, depth)}, " for item in node.items
            ) + ")"
        if kind is FuncCall:
            if node.name not in self.functions:
                self.functions.append(node.name)
            func = f"f{self.functions.index(node.name)}"
            name = self._bind("_n", node.name)
            args = "".join(f", {self.text(arg, depth)}" for arg in node.args)
            # The name is resolved before any argument is evaluated.
            return f"_call({func} if {func} is not None " \
                   f"else _unknown({name}), {name}{args})"
        raise EvaluationError(
            f"cannot compile expression node {type(node).__name__}"
        )


class CompiledExpression:
    """One expression compiled to column and row evaluators.

    ``values``/``value_at`` yield what :meth:`Expression.evaluate`
    yields; ``terms``/``term_at`` what
    :func:`~repro.vadalog.expressions.evaluate_to_term` yields.  The
    column forms raise the first raising row's error; the row forms
    decide one row."""

    __slots__ = ("expression", "variables", "functions",
                 "_values", "_terms", "_value_at", "_term_at")

    def __init__(self, expression: Expression):
        self.expression = expression
        codegen = _Codegen()
        text = codegen.text(expression)
        self.variables: Tuple[Variable, ...] = tuple(codegen.variables)
        self.functions: Tuple[str, ...] = tuple(codegen.functions)
        slots = [f"x{i}" for i in range(len(self.variables))]
        columns = [f"c{i}" for i in range(len(self.variables))]
        funcs = [f"f{i}" for i in range(len(self.functions))]
        params = ", ".join(columns + funcs + ["n"])
        wrapped = f"(_w if isinstance(_w := {text}, _T) else _K(_w))"
        if not slots:
            loop = "for _ in range(n)"
        elif len(slots) == 1:
            loop = "for x0 in c0"
        else:
            loop = f"for {', '.join(slots)} in zip({', '.join(columns)})"
        row_params = ", ".join(columns + funcs + ["i"])
        fetch = "".join(f"    {s} = {c}[i]\n" for s, c in zip(slots, columns))
        source = (
            f"def values({params}):\n    return [{text} {loop}]\n"
            f"def terms({params}):\n    return [{wrapped} {loop}]\n"
            f"def value_at({row_params}):\n{fetch}    return {text}\n"
            f"def term_at({row_params}):\n{fetch}    return {wrapped}\n"
        )
        namespace = codegen.namespace
        for helper in codegen.helpers:
            exec(_code(helper), namespace)
        exec(_code(source), namespace)
        self._values = namespace["values"]
        self._terms = namespace["terms"]
        self._value_at = namespace["value_at"]
        self._term_at = namespace["term_at"]

    def _arguments(self, cols: Dict[Variable, list], n: int) -> list:
        arguments = []
        for variable in self.variables:
            column = cols.get(variable)
            # An unbound variable reads None, which raises per row.
            arguments.append([None] * n if column is None else column)
        # Builtins resolve per evaluation, so registering one takes
        # effect without recompiling.
        arguments.extend(SCALAR_FUNCTIONS.get(name) for name in self.functions)
        return arguments

    def values(self, cols: Dict[Variable, list], n: int) -> list:
        return self._values(*self._arguments(cols, n), n)

    def terms(self, cols: Dict[Variable, list], n: int) -> List[Term]:
        return self._terms(*self._arguments(cols, n), n)

    def value_at(self, cols: Dict[Variable, list], n: int, i: int):
        return self._value_at(*self._arguments(cols, n), i)

    def term_at(self, cols: Dict[Variable, list], n: int, i: int) -> Term:
        return self._term_at(*self._arguments(cols, n), i)

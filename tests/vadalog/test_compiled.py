"""Compiled column evaluators against the tree interpreter.

:mod:`repro.vadalog.compiled` turns assignment, condition and
aggregate-contribution expressions into evaluators over batch columns.
These properties pin them to :meth:`Expression.evaluate` (which the
naive oracle keeps): the same value on every row, an error on exactly
the same rows with the same type and message, and — through the batch
steps — the same surviving rows and ``MaskRecord``s as evaluating row
by row with the interpreter.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.vadalog.atoms import Assignment, Atom, Condition, Literal
from repro.vadalog.columnar import Batch, _apply_assign, _apply_filter, \
    _row_completes
from repro.vadalog.compiled import CompiledExpression
from repro.vadalog.database import FactStore
from repro.vadalog.expressions import (
    BinOp,
    Case,
    FuncCall,
    Lit,
    TupleExpr,
    VarRef,
    evaluate_to_term,
)
from repro.vadalog.plans import AssignStep, FilterStep
from repro.vadalog.rules import Rule
from repro.vadalog.terms import Constant, LabelledNull, Variable

X, Y, VSET, ASET, NAME = (
    Variable(name) for name in ("X", "Y", "VSet", "ASet", "A")
)
VARIABLES = (X, Y, VSET, ASET, NAME)

#: Scalars that exercise every operator's failure modes: zero divisors,
#: strings in arithmetic, labelled nulls in comparisons.
scalars = st.sampled_from([0, 1, 2, -1, 1.5, 0.0, "a", "b", True])
cells = st.one_of(
    scalars.map(Constant),
    st.sampled_from([LabelledNull(1), LabelledNull(2)]),
    # name-value collections and attribute sets for project/get/size
    st.frozensets(
        st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 2)),
        max_size=2,
    ).map(Constant),
    st.frozensets(st.sampled_from(["a", "b"]), max_size=2).map(Constant),
)

leaves = st.one_of(
    scalars.map(Lit),
    st.sampled_from([VarRef(variable) for variable in VARIABLES]),
)
OPERATORS = ["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=",
             "&&", "||", "in"]


def _extend(children):
    return st.one_of(
        st.builds(BinOp, st.sampled_from(OPERATORS), children, children),
        # a divisor that is often zero
        st.builds(BinOp, st.sampled_from(["/", "%"]), children,
                  st.sampled_from([Lit(0), VarRef(X), VarRef(Y)])),
        st.builds(Case, children, children, children),
        st.lists(children, min_size=1, max_size=3).map(TupleExpr),
        st.builds(lambda a, b: FuncCall("project", [a, b]),
                  children, children),
        st.builds(lambda a, b: FuncCall("get", [a, b]), children, children),
        children.map(lambda a: FuncCall("size", [a])),
    )


expressions = st.recursive(leaves, _extend, max_leaves=10)


@st.composite
def batches(draw, min_rows=0):
    n = draw(st.integers(min_rows, 6))
    cols = {
        variable: draw(st.lists(cells, min_size=n, max_size=n))
        for variable in VARIABLES
    }
    return n, cols


def _outcome(evaluate):
    try:
        value = evaluate()
    except Exception as exc:  # noqa: BLE001 — compared below
        return ("error", type(exc).__name__, str(exc))
    return ("value", type(value).__name__, repr(value), value)


def _row(cols, i):
    return {variable: column[i] for variable, column in cols.items()}


class TestCompiledMatchesInterpreter:
    @given(expressions, batches())
    def test_values_and_errors_per_row(self, expression, batch):
        n, cols = batch
        compiled = CompiledExpression(expression)
        expected = [
            _outcome(lambda i=i: evaluate_to_term(expression, _row(cols, i)))
            for i in range(n)
        ]
        got = [
            _outcome(lambda i=i: compiled.term_at(cols, n, i))
            for i in range(n)
        ]
        assert got == expected
        raw = [
            _outcome(lambda i=i: expression.evaluate(_row(cols, i)))
            for i in range(n)
        ]
        assert [
            _outcome(lambda i=i: compiled.value_at(cols, n, i))
            for i in range(n)
        ] == raw
        # The column form yields every row's value, or raises the
        # first raising row's error.
        errors = [outcome for outcome in expected if outcome[0] == "error"]
        column = _outcome(lambda: compiled.terms(cols, n))
        if errors:
            assert column == errors[0]
        else:
            assert column[0] == "value"
            assert column[3] == [outcome[3] for outcome in expected]

    def test_untaken_raising_case_branch(self):
        expression = Case(
            BinOp("!=", VarRef(X), Lit(0)),
            BinOp("/", Lit(6), VarRef(X)),
            Lit(0),
        )
        cols = {X: [Constant(0), Constant(2), Constant(0)]}
        compiled = CompiledExpression(expression)
        assert compiled.values(cols, 3) == [0, 3.0, 0]
        assert compiled.terms(cols, 3) == [
            Constant(0), Constant(3.0), Constant(0),
        ]

    def test_deep_expression_compiles(self):
        expression = VarRef(X)
        for _ in range(300):
            expression = BinOp("+", expression, Lit(1))
        compiled = CompiledExpression(expression)
        assert compiled.values({X: [Constant(1)]}, 1) == [301]

    def test_builtins_resolve_per_evaluation(self):
        from repro.vadalog.expressions import SCALAR_FUNCTIONS

        compiled = CompiledExpression(FuncCall("triple_it", [VarRef(X)]))
        cols = {X: [Constant(2)]}
        outcome = _outcome(lambda: compiled.values(cols, 1))
        assert outcome == (
            "error", "EvaluationError", "unknown scalar function 'triple_it'"
        )
        SCALAR_FUNCTIONS["triple_it"] = lambda value: 3 * value
        try:
            assert compiled.values(cols, 1) == [6]
        finally:
            del SCALAR_FUNCTIONS["triple_it"]


# ---------------------------------------------------------------------------
# Batch steps: the same rows and MaskRecords as row-by-row interpretation.


def _reference_step(kind, expression, rule, store, batch):
    """Assignment/filter evaluation as the executor did it row by row
    with the tree interpreter: ``(kept rows, values, masked, first
    error)``, raising a completing row's error in place."""
    keep, values, masked, first_error = [], [], 0, ""
    for i in range(batch.n):
        row = _row(batch.cols, i)
        try:
            if kind == "assign":
                value = evaluate_to_term(expression, row)
            else:
                value = bool(expression.evaluate(row))
        except Exception as exc:  # noqa: BLE001 — masking decision
            if _row_completes(rule, store, batch, i):
                raise
            masked += 1
            first_error = first_error or type(exc).__name__
            continue
        if kind == "assign":
            keep.append(i)
            values.append(value)
        elif value:
            keep.append(i)
    return keep, values, masked, first_error


def _setup(kind, expression, n, cols, stored):
    body = [Literal(Atom("r", VARIABLES))]
    if kind == "assign":
        step = AssignStep(Assignment(Variable("T"), expression))
        rule = Rule([Atom("out", (Variable("T"),))], body,
                    assignments=[step.assignment])
    else:
        step = FilterStep(Condition(expression))
        rule = Rule([Atom("out", (X,))], body, conditions=[step.condition])
    store = FactStore(
        Atom("r", tuple(column[i] for column in cols.values()))
        for i in range(n) if stored[i]
    )
    return step, rule, store


class TestBatchStepsMatchRowInterpretation:
    @given(
        st.sampled_from(["assign", "filter"]),
        expressions,
        batches(min_rows=1),
        st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_same_batch_and_masks(self, kind, expression, batch, stored):
        n, cols = batch
        step, rule, store = _setup(kind, expression, n, cols, stored)
        expected = _outcome(lambda: _reference_step(
            kind, expression, rule, store, Batch(n, dict(cols), None)
        ))
        masks = []
        apply = _apply_assign if kind == "assign" else _apply_filter
        got = _outcome(lambda: apply(
            step, rule, store, Batch(n, dict(cols), None), masks
        ))
        if expected[0] == "error":
            assert got == expected
            assert masks == []
            return
        keep, values, masked, first_error = expected[3]
        result = got[3]
        assert result.n == len(keep)
        for variable in VARIABLES:
            assert result.cols[variable] == [cols[variable][i] for i in keep]
        if kind == "assign":
            assert result.cols[Variable("T")] == values
        if masked:
            assert [(m.op, m.detail, m.error, m.rows) for m in masks] == [
                (kind, step.describe(), first_error, masked)
            ]
        else:
            assert masks == []

    def test_bound_target_filters_on_equality(self):
        # T is already bound: the assignment degrades to a filter.
        T = Variable("T")
        step = AssignStep(Assignment(T, BinOp("+", VarRef(X), Lit(1))))
        rule = Rule([Atom("out", (T,))],
                    [Literal(Atom("r", (X, T)))],
                    assignments=[step.assignment])
        batch = Batch(3, {
            X: [Constant(1), Constant(2), Constant("a")],
            T: [Constant(2), Constant(5), Constant(0)],
        }, None)
        masks = []
        result = _apply_assign(step, rule, FactStore(), batch, masks)
        assert result.n == 1
        assert result.cols[X] == [Constant(1)]
        assert [(m.op, m.error, m.rows) for m in masks] == [
            ("assign", "EvaluationError", 1)
        ]

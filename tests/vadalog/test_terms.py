"""Unit tests for the term model."""

import copy
import json
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.vadalog.terms import (
    Constant,
    LabelledNull,
    NullFactory,
    Variable,
    unwrap,
    unwrap_tuple,
    wrap,
    wrap_tuple,
)


class TestConstant:
    def test_equality_by_value(self):
        assert Constant(3) == Constant(3)
        assert Constant("a") != Constant("b")

    def test_hashable_and_usable_in_sets(self):
        assert len({Constant(1), Constant(1), Constant(2)}) == 2

    def test_not_equal_to_raw_value(self):
        assert Constant(3) != 3

    def test_immutability(self):
        constant = Constant(1)
        with pytest.raises(AttributeError):
            constant.value = 2

    def test_str_quotes_strings(self):
        assert str(Constant("x")) == '"x"'
        assert str(Constant(7)) == "7"

    def test_is_ground_and_kind_flags(self):
        constant = Constant(0)
        assert constant.is_ground
        assert constant.is_constant
        assert not constant.is_variable
        assert not constant.is_null


#: Hashable values a constant wraps: scalars, then tuples and frozensets
#: of them.  NaN is left out: it is unequal to itself, yet a container
#: compares the same NaN object as equal (identity first), so the "iff"
#: below would not hold for ``Constant(nan)`` any more than for ``(nan,)``.
SCALARS = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=4)
)
VALUES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=3).map(tuple)
        | st.frozensets(children, max_size=3)
    ),
    max_leaves=6,
)


class TestConstantProperties:
    """A constant is the 1-tuple of its value, and behaves as the value
    does: equal constants, equal hashes, nothing else equal to it."""

    def test_hash_and_equality_run_in_c(self):
        assert Constant.__hash__ is tuple.__hash__
        assert Constant.__eq__ is tuple.__eq__

    def test_numeric_tower_collapses(self):
        assert Constant(1) == Constant(1.0) == Constant(True)
        assert hash(Constant(1)) == hash(Constant(1.0)) == hash(Constant(True))
        assert len({Constant(0), Constant(0.0), Constant(False)}) == 1

    @given(VALUES, VALUES)
    def test_equal_iff_values_equal(self, a, b):
        assert (Constant(a) == Constant(b)) == (a == b)
        assert (Constant(a) != Constant(b)) == (a != b)
        if a == b:
            assert hash(Constant(a)) == hash(Constant(b))

    @given(VALUES)
    def test_never_equal_to_value_null_or_variable(self, value):
        constant = Constant(value)
        assert constant != value
        assert value != constant
        for other in (LabelledNull(1), Variable("X")):
            assert constant != other
            assert other != constant
        assert constant.value is value

    @given(VALUES)
    def test_immutable(self, value):
        constant = Constant(value)
        for name in ("value", "other"):
            with pytest.raises(AttributeError, match="Constant is immutable"):
                setattr(constant, name, 1)
        assert constant.value is value

    @given(VALUES)
    def test_pickle_and_copy_round_trip(self, value):
        constant = Constant(value)
        copies = [copy.copy(constant), copy.deepcopy(constant)] + [
            pickle.loads(pickle.dumps(constant, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for twin in copies:
            assert type(twin) is Constant
            assert twin.value == value
            assert twin == constant
            assert hash(twin) == hash(constant)

    def test_hash_depends_only_on_the_value(self):
        """Two processes at the same hash seed agree on every hash.
        ``None`` is left out: before Python 3.12 its hash is its address,
        so ``Constant(None)`` hashed differently per process before the
        constant became a tuple as well."""
        values = [
            True, False, 0, 1, -7, 2 ** 70, 1.5, -0.0, "", "alpha",
            ("a", 1), (("n", 2), frozenset({"x", "y"})),
            frozenset({("area", "north"), ("sector", "tex")}),
        ]
        script = (
            "import pickle, sys\n"
            "from repro.vadalog.terms import Constant\n"
            "values = pickle.load(sys.stdin.buffer)\n"
            "print([hash(Constant(v)) for v in values])\n"
        )
        source = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONHASHSEED="20210323",
                   PYTHONPATH=source)
        runs = [
            subprocess.run(
                [sys.executable, "-c", script], input=pickle.dumps(values),
                env=env, capture_output=True, check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert len(json.loads(runs[0])) == len(values)


class TestVariable:
    def test_equality_by_name(self):
        assert Variable("X") == Variable("X")
        assert Variable("X") != Variable("Y")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Variable("")

    def test_anonymous_detection(self):
        assert Variable("_").is_anonymous
        assert Variable("_tmp").is_anonymous
        assert not Variable("X").is_anonymous

    def test_not_ground(self):
        assert not Variable("X").is_ground

    def test_immutability(self):
        variable = Variable("X")
        with pytest.raises(AttributeError):
            variable.name = "Y"


class TestLabelledNull:
    def test_equality_by_label(self):
        assert LabelledNull(1) == LabelledNull(1)
        assert LabelledNull(1) != LabelledNull(2)

    def test_null_is_ground(self):
        assert LabelledNull(1).is_ground
        assert LabelledNull(1).is_null

    def test_str_rendering(self):
        assert str(LabelledNull(3)) == "⊥3"

    def test_distinct_from_constant(self):
        assert LabelledNull(1) != Constant(1)


class TestNullFactory:
    def test_fresh_nulls_are_distinct_and_counted(self):
        factory = NullFactory()
        first = factory.fresh()
        second = factory.fresh()
        assert first != second
        assert factory.issued == 2

    def test_labels_start_at_one(self):
        factory = NullFactory()
        assert factory.fresh().label == 1


class TestWrapUnwrap:
    def test_wrap_plain_values(self):
        assert wrap(3) == Constant(3)
        assert wrap("x") == Constant("x")

    def test_wrap_passes_terms_through(self):
        null = LabelledNull(1)
        assert wrap(null) is null
        variable = Variable("X")
        assert wrap(variable) is variable

    def test_none_is_a_constant_not_a_null(self):
        wrapped = wrap(None)
        assert isinstance(wrapped, Constant)
        assert wrapped.value is None

    def test_unwrap_constant_and_null(self):
        assert unwrap(Constant(5)) == 5
        null = LabelledNull(2)
        assert unwrap(null) is null

    def test_unwrap_variable_raises(self):
        with pytest.raises(ValueError):
            unwrap(Variable("X"))

    def test_tuple_roundtrip(self):
        values = (1, "a", frozenset({2}))
        assert unwrap_tuple(wrap_tuple(values)) == values

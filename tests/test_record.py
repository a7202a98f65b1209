"""The package's immutable value classes: fields can be neither assigned nor
deleted, and ==, hash and repr are those of a frozen dataclass over the same
field values, with EvalReport's columns and OperatorSpec's repr excepted."""

import time
from dataclasses import field, make_dataclass
from functools import cache

import pytest

import vennlogic
from vennlogic import (
    TIF,
    Assignment,
    BinOp,
    Component,
    ComponentVector,
    Const,
    EvalReport,
    Expr,
    FuzzyOperatorRow,
    FuzzyValue,
    NamedOperator,
    NeutroOperatorRow,
    NeutrosophicValue,
    Not,
    OperatorSpec,
    Part,
    PrevalenceOrder,
    TruthPolynomial,
    Var,
    evaluate_operator,
    knuth_registry,
    neutro_operator_table,
)
from vennlogic.record import Record

_XOR = OperatorSpec(2, 0b0110)
_NEUTRO = Assignment.neutrosophic(("x", "y"), [(0.5, 0.3, 0.2), (0.4, 0.4, 0.2)])

# two unequal instances of each record class
SAMPLES = {
    FuzzyValue: (FuzzyValue(0.25, 0.75), FuzzyValue.from_truth(0.5)),
    NeutrosophicValue: (NeutrosophicValue(0.5, 0.3, 0.2), NeutrosophicValue(0, 0, 1)),
    PrevalenceOrder: (TIF, PrevalenceOrder.from_string("FIT")),
    ComponentVector: (
        ComponentVector(Component.T, (0.5, 0.25)),
        ComponentVector(Component.F, (0.5, 0.25)),
    ),
    Part: (Part(3, 5), Part(4, 5)),
    OperatorSpec: (_XOR, OperatorSpec(3, 0x96)),
    TruthPolynomial: (TruthPolynomial.of(_XOR), TruthPolynomial.of(OperatorSpec(1, 1))),
    NamedOperator: knuth_registry()[6:8],
    Var: (Var("x"), Var("y")),
    Const: (Const(True), Const(False)),
    Not: (Not(Var("x")), Not(Not(Var("x")))),
    BinOp: (BinOp("and", Var("x"), Const(False)), BinOp("or", Var("x"), Const(False))),
    Assignment: (Assignment.fuzzy(("x", "y"), (0.3, 0.6)), _NEUTRO),
    EvalReport: (
        evaluate_operator(_XOR, _NEUTRO),
        evaluate_operator(_XOR, _NEUTRO, with_oracle=True),
    ),
    FuzzyOperatorRow: (
        FuzzyOperatorRow(1, 8, "Conjunction; and", "∧", "t1*t2"),
        FuzzyOperatorRow(1, 8, "Conjunction; and", "∧", "t2*t1"),
    ),
    NeutroOperatorRow: neutro_operator_table(_NEUTRO)[:2],
}


@cache
def _twin_class(cls):
    """A frozen dataclass with cls's fields, in order; EvalReport's columns
    are declared as they were when it was one."""
    fields = list(vars(SAMPLES[cls][0]))
    if cls is EvalReport:
        i = fields.index("columns")
        fields[i] = ("columns", object, field(repr=False, hash=False))
    return make_dataclass(cls.__name__, fields, frozen=True)


def _twin(record):
    return _twin_class(type(record))(**vars(record))


def test_every_record_class_is_sampled():
    exported = vars(vennlogic).values()
    records = {x for x in exported if isinstance(x, type) and issubclass(x, Record)}
    assert records - {Expr} == set(SAMPLES) and len(SAMPLES) == 16


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
class TestRecordSemantics:
    def test_fields_are_frozen(self, cls):
        for record in SAMPLES[cls]:
            before = dict(vars(record))
            for name in [*before, "extra"]:
                with pytest.raises(AttributeError):
                    setattr(record, name, 0)
                with pytest.raises(AttributeError):
                    delattr(record, name)
            assert vars(record) == before

    def test_init_takes_the_fields_in_order(self, cls):
        for record in SAMPLES[cls]:
            assert list(vars(cls(*vars(record).values()))) == list(vars(record))

    def test_methods_match_a_frozen_dataclass(self, cls):
        a, b = SAMPLES[cls]
        rebuilt = cls(**vars(a))
        assert rebuilt is not a
        for x, y in ((a, rebuilt), (a, b), (b, a), (a, a)):
            assert (x == y) is (_twin(x) == _twin(y))
            assert (x != y) is (_twin(x) != _twin(y))
        assert a != b and a == rebuilt
        for record in (a, b):
            assert hash(record) == hash(_twin(record))
            # a record never equals its twin or a tuple of its fields
            assert record != _twin(record) and record != tuple(vars(record).values())
            if cls is OperatorSpec:
                want = f"OperatorSpec(n={record.n}, shaded={record.shaded:#x})"
                assert repr(record) == want
            else:
                assert repr(record) == repr(_twin(record))


def test_records_of_different_classes_differ():
    assert Part(2, 1) != OperatorSpec(2, 1)
    assert not hasattr(FuzzyValue(0.5, 0.5), "__iter__")


def test_report_columns_take_part_in_eq_only():
    report = SAMPLES[EvalReport][0]
    other = EvalReport(**{**vars(report), "columns": [[0.0] * 4] * 3})
    assert report != other
    assert hash(report) == hash(other)
    assert repr(report) == repr(other)
    assert "columns" not in repr(report)


class _Link(Record):
    def __init__(self, label, inner):
        vars(self).update(label=label, inner=inner)


def test_deep_nesting_is_bounded_by_memory():
    # ==, hash and repr walk nested records with explicit stacks, so 100,000
    # levels need no recursion; the leaf prints through OperatorSpec's repr
    depth = 100_000
    start = time.perf_counter()

    def chain(leaf):
        for i in range(depth):
            leaf = _Link(i % 3, leaf)
        return leaf

    a, twin, other = chain(_XOR), chain(_XOR), chain(OperatorSpec(2, 0b1001))
    assert a == twin and a != other and not a != twin
    assert hash(a) == hash(twin)
    labels = [i % 3 for i in reversed(range(depth))]
    want = "".join(f"_Link(label={k}, inner=" for k in labels)
    assert repr(a) == want + "OperatorSpec(n=2, shaded=0x6)" + ")" * depth
    # a tuple of records hashes and prints through its elements
    pair = _Link(1, (_XOR, a))
    assert hash(pair) == hash((1, (_XOR, a)))
    assert repr(pair) == f"_Link(label=1, inner=({_XOR!r}, {a!r}))"
    assert time.perf_counter() - start < 10.0

"""Every frozen record against its ``dataclass(frozen=True)`` twin.

``ergoqueue._record.record`` replaces the ``dataclasses`` decorator without
generating code, so each record class is checked against the dataclass the
same class statement would give (``oracles.dataclass_twin``): the same
fields, defaults, repr, equality, hash and ``__post_init__`` errors.
"""

import ast
import dataclasses
import functools
import importlib
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from ergoqueue import _record
from ergoqueue.lindley import LoynesResult

MODULES = ["odometer", "lindley", "processes", "estimators"]
RECORDS = {
    cls.__name__: cls
    for module in MODULES
    for cls in vars(importlib.import_module(f"ergoqueue.{module}")).values()
    if isinstance(cls, type) and cls.__module__ == f"ergoqueue.{module}" and "_fields" in vars(cls)
}
HIDDEN = {"LoynesResult": ("sums",)}  # today's field(repr=False, compare=False)

# valid arguments of the records whose __post_init__ checks them
VALID = {
    "DyadicPoint": [(5, 8), (3,), (0, 1)],
    "IIDBernoulli": [(0.25,), (1.0,), (0.25,)],
    "IIDTable": [([0, 1], [0.5, 0.5]), ((2.0,), (1.0,)), ((0.0, 1.0), (0.5, 0.5))],
    "BinaryMarkov": [(0.3, 0.5), (0.0, 0.0), (0.5, 0.3)],
    "OdometerProcess": [(), (16,), (16, 3), (64,)],
}
# arguments each such __post_init__ refuses
INVALID = {
    "DyadicPoint": [(1, 0), (1.5, 4), (16, 4), (1, 2.0), (-1, 4)],
    "IIDBernoulli": [(-0.1,), (1.5,)],
    "IIDTable": [((), ()), ((1,), (0.5,)), ((math.inf,), (1.0,)), ((0, 1), (0.5,))],
    "BinaryMarkov": [(1.2, 0.5), (0.5, -1.0)],
    "OdometerProcess": [(1,), (16, 99)],
}
# the records without a __post_init__ take any values: these, rotated
POOL = [0, 0.5, (1, 2), None, Fraction(1, 3), "interior", True, 7]


def _examples(name: str) -> list[tuple]:
    if name in VALID:
        return VALID[name]
    width = len(RECORDS[name].__annotations__)
    return [tuple(POOL[(k + shift) % len(POOL)] for k in range(width)) for shift in (0, 1, 0)]


@functools.cache
def _twin(name: str) -> type:
    return oracles.dataclass_twin(RECORDS[name], HIDDEN.get(name, ()))


def _pair(name: str, args: tuple):
    """The record and its twin, built from the same arguments."""
    return RECORDS[name](*args), _twin(name)(*args)


def _raised(build) -> tuple[type, str] | None:
    try:
        build()
    except Exception as exc:  # noqa: BLE001 -- the comparison is the point
        return type(exc), str(exc)
    return None


def test_every_record_is_found():
    # 6 in estimators, 4 in processes, 2 in lindley, 1 in odometer
    assert len(RECORDS) == 13
    assert set(VALID) <= set(RECORDS) and set(INVALID) == set(VALID)
    for name, cls in RECORDS.items():
        assert ("__post_init__" in vars(cls)) == (name in VALID), name


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_and_defaults_match_the_dataclass(name):
    specs = dataclasses.fields(_twin(name))
    assert RECORDS[name]._fields == tuple(spec.name for spec in specs)
    defaults = {s.name: s.default for s in specs if s.default is not dataclasses.MISSING}
    assert RECORDS[name]._defaults == defaults


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_eq_and_hash_match_the_dataclass(name):
    built = [_pair(name, args) for args in _examples(name)]
    for record, twin in built:
        assert repr(record) == repr(twin)
        assert list(vars(record).items()) == list(vars(twin).items())
        assert hash(record) == hash(twin)
        assert record != twin and twin != record  # another class: never equal
    for (r1, t1), (r2, t2) in itertools.product(built, repeat=2):
        assert (r1 == r2) == (t1 == t2)
        assert (r1 != r2) == (t1 != t2)
    # the examples hold an equal pair and an unequal pair
    assert built[0][0] == RECORDS[name](*_examples(name)[0])
    assert built[0][0] != built[1][0]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_keywords_and_defaults_build_the_same_record(name):
    cls = RECORDS[name]
    for args in _examples(name):
        record, twin = _pair(name, args)
        by_name = dict(reversed(list(zip(cls._fields, args))))  # keywords out of order
        assert cls(**by_name) == record
        assert repr(cls(**by_name)) == repr(twin)
        assert list(vars(cls(**by_name)).items()) == list(vars(twin).items())


@pytest.mark.parametrize("name", sorted(INVALID))
def test_post_init_errors_match_the_dataclass(name):
    twin = _twin(name)
    for args in INVALID[name]:
        raised = _raised(lambda: RECORDS[name](*args))
        assert raised is not None, args
        assert raised == _raised(lambda: twin(*args)), args


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    record = RECORDS[name](*_examples(name)[0])
    before = list(vars(record).items())
    for attr in (*RECORDS[name]._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, attr, 1)
        with pytest.raises(AttributeError):
            delattr(record, attr)
    assert list(vars(record).items()) == before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_bad_argument_lists_are_type_errors(name):
    cls, twin = RECORDS[name], _twin(name)
    args = max(_examples(name), key=len)  # every field given
    assert len(args) == len(cls._fields)
    calls = [
        (args + (0,), {}),  # one too many
        (args[1:], {cls._fields[0]: args[0], "not_a_field": 1}),  # an unknown keyword
        (args, {cls._fields[0]: args[0]}),  # one given twice
    ]
    required = len(cls._fields) - len(cls._defaults)  # the leading fields
    if required:
        calls.append((args[: required - 1], {}))  # the last required one missing
    for call_args, kwargs in calls:
        with pytest.raises(TypeError):
            cls(*call_args, **kwargs)
        with pytest.raises(TypeError):
            twin(*call_args, **kwargs)


def test_loynes_sums_stay_out_of_eq_hash_and_repr():
    a = LoynesResult(1.5, 2, True, np.array([0.0, 1.0, 1.5]))
    b = LoynesResult(1.5, 2, True, np.array([0.0, -1.0]))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert repr(a) == "LoynesResult(value=1.5, argmax=2, converged=True)"
    assert a != LoynesResult(1.5, 3, True, a.sums)
    assert a.sums.tolist() == [0.0, 1.0, 1.5]


def test_records_of_two_classes_are_never_equal():
    @_record.record
    class Point:
        x: int

    @_record.record
    class Other:
        x: int

    class Sub(Point):
        pass

    assert Point(1) == Point(x=1) and hash(Point(1)) == hash(Other(1))
    assert Point(1) != Other(1) and Other(1) != Point(1)
    assert Point(1) != Sub(1) and Sub(1) != Point(1)
    assert Point(1) != (1,)


def test_the_decorator_generates_no_code():
    # every record shares the helper's functions; none is compiled per class
    methods = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")
    for cls in RECORDS.values():
        assert [vars(cls)[name] for name in methods] == [_record._METHODS[name] for name in methods]
    names = {node.id for node in ast.walk(ast.parse(Path(_record.__file__).read_text("utf-8")))
             if isinstance(node, ast.Name)}
    assert not names & {"exec", "eval", "compile"}

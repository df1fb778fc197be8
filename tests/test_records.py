"""The value types on `core._Record` keep the frozen-dataclass contract:
pickle and deepcopy round trips, no assignment or deletion, the dataclass
repr, and equality and hash by the declared fields within one class."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from perdec.check import (BoundedTransfer, ConstrainedObstruction,
                          DualCertificate, SearchReport, StarViolation)
from perdec.core import (CommutingSystem, Decomposition, RationalFunction,
                         VerificationResult, _Record)
from perdec.orbits import Partition
from perdec.serialize import Instance


def _f():
    return RationalFunction((F(1), F(-1, 2)))


def _system():
    return CommutingSystem(2, ((1, 0),))


def _violation():
    return StarViolation(((0, 1),), 0, F(3, 2))


# one builder per record type with the repr its frozen dataclass printed
RECORDS = {
    "CommutingSystem": (
        _system, "CommutingSystem(size=2, transforms=((1, 0),))"),
    "RationalFunction": (
        _f, "RationalFunction(numerators=(2, -1), denom=2)"),
    "Decomposition": (
        lambda: Decomposition((_f(), RationalFunction((0, 0)))),
        "Decomposition(parts=(RationalFunction(numerators=(2, -1), "
        "denom=2), RationalFunction(numerators=(0, 0), denom=1)))"),
    "VerificationResult": (
        lambda: VerificationResult(False, "SumMismatch(1)"),
        "VerificationResult(ok=False, reason='SumMismatch(1)')"),
    "Instance": (
        lambda: Instance("finite", system=_system(), f=_f()),
        "Instance(kind='finite', system=CommutingSystem(size=2, "
        "transforms=((1, 0),)), f=RationalFunction(numerators=(2, -1), "
        "denom=2), shifts=None, modulus=None, length=None, dims=None)"),
    "StarViolation": (
        _violation,
        "StarViolation(blocks=((0, 1),), z=0, value=Fraction(3, 2))"),
    "DualCertificate": (
        lambda: DualCertificate(RationalFunction((1, -1))),
        "DualCertificate(weights=RationalFunction(numerators=(1, -1), "
        "denom=1))"),
    "ConstrainedObstruction": (
        lambda: ConstrainedObstruction(1, 2, 0, 1, F(-3)),
        "ConstrainedObstruction(x=1, k=2, l=0, l2=1, "
        "total=Fraction(-3, 1))"),
    "BoundedTransfer": (
        lambda: BoundedTransfer(_f(), F(5, 2)),
        "BoundedTransfer(solution=RationalFunction(numerators=(2, -1), "
        "denom=2), bound=Fraction(5, 2))"),
    "SearchReport": (
        lambda: SearchReport(2, 4, 10, 7, 6, 4, 5, 1, 3, 0, 0),
        "SearchReport(n=2, max_size=4, trials=10, seed=7, star_pass=6, "
        "star_fail=4, oracle_feasible=5, oracle_infeasible=1, "
        "necessity_checked=3, necessity_violations=0, discrepancies=0)"),
    "Partition": (
        lambda: Partition((0, 0, 1), (0, 2)),
        "Partition(class_of=(0, 0, 1), representative=(0, 2))"),
}


def test_every_record_type_is_covered():
    types = {type(build()) for build, _ in RECORDS.values()}
    assert {t.__name__ for t in types} == set(RECORDS)
    assert all(issubclass(t, _Record) for t in types)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_round_trips_through_pickle_and_deepcopy(name):
    record = RECORDS[name][0]()
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is type(record)
        assert copied == record
        assert hash(copied) == hash(record)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_refuses_assignment_and_deletion(name):
    record = RECORDS[name][0]()
    field = record._fields[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match="cannot assign"):
        record.unknown = 1
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(record, field)
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_prints_its_dataclass_repr(name):
    build, text = RECORDS[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_equal_by_fields_within_one_class(name):
    build = RECORDS[name][0]
    record, again = build(), build()
    assert record is not again
    assert record == again and hash(record) == hash(again)
    # a record of another class with the same fields and values differs
    values = [getattr(record, field) for field in record._fields]
    twin_type = type(name, (_Record,),
                     {"__annotations__": dict.fromkeys(record._fields)})
    twin = twin_type(*values)
    assert [getattr(twin, field) for field in twin._fields] == values
    assert record != twin and twin != record


def test_generic_construction_binds_like_a_dataclass():
    assert Instance("z-window", shifts=(1,), length=3) == Instance(
        kind="z-window", length=3, shifts=(1,))
    assert Instance("finite").system is None
    assert ConstrainedObstruction(0, 1, 2, l2=0, total=F(1)) == (
        ConstrainedObstruction(0, 1, 2, 0, F(1)))
    for args, kwargs in [((0, 1, 2, 0), {}), ((0, 1, 2, 0, 1, 5), {}),
                         ((0, 1, 2, 0, 1), {"x": 0}),
                         ((0, 1, 2, 0), {"m": 1})]:
        with pytest.raises(TypeError):
            ConstrainedObstruction(*args, **kwargs)

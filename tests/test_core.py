import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perdec.core import (
    CommutingSystem,
    Decomposition,
    NotCommutingError,
    PreconditionError,
    RangeError,
    RationalFunction,
    VerificationResult,
    as_fraction,
    commute_witness,
    compose,
    _mixed_difference,
    is_invariant,
    power,
    validate_system,
    validate_transform,
)
from perdec.check import verify_parts
from perdec.serialize import parse_instance
from perdec.orbits import invariance_classes, iterate
from tests.conftest import (
    delta,
    power_table,
    rationals,
    sized_maps,
    systems,
    value_functions,
)


def test_as_fraction_accepts_exact_forms():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("2/6") == Fraction(1, 3)
    assert as_fraction(Fraction(-5, 7)) == Fraction(-5, 7)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_as_fraction_returns_a_fraction_unchanged():
    q = Fraction(-5, 7)
    assert as_fraction(q) is q
    f = RationalFunction((q, 2, "3/6"))
    assert f.values[0] is q
    assert f.values[1:] == (Fraction(2), Fraction(1, 2))
    for values in ((q, 0.5), (0.0, 1), (q, q, q, 0.5)):
        with pytest.raises(TypeError):
            RationalFunction(values)


class _Half(Fraction):
    """A Fraction subclass, which the value tuples must not keep."""


def test_a_tuple_of_exact_fractions_is_kept_as_it_is():
    exact = tuple(Fraction(i, 3) for i in range(4))
    assert RationalFunction(exact).values is exact
    for values in ((1, "1/2", Fraction(2), -3),
                   (_Half(1, 2),) * 4,
                   [Fraction(1)] * 4):
        got = RationalFunction(values).values
        assert type(got) is tuple
        assert set(map(type, got)) == {Fraction}
        assert got == tuple(map(Fraction, values))
    for values in ((Fraction(1), Fraction(2), Fraction(3), 0.5),
                   (1.0, 1, 1, 1)):
        with pytest.raises(TypeError):
            RationalFunction(values)


def test_validate_transform_range_checks():
    assert validate_transform([1, 0], 2) == (1, 0)
    with pytest.raises(RangeError):
        validate_transform([0, 2], 2)
    with pytest.raises(RangeError):
        validate_transform([0, -1], 2)
    with pytest.raises(RangeError):
        validate_transform([0, True], 2)
    with pytest.raises(RangeError):
        validate_transform([0], 2)


def _validate_transform_reference(table, size):
    """Reference check: one entry at a time, the first bad one named."""
    if len(table) != size:
        raise RangeError(f"transform table has length {len(table)}, "
                         f"expected {size}")
    for x, y in enumerate(table):
        if not isinstance(y, int) or isinstance(y, bool):
            raise RangeError(f"entry {y!r} at position {x} is not an "
                             f"integer")
        if not 0 <= y < size:
            raise RangeError(f"entry {y} at position {x} is outside "
                             f"[0, {size})")
    return tuple(table)


class _Int(int):
    """An int subclass, which the type pass does not vouch for."""


_ENTRIES = st.one_of(st.integers(-2, 8), st.booleans(),
                     st.integers(0, 5).map(_Int),
                     st.sampled_from([0.0, 1.5, "1", None]))


@given(st.integers(0, 6), st.booleans(), st.data())
def test_validate_transform_matches_the_entry_by_entry_reference(size, valid,
                                                                 data):
    entries = st.integers(0, size - 1) if valid and size else _ENTRIES
    table = data.draw(st.lists(entries, min_size=size, max_size=size))

    def outcome(check):
        try:
            return check(table, size)
        except RangeError as exc:
            return str(exc)

    assert outcome(validate_transform) == outcome(
        _validate_transform_reference)


def test_compose_applies_second_argument_first():
    t = (1, 2, 0)
    s = (0, 0, 0)
    assert compose(t, s) == (1, 1, 1)
    assert compose(s, t) == (0, 0, 0)


def test_power_and_power_table_agree():
    t = (1, 2, 3, 0)
    table = power_table(t, 5)
    for k in range(6):
        assert power(t, k) == table[k]
    assert table[0] == tuple(range(4))
    with pytest.raises(RangeError):
        power(t, -1)


@given(sized_maps())
def test_power_matches_the_power_table_on_any_map(case):
    size, t = case
    table = power_table(t, 2 * size + 3)
    for k, expected in enumerate(table):
        assert power(t, k) == expected


def test_power_and_iterate_reduce_huge_exponents():
    # 4 -> 3 -> 0 -> 1 -> 2 -> 0: a two-step tail into a 3-cycle
    t = (1, 2, 0, 0, 3)
    k = 10 ** 12 + 2
    reduced = 2 + (k - 2) % 3
    start = time.perf_counter()
    assert power(t, k) == power(t, reduced)
    assert [iterate(t, k, x) for x in range(5)] == list(power(t, reduced))
    assert time.perf_counter() - start < 1.0


def test_commuting_system_validates_pairs():
    with pytest.raises(NotCommutingError) as exc:
        CommutingSystem(3, ((1, 2, 0), (0, 0, 1)))
    assert exc.value.witness == (0, 1, 0)
    system = validate_system([(1, 2, 0), (2, 0, 1)], 3)
    assert system.n == 2


def test_commuting_system_rejects_empty_domain():
    with pytest.raises(RangeError):
        CommutingSystem(0, ())


@given(st.integers(1, 12), st.lists(st.integers(-30, 30), min_size=1,
                                    max_size=4))
def test_a_cyclic_groups_unchecked_system_is_the_validated_one(modulus,
                                                                shifts):
    # parse_instance builds the rotations without validate_system's checks
    doc = {"kind": "cyclic-group", "modulus": modulus, "shifts": shifts,
           "values": ["0"] * modulus}
    rotations = [[(x + a) % modulus for x in range(modulus)] for a in shifts]
    assert parse_instance(doc).system == validate_system(rotations, modulus)


@given(st.lists(st.integers(2, 4), min_size=1, max_size=3))
def test_a_windows_unchecked_system_is_the_validated_one(dims):
    # parse_instance builds the axis maps' system without the checks
    size = math.prod(dims)
    doc = {"kind": "lattice-window", "dims": dims, "values": ["0"] * size}
    system = parse_instance(doc).system
    assert system == validate_system(system.transforms, size)
    assert len(system.transforms) == len(dims)


@given(sized_maps())
def test_commute_witness_agrees_with_definition(sized):
    size, t = sized
    s = tuple((x + 1) % size for x in range(size))
    w = commute_witness(t, s)
    disagreements = [x for x in range(size) if t[s[x]] != s[t[x]]]
    if disagreements:
        assert w == disagreements[0]
    else:
        assert w is None


def test_rational_function_arithmetic():
    f = RationalFunction([1, "1/2", -2])
    g = RationalFunction([0, "1/2", 2])
    assert (f + g).values == (Fraction(1), Fraction(1), Fraction(0))
    assert (f - g).values == (Fraction(1), Fraction(0), Fraction(-4))
    assert f.max_abs() == Fraction(2)


def test_rational_function_compose_shifts_values():
    f = RationalFunction([10, 20, 30])
    t = (2, 0, 1)
    assert f.compose(t).values == (Fraction(30), Fraction(10), Fraction(20))


def test_the_stored_pair_scales_by_common_denominator():
    f = RationalFunction(["1/2", "1/3", 1])
    assert f.denom == 6
    assert f.numerators == (3, 2, 6)
    assert all(isinstance(v, int) for v in f.numerators)


@given(value_functions(5))
def test_the_stored_pair_reconstructs(f):
    assert all(Fraction(n, f.denom) == v
               for n, v in zip(f.numerators, f.values))


def test_delta_definition():
    t = (1, 2, 0)
    f = RationalFunction([0, 1, 3])
    assert delta(t, f).values == (Fraction(1), Fraction(2), Fraction(-3))


def _mixed_delta(tables, powers, f):
    """The difference of t^k for each table t with k = powers[j], by
    `_mixed_difference` over the power tables; a zero power skips its
    factor (the empty product of operators is the identity)."""
    row = _mixed_difference([power(t, k) for t, k in zip(tables, powers)
                             if k], f.numerators)
    return RationalFunction(tuple(Fraction(v, f.denom) for v in row))


def test_mixed_difference_skips_zero_powers():
    system = validate_system([(1, 2, 3, 0), (2, 3, 0, 1)], 4)
    t, s = tables = system.transforms
    f = RationalFunction([0, 1, 4, 9])
    assert _mixed_delta(tables, [1, 0], f) == delta(t, f)
    assert _mixed_delta(tables, [0, 0], f) == f
    two_step = delta(s, delta(t, f))
    assert _mixed_delta(tables, [1, 1], f) == two_step


@given(sized_maps(), st.data())
def test_mixed_difference_matches_iterated_delta(sized, data):
    size, t = sized
    s = tuple(t[t[x]] for x in range(size))  # a power always commutes
    f = data.draw(value_functions(size))
    assert _mixed_delta([t, s], [1, 1], f) == delta(s, delta(t, f))
    assert _mixed_delta([t, s], [2, 1], f) == delta(s, delta(power(t, 2), f))


@given(sized_maps(), st.data())
def test_is_invariant_iff_delta_zero(sized, data):
    size, t = sized
    f = data.draw(value_functions(size))
    assert is_invariant(t, f) == (not any(delta(t, f).values))


def test_verify_parts_reports_sum_mismatch():
    system = validate_system([(0, 1)], 2)
    f = RationalFunction([1, 1])
    bad = Decomposition((RationalFunction([0, 0]),))
    res = verify_parts(system.transforms, f, bad.parts)
    assert not res
    assert res.reason == "SumMismatch(0)"


def test_verify_parts_reports_short_parts():
    system = validate_system([(1, 2, 0), (0, 1, 2)], 3)
    f = RationalFunction([1, 1, 1])
    short = Decomposition((RationalFunction([1, 1]),
                           RationalFunction([0, 0])))
    res = verify_parts(system.transforms, f, short.parts)
    assert not res
    assert res.reason == "LengthMismatch(0)"


def test_verify_parts_reports_non_invariance():
    system = validate_system([(1, 0)], 2)
    f = RationalFunction([0, 1])
    bad = Decomposition((f,))
    res = verify_parts(system.transforms, f, bad.parts)
    assert not res
    assert res.reason == "NotInvariant(0,0)"


def test_verify_parts_accepts_valid_split():
    system = validate_system([(1, 0), (0, 1)], 2)
    f = RationalFunction([3, 5])
    split = Decomposition((
        RationalFunction([4, 4]),
        RationalFunction([-1, 1]),
    ))
    res = verify_parts(system.transforms, f, split.parts)
    assert res.ok and bool(res)


@pytest.mark.parametrize("size", [1, 3])
def test_verify_parts_refuses_tables_not_as_long_as_f(size):
    # a table of another length than f is the caller's error, raised
    # before any part is read, not a defect of the parts
    tables = [(1, 0), (0, 1)]
    f = RationalFunction([1] * size)
    with pytest.raises(PreconditionError):
        verify_parts(tables, f, (f, f))


def test_decomposition_total():
    parts = Decomposition((
        RationalFunction([1, 2]),
        RationalFunction([3, 4]),
    ))
    assert (parts[0] + parts[1]).values == (Fraction(4), Fraction(6))


def _fraction_verify_parts(system, f, decomposition):
    """The Fraction-arithmetic verifier that the integer one replaced."""
    for j, part in enumerate(decomposition.parts):
        if len(part) != system.size:
            return VerificationResult(False, f"LengthMismatch({j})")
    total = sum(decomposition.parts[1:], decomposition.parts[0])
    for x in range(system.size):
        if total.values[x] != f.values[x]:
            return VerificationResult(False, f"SumMismatch({x})")
    for j, (t, part) in enumerate(zip(system.transforms, decomposition.parts)):
        for x in range(system.size):
            if part.values[t[x]] != part.values[x]:
                return VerificationResult(False, f"NotInvariant({j},{x})")
    return VerificationResult(True)


@st.composite
def mutated_splits(draw):
    """A valid split with one value changed: in f, in one part, or moved
    from one part to another at one point (which keeps the sum)."""
    system = draw(systems(nmin=1, nmax=3))
    parts = []
    for t in system.transforms:
        classes = invariance_classes(t)
        picks = draw(st.lists(rationals(), min_size=classes.n_classes,
                              max_size=classes.n_classes))
        parts.append([picks[c] for c in classes.class_of])
    f = [sum(column, Fraction(0)) for column in zip(*parts)]
    kind = draw(st.sampled_from(["none", "f", "part", "move"]))
    x = draw(st.integers(0, system.size - 1))
    j = draw(st.integers(0, system.n - 1))
    k = draw(st.integers(0, system.n - 1))
    change = draw(rationals())
    if kind == "f":
        f[x] += change
    elif kind == "part":
        parts[j][x] += change
    elif kind == "move":
        parts[j][x] += change
        parts[k][x] -= change
    return (system, RationalFunction(tuple(f)),
            Decomposition(tuple(RationalFunction(tuple(p)) for p in parts)))


@settings(max_examples=300)
@given(mutated_splits())
def test_verify_parts_matches_the_fraction_reference(case):
    system, f, decomposition = case
    assert (verify_parts(system.transforms, f, decomposition.parts)
            == _fraction_verify_parts(system, f, decomposition))

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perdec.core import (
    CommutingSystem,
    Decomposition,
    NotCommutingError,
    RangeError,
    RationalFunction,
    VerificationResult,
    as_fraction,
    commute_witness,
    compose,
    delta,
    identity,
    integer_values,
    is_invariant,
    iterate,
    mixed_corners,
    mixed_delta,
    power,
    power_table,
    validate_system,
    validate_transform,
    verify_decomposition,
)
from perdec.lattice import LatticeWindow
from perdec.orbits import invariance_classes
from tests.conftest import (
    rationals,
    sized_maps,
    systems,
    transform_tables,
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
    assert LatticeWindow((2, 2), (q, q, 1, "1/2")).values[0] is q
    for values in ((q, 0.5), (0.0, 1)):
        with pytest.raises(TypeError):
            RationalFunction(values)
    with pytest.raises(TypeError):
        LatticeWindow((2, 2), (q, q, q, 0.5))


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
    assert table[0] == identity(4)
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
    f = RationalFunction.from_values([1, "1/2", -2])
    g = RationalFunction.from_values([0, "1/2", 2])
    assert (f + g).values == (Fraction(1), Fraction(1), Fraction(0))
    assert (f - g).values == (Fraction(1), Fraction(0), Fraction(-4))
    assert (-f).values == (Fraction(-1), Fraction(-1, 2), Fraction(2))
    assert f.scale(Fraction(2)).values == (Fraction(2), Fraction(1), Fraction(-4))
    assert f.max_abs() == Fraction(2)
    assert RationalFunction.zero(3).is_zero()
    assert not f.is_zero()


def test_rational_function_compose_shifts_values():
    f = RationalFunction.from_values([10, 20, 30])
    t = (2, 0, 1)
    assert f.compose(t).values == (Fraction(30), Fraction(10), Fraction(20))


def test_integer_values_scales_by_common_denominator():
    f = RationalFunction.from_values(["1/2", "1/3", 1])
    nums, denom = integer_values(f)
    assert denom == 6
    assert nums == [3, 2, 6]
    assert all(isinstance(v, int) for v in nums)


@given(value_functions(5))
def test_integer_values_reconstructs(f):
    nums, denom = integer_values(f)
    assert all(Fraction(n, denom) == v for n, v in zip(nums, f.values))


def test_delta_definition():
    t = (1, 2, 0)
    f = RationalFunction.from_values([0, 1, 3])
    assert delta(t, f).values == (Fraction(1), Fraction(2), Fraction(-3))


def test_mixed_delta_skips_zero_powers():
    system = validate_system([(1, 2, 3, 0), (2, 3, 0, 1)], 4)
    t, s = system.transforms
    f = RationalFunction.from_values([0, 1, 4, 9])
    assert mixed_delta(system, [1, 0], f) == delta(t, f)
    assert mixed_delta(system, [0, 0], f) == f
    two_step = delta(s, delta(t, f))
    assert mixed_delta(system, [1, 1], f) == two_step


@given(sized_maps(), st.data())
def test_mixed_delta_matches_iterated_delta(sized, data):
    size, t = sized
    s = tuple(t[t[x]] for x in range(size))  # a power always commutes
    system = validate_system([t, s], size)
    f = data.draw(value_functions(size))
    assert mixed_delta(system, [1, 1], f) == delta(s, delta(t, f))
    assert mixed_delta(system, [2, 1], f) == delta(s, delta(power(t, 2), f))


@given(sized_maps(), st.data())
def test_is_invariant_iff_delta_zero(sized, data):
    size, t = sized
    f = data.draw(value_functions(size))
    assert is_invariant(t, f) == delta(t, f).is_zero()


def test_mixed_corners_sign_by_factors_left_out():
    assert mixed_corners(0) == (((), True),)
    assert mixed_corners(2) == (((), True), ((0,), False), ((1,), False),
                                ((0, 1), True))
    for applied, positive in mixed_corners(3):
        assert positive == ((3 - len(applied)) % 2 == 0)


def test_verify_decomposition_reports_sum_mismatch():
    system = validate_system([(0, 1)], 2)
    f = RationalFunction.from_values([1, 1])
    bad = Decomposition((RationalFunction.from_values([0, 0]),))
    res = verify_decomposition(system, f, bad)
    assert not res
    assert res.reason == "SumMismatch(0)"


def test_verify_decomposition_reports_short_parts():
    system = validate_system([(1, 2, 0), (0, 1, 2)], 3)
    f = RationalFunction.from_values([1, 1, 1])
    short = Decomposition((RationalFunction.from_values([1, 1]),
                           RationalFunction.from_values([0, 0])))
    res = verify_decomposition(system, f, short)
    assert not res
    assert res.reason == "LengthMismatch(0)"


def test_verify_decomposition_reports_non_invariance():
    system = validate_system([(1, 0)], 2)
    f = RationalFunction.from_values([0, 1])
    bad = Decomposition((f,))
    res = verify_decomposition(system, f, bad)
    assert not res
    assert res.reason == "NotInvariant(0,0)"


def test_verify_decomposition_accepts_valid_split():
    system = validate_system([(1, 0), (0, 1)], 2)
    f = RationalFunction.from_values([3, 5])
    parts = Decomposition((
        RationalFunction.from_values([4, 4]),
        RationalFunction.from_values([-1, 1]),
    ))
    res = verify_decomposition(system, f, parts)
    assert res.ok and bool(res)


def test_decomposition_total():
    parts = Decomposition((
        RationalFunction.from_values([1, 2]),
        RationalFunction.from_values([3, 4]),
    ))
    assert parts.total().values == (Fraction(4), Fraction(6))


def _fraction_verify_decomposition(system, f, decomposition):
    """The Fraction-arithmetic verifier that the integer one replaced."""
    for j, part in enumerate(decomposition.parts):
        if len(part) != system.size:
            return VerificationResult(False, f"LengthMismatch({j})")
    total = decomposition.total()
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
def test_verify_decomposition_matches_the_fraction_reference(case):
    system, f, decomposition = case
    assert (verify_decomposition(system, f, decomposition)
            == _fraction_verify_decomposition(system, f, decomposition))

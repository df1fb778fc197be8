from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perdec.core import PreconditionError, RangeError, RationalFunction
from perdec.lattice import (
    LatticeWindow,
    ShiftVector,
    lattice_decompose,
    lattice_mixed_delta_zero,
    lattice_oracle_decompose,
    mixed_delta_witness,
    slice_partitions,
    unrelated_check,
    verify_lattice_parts,
    verify_point_violation,
    z_window_counterexample,
)
from perdec.oracle import DualCertificate, verify_dual
from perdec.star import replay_abelian_violation
from tests.conftest import rationals


def test_shift_vector_validation():
    assert ShiftVector((0, 3)).components == (0, 3)
    with pytest.raises(RangeError):
        ShiftVector(())
    with pytest.raises(RangeError):
        ShiftVector((0, 0))
    with pytest.raises(RangeError):
        ShiftVector((1, True))
    with pytest.raises(RangeError):
        ShiftVector((1.5, 2))


def test_unrelated_check():
    assert unrelated_check(ShiftVector((1, 0)), ShiftVector((0, 1)))
    assert unrelated_check(ShiftVector((2, 1)), ShiftVector((1, 2)))
    assert not unrelated_check(ShiftVector((2, 4)), ShiftVector((1, 2)))
    assert not unrelated_check(ShiftVector((3,)), ShiftVector((-5,)))
    with pytest.raises(PreconditionError):
        unrelated_check(ShiftVector((1,)), ShiftVector((1, 0)))


def test_window_validation_and_indexing():
    with pytest.raises(RangeError):
        LatticeWindow((2, 1), (Fraction(0),) * 2)
    with pytest.raises(RangeError):
        LatticeWindow((), ())
    with pytest.raises(RangeError):
        LatticeWindow((2, 2), (Fraction(0),) * 3)
    w = LatticeWindow((2, 3), tuple(Fraction(i) for i in range(6)))
    assert w.strides() == (3, 1)
    assert w.size == 6
    # row-major, last axis fastest
    assert w.get((1, 2)) == 5
    assert w.index((1, 0)) == 3
    for idx in range(6):
        assert w.index(w.coords(idx)) == idx
    with pytest.raises(RangeError):
        w.get((2, 0))
    with pytest.raises(RangeError):
        w.get((0,))


def test_window_restrict():
    w = LatticeWindow((3, 3), tuple(Fraction(i) for i in range(9)))
    sub = w.restrict((2, 3))
    assert sub.dims == (2, 3)
    assert sub.values == tuple(Fraction(i) for i in range(6))
    with pytest.raises(RangeError):
        w.restrict((4, 3))
    with pytest.raises(RangeError):
        w.restrict((3,))


def test_mixed_delta_witness_first_lexicographic():
    f = LatticeWindow((2, 2), (Fraction(0), Fraction(0),
                               Fraction(0), Fraction(1)))
    assert mixed_delta_witness(f) == (0, 0)
    assert not lattice_mixed_delta_zero(f)


def _dims():
    return st.lists(st.integers(2, 4), min_size=1, max_size=3).map(tuple)


def _prod(dims):
    out = 1
    for w in dims:
        out *= w
    return out


@st.composite
def separable_windows(draw):
    """Sum over axes of a random function that ignores its own axis."""
    dims = draw(_dims())
    total = [Fraction(0)] * _prod(dims)
    window = LatticeWindow(dims, tuple(total))
    for axis in range(len(dims)):
        slice_count = _prod(dims) // dims[axis]
        picks = draw(st.lists(rationals(-9, 9, 6), min_size=slice_count,
                              max_size=slice_count))
        for idx in range(len(total)):
            coords = window.coords(idx)
            sid = 0
            for i, (c, w) in enumerate(zip(coords, dims)):
                if i != axis:
                    sid = sid * w + c
            total[idx] += picks[sid]
    return LatticeWindow(dims, tuple(total))


@st.composite
def arbitrary_windows(draw):
    dims = draw(_dims())
    values = draw(st.lists(rationals(-6, 6, 4), min_size=_prod(dims),
                           max_size=_prod(dims)))
    return LatticeWindow(dims, tuple(values))


def _axis_constant(part: LatticeWindow, axis: int) -> bool:
    stride = part.strides()[axis]
    for idx in range(part.size):
        if part.coords(idx)[axis] + 1 < part.dims[axis]:
            if part.values[idx + stride] != part.values[idx]:
                return False
    return True


@given(separable_windows())
@settings(max_examples=60, deadline=None)
def test_lattice_decompose_accepts_planted_sums(f):
    assert lattice_mixed_delta_zero(f)
    parts = lattice_decompose(f)
    assert len(parts) == len(f.dims)
    total = [Fraction(0)] * f.size
    for j, p in enumerate(parts):
        assert _axis_constant(p, j)
        for i in range(f.size):
            total[i] += p.values[i]
    assert tuple(total) == f.values


@given(separable_windows(), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_lattice_decompose_gauge_choices_all_verify(f, base):
    parts = lattice_decompose(f, base=base)
    total = [Fraction(0)] * f.size
    for j, p in enumerate(parts):
        assert _axis_constant(p, j)
        for i in range(f.size):
            total[i] += p.values[i]
    assert tuple(total) == f.values
    # part j vanishes on the slice x_k = min(base, w_k - 1) of every later
    # axis k; that gauge fixes the parts uniquely, so this pins the output
    for j, p in enumerate(parts):
        for k in range(j + 1, len(f.dims)):
            b = min(base, f.dims[k] - 1)
            for idx in range(f.size):
                if f.coords(idx)[k] == b:
                    assert p.values[idx] == 0


def test_lattice_decompose_rejects_nonseparable():
    f = LatticeWindow((2, 2), (Fraction(0), Fraction(0),
                               Fraction(0), Fraction(1)))
    with pytest.raises(PreconditionError, match=r"\(0, 0\)"):
        lattice_decompose(f)
    with pytest.raises(PreconditionError):
        lattice_decompose(LatticeWindow((2, 2), (Fraction(0),) * 4), base=-1)


@given(arbitrary_windows())
@settings(max_examples=60, deadline=None)
def test_lattice_oracle_matches_mixed_delta_criterion(f):
    got = lattice_oracle_decompose(f)
    if lattice_mixed_delta_zero(f):
        assert not isinstance(got, DualCertificate)
        total = [Fraction(0)] * f.size
        for j, p in enumerate(got):
            assert _axis_constant(p, j)
            for i in range(f.size):
                total[i] += p.values[i]
        assert tuple(total) == f.values
    else:
        assert isinstance(got, DualCertificate)
        func = RationalFunction(f.values)
        assert got.pair(func) != 0
        # the dual annihilates every axis-slice indicator
        for axis in range(len(f.dims)):
            sums = {}
            for idx in range(f.size):
                coords = f.coords(idx)
                key = tuple(c for i, c in enumerate(coords) if i != axis)
                sums[key] = sums.get(key, Fraction(0)) + got.weights[idx]
            assert all(v == 0 for v in sums.values())


@given(arbitrary_windows())
@settings(max_examples=60, deadline=None)
def test_lattice_oracle_results_pass_their_verifier(f):
    got = lattice_oracle_decompose(f)
    if isinstance(got, DualCertificate):
        assert verify_dual(slice_partitions(f), RationalFunction(f.values),
                           got)
    else:
        assert verify_lattice_parts(f, got)


@given(arbitrary_windows())
@settings(max_examples=40, deadline=None)
def test_slice_partitions_group_points_by_their_other_coordinates(f):
    for axis, part in enumerate(slice_partitions(f)):
        keys = [tuple(c for i, c in enumerate(f.coords(idx)) if i != axis)
                for idx in range(f.size)]
        for a in range(f.size):
            for b in range(f.size):
                assert (part.class_of[a] == part.class_of[b]) \
                    == (keys[a] == keys[b])


def test_verify_lattice_parts_rejects_each_defect():
    f = LatticeWindow((2, 2), tuple(Fraction(v) for v in (0, 1, 10, 11)))
    parts = lattice_decompose(f)
    assert verify_lattice_parts(f, parts)
    assert not verify_lattice_parts(f, parts[:1])
    shifted = LatticeWindow((2, 2), tuple(v + 1 for v in parts[0].values))
    verdict = verify_lattice_parts(f, (shifted, parts[1]))
    assert not verdict and "sum" in verdict.reason
    # moving one unit between parts keeps the sum but breaks constancy
    bumped = list(parts[0].values)
    bumped[0] += 1
    other = list(parts[1].values)
    other[0] -= 1
    verdict = verify_lattice_parts(
        f, (LatticeWindow((2, 2), tuple(bumped)),
            LatticeWindow((2, 2), tuple(other))))
    assert not verdict and "varies" in verdict.reason


def test_verify_point_violation_checks_range_and_value():
    corner = LatticeWindow((2, 2), tuple(Fraction(v) for v in (0, 0, 0, 1)))
    assert mixed_delta_witness(corner) == (0, 0)
    assert verify_point_violation(corner, (0, 0))
    for point in ((1, 1), (0,), (0, 0, 0), (-1, 0)):
        assert not verify_point_violation(corner, point)
    flat = LatticeWindow((3, 2), (Fraction(0),) * 6)
    verdict = verify_point_violation(flat, (1, 0))
    assert not verdict and "vanishes" in verdict.reason


@given(separable_windows())
@settings(max_examples=30, deadline=None)
def test_restriction_preserves_separability(f):
    sub_dims = tuple(max(2, w - 1) for w in f.dims)
    sub = f.restrict(sub_dims)
    assert lattice_mixed_delta_zero(sub)
    lattice_decompose(sub)


def test_z_window_counterexample():
    demo = z_window_counterexample()
    assert demo.length == 10
    assert demo.shifts == (1, 1)
    assert demo.mixed_delta_zero
    viol = demo.violation
    assert viol is not None
    inst = viol.instance
    assert inst.blocks == ((0, 1),)
    assert inst.exponents == (1,)
    assert viol.value == 1
    f = RationalFunction(tuple(Fraction(x) for x in range(10)))
    assert replay_abelian_violation(demo.shifts, f, viol)
    with pytest.raises(PreconditionError):
        z_window_counterexample(2)


@given(st.integers(3, 24))
def test_z_window_counterexample_all_lengths(length):
    demo = z_window_counterexample(length)
    assert demo.mixed_delta_zero
    assert demo.violation is not None
    f = RationalFunction(tuple(Fraction(x) for x in range(length)))
    assert replay_abelian_violation((1, 1), f, demo.violation)

import sys
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perdec.core
from perdec.core import (
    PreconditionError,
    RangeError,
    RationalFunction,
    VerificationResult,
    window_difference,
)
from perdec.check import (
    DualCertificate,
    replay_abelian_violation,
    verify_dual,
    verify_lattice_parts,
    verify_point_violation,
)
from perdec.lattice import (
    LatticeWindow,
    lattice_decompose,
    lattice_oracle_decompose,
    mixed_delta_witness,
    window_size,
)
from perdec.orbits import invariance_classes
from perdec.star import check_star_abelian
from tests.conftest import (
    corner_stencil,
    pairing,
    partition_of_labels,
    rationals,
    restrict,
    window_value,
)


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
    assert window_value(w, (1, 2)) == 5
    assert w.index((1, 0)) == 3
    for idx in range(6):
        assert w.index(w.coords(idx)) == idx
    with pytest.raises(RangeError):
        window_value(w, (2, 0))
    with pytest.raises(RangeError):
        window_value(w, (0,))


def test_window_restrict():
    w = LatticeWindow((3, 3), tuple(Fraction(i) for i in range(9)))
    sub = restrict(w, (2, 3))
    assert sub.dims == (2, 3)
    assert sub.values == tuple(Fraction(i) for i in range(6))
    with pytest.raises(RangeError):
        restrict(w, (4, 3))
    with pytest.raises(RangeError):
        restrict(w, (3,))
    with pytest.raises(RangeError):
        restrict(w, (1, 3))


def _sliced(values, dims, new_dims):
    """The row-major values of the box below new_dims, read by slicing
    the nested rows of the window."""
    if len(dims) == 1:
        return list(values[:new_dims[0]])
    step = len(values) // dims[0]
    return [v for i in range(new_dims[0])
            for v in _sliced(values[i * step:(i + 1) * step], dims[1:],
                             new_dims[1:])]


@given(st.lists(st.integers(2, 4), min_size=1, max_size=3), st.data())
def test_restrict_reads_the_strides_once_and_equals_slicing(dims, data):
    new_dims = tuple(data.draw(st.integers(2, w)) for w in dims)
    size = prod(dims)
    f = LatticeWindow(dims, data.draw(st.lists(
        st.integers(-9, 9), min_size=size, max_size=size)))
    calls = []
    strides = LatticeWindow.strides

    def counted(self):
        calls.append(self.dims)
        return strides(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LatticeWindow, "strides", counted)
        sub = restrict(f, new_dims)
    assert calls == [f.dims]
    assert sub == LatticeWindow(new_dims, _sliced(f.values, f.dims, new_dims))


def test_parts_of_a_checked_window_skip_the_constructor_checks(monkeypatch):
    # f(x, y) = 3x + y + 1 splits; its parts, its oracle parts and the
    # reference restriction come from f's own checked dims and Fractions
    f = LatticeWindow((2, 3), range(1, 7))
    checked = []
    init = LatticeWindow.__init__

    def counted(self, dims, values):
        checked.append(dims)
        init(self, dims, values)

    monkeypatch.setattr(LatticeWindow, "__init__", counted)
    parts = (*lattice_decompose(f), *lattice_oracle_decompose(f),
             restrict(f, (2, 2)))
    assert checked == []
    for part in parts:
        assert part == LatticeWindow(part.dims, part.values)


def test_mixed_delta_witness_first_lexicographic():
    f = LatticeWindow((2, 2), (Fraction(0), Fraction(0),
                               Fraction(0), Fraction(1)))
    assert mixed_delta_witness(f) == (0, 0)


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
    assert mixed_delta_witness(f) is None
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
    assert [p.values for p in parts] == _fraction_slice_parts(f, base)


def _fraction_slice_parts(f, base):
    """The Fraction-arithmetic slice construction that the integer one
    replaced: part j is the rest read off the slice x_j = min(base, w_j - 1)
    for j = d-1 down to 1, and part 0 is what remains."""
    rest = list(f.values)
    parts = []
    for w, stride in zip(f.dims[:0:-1], f.strides()[:0:-1]):
        b = min(base, w - 1)
        part = [rest[idx + (b - idx // stride % w) * stride]
                for idx in range(f.size)]
        rest = [r - p for r, p in zip(rest, part)]
        parts.append(tuple(part))
    return [tuple(rest)] + parts[::-1]


def _fraction_verify_lattice_parts(f, parts):
    """The Fraction-arithmetic verifier that the integer one replaced."""
    if len(parts) != len(f.dims) or any(p.dims != f.dims for p in parts):
        return VerificationResult(False, "parts do not match the window shape")
    for idx, target in enumerate(f.values):
        if sum(p.values[idx] for p in parts) != target:
            return VerificationResult(
                False, f"parts do not sum to f at {f.coords(idx)}")
    for j, (p, w, stride) in enumerate(zip(parts, f.dims, f.strides())):
        for idx in range(f.size):
            if idx // stride % w + 1 < w \
                    and p.values[idx + stride] != p.values[idx]:
                return VerificationResult(False, f"part {j} varies along "
                                                 f"axis {j} at {f.coords(idx)}")
    return VerificationResult(True)


@given(separable_windows(), st.sampled_from(["none", "f", "part", "move"]),
       st.data())
@settings(max_examples=200, deadline=None)
def test_verify_lattice_parts_matches_the_fraction_reference(f, kind, data):
    # one value changed in f or in one part, or moved between two parts at
    # one point (which keeps the sum)
    parts = [list(p.values) for p in lattice_decompose(f)]
    target = list(f.values)
    idx = data.draw(st.integers(0, f.size - 1))
    j = data.draw(st.integers(0, len(parts) - 1))
    k = data.draw(st.integers(0, len(parts) - 1))
    change = data.draw(rationals())
    if kind == "f":
        target[idx] += change
    elif kind == "part":
        parts[j][idx] += change
    elif kind == "move":
        parts[j][idx] += change
        parts[k][idx] -= change
    f = LatticeWindow(f.dims, tuple(target))
    parts = tuple(LatticeWindow(f.dims, tuple(p)) for p in parts)
    assert (verify_lattice_parts(f, parts)
            == _fraction_verify_lattice_parts(f, parts))


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
    if mixed_delta_witness(f) is None:
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
        assert pairing(got, func) != 0
        # the dual annihilates every axis-slice indicator
        for axis in range(len(f.dims)):
            sums = {}
            for idx in range(f.size):
                coords = f.coords(idx)
                key = tuple(c for i, c in enumerate(coords) if i != axis)
                sums[key] = sums.get(key, Fraction(0)) + got.weights[idx]
            assert all(v == 0 for v in sums.values())


def _axis_partitions(f):
    return [invariance_classes(t) for t in f.axis_maps()]


def _slice_partitions(f):
    """Reference partitions: a line along axis j is labelled by its point
    with coordinate j zeroed."""
    return [partition_of_labels([idx - idx // stride % w * stride
                                   for idx in range(f.size)])
            for w, stride in zip(f.dims, f.strides())]


def _reference_mixed_delta_witness(f):
    """Reference witness: the first stencil base (lexicographic) where the
    full mixed difference of the translations by the strides is nonzero."""
    for idx in range(f.size):
        base = f.coords(idx)
        if any(c + 1 >= w for c, w in zip(base, f.dims)):
            continue
        if corner_stencil(f.values, f.strides(), idx) != 0:
            return base
    return None


@given(arbitrary_windows())
@settings(max_examples=60, deadline=None)
def test_lattice_oracle_results_pass_their_verifier(f):
    got = lattice_oracle_decompose(f)
    if isinstance(got, DualCertificate):
        assert verify_dual(_axis_partitions(f), RationalFunction(f.values),
                           got)
    else:
        assert verify_lattice_parts(f, got)


@given(arbitrary_windows())
@settings(max_examples=40, deadline=None)
def test_axis_map_partitions_group_points_by_their_other_coordinates(f):
    partitions = _axis_partitions(f)
    # ids included: the classes of the clamped axis maps are the slices
    assert partitions == _slice_partitions(f)
    for axis, part in enumerate(partitions):
        keys = [tuple(c for i, c in enumerate(f.coords(idx)) if i != axis)
                for idx in range(f.size)]
        for a in range(f.size):
            for b in range(f.size):
                assert (part.class_of[a] == part.class_of[b]) \
                    == (keys[a] == keys[b])


@given(_dims(), st.integers(0, 6))
def test_axis_maps_fix_the_upper_faces_and_commute(dims, base):
    f = LatticeWindow((2, 3), (Fraction(0),) * 6)
    assert f.axis_maps() == ((3, 4, 5, 3, 4, 5), (1, 2, 2, 4, 5, 5))
    assert f.axis_maps(0) == ((0, 1, 2, 0, 1, 2), (0, 0, 1, 3, 3, 4))
    # the map of axis j steps each point one unit toward the slice
    # x_j = min(base, w_j - 1) and fixes the slice
    f = LatticeWindow(dims, (Fraction(0),) * _prod(dims))
    maps = f.axis_maps(base)
    upper = f.axis_maps()
    for t, s in product(maps, repeat=2):
        assert all(t[s[x]] == s[t[x]] for x in range(f.size))
    for j, (t, w) in enumerate(zip(maps, dims)):
        k = min(base, w - 1)
        for x in range(f.size):
            coords = list(f.coords(x))
            coords[j] += (coords[j] < k) - (coords[j] > k)
            assert t[x] == f.index(coords)
        assert [x for x in range(f.size) if t[x] == x] \
            == [x for x in range(f.size) if f.coords(x)[j] == k]
        assert invariance_classes(t) == invariance_classes(upper[j])
    assert f.axis_maps(max(dims) - 1 + base) == upper


@st.composite
def perturbed_windows(draw):
    """A separable window with at most one value changed, so the first
    nonzero mixed difference can sit anywhere, or nowhere."""
    f = draw(separable_windows())
    values = list(f.values)
    if draw(st.booleans()):
        idx = draw(st.integers(0, f.size - 1))
        values[idx] += draw(rationals(1, 5, 3))
    return LatticeWindow(f.dims, tuple(values))


@given(st.one_of(perturbed_windows(), arbitrary_windows()))
@settings(max_examples=150, deadline=None)
def test_mixed_delta_witness_equals_the_stencil_scan(f):
    assert mixed_delta_witness(f) == _reference_mixed_delta_witness(f)


@given(st.one_of(perturbed_windows(), arbitrary_windows()))
@settings(max_examples=60, deadline=None)
def test_mixed_delta_witness_checks_no_commutation(f):
    # the window's axis maps commute by construction, so the witness reads
    # the stencil without building a system that checks them again
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(perdec.core, "commute_witness", _no_commute_check)
        assert mixed_delta_witness(f) == _reference_mixed_delta_witness(f)


def _no_commute_check(t, s):
    raise AssertionError("the witness checked its axis maps commute")


@given(perturbed_windows())
@settings(max_examples=60, deadline=None)
def test_lattice_decompose_refuses_exactly_at_the_first_witness(f):
    witness = mixed_delta_witness(f)
    for base in range(7):
        if witness is None:
            assert verify_lattice_parts(f, lattice_decompose(f, base=base))
            continue
        with pytest.raises(PreconditionError) as refusal:
            lattice_decompose(f, base=base)
        assert str(refusal.value) == f"mixed difference is nonzero at " \
                                     f"{witness}"


@given(st.one_of(perturbed_windows(), arbitrary_windows()))
@settings(max_examples=80, deadline=None)
def test_point_verifier_equals_the_corner_sum_at_every_point(f):
    # every point of the window and one step past each face: a certificate
    # holds exactly at a stencil base whose corner sum is nonzero
    for point in product(*[range(-1, w + 1) for w in f.dims]):
        base = all(0 <= c < w - 1 for c, w in zip(point, f.dims))
        expected = base and corner_stencil(f.values, f.strides(),
                                           f.index(point)) != 0
        assert verify_point_violation(f, point).ok == expected


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
    sub = restrict(f, sub_dims)
    assert mixed_delta_witness(sub) is None
    lattice_decompose(sub)


def test_z_window_counterexample():
    # f(x) = x against the equal shifts (1, 1): the double difference
    # vanishes, yet both indices fall in one block with exponent 1
    f = RationalFunction(tuple(Fraction(x) for x in range(10)))
    assert not any(window_difference(f.values, (1, 1))[1])
    viol = check_star_abelian((1, 1), f)
    assert viol is not None
    inst = viol.instance
    assert inst.blocks == ((0, 1),)
    assert inst.exponents == (1,)
    assert viol.value == 1
    assert replay_abelian_violation((1, 1), f, viol)


@given(st.integers(3, 24))
def test_z_window_counterexample_all_lengths(length):
    f = RationalFunction(tuple(Fraction(x) for x in range(length)))
    assert not any(window_difference(f.values, (1, 1))[1])
    viol = check_star_abelian((1, 1), f)
    assert viol is not None
    assert replay_abelian_violation((1, 1), f, viol)


class _CountedExtent(int):
    """An extent that counts the products it enters: `size *= w` calls
    the subclass's reflected product first."""

    products = 0

    def __rmul__(self, other):
        _CountedExtent.products += 1
        return int(other) * int(self)


def test_window_size_stops_multiplying_past_the_digit_limit():
    # linear in the axes: 400k axes of extent 2 take about as many
    # products as the limit has bits, not one per axis on a growing count
    limit = sys.get_int_max_str_digits()
    _CountedExtent.products = 0
    with pytest.raises(RangeError, match=f"more than {limit} digits"):
        window_size([_CountedExtent(2)] * 400_000)
    assert _CountedExtent.products <= 4 * limit + 1
    # the last count that prints, and the first that does not
    assert window_size((10,) * (limit - 1) + (9,)) == 9 * 10 ** (limit - 1)
    with pytest.raises(RangeError):
        window_size((10,) * limit)
    # every extent is still checked, after the count stops growing
    with pytest.raises(RangeError, match="extent 1 must be"):
        window_size((2,) * 20_000 + (1,))

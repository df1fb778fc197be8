import contextlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from itertools import product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perdec.core
import perdec.lattice
from perdec.check import (
    DualCertificate,
    StarInstance,
    StarViolation,
    replay_violation,
    verify_dual,
    verify_parts,
)
from perdec.cli import run_command
from perdec.core import (
    Decomposition,
    RangeError,
    RationalFunction,
    _trusted_system,
    window_difference,
)
from perdec.decomp import decompose_n
from perdec.lattice import axis_maps, window_size
from perdec.oracle import verified_split
from perdec.orbits import invariance_classes
from perdec.serialize import parse_instance
from perdec.star import check_star, check_star_abelian
from tests.conftest import (
    corner_stencil,
    pairing,
    partition_of_labels,
    rationals,
)


def _strides(dims):
    """Row-major strides, last axis fastest."""
    return tuple(prod(dims[i + 1:]) for i in range(len(dims)))


def _coords(dims, idx):
    return tuple(idx // stride % w for w, stride in zip(dims, _strides(dims)))


def _index(dims, coords):
    return sum(c * stride for c, stride in zip(coords, _strides(dims)))


def _system(dims):
    return _trusted_system(prod(dims), axis_maps(dims))


def _dims():
    return st.lists(st.integers(2, 4), min_size=1, max_size=3).map(tuple)


@st.composite
def separable_windows(draw):
    """(dims, f): a sum over the axes of a random function that ignores
    its own axis."""
    dims = draw(_dims())
    size = prod(dims)
    total = [Fraction(0)] * size
    for axis in range(len(dims)):
        picks = draw(st.lists(rationals(-9, 9, 6), min_size=size // dims[axis],
                              max_size=size // dims[axis]))
        for idx in range(size):
            sid = 0
            for i, (c, w) in enumerate(zip(_coords(dims, idx), dims)):
                if i != axis:
                    sid = sid * w + c
            total[idx] += picks[sid]
    return dims, RationalFunction(total)


@st.composite
def arbitrary_windows(draw):
    dims = draw(_dims())
    values = draw(st.lists(rationals(-6, 6, 4), min_size=prod(dims),
                           max_size=prod(dims)))
    return dims, RationalFunction(values)


@st.composite
def perturbed_windows(draw):
    """A separable window with at most one value changed, so the first
    nonzero mixed difference can sit anywhere, or nowhere."""
    dims, f = draw(separable_windows())
    values = list(f.values)
    if draw(st.booleans()):
        idx = draw(st.integers(0, len(f) - 1))
        values[idx] += draw(rationals(1, 5, 3))
    return dims, RationalFunction(values)


def _axis_constant(dims, part, axis):
    stride = _strides(dims)[axis]
    return all(part.values[idx + stride] == part.values[idx]
               for idx in range(len(part))
               if _coords(dims, idx)[axis] + 1 < dims[axis])


def _reference_witness(dims, f):
    """The first stencil base (row-major) where the full mixed difference
    of the translations by the strides is nonzero, or None."""
    for idx in range(len(f)):
        if any(c + 1 >= w for c, w in zip(_coords(dims, idx), dims)):
            continue
        if corner_stencil(f.values, _strides(dims), idx) != 0:
            return idx
    return None


def _slice_partitions(dims):
    """Reference partitions: a line along axis j is labelled by its point
    with coordinate j zeroed."""
    size = prod(dims)
    return [partition_of_labels([idx - idx // stride % w * stride
                                 for idx in range(size)])
            for w, stride in zip(dims, _strides(dims))]


def test_window_size_checks_every_extent():
    assert window_size((2, 3)) == 6
    for dims in ((2, 1), (), (2, True), (2, 2.0)):
        with pytest.raises(RangeError):
            window_size(dims)


@given(_dims())
def test_axis_maps_fix_the_upper_faces_and_commute(dims):
    assert axis_maps((2, 3)) == ((3, 4, 5, 3, 4, 5), (1, 2, 2, 4, 5, 5))
    maps = axis_maps(dims)
    size = prod(dims)
    for t, s in product(maps, repeat=2):
        assert all(t[s[x]] == s[t[x]] for x in range(size))
    # the map of axis j steps each point one unit along axis j and fixes
    # the upper face x_j = w_j - 1
    for j, (t, w) in enumerate(zip(maps, dims)):
        for x in range(size):
            coords = list(_coords(dims, x))
            coords[j] += coords[j] < w - 1
            assert t[x] == _index(dims, coords)


@given(_dims())
@settings(max_examples=40)
def test_axis_map_classes_are_the_lines_along_each_axis(dims):
    # ids included: the classes of the upper-face maps are the slices
    assert [invariance_classes(t) for t in axis_maps(dims)] \
        == _slice_partitions(dims)


def test_a_window_builds_its_system_once_and_checks_no_commutation(
        monkeypatch):
    # the axis maps commute by construction, so parsing a window builds
    # them once and does not check them again
    calls = []
    build = perdec.lattice.axis_maps

    def counted(dims):
        calls.append(dims)
        return build(dims)

    def no_commute_check(t, s):
        raise AssertionError("the window's axis maps were checked")

    monkeypatch.setattr(perdec.lattice, "axis_maps", counted)
    monkeypatch.setattr(perdec.core, "commute_witness", no_commute_check)
    inst = parse_instance({"kind": "lattice-window", "dims": [2, 3],
                           "values": ["1"] * 6})
    assert calls == [(2, 3)]
    assert inst.dims == (2, 3)
    assert inst.system.size == 6
    assert inst.maps() is inst.system.transforms == build((2, 3))
    assert calls == [(2, 3)]


@given(separable_windows())
@settings(max_examples=60, deadline=None)
def test_decompose_n_splits_planted_windows_into_axis_constant_parts(window):
    dims, f = window
    assert check_star(_system(dims), f) is None
    parts = decompose_n(_system(dims), f).parts
    assert len(parts) == len(dims)
    for j, p in enumerate(parts):
        assert _axis_constant(dims, p, j)
    assert [sum(p.values[i] for p in parts) for i in range(len(f))] \
        == list(f.values)
    # the gauge pins the parts: part j < d - 1 is the rest read off the
    # upper face of axis j, so it vanishes on the upper face of every
    # earlier axis
    assert [p.values for p in parts] == _fraction_face_parts(dims, f)


def _fraction_face_parts(dims, f):
    """The Fraction-arithmetic face construction: part j is the rest read
    off the face x_j = w_j - 1 for j = 0 up to d - 2, and the last part is
    what remains."""
    rest = list(f.values)
    parts = []
    for w, stride in zip(dims[:-1], _strides(dims)[:-1]):
        part = [rest[idx + (w - 1 - idx // stride % w) * stride]
                for idx in range(len(f))]
        rest = [r - p for r, p in zip(rest, part)]
        parts.append(tuple(part))
    return parts + [tuple(rest)]


def _fraction_parts_ok(dims, f, parts):
    """The Fraction-arithmetic check of a window split: parts sum to f and
    part j is constant along axis j."""
    return (all(sum(p.values[idx] for p in parts) == target
                for idx, target in enumerate(f.values))
            and all(_axis_constant(dims, p, j) for j, p in enumerate(parts)))


@given(separable_windows(), st.sampled_from(["none", "f", "part", "move"]),
       st.data())
@settings(max_examples=200, deadline=None)
def test_verify_parts_on_axis_maps_matches_the_fraction_reference(
        window, kind, data):
    # one value changed in f or in one part, or moved between two parts at
    # one point (which keeps the sum)
    dims, f = window
    parts = [list(p.values) for p in decompose_n(_system(dims), f).parts]
    target = list(f.values)
    idx = data.draw(st.integers(0, len(f) - 1))
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
    f = RationalFunction(target)
    parts = [RationalFunction(p) for p in parts]
    assert verify_parts(axis_maps(dims), f, parts).ok \
        == _fraction_parts_ok(dims, f, parts)


def test_verify_parts_on_axis_maps_names_each_defect():
    dims, f = (2, 2), RationalFunction([0, 1, 10, 11])
    parts = decompose_n(_system(dims), f).parts
    maps = axis_maps(dims)
    assert verify_parts(maps, f, parts)
    assert not verify_parts(maps, f, parts[:1])
    shifted = RationalFunction([v + 1 for v in parts[0].values])
    assert verify_parts(maps, f, (shifted, parts[1])).reason \
        == "SumMismatch(0)"
    # moving one unit between parts keeps the sum but breaks constancy
    bumped = RationalFunction([parts[0].values[0] + 1,
                               *parts[0].values[1:]])
    other = RationalFunction([parts[1].values[0] - 1, *parts[1].values[1:]])
    assert verify_parts(maps, f, (bumped, other)).reason \
        == "NotInvariant(0,0)"


@given(st.one_of(perturbed_windows(), arbitrary_windows()))
@settings(max_examples=150, deadline=None)
def test_a_window_refuses_exactly_at_the_first_nonzero_stencil(window):
    # the star check and decompose_n refuse at the first stencil base
    # whose corner sum is nonzero, with the all-singleton instance
    dims, f = window
    witness = _reference_witness(dims, f)
    violation = check_star(_system(dims), f)
    outcome = decompose_n(_system(dims), f)
    if witness is None:
        assert violation is None
        assert verify_parts(axis_maps(dims), f, outcome.parts)
        return
    d = len(dims)
    assert violation == outcome
    assert violation.instance == StarInstance(
        tuple((j,) for j in range(d)), tuple(range(d)), (1,) * d, (), witness)
    assert violation.value == corner_stencil(f.values, _strides(dims),
                                             witness)
    assert replay_violation(f, violation, _system(dims).transforms)


@given(st.one_of(perturbed_windows(), arbitrary_windows()))
@settings(max_examples=80, deadline=None)
def test_a_stored_violation_replays_exactly_at_a_nonzero_stencil_base(window):
    # at every point, the all-singleton violation replays exactly where
    # the point is a stencil base with a nonzero corner sum, and with
    # that sum as its value
    dims, f = window
    d = len(dims)
    for z in range(len(f)):
        base = all(c + 1 < w for c, w in zip(_coords(dims, z), dims))
        value = corner_stencil(f.values, _strides(dims), z) if base else 0
        instance = StarInstance(tuple((j,) for j in range(d)),
                                tuple(range(d)), (1,) * d, (), z)
        for stored in {value, Fraction(1)}:
            violation = StarViolation(instance, stored, "MixedDeltaNonzero")
            assert replay_violation(f, violation, _system(dims).transforms) \
                == (stored == value != 0)


@given(arbitrary_windows())
@settings(max_examples=60, deadline=None)
def test_the_oracle_on_axis_maps_matches_the_stencil_criterion(window):
    dims, f = window
    got = verified_split(axis_maps(dims), f)
    partitions = [invariance_classes(t) for t in axis_maps(dims)]
    if _reference_witness(dims, f) is None:
        assert isinstance(got, Decomposition)
        assert _fraction_parts_ok(dims, f, got.parts)
        return
    assert isinstance(got, DualCertificate)
    assert verify_dual(partitions, f, got)
    assert pairing(got, f) != 0
    # the dual annihilates every axis-slice indicator
    for axis in range(len(dims)):
        sums = {}
        for idx in range(len(f)):
            key = tuple(c for i, c in enumerate(_coords(dims, idx))
                        if i != axis)
            sums[key] = sums.get(key, Fraction(0)) + got.weights[idx]
        assert all(v == 0 for v in sums.values())


def _sliced(values, dims, new_dims):
    """The row-major values of the box below new_dims, read by slicing
    the nested rows of the window."""
    if len(dims) == 1:
        return list(values[:new_dims[0]])
    step = len(values) // dims[0]
    return [v for i in range(new_dims[0])
            for v in _sliced(values[i * step:(i + 1) * step], dims[1:],
                             new_dims[1:])]


@given(separable_windows())
@settings(max_examples=30, deadline=None)
def test_restriction_preserves_separability(window):
    dims, f = window
    sub_dims = tuple(max(2, w - 1) for w in dims)
    sub = RationalFunction(_sliced(f.values, dims, sub_dims))
    assert isinstance(decompose_n(_system(sub_dims), sub), Decomposition)


# ---------------------------------------------------------------------------
# the CLI reads a window as the finite instance of its axis maps


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(argv)
    return code, out.getvalue()


WINDOW_COMMANDS = ("decompose", "oracle", "star-check", "lattice-decompose")


@given(st.one_of(perturbed_windows(), arbitrary_windows()))
@settings(max_examples=40, deadline=None)
def test_every_window_command_gives_one_verdict_and_each_result_verifies(
        window):
    dims, f = window
    with tempfile.TemporaryDirectory() as tmp:
        inst = Path(tmp, "inst.json")
        inst.write_text(json.dumps({
            "kind": "lattice-window", "dims": list(dims),
            "values": [str(v) for v in f.values]}))
        codes = set()
        for command in WINDOW_COMMANDS:
            code, out = _cli([command, str(inst)])
            codes.add(code)
            result = Path(tmp, f"{command}.json")
            result.write_text(out)
            assert json.loads(_cli([command, str(inst), "--verify",
                                    str(result)])[1]) \
                == {"result": "verified", "agrees": True}
    assert codes == {0 if _reference_witness(dims, f) is None else 1}


@pytest.mark.parametrize("command", ["oracle", "decompose",
                                     "lattice-decompose"])
@pytest.mark.parametrize("values", [["1"] * 6, ["0", "0", "0", "0", "1",
                                                "0"]],
                         ids=["split", "refused"])
def test_a_window_run_and_its_replay_each_build_the_maps_once(
        tmp_path, monkeypatch, command, values):
    calls = []
    build = perdec.lattice.axis_maps

    def counted(dims):
        calls.append(dims)
        return build(dims)

    monkeypatch.setattr(perdec.lattice, "axis_maps", counted)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"kind": "lattice-window", "dims": [2, 3],
                                "values": values}))
    code, out = _cli([command, str(inst)])
    assert code in (0, 1) and calls == [(2, 3)]
    result = tmp_path / "result.json"
    result.write_text(out)
    calls.clear()
    assert _cli([command, str(inst), "--verify", str(result)])[0] == 0
    assert calls == [(2, 3)]


# ---------------------------------------------------------------------------
# windows of Z


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
    assert replay_violation(f, viol, shifts=(1, 1))


@given(st.integers(3, 24))
def test_z_window_counterexample_all_lengths(length):
    f = RationalFunction(tuple(Fraction(x) for x in range(length)))
    assert not any(window_difference(f.values, (1, 1))[1])
    viol = check_star_abelian((1, 1), f)
    assert viol is not None
    assert replay_violation(f, viol, shifts=(1, 1))


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

import contextlib
import io
import json
import os
import random
import tempfile
import time
from fractions import Fraction
from functools import partial
from itertools import product
from math import lcm
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perdec import check, generators
from perdec.check import (
    StarInstance,
    StarViolation,
    replay_violation,
    verify_star_pass,
)
from perdec.cli import run_command
from perdec.core import (
    PreconditionError,
    RangeError,
    RationalFunction,
    validate_system,
    window_difference,
)
from perdec.serialize import dumps, result_to_json, values_to_json
from perdec.star import check_star, check_star_abelian
from tests.conftest import (
    constant,
    corner_stencil,
    counted_tuple,
    mixed_difference_rows,
    ordered_partitions,
    power_table,
    systems,
    systems_with_functions,
    value_functions,
    zero,
)


def test_partitions_counts_and_order():
    # Bell numbers, with the all-singleton partition always first
    for n, bell in ((0, 1), (1, 1), (2, 2), (3, 5), (4, 15)):
        parts = ordered_partitions(n)
        assert len(parts) == bell
        if n:
            assert parts[0] == tuple((i,) for i in range(n))
    assert ordered_partitions(2) == (((0,), (1,)), ((0, 1),))


def test_check_star_rejects_bad_inputs():
    system = validate_system([(1, 0)], 2)
    with pytest.raises(PreconditionError):
        check_star(system, zero(3))


def test_check_star_single_swap_violation():
    system = validate_system([(1, 0)], 2)
    f = RationalFunction((Fraction(0), Fraction(1)))
    viol = check_star(system, f)
    assert viol is not None
    assert viol.kind == "MixedDeltaNonzero"
    assert viol.instance == StarInstance(
        blocks=((0,),), distinguished=(0,), exponents=(1,), premises=(), z=0)
    assert viol.value == 1
    assert replay_violation(f, viol, system.transforms)


def test_replay_rejects_tampered_violations():
    system = validate_system([(1, 0)], 2)
    f = RationalFunction((Fraction(0), Fraction(1)))
    viol = check_star(system, f)
    inst = viol.instance
    assert not replay_violation(f, StarViolation(
        inst, viol.value + 1, viol.kind), system.transforms)
    moved = StarInstance(inst.blocks, inst.distinguished, inst.exponents,
                         inst.premises, z=1)
    # z=1 flips the sign, so the stored value no longer matches
    assert not replay_violation(f, StarViolation(
        moved, viol.value, viol.kind), system.transforms)
    dropped = StarInstance(((0,), (1,)), (0, 1), (1, 1), (), 0)
    assert not replay_violation(f, StarViolation(
        dropped, viol.value, viol.kind), system.transforms)


def test_check_star_values_are_exact_past_64_bits():
    system = validate_system([(1, 0)], 2)
    for big in (Fraction(1 << 62), Fraction(1 << 62, 3), Fraction(1, 1 << 62)):
        viol = check_star(system, RationalFunction((Fraction(0), big)))
        assert viol.instance.z == 0
        assert viol.value == big
        assert type(viol.value) is Fraction


@given(systems(max_size=5), st.integers(0, 10 ** 9))
@settings(max_examples=50, deadline=None)
def test_check_star_passes_on_planted_decompositions(system, seed):
    rng = random.Random(f"necessity:{seed}")
    f = generators.decomposable_function(rng, system)
    assert check_star(system, f) is None


@given(systems_with_functions(max_size=5))
@settings(max_examples=40, deadline=None)
def test_check_star_violations_replay(case):
    system, f = case
    viol = check_star(system, f)
    if viol is not None:
        assert replay_violation(f, viol, system.transforms)


def _premise_witness(pow_tables, h, k, i, z, lmin, bound):
    """First (i, l, l2) with h^k i^l z = i^{l2} z, by explicit loops."""
    for l in range(lmin, bound + 1):
        for l2 in range(lmin, bound + 1):
            if pow_tables[h][k][pow_tables[i][l][z]] == pow_tables[i][l2][z]:
                return (i, l, l2)
    return None


def _reference_check_star(system, f, bound, lmin, cap_singletons=True):
    """check_star from the definition: explicit premise loops, one-element
    blocks at exponent 1 (up to bound too unless cap_singletons), every
    other head exponent up to bound."""
    pow_tables = [power_table(t, bound) for t in system.transforms]
    for blocks in ordered_partitions(system.n):
        for heads in product(*blocks):
            ranges = [range(1, 2 if cap_singletons and len(block) == 1
                            else bound + 1)
                      for block in blocks]
            for kvec in product(*ranges):
                for z in range(system.size):
                    premises = [
                        _premise_witness(pow_tables, h, k, i, z, lmin, bound)
                        for block, h, k in zip(blocks, heads, kvec)
                        for i in block if i != h]
                    if None in premises:
                        continue
                    value = Fraction(0)
                    for subset in product((0, 1), repeat=len(blocks)):
                        w = z
                        for use, h, k in zip(subset, heads, kvec):
                            if use:
                                w = pow_tables[h][k][w]
                        sign = (-1) ** (len(blocks) - sum(subset))
                        value += sign * f[w]
                    if value:
                        return StarViolation(
                            StarInstance(blocks, heads, kvec,
                                         tuple(sorted(premises)), z),
                            value, "MixedDeltaNonzero")
    return None


@given(st.sampled_from([None, "mixed_kernel"]), st.integers(1, 4),
       st.integers(0, 1), st.data())
@settings(max_examples=80, deadline=None)
def test_check_star_matches_the_definition(style, n, lmin, data):
    # mixed-kernel functions pass the all-singleton partition, so the
    # reference goes on to the multi-element blocks and their premises,
    # under every exponent bound and premise convention it is given
    system, f = data.draw(systems_with_functions(n=n, max_size=4,
                                                 style=style))
    bound = data.draw(st.integers(1, 2 * system.size))
    assert check_star(system, f) == _reference_check_star(system, f, bound,
                                                          lmin)


def test_replay_refuses_huge_exponents_quickly():
    # 0 -> 1 -> 2 -> 2: t^(10**11) sends 0 to the fixed point 2, so the
    # stored value is true, but a finite replay accepts exponent 1 alone
    system = validate_system([(1, 2, 2)], 3)
    f = RationalFunction((Fraction(0), Fraction(0), Fraction(5)))
    far = StarViolation(StarInstance(((0,),), (0,), (10 ** 11,), (), 0),
                        Fraction(5), "MixedDeltaNonzero")
    # two swaps in one block, premise 1^(10**11) 0 = 1^1 0
    swaps = validate_system([(1, 0), (1, 0)], 2)
    g = RationalFunction((Fraction(0), Fraction(1)))
    odd = StarViolation(
        StarInstance(((0, 1),), (0,), (10 ** 11 + 1,),
                     ((1, 10 ** 11, 1),), 0),
        Fraction(1), "MixedDeltaNonzero")
    start = time.perf_counter()
    assert not replay_violation(f, far, system.transforms)
    assert not replay_violation(g, odd, swaps.transforms)
    assert time.perf_counter() - start < 1.0


def _reference_finite_replay(system, f, violation):
    """Reference finite replay from the definition: the instance is the
    all-singleton one at exponent 1 with z in range, and the stored value
    is the nonzero mixed difference D_1...D_n f at z, summed over the row
    of `mixed_difference_rows`."""
    n, z = system.n, violation.instance.z
    if violation.instance != StarInstance(tuple((j,) for j in range(n)),
                                          tuple(range(n)), (1,) * n, (), z) \
            or not 0 <= z < system.size:
        return False
    value = sum(w * v for w, v in zip(mixed_difference_rows(system)[z],
                                      f.values))
    return value != 0 and value == violation.value


@given(systems_with_functions(max_size=5))
@settings(max_examples=80, deadline=None)
def test_finite_replay_equals_the_definition_on_violations_and_twins(case):
    # each check_star violation and its tampered twins: z +- 1, value + 1,
    # an added block, the blocks reversed, the first head at exponent 2
    # and a stray premise
    system, f = case
    violation = check_star(system, f)
    if violation is None:
        return
    inst, value, n = violation.instance, violation.value, system.n
    twins = [StarViolation(StarInstance(inst.blocks, inst.distinguished,
                                        inst.exponents, (), inst.z + dz),
                           value, violation.kind) for dz in (-1, 1)]
    twins += [
        StarViolation(inst, value + 1, violation.kind),
        StarViolation(StarInstance(inst.blocks + ((n,),),
                                   inst.distinguished + (n,),
                                   inst.exponents + (1,), (), inst.z),
                      value, violation.kind),
        StarViolation(StarInstance(inst.blocks[::-1], inst.distinguished,
                                   inst.exponents, (), inst.z),
                      value, violation.kind),
        StarViolation(StarInstance(inst.blocks, inst.distinguished,
                                   (2,) + inst.exponents[1:], (), inst.z),
                      value, violation.kind),
        StarViolation(StarInstance(inst.blocks, inst.distinguished,
                                   inst.exponents, ((0, 0, 0),), inst.z),
                      value, violation.kind)]
    assert replay_violation(f, violation, system.transforms)
    assert _reference_finite_replay(system, f, violation)
    for twin in twins:
        assert replay_violation(f, twin, system.transforms) \
            == _reference_finite_replay(system, f, twin)


@given(systems_with_functions(max_size=4))
@settings(max_examples=30, deadline=None)
def test_singleton_exponent_cap_preserves_the_verdict(case):
    system, f = case
    passed = check_star(system, f) is None
    uncapped = _reference_check_star(system, f, 2 * system.size, 0,
                                     cap_singletons=False)
    assert passed == (uncapped is None)


@given(st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_cyclic_star_check_matches_the_definition(m, data):
    # Z_m shifts are total maps on a finite set: the command's verdict and
    # certificate are those of every partition scanned from the definition
    shifts = [data.draw(st.integers(-m, 2 * m))
              for _ in range(data.draw(st.integers(1, 3)))]
    f = data.draw(value_functions(m))
    system = validate_system([tuple((x + a) % m for x in range(m))
                              for a in shifts], m)
    expected = _reference_check_star(system, f, 2 * m, 0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps({"kind": "cyclic-group", "modulus": m,
                            "shifts": shifts, "values": values_to_json(f)}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run_command(["star-check", path])
    doc = json.loads(out.getvalue())
    if expected is None:
        assert (code, doc) == (0, {"result": "pass"})
    else:
        assert (code, doc) == (1, result_to_json(expected))


def test_abelian_window_shift_two():
    f = RationalFunction(tuple(Fraction(x) for x in range(5)))
    viol = check_star_abelian((2,), f)
    assert viol is not None
    assert viol.value == 2
    assert replay_violation(f, viol, shifts=(2,))
    periodic = RationalFunction(tuple(Fraction(x % 2) for x in range(5)))
    assert check_star_abelian((2,), periodic) is None


def test_abelian_failing_singleton_stencil_skips_the_partitions(
        monkeypatch):
    # x^16 has 16th difference 16! at z = 0; the verdict needs one pass per
    # block of the all-singleton stencil and none of the other Bell(16)
    # ~ 1e10 set partitions
    calls = _counted_stencils(monkeypatch, 16)
    shifts = (1,) * 16
    f = RationalFunction(tuple(Fraction(x ** 16) for x in range(18)))
    viol = check_star_abelian(shifts, f)
    assert viol is not None
    assert viol.instance.exponents == (1,) * 16 and viol.instance.z == 0
    assert viol.value == 20922789888000
    assert replay_violation(f, viol, shifts=shifts)
    assert calls[0] <= 16


def _natural_multiple(a, b):
    """Smallest m >= 0 with m*a = b over Z, else None."""
    if b == 0:
        return 0
    if a == 0:
        return None
    m, r = divmod(b, a)
    return m if r == 0 and m >= 0 else None


def _unpruned_abelian(shifts, f, cap_singletons=True):
    """Reference window check: every partition, head choice and exponent
    vector up to 2 * len(f) (singleton blocks at 1 unless not
    cap_singletons), in scan order, with no stencil skipped, each summed
    corner by corner."""
    bound = 2 * len(f)
    for blocks in ordered_partitions(len(shifts)):
        for heads in product(*blocks):
            for kvec in product(*[range(1, (2 if cap_singletons
                                            and len(block) == 1
                                            else bound + 1))
                                  for block in blocks]):
                premises = [(i, 0, _natural_multiple(shifts[i],
                                                     k * shifts[h]))
                            for block, h, k in zip(blocks, heads, kvec)
                            for i in block if i != h]
                if any(mult is None for _, _, mult in premises):
                    continue
                offsets = [k * shifts[h] for h, k in zip(heads, kvec)]
                for z in range(len(f)):
                    value = corner_stencil(f.values, offsets, z)
                    if value:
                        return StarViolation(
                            StarInstance(blocks, heads, kvec,
                                         tuple(sorted(premises)), z),
                            value, "MixedDeltaNonzero")
    return None


@st.composite
def windows(draw, nmax=4, size_max=12):
    """Shifts and a function on a window of Z: random small values, or a
    sum of periodic parts with at most one value bumped, which passes
    more stencils."""
    shifts = draw(st.lists(st.integers(-3, 4), min_size=1, max_size=nmax))
    size = draw(st.integers(1, size_max))
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(-2, 2), min_size=size,
                               max_size=size))
    else:
        periods = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
        values = [sum(x % p for p in periods) for x in range(size)]
        if draw(st.booleans()):
            values[draw(st.integers(0, size - 1))] += 1
    return shifts, RationalFunction(tuple(Fraction(v) for v in values))


def _window(values):
    return RationalFunction(tuple(Fraction(v) for v in values))


# f(x) = x, plus or minus a 2-periodic part, on 13 points; against each
# of these shifts f(x) = x violates at a multi-element block's least
# common multiple while twice it still fits in the window
_LCM_WINDOWS = [(shifts, _window([x + sign * (x % 2) for x in range(13)]))
                for shifts in [(1, 1), (2, 2), (1, 2), (2, 4), (3, 3),
                               (1, 1, 2)]
                for sign in (0, 1, -1)]
# sums of periodic parts that every partition stencil passes
_PASSING_WINDOWS = [
    ((2, 3), _window([x % 2 + (x % 3) ** 2 for x in range(14)])),
    ((2, 4), _window([x % 2 + (x % 4) ** 2 for x in range(14)])),
    ((3, 3), _window([(x % 3) ** 2 for x in range(13)])),
]


def _with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test
    return decorate


@given(windows())
@_with_examples(_LCM_WINDOWS + _PASSING_WINDOWS)
@settings(max_examples=300, deadline=None)
def test_abelian_check_equals_the_unpruned_scan(case):
    # one head per block, each block only at its least common multiple
    # and each offset multiset once change no verdict and no certificate
    # field; for n <= 2 not even against singletons at every exponent
    shifts, f = case
    got = check_star_abelian(shifts, f)
    assert got == _unpruned_abelian(shifts, f)
    if len(shifts) <= 2:
        assert got == _unpruned_abelian(shifts, f, cap_singletons=False)


@st.composite
def scan_windows(draw):
    """Up to six shifts in -4..7 and integer values on at most 36 points:
    random, a sum of periodic parts with at most one value bumped, or a
    polynomial."""
    shifts = draw(st.lists(st.integers(-4, 7), min_size=1, max_size=6))
    size = draw(st.integers(1, 36))
    style = draw(st.sampled_from(["random", "periodic", "polynomial"]))
    if style == "random":
        return shifts, draw(st.lists(st.integers(-3, 3), min_size=size,
                                     max_size=size))
    if style == "periodic":
        parts = draw(st.lists(st.lists(st.integers(-3, 3), min_size=1,
                                       max_size=6), min_size=1, max_size=3))
        values = [sum(p[x % len(p)] for p in parts) for x in range(size)]
        if draw(st.booleans()):
            values[draw(st.integers(0, size - 1))] += 1
        return shifts, values
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=5))
    return shifts, [sum(c * x ** i for i, c in enumerate(coeffs))
                    for x in range(size)]


def _plain_window_scan(shifts, values):
    """Reference window scan: every set partition in scan order, each
    block at its signed least common multiple unless that holds a zero
    shift, mixes signs or leaves the window, with no stencil skipped."""
    for blocks in ordered_partitions(len(shifts)):
        members = [[shifts[i] for i in block] for block in blocks]
        if any(min(m) <= 0 <= max(m) for m in members):
            continue
        offsets = [lcm(*m) if m[0] > 0 else -lcm(*m) for m in members]
        if any(abs(o) >= len(values) for o in offsets):
            continue
        lo, row = window_difference(values, offsets)
        for j, value in enumerate(row):
            if value:
                return blocks, lo + j, value
    return None


@given(scan_windows())
@settings(max_examples=300, deadline=None)
def test_window_scan_equals_the_plain_partition_walk(case):
    # dropping vanishing prefixes, their blocks' extensions and blocks out
    # of reach changes no hit and no field of it
    shifts, values = case
    assert check.window_scan(shifts, values) \
        == _plain_window_scan(shifts, values)


@given(st.lists(st.integers(-4, 6), max_size=5), st.data())
@settings(max_examples=100, deadline=None)
def test_window_difference_equals_the_corner_sum(offsets, data):
    values = data.draw(st.lists(st.integers(-5, 5), max_size=16))
    lo, row = window_difference(values, offsets)
    got = dict(enumerate(row, lo))
    expected = [corner_stencil(values, offsets, z)
                for z in range(len(values))]
    assert [got.get(z) for z in range(len(values))] == expected
    assert len(got) == sum(value is not None for value in expected)


@given(st.lists(st.integers(-4, 6), max_size=5),
       st.integers(1, 16).flatmap(value_functions), st.data())
@settings(max_examples=100, deadline=None)
def test_stencil_value_is_the_corner_sum_numerator(offsets, f, data):
    # an int over f.denom wherever every corner lies in the domain
    z = data.draw(st.integers(0, len(f) - 1))
    expected = corner_stencil(f.values, offsets, z)
    if expected is None:
        return
    got = check.stencil_value(f, z, [partial(add, o) for o in offsets])
    assert type(got) is int
    assert got == expected * f.denom


def _reference_abelian_replay(shifts, f, violation):
    """Reference window replay from the definitions: the blocks partition
    the shift indices, each nonempty with member shifts of one sign and
    least common multiple l; the head is the block's first index h at
    exponent l / |a_h|, each other member i has the premise
    (i, 0, l / |a_i|); and the stored value is the nonzero corner sum at
    z with one offset +-l per block."""
    inst = violation.instance
    if sorted(i for block in inst.blocks for i in block) \
            != list(range(len(shifts))):
        return False
    members = [[shifts[i] for i in block] for block in inst.blocks]
    if any(not m or min(m) <= 0 <= max(m) for m in members):
        return False
    lcms = [lcm(*m) for m in members]
    premises = sorted((i, 0, l // abs(a))
                      for block, m, l in zip(inst.blocks, members, lcms)
                      for i, a in zip(block[1:], m[1:]))
    if (inst.distinguished != tuple(block[0] for block in inst.blocks)
            or inst.exponents != tuple(l // abs(m[0])
                                       for m, l in zip(members, lcms))
            or inst.premises != tuple(premises)):
        return False
    value = corner_stencil(f.values, [l if m[0] > 0 else -l
                                      for m, l in zip(members, lcms)],
                           inst.z)
    return value is not None and value == violation.value and value != 0


@given(windows())
@settings(max_examples=150, deadline=None)
def test_the_pass_checker_agrees_with_the_window_check(case):
    shifts, f = case
    assert bool(verify_star_pass(f, shifts=shifts)) == (
        check_star_abelian(shifts, f) is None)


@given(systems_with_functions())
@settings(max_examples=80, deadline=None)
def test_the_pass_checker_agrees_with_the_finite_check(case):
    system, f = case
    assert bool(verify_star_pass(f, system.transforms)) == (
        check_star(system, f) is None)


def _window_twins(violation):
    """Tampered twins of a window violation: its first block at twice the
    exponent with matching premises, its first head moved to the block's
    last index, a premise dropped, and an empty block before and after."""
    inst, value, kind = violation.instance, violation.value, violation.kind
    block = inst.blocks[0]
    doubled = tuple((i, l, 2 * m) if i in block else (i, l, m)
                    for i, l, m in inst.premises)
    twins = [
        StarInstance(inst.blocks, inst.distinguished,
                     (2 * inst.exponents[0],) + inst.exponents[1:], doubled,
                     inst.z),
        StarInstance(inst.blocks, (block[-1],) + inst.distinguished[1:],
                     inst.exponents, inst.premises, inst.z),
        StarInstance(inst.blocks, inst.distinguished, inst.exponents,
                     inst.premises[1:], inst.z),
        StarInstance(((),) + inst.blocks, (0,) + inst.distinguished,
                     (1,) + inst.exponents, inst.premises, inst.z),
        StarInstance(inst.blocks + ((),), inst.distinguished + (0,),
                     inst.exponents + (1,), inst.premises, inst.z)]
    return [StarViolation(twin, value, kind) for twin in twins]


@given(windows())
@_with_examples(_LCM_WINDOWS)
@settings(max_examples=150, deadline=None)
def test_abelian_replay_equals_the_corner_reference(case):
    # the genuine certificate replays; moved to every z in [-1, L], with
    # its value and its value +- 1, and each tampered twin, it replays
    # exactly when the reference built from the definitions accepts it
    shifts, f = case
    violation = check_star_abelian(shifts, f)
    if violation is None:
        return
    assert replay_violation(f, violation, shifts=shifts)
    assert _reference_abelian_replay(shifts, f, violation)
    inst = violation.instance
    for z in range(-1, len(f) + 1):
        for value in (violation.value - 1, violation.value,
                      violation.value + 1):
            moved = StarViolation(
                StarInstance(inst.blocks, inst.distinguished,
                             inst.exponents, inst.premises, z),
                value, violation.kind)
            assert replay_violation(f, moved, shifts=shifts) \
                == _reference_abelian_replay(shifts, f, moved)
    for twin in _window_twins(violation):
        assert replay_violation(f, twin, shifts=shifts) \
            == _reference_abelian_replay(shifts, f, twin)


def _counted_stencils(monkeypatch, limit):
    """Patch the window scan's `window_difference`, one pass per stencil,
    to count its calls, failing past limit."""
    calls = [0]
    window_difference = check.window_difference

    def counted(*args):
        calls[0] += 1
        if calls[0] > limit:
            raise AssertionError(f"more than {limit} stencils scanned")
        return window_difference(*args)

    monkeypatch.setattr(check, "window_difference", counted)
    return calls


def test_abelian_pass_scans_each_offset_multiset_once(monkeypatch):
    # six unit shifts on a constant 9-point window pass; every block sits
    # at offset 1, so the 203 set partitions give 6 distinct offset
    # multisets, one per block count
    calls = _counted_stencils(monkeypatch, 6)
    f = constant(9, 1)
    assert check_star_abelian((1,) * 6, f) is None
    assert calls[0] == 6


def test_abelian_pass_on_seven_shifts_scans_one_stencil_per_partition(
        monkeypatch):
    # seven unit shifts on a constant 12-point window pass: every block
    # sits at its least common multiple 1 and never at 2..11, and each
    # block count's first block vanishes, dropping the rest of the
    # Bell(7) = 877 set partitions with it, so 7 stencils are scanned
    calls = _counted_stencils(monkeypatch, 7)
    assert check_star_abelian((1,) * 7, constant(12, 1)) \
        is None
    assert calls[0] == 7


def test_abelian_pass_on_eight_shifts_scans_one_stencil_per_block_count(
        monkeypatch):
    # eight unit shifts on a constant 20-point window pass in one stencil
    # per block count: the multiples 2..19 of a block's lcm are implied
    calls = _counted_stencils(monkeypatch, 8)
    assert check_star_abelian((1,) * 8, constant(20, 1)) \
        is None
    assert calls[0] == 8


def test_star_check_and_its_verify_of_thirteen_shifts_scan_thirteen_stencils(
        monkeypatch, tmp_path, capsys):
    # 13 unit shifts on a constant 40-point window: Bell(13) ~ 2.8e7 set
    # partitions, of which each pass scans one per block count
    path = tmp_path / "inst.json"
    path.write_text(dumps({"kind": "z-window", "length": 40,
                           "shifts": [1] * 13, "values": ["1"] * 40}))
    calls = _counted_stencils(monkeypatch, 13)
    assert run_command(["star-check", str(path)]) == 0
    cert = tmp_path / "cert.json"
    cert.write_text(capsys.readouterr().out)
    assert json.loads(cert.read_text())["result"] == "pass"
    calls[0] = 0
    assert run_command(["star-check", str(path), "--verify", str(cert)]) == 0
    assert json.loads(capsys.readouterr().out)["agrees"] is True
    assert calls[0] <= 13


@pytest.mark.parametrize("periodic", [False, True])
def test_abelian_check_of_sixteen_shifts_scans_at_most_sixteen_stencils(
        monkeypatch, periodic):
    # 16 shifts from 1..4 on 60 points: a constant passes with one stencil
    # per block count; 12-periodic values fail on the all-singleton
    # stencil, which no x^a - 1 with a <= 4 annihilates, one pass per block
    rng = random.Random("sixteen")
    shifts = tuple(rng.randint(1, 4) for _ in range(16))
    period = [rng.randint(-5, 5) for _ in range(12)]
    values = [period[x % 12] if periodic else 1 for x in range(60)]
    f = RationalFunction(tuple(Fraction(v) for v in values))
    calls = _counted_stencils(monkeypatch, 16)
    violation = check_star_abelian(shifts, f)
    if periodic:
        assert violation.instance.blocks == tuple((i,) for i in range(16))
        assert replay_violation(f, violation, shifts=shifts)
    else:
        assert violation is None
    assert calls[0] <= 16


def test_abelian_check_and_replay_of_forty_shifts_read_f_linearly(
        tmp_path, capsys):
    # 40 unit shifts on 48 random values: the all-singleton stencil fails;
    # a corner walk would visit 2^40 corners, the passes read each
    # numerator a bounded number of times
    shifts = (1,) * 40
    rng = random.Random("forty")
    values = [rng.randint(-9, 9) for _ in range(48)]
    f = RationalFunction(tuple(Fraction(v) for v in values))
    limit = len(shifts) * len(f)
    reads, replay_reads = [0], [0]

    def counting(reads):
        # the frozen record's numerators, swapped for a counting tuple past
        # its refusing __setattr__
        g = RationalFunction(f.values)
        object.__setattr__(g, "numerators",
                           counted_tuple(f.numerators, reads, limit))
        return g

    violation = check_star_abelian(shifts, counting(reads))
    assert violation is not None
    assert violation.instance.blocks == tuple((i,) for i in range(40))
    assert replay_violation(counting(replay_reads), violation, shifts=shifts)
    assert reads[0] <= limit and replay_reads[0] <= limit
    path = tmp_path / "inst.json"
    path.write_text(dumps({"kind": "z-window", "length": len(f),
                           "shifts": list(shifts),
                           "values": values_to_json(f)}))
    assert run_command(["star-check", str(path)]) == 1
    cert = tmp_path / "cert.json"
    cert.write_text(capsys.readouterr().out)
    assert run_command(["star-check", str(path), "--verify", str(cert)]) == 0
    assert json.loads(capsys.readouterr().out)["agrees"] is True


def test_abelian_replay_rejects_out_of_window_points():
    f = RationalFunction(tuple(Fraction(x) for x in range(5)))
    viol = check_star_abelian((2,), f)
    inst = viol.instance
    shifted = StarInstance(inst.blocks, inst.distinguished, inst.exponents,
                           inst.premises, z=4)  # z + 2 leaves the window
    assert not replay_violation(f, StarViolation(
        shifted, viol.value, viol.kind), shifts=(2,))


def test_abelian_rejects_bad_inputs():
    f = zero(4)
    with pytest.raises(RangeError):
        check_star_abelian((True,), f)  # bool shift
    with pytest.raises(RangeError):
        check_star_abelian((1.5,), f)


def test_replay_refuses_a_true_partition_instance_on_a_finite_kind():
    # swap/swap with one block headed by 1, premise 1^1 0^0 z = 0^1 z:
    # a true violation of the partition condition, but no producer emits
    # it on a finite domain, where the all-singleton instance decides
    swap = (1, 0)
    system = validate_system([swap, swap], 2)
    inst = StarInstance(blocks=((0, 1),), distinguished=(1,), exponents=(1,),
                        premises=((0, 0, 1),), z=0)
    f = RationalFunction((Fraction(0), Fraction(1)))
    assert not replay_violation(
        f, StarViolation(inst, Fraction(1), "MixedDeltaNonzero"),
        system.transforms)
    singletons = check_star(system, f)
    assert singletons.instance.blocks == ((0,), (1,))
    assert replay_violation(f, singletons, system.transforms)
    # the right shape with a zero value is no violation
    assert not replay_violation(zero(2), StarViolation(
        singletons.instance, Fraction(0), "MixedDeltaNonzero"),
        system.transforms)

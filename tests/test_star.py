import contextlib
import io
import json
import os
import random
import tempfile
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perdec import check, generators, star
from perdec.check import (
    StarInstance,
    StarViolation,
    _partitions,
    replay_abelian_violation,
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
    corner_stencil,
    counted_tuple,
    power_table,
    systems,
    systems_with_functions,
    value_functions,
)


def test_partitions_counts_and_order():
    # Bell numbers, with the all-singleton partition always first
    for n, bell in ((0, 1), (1, 1), (2, 2), (3, 5), (4, 15)):
        parts = _partitions(n)
        assert len(parts) == bell
        if n:
            assert parts[0] == tuple((i,) for i in range(n))
    assert _partitions(2) == (((0,), (1,)), ((0, 1),))


def test_check_star_rejects_bad_inputs():
    system = validate_system([(1, 0)], 2)
    with pytest.raises(PreconditionError):
        check_star(system, RationalFunction.zero(3))


def test_check_star_single_swap_violation():
    system = validate_system([(1, 0)], 2)
    f = RationalFunction((Fraction(0), Fraction(1)))
    viol = check_star(system, f)
    assert viol is not None
    assert viol.kind == "MixedDeltaNonzero"
    assert viol.instance == StarInstance(
        blocks=((0,),), distinguished=(0,), exponents=(1,), premises=(), z=0)
    assert viol.value == 1
    assert replay_violation(system, f, viol)


def test_replay_rejects_tampered_violations():
    system = validate_system([(1, 0)], 2)
    f = RationalFunction((Fraction(0), Fraction(1)))
    viol = check_star(system, f)
    inst = viol.instance
    assert not replay_violation(system, f, StarViolation(
        inst, viol.value + 1, viol.kind))
    moved = StarInstance(inst.blocks, inst.distinguished, inst.exponents,
                         inst.premises, z=1)
    # z=1 flips the sign, so the stored value no longer matches
    assert not replay_violation(system, f, StarViolation(
        moved, viol.value, viol.kind))
    dropped = StarInstance(((0,), (1,)), (0, 1), (1, 1), (), 0)
    assert not replay_violation(system, f, StarViolation(
        dropped, viol.value, viol.kind))


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
        assert replay_violation(system, f, viol)


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
    for blocks in _partitions(system.n):
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


def test_replay_reduces_huge_exponents_by_the_orbit():
    # 0 -> 1 -> 2 -> 2: a tail of two steps into a fixed point
    system = validate_system([(1, 2, 2)], 3)
    f = RationalFunction((Fraction(0), Fraction(0), Fraction(5)))
    far = StarViolation(StarInstance(((0,),), (0,), (10 ** 11,), (), 0),
                        Fraction(5), "MixedDeltaNonzero")
    # two swaps in one block: premise and value depend on exponent parity
    swaps = validate_system([(1, 0), (1, 0)], 2)
    g = RationalFunction((Fraction(0), Fraction(1)))
    odd = StarViolation(
        StarInstance(((0, 1),), (0,), (10 ** 11 + 1,),
                     ((1, 10 ** 11, 1),), 0),
        Fraction(1), "MixedDeltaNonzero")
    even = StarViolation(
        StarInstance(((0, 1),), (0,), (10 ** 11,), ((1, 10 ** 11, 0),), 0),
        Fraction(1), "MixedDeltaNonzero")
    start = time.perf_counter()
    assert replay_violation(system, f, far)
    assert replay_violation(swaps, g, odd)
    assert not replay_violation(swaps, g, even)  # even exponent: value 0
    assert time.perf_counter() - start < 1.0


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
    assert replay_abelian_violation((2,), f, viol)
    periodic = RationalFunction(tuple(Fraction(x % 2) for x in range(5)))
    assert check_star_abelian((2,), periodic) is None


def test_abelian_failing_singleton_stencil_skips_the_partitions(
        monkeypatch):
    # x^16 has 16th difference 16! at z = 0; the verdict needs none of the
    # Bell(16) ~ 1e10 set partitions, so building them is refused here
    def refuse(n):
        raise AssertionError(f"_partitions({n}) built for a failing window")

    monkeypatch.setattr(check, "_partitions", refuse)
    shifts = (1,) * 16
    f = RationalFunction(tuple(Fraction(x ** 16) for x in range(18)))
    start = time.perf_counter()
    viol = check_star_abelian(shifts, f)
    assert viol is not None
    assert viol.instance.exponents == (1,) * 16 and viol.instance.z == 0
    assert viol.value == 20922789888000
    assert replay_abelian_violation(shifts, f, viol)
    assert time.perf_counter() - start < 10.0


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
    for blocks in _partitions(len(shifts)):
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


def _reference_abelian_replay(shifts, f, violation):
    """Reference window replay: the premises' arithmetic, then the stored
    value against the corner sum."""
    inst = violation.instance
    if not check._well_formed(inst, len(shifts), len(f)):
        return False
    offset_of = {i: k * shifts[h] for block, h, k
                 in zip(inst.blocks, inst.distinguished, inst.exponents)
                 for i in block}
    if any(l != 0 or mult < 0 or mult * shifts[i] != offset_of[i]
           for i, l, mult in inst.premises):
        return False
    value = corner_stencil(f.values, [k * shifts[h] for h, k in zip(
        inst.distinguished, inst.exponents)], inst.z)
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


@given(windows())
@settings(max_examples=150, deadline=None)
def test_abelian_replay_equals_the_corner_reference(case):
    # the genuine certificate moved to every z in [-1, L], with its value
    # and its value +- 1
    shifts, f = case
    violation = check_star_abelian(shifts, f)
    if violation is None:
        return
    inst = violation.instance
    for z in range(-1, len(f) + 1):
        for value in (violation.value - 1, violation.value,
                      violation.value + 1):
            moved = StarViolation(
                StarInstance(inst.blocks, inst.distinguished,
                             inst.exponents, inst.premises, z),
                value, violation.kind)
            assert replay_abelian_violation(shifts, f, moved) \
                == _reference_abelian_replay(shifts, f, moved)


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
    f = RationalFunction.constant(9, 1)
    assert check_star_abelian((1,) * 6, f) is None
    assert calls[0] == 6


def test_abelian_pass_on_seven_shifts_scans_one_stencil_per_partition(
        monkeypatch):
    # seven unit shifts on a constant 12-point window pass: each of the
    # Bell(7) = 877 set partitions is visited once, every block at its
    # least common multiple 1 and never at 2..11, and the 7 distinct
    # offset multisets are scanned
    visited = [0]
    scan_order = check._scan_order

    def counted_scan_order(n):
        for blocks in scan_order(n):
            visited[0] += 1
            yield blocks

    monkeypatch.setattr(check, "_scan_order", counted_scan_order)
    calls = _counted_stencils(monkeypatch, 7)
    assert check_star_abelian((1,) * 7, RationalFunction.constant(12, 1)) \
        is None
    assert calls[0] == 7
    assert visited[0] == 877


def test_abelian_pass_on_eight_shifts_scans_one_stencil_per_block_count(
        monkeypatch):
    # eight unit shifts on a constant 20-point window pass in one stencil
    # per block count: the multiples 2..19 of a block's lcm are implied
    calls = _counted_stencils(monkeypatch, 8)
    assert check_star_abelian((1,) * 8, RationalFunction.constant(20, 1)) \
        is None
    assert calls[0] == 8


def test_abelian_check_and_replay_of_forty_shifts_read_f_linearly(
        monkeypatch, tmp_path, capsys):
    # 40 unit shifts on 48 random values: the all-singleton stencil fails;
    # a corner walk would visit 2^40 corners, the passes read each
    # numerator a bounded number of times
    shifts = (1,) * 40
    rng = random.Random("forty")
    values = [rng.randint(-9, 9) for _ in range(48)]
    f = RationalFunction(tuple(Fraction(v) for v in values))
    limit = len(shifts) * len(f)
    reads = [0]
    integer_values = star.integer_values

    def counted_values(g):
        num, denom = integer_values(g)
        return counted_tuple(num, reads, limit), denom

    monkeypatch.setattr(star, "integer_values", counted_values)
    violation = check_star_abelian(shifts, f)
    assert violation is not None
    assert violation.instance.blocks == tuple((i,) for i in range(40))
    counted = RationalFunction(f.values)
    replay_reads = [0]
    # the frozen record's values, swapped for a counting tuple past its
    # refusing __setattr__
    object.__setattr__(counted, "values",
                       counted_tuple(f.values, replay_reads, limit))
    assert replay_abelian_violation(shifts, counted, violation)
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
    assert not replay_abelian_violation((2,), f, StarViolation(
        shifted, viol.value, viol.kind))


def test_abelian_rejects_bad_inputs():
    f = RationalFunction.zero(4)
    with pytest.raises(RangeError):
        check_star_abelian((True,), f)  # bool shift
    with pytest.raises(RangeError):
        check_star_abelian((1.5,), f)


def test_replay_accepts_a_compatibility_failure_certificate():
    # check_star emits only MixedDeltaNonzero, but the older kind still
    # replays: swap/swap with one block headed by 1, premise 1^1 0^0 z = 0^1 z
    swap = (1, 0)
    system = validate_system([swap, swap], 2)
    inst = StarInstance(blocks=((0, 1),), distinguished=(1,), exponents=(1,),
                        premises=((0, 0, 1),), z=0)
    f = RationalFunction((Fraction(0), Fraction(1)))
    viol = StarViolation(inst, Fraction(1), "CompatibilityFailure")
    assert replay_violation(system, f, viol)
    assert not replay_violation(
        system, f, StarViolation(inst, Fraction(2), "CompatibilityFailure"))
    assert not replay_violation(system, RationalFunction.zero(2),
                                StarViolation(inst, Fraction(0),
                                              "CompatibilityFailure"))

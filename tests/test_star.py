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
from hypothesis import given, settings
from hypothesis import strategies as st

from perdec import generators
from perdec.cli import run_command
from perdec.core import (
    PreconditionError,
    RangeError,
    RationalFunction,
    power_table,
    validate_system,
)
from perdec.serialize import dumps, values_to_json, violation_to_json
from perdec.star import (
    StarInstance,
    StarViolation,
    _partitions,
    check_star,
    check_star_abelian,
    replay_abelian_violation,
    replay_violation,
)
from tests.conftest import systems, systems_with_functions, value_functions


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
        assert (code, doc) == (1, violation_to_json(expected))


def test_abelian_window_shift_two():
    f = RationalFunction(tuple(Fraction(x) for x in range(5)))
    viol = check_star_abelian((2,), f)
    assert viol is not None
    assert viol.value == 2
    assert replay_abelian_violation((2,), f, viol)
    periodic = RationalFunction(tuple(Fraction(x % 2) for x in range(5)))
    assert check_star_abelian((2,), periodic) is None


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

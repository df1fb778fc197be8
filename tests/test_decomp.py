import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perdec import decomp, generators
from perdec.core import (
    Decomposition,
    PreconditionError,
    RationalFunction,
    compose,
    is_invariant,
    validate_system,
)
from perdec.check import (
    DualCertificate,
    StarInstance,
    StarViolation,
    replay_violation,
    verify_parts,
)
from perdec.decomp import (
    decompose_n,
    decompose_three,
    decompose_two,
)
from perdec.oracle import nullspace, oracle_decompose
from perdec.star import check_star
from tests.conftest import (
    SHIFT_FAMILIES,
    constant,
    cycle_average,
    mixed_difference_rows,
    project_subtract,
    shift_table,
    systems,
    systems_with_functions,
    zero,
)


def test_decompose_n_of_one_transform_is_an_invariance_check():
    t = (1, 2, 2, 3)
    f = RationalFunction((Fraction(5), Fraction(5), Fraction(5), Fraction(-1)))
    got = decompose_n(validate_system([t], 4), f)
    assert isinstance(got, Decomposition)
    assert got.parts == (f,)
    bad = RationalFunction((Fraction(0), Fraction(1), Fraction(1), Fraction(0)))
    viol = decompose_n(validate_system([t], 4), bad)
    assert isinstance(viol, StarViolation)
    assert viol == StarViolation(
        StarInstance(blocks=((0,),), distinguished=(0,), exponents=(1,),
                     premises=(), z=0), Fraction(1), "MixedDeltaNonzero")
    assert replay_violation(bad, viol, validate_system([t], 4).transforms)
    with pytest.raises(PreconditionError):
        decompose_n(validate_system([], 4), f)


def test_decompose_two_double_swap_fails_mixed():
    swap = (1, 0)
    f = RationalFunction((Fraction(0), Fraction(1)))
    viol = decompose_two(swap, swap, f)
    assert isinstance(viol, StarViolation)
    assert viol.kind == "MixedDeltaNonzero"
    assert replay_violation(f, viol, (swap, swap))


@given(systems(n=2), st.integers(0, 10 ** 9))
def test_decompose_two_accepts_planted_sums(system, seed):
    rng = random.Random(f"plant2:{seed}")
    s, t = system.transforms
    f = (generators.random_invariant_part(rng, s)
         + generators.random_invariant_part(rng, t))
    got = decompose_two(s, t, f)
    assert isinstance(got, Decomposition)
    g, rest = got.parts
    assert g + rest == f
    assert is_invariant(s, g)
    assert is_invariant(t, rest)


@given(systems_with_functions(n=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_decompose_two_matches_oracle(case):
    system, f = case
    s, t = system.transforms
    got = decompose_two(s, t, f)
    oracle = oracle_decompose(system, f)
    if isinstance(got, Decomposition):
        assert not isinstance(oracle, DualCertificate)
    else:
        assert isinstance(oracle, DualCertificate)
        assert replay_violation(f, got, system.transforms)


@given(systems_with_functions(n=2, max_size=6))
@settings(max_examples=80, deadline=None)
def test_decompose_two_matches_the_cycle_average_and_check_star(case):
    system, f = case
    s, t = system.transforms
    got = decompose_two(s, t, f)
    if isinstance(got, Decomposition):
        g = cycle_average(s, f)
        assert got.parts == (g, f - g)
    else:
        assert got == check_star(system, f)
        assert replay_violation(f, got, system.transforms)


@given(st.integers(2, 4).flatmap(lambda n: st.sampled_from(
    ("generic", "decomposable", "mixed_kernel")).flatmap(
        lambda style: systems_with_functions(n=n, max_size=7, style=style))))
@settings(max_examples=120, deadline=None)
def test_decompose_n_matches_the_fraction_reference(case):
    # the integer projections give the reference's Fractions, part for
    # part, or exactly check_star's violation when its last part moves
    system, f = case
    got = decompose_n(system, f)
    parts = project_subtract(system.transforms, f)
    if is_invariant(system.transforms[-1], parts[-1]):
        assert isinstance(got, Decomposition)
        assert got.parts == parts
    else:
        assert got == check_star(system, f)


def _prime_cycles(primes):
    """A permutation with one cycle of each given length, laid out in
    consecutive blocks."""
    t = []
    for p in primes:
        base = len(t)
        t.extend(base + (i + 1) % p for i in range(p))
    return tuple(t)


def test_decompose_n_on_adversarial_denominators():
    # cycle lengths are the primes up to 60, so the scale of the T step
    # is their product and that of the T^2 step the product of the odd
    # ones: D grows far past N
    primes = [p for p in range(2, 60) if all(p % q for q in range(2, p))]
    t = _prime_cycles(primes)
    size = len(t)
    assert size == 440
    maps = [t, compose(t, t), compose(t, compose(t, t))]
    system = validate_system(maps, size)
    rng = random.Random("prime-cycles")
    planted = (generators.random_invariant_part(rng, maps[0])
               + generators.random_invariant_part(rng, maps[1])
               + generators.random_invariant_part(rng, maps[2]))
    got = decompose_n(system, planted)
    assert isinstance(got, Decomposition)
    assert got.parts == project_subtract(maps, planted)
    generic = generators.random_function(rng, system, "generic")
    parts = project_subtract(maps, generic)
    assert not is_invariant(maps[2], parts[-1])
    assert decompose_n(system, generic) == check_star(system, generic)


def test_decompose_n_refuses_before_building_parts(monkeypatch):
    # a refusal is decided on integers: no part is built and no parts are
    # verified, and check_star runs once; a split is verified once and
    # never reaches check_star.  The construction has no Fraction at all.
    assert "Fraction" not in vars(decomp)
    calls = {"verify": 0, "star": 0, "parts": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(decomp, "verify_parts",
                        counted("verify", verify_parts))
    monkeypatch.setattr(decomp, "check_star", counted("star", check_star))
    monkeypatch.setattr(decomp, "_from_integers",
                        counted("parts", decomp._from_integers))
    m = 12
    shifts = [tuple((x + k) % m for x in range(m)) for k in (2, 3)]
    line = RationalFunction(tuple(Fraction(x) for x in range(m)))
    system = validate_system(shifts, m)
    assert isinstance(decompose_n(system, line), StarViolation)
    assert calls == {"verify": 0, "star": 1, "parts": 0}
    periodic = RationalFunction(tuple(Fraction(5 * (x % 2) + (x % 3) ** 2)
                                      for x in range(m)))
    calls.update(verify=0, star=0)
    assert isinstance(decompose_n(system, periodic), Decomposition)
    assert calls["verify"] == 1 and calls["star"] == 0


def _commuting_pairs(max_size):
    for size in range(1, max_size + 1):
        maps = list(product(range(size), repeat=size))
        for s in maps:
            for t in maps:
                if compose(s, t) == compose(t, s):
                    yield size, s, t


def test_decompose_two_on_every_small_commuting_pair():
    pairs = 0
    for size, s, t in _commuting_pairs(4):
        pairs += 1
        system = validate_system([s, t], size)
        for p in range(size):
            f = RationalFunction(tuple(Fraction(int(x == p))
                                       for x in range(size)))
            got = decompose_two(s, t, f)
            oracle = oracle_decompose(system, f)
            assert (isinstance(got, Decomposition)
                    == isinstance(oracle, Decomposition))
            if isinstance(got, StarViolation):
                assert replay_violation(f, got, system.transforms)
    assert pairs == 2976


def _commuting_systems(max_size):
    """Every multiset of two and of three pairwise commuting maps on at
    most max_size points, as (size, maps) with the maps in sorted order."""
    partners = {}
    for _, s, t in _commuting_pairs(max_size):
        partners.setdefault(s, set()).add(t)
    for s, with_s in partners.items():
        for t in sorted(with_s):
            if t < s:
                continue
            yield len(s), (s, t)
            for u in sorted(with_s & partners[t]):
                if u >= t:
                    yield len(s), (s, t, u)


def test_mixed_difference_kernel_decomposes_on_every_small_system():
    # on a finite domain the vanishing mixed difference is sufficient for
    # every n: each kernel basis vector splits into invariant parts, by
    # the oracle and by decompose_n's projections
    counts = {2: 0, 3: 0}
    oracle_calls = 0
    for size, maps in _commuting_systems(4):
        counts[len(maps)] += 1
        system = validate_system(list(maps), size)
        for vec in nullspace(mixed_difference_rows(system), size):
            f = RationalFunction(tuple(vec))
            if any(is_invariant(t, f) for t in maps):
                continue  # already a one-part decomposition
            oracle_calls += 1
            assert isinstance(oracle_decompose(system, f), Decomposition)
            assert isinstance(decompose_n(system, f), Decomposition)
    # multisets of maps on 4, 3, 2 and 1 points
    assert counts == {2: 1540 + 84 + 7 + 1, 3: 5012 + 175 + 10 + 1}
    assert oracle_calls > 0


@given(st.integers(1, 5).flatmap(
    lambda n: systems_with_functions(n=n, max_size=6)))
@settings(max_examples=100, deadline=None)
def test_decompose_n_matches_oracle(case):
    system, f = case
    got = decompose_n(system, f)
    oracle = oracle_decompose(system, f)
    assert isinstance(got, Decomposition) == isinstance(oracle, Decomposition)
    if isinstance(got, StarViolation):
        assert got == check_star(system, f)
        assert replay_violation(f, got, system.transforms)


def _cycle_length(t, x):
    """Length of the t-cycle that x's forward orbit enters."""
    seen = {}
    while x not in seen:
        seen[x] = len(seen)
        x = t[x]
    return len(seen) - seen[x]


@st.composite
def _decomposable_cases(draw):
    n = draw(st.integers(1, 5))
    style = draw(st.sampled_from(("decomposable", "mixed_kernel")))
    return draw(systems_with_functions(n=n, max_size=7, style=style))


@given(_decomposable_cases())
@settings(max_examples=100, deadline=None)
def test_decompose_n_denominators_divide_denom_f_times_cycle_lengths(case):
    # part j < n - 1 at x: denom(f) L_1(x)...L_{j+1}(x); the last part
    # needs n - 1 lengths (the bound proved in decompose_n)
    system, f = case
    got = decompose_n(system, f)
    assert isinstance(got, Decomposition)
    denom = f.denom
    n = system.n
    for j, part in enumerate(got.parts):
        for x, value in enumerate(part):
            bound = denom
            for t in system.transforms[:min(j + 1, n - 1)]:
                bound *= _cycle_length(t, x)
            assert bound % value.denominator == 0
            assert value.denominator <= denom * system.size ** (n - 1)


def test_decompose_two_bound_too_small():
    # the construction searches no exponents: the cycle average puts the
    # whole of a constant f into the first part
    m = 8
    plus = tuple((x + 1) % m for x in range(m))
    f = constant(m, Fraction(3))
    got = decompose_two(plus, plus, f)
    assert got.parts == (f, zero(m))


def test_decompose_three_splits_a_z4_instance():
    # pins chosen from prescribed points found at exponent bound 1 once
    # conflicted on this instance; the cycle averages need no pins
    t, s, u = (3, 0, 1, 2), (2, 3, 0, 1), (0, 1, 2, 3)
    f = RationalFunction((Fraction(0), Fraction(-4, 3), Fraction(4, 3),
                          Fraction(0)))
    got = decompose_three(t, s, u, f)
    assert isinstance(got, Decomposition)
    assert verify_parts([t, s, u], f, got.parts)


@given(systems(n=3, max_size=5), st.integers(0, 10 ** 9))
@settings(max_examples=40, deadline=None)
def test_decompose_three_accepts_planted_sums(system, seed):
    rng = random.Random(f"plant3:{seed}")
    t, s, u = system.transforms
    f = (generators.random_invariant_part(rng, t)
         + generators.random_invariant_part(rng, s)
         + generators.random_invariant_part(rng, u))
    got = decompose_three(t, s, u, f)
    assert got == decompose_n(system, f)
    assert isinstance(got, Decomposition)
    g, h, l = got.parts
    assert g + h + l == f
    assert is_invariant(t, g)
    assert is_invariant(s, h)
    assert is_invariant(u, l)


@given(systems_with_functions(n=3, max_size=5))
@settings(max_examples=40, deadline=None)
def test_decompose_three_matches_oracle(case):
    system, f = case
    t, s, u = system.transforms
    got = decompose_three(t, s, u, f)
    assert got == decompose_n(system, f)
    oracle = oracle_decompose(system, f)
    if isinstance(got, Decomposition):
        assert not isinstance(oracle, DualCertificate)
    else:
        assert isinstance(oracle, DualCertificate)
        assert replay_violation(f, got, system.transforms)


@pytest.mark.parametrize("family", SHIFT_FAMILIES)
def test_decompose_three_splits_planted_shift_families(family):
    step, s_shift, u_shift = SHIFT_FAMILIES[family]
    rng = random.Random(f"shift family:{family}")
    for m in (4, 8, 12):
        t, s, u = (shift_table(m, a) for a in (step, s_shift(m), u_shift(m)))
        system = validate_system([t, s, u], m)
        planted = [generators.random_invariant_part(rng, table)
                   for table in (t, s, u)]
        f = planted[0] + planted[1] + planted[2]
        got = decompose_three(t, s, u, f)
        assert isinstance(got, Decomposition)
        assert verify_parts(system.transforms, f, got.parts)
        # a point mass is no sum of invariant parts on these shifts
        spike = RationalFunction(tuple(Fraction(int(x == 0))
                                       for x in range(m)))
        refused = decompose_three(t, s, u, spike)
        assert not isinstance(refused, Decomposition)
        assert replay_violation(spike, refused, system.transforms)
        assert isinstance(oracle_decompose(system, spike), DualCertificate)


@given(systems_with_functions(n=3, max_size=5))
@settings(max_examples=30, deadline=None)
def test_decompose_three_is_blind_to_the_order_of_the_maps(case):
    # the paper gives t, s and u different roles; whether f splits does
    # not depend on them, and each order's parts follow its maps
    system, f = case
    splits = isinstance(decompose_three(*system.transforms, f), Decomposition)
    for order in permutations(range(3)):
        maps = [system.transforms[i] for i in order]
        got = decompose_three(*maps, f)
        assert isinstance(got, Decomposition) == splits
        if splits:
            assert verify_parts(maps, f, got.parts)


@given(systems_with_functions(n=2, max_size=6))
@settings(max_examples=80, deadline=None)
def test_decompose_two_refuses_exactly_at_a_nonzero_double_difference(case):
    system, f = case
    s, t = system.transforms
    nonzero = [(x, f[s[t[x]]] - f[s[x]] - f[t[x]] + f[x])
               for x in range(system.size)]
    nonzero = [(x, v) for x, v in nonzero if v != 0]
    got = decompose_two(s, t, f)
    if not nonzero:
        assert isinstance(got, Decomposition)
        return
    z, value = nonzero[0]
    assert got == StarViolation(
        StarInstance(blocks=((0,), (1,)), distinguished=(0, 1),
                     exponents=(1, 1), premises=(), z=z),
        value, "MixedDeltaNonzero")

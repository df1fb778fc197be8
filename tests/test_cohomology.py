import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perdec.cohomology import (
    BoundedTransfer,
    ConstrainedObstruction,
    CycleObstruction,
    TransferSolution,
    partial_sum_bound,
    solve_bounded_transfer,
    solve_transfer,
    solve_transfer_constrained,
    solve_transfer_mod_invariant,
    solve_transfer_pair,
    verify_bounded_transfer,
)
from perdec.core import (
    PreconditionError,
    RationalFunction,
    delta,
    is_invariant,
)
from perdec.orbits import invariance_classes
from tests.conftest import rationals, sized_maps, systems, value_functions


def _all_cycles(t):
    """Every cycle of the functional graph, one tuple per cycle."""
    size = len(t)
    cycle_points = set()
    cycles = []
    for x in range(size):
        p = x
        for _ in range(size):
            p = t[p]
        if p in cycle_points:
            continue
        cyc = [p]
        q = t[p]
        while q != p:
            cyc.append(q)
            q = t[q]
        cycle_points.update(cyc)
        cycles.append(tuple(cyc))
    return cycles


def _invariant_function(s, data):
    part = invariance_classes(s)
    picks = [data.draw(rationals()) for _ in range(part.n_classes)]
    return RationalFunction(tuple(picks[part.class_of[x]]
                                  for x in range(len(s))))


def test_solve_transfer_swap_example():
    h = solve_transfer((1, 0), RationalFunction((Fraction(1), Fraction(-1))))
    assert h == RationalFunction((Fraction(0), Fraction(1)))


def test_solve_transfer_obstruction_on_fixed_point():
    got = solve_transfer((0,), RationalFunction((Fraction(2),)))
    assert got == CycleObstruction((0,), Fraction(2))


@given(sized_maps(), st.data())
def test_solve_transfer_round_trip(sized, data):
    size, t = sized
    h0 = data.draw(value_functions(size))
    g = delta(t, h0)
    h = solve_transfer(t, g)
    assert isinstance(h, RationalFunction)
    assert delta(t, h) == g
    # solutions differ by a t-invariant function only
    assert is_invariant(t, h - h0)


@given(sized_maps(), st.data())
def test_solve_transfer_verdict_matches_cycle_enumeration(sized, data):
    size, t = sized
    g = data.draw(value_functions(size))
    got = solve_transfer(t, g)
    bad = [c for c in _all_cycles(t) if sum(g[p] for p in c) != 0]
    if isinstance(got, RationalFunction):
        assert not bad
        assert delta(t, got) == g
    else:
        assert bad
        assert sorted(got.points) in [sorted(c) for c in bad]
        assert got.total == sum(g[p] for p in got.points)
        assert got.total != 0
        # returned points really form one t-cycle
        for p, q in zip(got.points, got.points[1:] + got.points[:1]):
            assert t[p] == q


@given(sized_maps(), st.data())
def test_solve_transfer_mod_invariant_always_solves(sized, data):
    size, t = sized
    g = data.draw(value_functions(size))
    got = solve_transfer_mod_invariant(t, g)
    assert isinstance(got, TransferSolution)
    assert delta(t, got.solution) == g + got.correction
    assert is_invariant(t, got.correction)


@given(sized_maps(), st.data())
def test_solve_transfer_mod_invariant_correction_is_forced(sized, data):
    size, t = sized
    g = data.draw(value_functions(size))
    gamma = solve_transfer_mod_invariant(t, g).correction
    for cyc in _all_cycles(t):
        forced = -sum(g[p] for p in cyc) / len(cyc)
        for p in cyc:
            assert gamma[p] == forced


@given(systems(n=2), st.data())
def test_solve_transfer_pair_properties(system, data):
    t, s = system.transforms
    g = _invariant_function(s, data)
    got = solve_transfer_pair(t, s, g)
    assert delta(t, got.solution) == g + got.correction
    assert is_invariant(s, got.solution)
    assert is_invariant(s, got.correction)
    assert is_invariant(t, got.correction)


@given(systems(n=2), st.data())
def test_solve_transfer_pair_pin_matches_forced_value(system, data):
    t, s = system.transforms
    g = _invariant_function(s, data)
    e = data.draw(st.integers(0, system.size - 1))
    forced = solve_transfer_pair(t, s, g).correction[e]
    pinned = solve_transfer_pair(t, s, g, class_values={e: forced})
    assert pinned.correction[e] == forced
    with pytest.raises(PreconditionError):
        solve_transfer_pair(t, s, g, class_values={e: forced + 1})


def test_solve_transfer_pair_rejects_bad_inputs():
    t = (1, 2, 0)
    s = (0, 1, 2)
    with pytest.raises(PreconditionError):
        # not s-invariant under s = t here
        solve_transfer_pair(t, t, RationalFunction(
            (Fraction(1), Fraction(0), Fraction(0))))
    with pytest.raises(PreconditionError):
        solve_transfer_pair((1, 0, 2), (0, 0, 1),
                            RationalFunction.zero(3))


@given(systems(n=2), st.data())
def test_solve_transfer_constrained_round_trip(system, data):
    t, s = system.transforms
    h0 = _invariant_function(s, data)
    g = delta(t, h0)
    h = solve_transfer_constrained(t, s, g)
    assert isinstance(h, RationalFunction)
    assert delta(t, h) == g
    assert is_invariant(s, h)


@given(systems(n=2), st.data())
def test_solve_transfer_constrained_obstruction_replays(system, data):
    t, s = system.transforms
    g = _invariant_function(s, data)
    got = solve_transfer_constrained(t, s, g)
    if isinstance(got, RationalFunction):
        return
    # walk T^k S^l x and S^{l2} x, then re-sum the left leg of the witness
    p = got.x
    for _ in range(got.l):
        p = s[p]
    total = Fraction(0)
    q = got.x
    for _ in range(got.k):
        total += g[q]
        p = t[p]
        q = t[q]
    r = got.x
    for _ in range(got.l2):
        r = s[r]
    assert p == r
    assert got.total == total != 0


def test_solve_transfer_constrained_deterministic_witness():
    # t = s = +1 on Z_2 with g constant 1: T S x = x forces sum g = 1
    t = (1, 0)
    got = solve_transfer_constrained(t, t, RationalFunction.constant(2, Fraction(1)))
    assert got == ConstrainedObstruction(0, 1, 1, 0, Fraction(1))


def test_partial_sum_bound_three_cycle():
    t = (1, 2, 0)
    g = RationalFunction((Fraction(1), Fraction(-1), Fraction(0)))
    assert partial_sum_bound(t, g) == Fraction(1)


@given(sized_maps(), st.data())
def test_partial_sum_bound_stable_past_default_horizon(sized, data):
    size, t = sized
    h0 = data.draw(value_functions(size))
    g = delta(t, h0)  # solvable, so partial sums are eventually periodic
    assert partial_sum_bound(t, g) == partial_sum_bound(t, g, 4 * size)


@given(sized_maps(), st.data())
def test_partial_sum_bound_dominates_each_prefix(sized, data):
    size, t = sized
    g = data.draw(value_functions(size))
    x = data.draw(st.integers(0, size - 1))
    m = data.draw(st.integers(1, 2 * size))
    partial = Fraction(0)
    p = x
    for _ in range(m):
        partial += g[p]
        p = t[p]
    assert abs(partial) <= partial_sum_bound(t, g)


def _fraction_partial_sum_bound(t, g, horizon=None):
    """The Fraction loop that the integer partial sums replaced."""
    size = len(g)
    if horizon is None:
        horizon = 2 * size
    best = Fraction(0)
    for x in range(size):
        partial = Fraction(0)
        p = x
        for _ in range(horizon):
            partial += g[p]
            p = t[p]
            if abs(partial) > best:
                best = abs(partial)
    return best


@given(st.lists(sized_maps(max_size=6), min_size=1, max_size=3), st.data())
def test_partial_sum_bound_matches_the_fraction_reference(pieces, data):
    # several weak classes with tails, and denominators that differ from
    # class to class and within a class
    t = []
    for size, piece in pieces:
        offset = len(t)
        t.extend(offset + y for y in piece)
    denominators = st.sampled_from([1, 2, 3, 5, 7, 12, 35, 2 ** 40])
    g = RationalFunction(tuple(
        Fraction(data.draw(st.integers(-50, 50)), data.draw(denominators))
        for _ in t))
    horizon = data.draw(st.one_of(st.none(), st.integers(0, 3 * len(t))))
    got = partial_sum_bound(t, g, horizon)
    assert got == _fraction_partial_sum_bound(t, g, horizon)
    assert type(got) is Fraction


@given(systems(n=2), st.data())
def test_solve_bounded_transfer_round_trip(system, data):
    t, s = system.transforms
    h0 = _invariant_function(s, data)
    g = delta(t, h0)
    got = solve_bounded_transfer(t, s, g)
    assert isinstance(got, BoundedTransfer)
    assert delta(t, got.solution) == g
    assert is_invariant(s, got.solution)
    assert got.bound == partial_sum_bound(t, g)
    assert got.solution.max_abs() <= 2 * got.bound


@given(systems(n=2), st.data())
def test_solve_bounded_transfer_obstruction_matches_constrained(system, data):
    t, s = system.transforms
    g = _invariant_function(s, data)
    constrained = solve_transfer_constrained(t, s, g)
    bounded = solve_bounded_transfer(t, s, g)
    if isinstance(constrained, ConstrainedObstruction):
        assert bounded == constrained
    else:
        assert isinstance(bounded, BoundedTransfer)


@given(systems(n=2), st.data())
def test_verify_bounded_transfer_accepts_both_answers(system, data):
    t, s = system.transforms
    g = _invariant_function(s, data)
    got = solve_bounded_transfer(t, s, g)
    assert verify_bounded_transfer(t, s, g, got)
    if isinstance(got, BoundedTransfer):
        if got.bound:
            tampered = BoundedTransfer(got.solution, got.bound * 2)
            verdict = verify_bounded_transfer(t, s, g, tampered)
            assert not verdict and "recomputed" in verdict.reason
    else:
        tampered = ConstrainedObstruction(got.x, got.k, got.l, got.l2,
                                          got.total + 1)
        assert not verify_bounded_transfer(t, s, g, tampered)


@given(systems(n=2), st.data())
def test_verify_bounded_transfer_reduces_huge_obstruction_exponents(system,
                                                                   data):
    t, s = system.transforms
    g = _invariant_function(s, data)
    got = solve_transfer_constrained(t, s, g)
    if isinstance(got, RationalFunction):
        return
    # add a common multiple of every cycle length on the walked paths and
    # extra k-turns of x's quotient cycle: the relation and sum must scale
    big = 10 ** 12 * math.factorial(len(t))
    huge = ConstrainedObstruction(got.x, got.k * (big + 1), got.l + big,
                                  got.l2 + big, got.total * (big + 1))
    assert verify_bounded_transfer(t, s, g, huge)


def test_verify_bounded_transfer_rejects_out_of_range_witnesses():
    t = (1, 0)
    g = RationalFunction.constant(2, Fraction(1))
    good = solve_transfer_constrained(t, t, g)
    assert verify_bounded_transfer(t, t, g, good)
    for x, k, l, l2 in ((7, 1, 1, 0), (-1, 1, 1, 0), (0, -1, 1, 0),
                        (0, 1, -1, 0), (0, 1, 1, -2)):
        bad = ConstrainedObstruction(x, k, l, l2, Fraction(1))
        assert not verify_bounded_transfer(t, t, g, bad)
    short = BoundedTransfer(RationalFunction((Fraction(0),)), Fraction(1))
    assert not verify_bounded_transfer(t, t, g, short)

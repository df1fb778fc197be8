import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perdec import check, cohomology, orbits
from perdec.check import (
    BoundedTransfer,
    ConstrainedObstruction,
    transfer_bound,
    verify_bounded_transfer,
)
from perdec.cohomology import _transfer_walk, solve_bounded_transfer
from perdec.core import (
    InternalContractViolation,
    PreconditionError,
    RationalFunction,
    is_invariant,
)
from perdec.orbits import induced_map, invariance_classes
from tests.conftest import (
    class_members,
    constant,
    constrained_transfer,
    counted_tuple,
    delta,
    fraction_partial_sum_bound,
    linear_feasibility,
    midrange_centred,
    rationals,
    reference_solve_transfer,
    sized_maps,
    systems,
    union_find_classes,
    value_functions,
    zero,
)


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


def test_transfer_walk_swap_example():
    h = _transfer_walk((1, 0), RationalFunction((Fraction(1), Fraction(-1))))
    assert h == RationalFunction((Fraction(-1, 2), Fraction(1, 2)))


def test_transfer_walk_obstruction_on_fixed_point():
    got = _transfer_walk((0,), RationalFunction((Fraction(2),)))
    assert got == ConstrainedObstruction(0, 1, 0, 0, Fraction(2))


@given(sized_maps(), st.data())
def test_transfer_walk_round_trip(sized, data):
    size, t = sized
    h0 = data.draw(value_functions(size))
    g = delta(t, h0)
    h = _transfer_walk(t, g)
    assert isinstance(h, RationalFunction)
    assert delta(t, h) == g
    # solutions differ by a t-invariant function only
    assert is_invariant(t, h - h0)


@given(sized_maps(), st.data())
def test_transfer_walk_verdict_matches_cycle_enumeration(sized, data):
    size, t = sized
    g = data.draw(value_functions(size))
    got = _transfer_walk(t, g)
    bad = [c for c in _all_cycles(t) if sum(g[p] for p in c) != 0]
    if isinstance(got, RationalFunction):
        assert not bad
        assert delta(t, got) == g
    else:
        # x lies on a bad cycle, k is its length, and the witness replays
        # with S the identity
        cycle = next(c for c in bad if got.x in c)
        assert (got.k, got.l, got.l2) == (len(cycle), 0, 0)
        assert got.total == sum(g[p] for p in cycle) != 0
        assert verify_bounded_transfer(t, range(size), g, got)


@given(sized_maps(), st.data())
def test_orbit_sum_equals_the_walked_sum(sized, data):
    # before, at and past the end of x's rho, where whole turns count
    size, t = sized
    g = data.draw(value_functions(size))
    x = data.draw(st.integers(0, size - 1))
    total = Fraction(0)
    p = x
    for steps in range(4 * size + 1):
        assert check.orbit_sum(t, g, x, steps) == total
        total += g[p]
        p = t[p]


# t = the 3-cycle 0 -> 1 -> 2 -> 0 with the fixed point 3; g sums to 3
# around the cycle and is 0 at the fixed point
_CYCLE_T = (1, 2, 0, 3)
_CYCLE_G = RationalFunction((Fraction(1), Fraction(1), Fraction(1),
                             Fraction(0)))


@pytest.mark.parametrize("x, k, total", [(0, 3, 3), (1, 3, 3), (0, 6, 6)])
def test_verify_bounded_transfer_accepts_a_cycle_with_s_the_identity(
        x, k, total):
    assert verify_bounded_transfer(
        _CYCLE_T, range(4), _CYCLE_G,
        ConstrainedObstruction(x, k, 0, 0, Fraction(total))).ok


@pytest.mark.parametrize("x, k, total, reason", [
    (0, 3, 2, "obstruction sum does not replay"),
    (3, 1, 0, "obstruction sum does not replay"),
    (0, 0, 0, "obstruction sum does not replay"),
    (0, 2, 2, "witness relation does not hold"),
    (4, 3, 3, "witness point or exponent out of range"),
    (-1, 3, 3, "witness point or exponent out of range"),
    (0, -3, 3, "witness point or exponent out of range"),
])
def test_verify_bounded_transfer_refuses_each_cycle_defect(x, k, total,
                                                           reason):
    got = verify_bounded_transfer(
        _CYCLE_T, range(4), _CYCLE_G,
        ConstrainedObstruction(x, k, 0, 0, Fraction(total)))
    assert (got.ok, got.reason) == (False, reason)


_G2 = RationalFunction((Fraction(1), Fraction(2)))


@pytest.mark.parametrize("call", [
    lambda: _transfer_walk((1, 2, 0), _G2),
    lambda: solve_bounded_transfer((1, 2, 0), (0, 1), _G2),
    lambda: solve_bounded_transfer((1, 0), (0, 1, 2), _G2),
    lambda: solve_bounded_transfer((1, 0), (0, 1), _CYCLE_G),
    lambda: verify_bounded_transfer((1, 0), (0, 1, 2), _G2,
                                    BoundedTransfer(_G2, Fraction(1))),
    lambda: verify_bounded_transfer((1, 0), (0, 1, 2), _G2,
                                    ConstrainedObstruction(0, 2, 0, 0,
                                                           Fraction(3))),
    lambda: verify_bounded_transfer((0,), range(4), _CYCLE_G,
                                    ConstrainedObstruction(0, 1, 0, 0,
                                                           Fraction(1))),
], ids=["walk-long-t", "bounded-long-t", "bounded-long-s",
        "bounded-long-g", "verify-solution", "verify-obstruction",
        "verify-short-t"])
def test_transfer_length_mismatch_is_a_precondition_error(call):
    with pytest.raises(PreconditionError,
                       match="transform length does not match function"):
        call()


def test_solve_bounded_transfer_verifies_its_obstruction(monkeypatch):
    # a wrong total is caught before the obstruction is returned
    class WrongTotal(ConstrainedObstruction):
        def __init__(self, x, k, l, l2, total):
            super().__init__(x, k, l, l2, total + 1)

    monkeypatch.setattr(cohomology, "ConstrainedObstruction", WrongTotal)
    with pytest.raises(InternalContractViolation,
                       match="constrained obstruction"):
        solve_bounded_transfer(_CYCLE_T, tuple(range(4)), _CYCLE_G)


def test_solve_bounded_transfer_verifies_its_solution(monkeypatch):
    # a wrong value of the lifted solution, the one `_canonical` builds, is
    # caught before the solution is returned
    build = cohomology._canonical

    def off_by_one(numerators, denom):
        numerators = list(numerators)
        numerators[-1] += denom
        return build(tuple(numerators), denom)

    monkeypatch.setattr(cohomology, "_canonical", off_by_one)
    with pytest.raises(InternalContractViolation,
                       match="recentered solution"):
        solve_bounded_transfer((0, 0), (0, 1),
                               RationalFunction((Fraction(0), Fraction(1))))


@pytest.mark.parametrize("g, answer", [
    ((1, 0, 0, 0), ConstrainedObstruction),
    ((1, -1, 0, 0), BoundedTransfer),
])
def test_each_bounded_transfer_answer_is_checked_once(monkeypatch, g,
                                                      answer):
    # a refusal is replayed once by verify_bounded_transfer and a
    # solution once by _check_bounded, both on the ground maps
    calls = Counter()
    for name in ("verify_bounded_transfer", "_check_bounded"):
        def counted(*args, name=name, real=getattr(check, name)):
            calls[name] += 1
            return real(*args)

        for module in (check, cohomology):
            monkeypatch.setattr(module, name, counted, raising=False)
    got = solve_bounded_transfer((1, 2, 3, 0), (0, 1, 2, 3),
                                 RationalFunction(tuple(map(Fraction, g))))
    assert isinstance(got, answer)
    checker = ("verify_bounded_transfer" if answer is ConstrainedObstruction
               else "_check_bounded")
    assert calls == {checker: 1}


@given(sized_maps(max_size=12), st.booleans(), st.data())
@settings(max_examples=200)
def test_transfer_walk_equals_the_quadratic_reference(sized, planted, data):
    # the reference's values centred on each class's midrange, or the same
    # first cycle with the same total
    size, t = sized
    g = data.draw(value_functions(size))
    if planted:
        g = delta(t, g)
    expected = reference_solve_transfer(t, g)
    if isinstance(expected, RationalFunction):
        expected = midrange_centred(invariance_classes(t), expected)
    assert _transfer_walk(t, g) == expected


def test_transfer_solvers_read_a_long_path_a_linear_number_of_times(
        monkeypatch):
    # 1,000 two-cycles: one walk per cycle, not one pass per class
    size = 2000
    reads = [0]
    swaps = tuple(x ^ 1 for x in range(size))
    t = counted_tuple(swaps, reads, 5 * size)
    g = RationalFunction(tuple(Fraction(1 if x % 2 else -1)
                               for x in range(size)))
    h = _transfer_walk(t, g)
    assert reads[0] <= 2 * size
    assert isinstance(h, RationalFunction) and delta(swaps, h) == g

    # x -> x - 1 down to the fixed point 0: every point's walk to the
    # class minimum is a tail, so a walk per point would read t N^2 / 2
    # times
    size = 10 ** 4
    reads = [0]
    t = counted_tuple((0,) + tuple(range(size - 1)), reads, 5 * size)
    g = RationalFunction((Fraction(0),) + (Fraction(-1),) * (size - 1))
    h = _transfer_walk(t, g)
    assert h == RationalFunction(tuple(Fraction(2 * x - size + 1, 2)
                                       for x in range(size)))
    assert reads[0] <= 2 * size

    # the bounded solver on that path and on a rho, the 2-cycle 0 <-> 1
    # under it: both solved by that h, already centred, with C = N - 1 read
    # off it in one orbit pass; the solver's induced map is counted with t
    limit = 10 * size

    def counted_induced(t, s):
        part, induced = induced_map(t, s)
        return part, counted_tuple(induced, reads, limit)

    monkeypatch.setattr(cohomology, "induced_map", counted_induced)
    s = tuple(range(size))
    for table in ((0,) + tuple(range(size - 1)),
                  (1, 0) + tuple(range(1, size - 1))):
        reads[0] = 0
        got = solve_bounded_transfer(counted_tuple(table, reads, limit), s,
                                     delta(table, h))
        assert got == BoundedTransfer(h, Fraction(size - 1))
        assert reads[0] <= limit


def test_solve_transfer_constrained_rejects_bad_inputs():
    t = (1, 2, 0)
    with pytest.raises(PreconditionError):
        # not s-invariant under s = t here
        constrained_transfer(t, t, RationalFunction(
            (Fraction(1), Fraction(0), Fraction(0))))
    with pytest.raises(PreconditionError):
        # the maps do not commute
        constrained_transfer((1, 0, 2), (0, 0, 1),
                                   zero(3))


@given(systems(n=2), st.data())
def test_solve_transfer_constrained_round_trip(system, data):
    t, s = system.transforms
    h0 = _invariant_function(s, data)
    g = delta(t, h0)
    h = constrained_transfer(t, s, g)
    assert isinstance(h, RationalFunction)
    assert delta(t, h) == g
    assert is_invariant(s, h)


@given(systems(n=2), st.data())
def test_solve_transfer_constrained_obstruction_replays(system, data):
    t, s = system.transforms
    g = _invariant_function(s, data)
    got = constrained_transfer(t, s, g)
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
    got = constrained_transfer(t, t, constant(2, Fraction(1)))
    assert got == ConstrainedObstruction(0, 1, 1, 0, Fraction(1))


def test_bounded_transfer_bound_on_a_three_cycle():
    # partial sums from 0 are 1, 0, 0, ...: C = 1
    t = (1, 2, 0)
    g = RationalFunction((Fraction(1), Fraction(-1), Fraction(0)))
    assert solve_bounded_transfer(t, (0, 1, 2), g).bound == Fraction(1)


@given(sized_maps(), st.data())
def test_bounded_transfer_bound_dominates_each_prefix(sized, data):
    # C bounds every partial sum, also past the 2N steps in which each
    # value first shows
    size, t = sized
    g = delta(t, data.draw(value_functions(size)))
    bound = solve_bounded_transfer(t, tuple(range(size)), g).bound
    x = data.draw(st.integers(0, size - 1))
    m = data.draw(st.integers(1, 4 * size))
    partial = Fraction(0)
    p = x
    for _ in range(m):
        partial += g[p]
        p = t[p]
    assert abs(partial) <= bound


@given(st.lists(sized_maps(max_size=6), min_size=1, max_size=3), st.data())
def test_bounded_transfer_bound_matches_the_fraction_reference(pieces, data):
    # several weak classes with tails, and denominators that differ from
    # class to class and within a class; C is read off the centered
    # solution and off any other solution alike.  The first class is the
    # 3-cycle 0 -> 1 -> 2 -> 0 with a tail 3 -> 2 that joins it past 0,
    # where the first walk enters it, so C must see all of the cycle from
    # where the tail joins
    t = [1, 2, 0, 2]
    for size, piece in pieces:
        offset = len(t)
        t.extend(offset + y for y in piece)
    denominators = st.sampled_from([1, 2, 3, 5, 7, 12, 35, 2 ** 40])
    h = RationalFunction(tuple(
        Fraction(data.draw(st.integers(-50, 50)), data.draw(denominators))
        for _ in t))
    g = delta(t, h)
    got = solve_bounded_transfer(t, tuple(range(len(t))), g).bound
    assert got == fraction_partial_sum_bound(t, g) == transfer_bound(t, h)
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
    assert got.bound == fraction_partial_sum_bound(t, g)
    assert got.solution.max_abs() <= 2 * got.bound


@given(systems(n=2), st.data())
def test_solve_bounded_transfer_centers_every_joint_class(system, data):
    # the recentering runs over the joint (s, t) classes: the max and min
    # of the solution cancel on each, which a finer or coarser partition
    # breaks
    t, s = system.transforms
    got = solve_bounded_transfer(t, s, delta(t, _invariant_function(s, data)))
    for members in class_members(union_find_classes(system.size, (t, s))):
        values = [got.solution[x] for x in members]
        assert max(values) + min(values) == 0


def test_solve_bounded_transfer_labels_s_and_the_induced_map_once(
        monkeypatch):
    # the centring's joint classes are the walk's classes on the quotient:
    # s's classes are labelled once, and `orbits.cycles` runs once on the
    # map t induces on them and once on t, for C.  Z_4 x Z_6: s steps the
    # first coordinate, t the second by 2, so the 6 s-classes fall into 2
    # joint classes.
    calls = {"invariance_classes": [], "cycles": []}
    for name in calls:
        def counted(table, name=name, real=getattr(orbits, name)):
            calls[name].append(len(table))
            return real(table)

        for module in (orbits, cohomology, check):
            monkeypatch.setattr(module, name, counted, raising=False)
    s = tuple((x + 6) % 24 for x in range(24))
    t = tuple(x - x % 6 + (x + 2) % 6 for x in range(24))
    h = RationalFunction(tuple(Fraction(x % 6 * (x % 6 - 3), 2)
                               for x in range(24)))
    got = solve_bounded_transfer(t, s, delta(t, h))
    assert isinstance(got, BoundedTransfer)
    assert calls == {"invariance_classes": [24], "cycles": [6, 24]}
    for members in class_members(union_find_classes(24, (t, s))):
        values = [got.solution[x] for x in members]
        assert max(values) + min(values) == 0


@given(systems(n=2), st.data())
def test_solve_bounded_transfer_refuses_exactly_the_infeasible_systems(
        system, data):
    # one unknown per s-class and one row h(t(x)) - h(x) = g(x) per point,
    # over g's denominator: refused iff that linear system has no solution
    t, s = system.transforms
    g = _invariant_function(s, data)
    part = invariance_classes(s)
    rows = []
    for x in range(system.size):
        row = [0] * part.n_classes
        row[part.class_of[t[x]]] += g.denom
        row[part.class_of[x]] -= g.denom
        rows.append(row)
    feasible, _ = linear_feasibility(rows, g.numerators, part.n_classes)
    got = solve_bounded_transfer(t, s, g)
    assert isinstance(got, BoundedTransfer) == feasible


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
    got = constrained_transfer(t, s, g)
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
    g = constant(2, Fraction(1))
    good = constrained_transfer(t, t, g)
    assert verify_bounded_transfer(t, t, g, good)
    for x, k, l, l2 in ((7, 1, 1, 0), (-1, 1, 1, 0), (0, -1, 1, 0),
                        (0, 1, -1, 0), (0, 1, 1, -2)):
        bad = ConstrainedObstruction(x, k, l, l2, Fraction(1))
        assert not verify_bounded_transfer(t, t, g, bad)
    short = BoundedTransfer(RationalFunction((Fraction(0),)), Fraction(1))
    assert not verify_bounded_transfer(t, t, g, short)

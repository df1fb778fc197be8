import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perdec.core import RangeError
from perdec.orbits import (
    Partition,
    _label_classes,
    cycles,
    find_relation,
    induced_map,
    invariance_classes,
    iterate,
    rho,
)
from tests.conftest import (
    class_members,
    counted_tuple,
    grid_relation,
    partition_of_labels,
    power_table,
    sized_maps,
    systems,
    union_find_classes,
)


@given(sized_maps(max_size=6), st.data())
@settings(max_examples=80, deadline=None)
def test_iterate_matches_the_power_table(case, data):
    size, t = case
    powers = power_table(t, 4 * size)
    x = data.draw(st.integers(0, size - 1))
    for k in range(4 * size + 1):
        assert iterate(t, k, x) == powers[k][x]


def test_iterate_reduces_huge_exponents():
    permutation = (1, 2, 0, 4, 3)  # order 6; 10**12 % 6 == 4
    assert [iterate(permutation, 10 ** 12, x) for x in range(5)] == list(
        power_table(permutation, 4)[4])
    tail = (1, 2, 3, 2)  # every even exponent >= 2 gives t^2
    assert [iterate(tail, 10 ** 12, x) for x in range(4)] == list(
        power_table(tail, 2)[2])


def test_partition_of_labels_orders_by_first_appearance():
    part = partition_of_labels([7, 3, 7, 1])
    assert part.class_of == (0, 1, 0, 2)
    assert part.representative == (0, 1, 3)
    assert class_members(part)[0] == (0, 2)
    assert class_members(part) == [(0, 2), (1,), (3,)]


def test_invariance_classes_weak_components():
    # 0 -> 1 -> 2 -> 2 and 3 -> 3: two weak components
    t = (1, 2, 2, 3)
    part = invariance_classes(t)
    assert part.class_of == (0, 0, 0, 1)
    assert part.representative == (0, 3)


@given(sized_maps())
def test_invariance_classes_are_t_closed(sized):
    size, t = sized
    part = invariance_classes(t)
    for x in range(size):
        assert part.class_of[t[x]] == part.class_of[x]


@given(sized_maps(max_size=12))
def test_invariance_classes_equal_the_union_find_components(sized):
    # ids and representatives included: both number classes by their
    # least points
    size, t = sized
    assert invariance_classes(t) == union_find_classes(size, [t])


@given(sized_maps(max_size=12))
def test_the_class_walk_records_a_point_on_each_cycle(sized):
    # scaled_cycle_means turns around each class's cycle from that point
    size, t = sized
    class_of, reps, on_cycle = _label_classes(t)
    assert len(on_cycle) == len(reps)
    for c, y in enumerate(on_cycle):
        assert class_of[y] == c
        assert rho(t, y)[1] == 0


@st.composite
def functional_graphs(draw):
    """A permutation, a random map or a near-path (x -> x - 1 down to 0,
    with up to three points sent anywhere) on fewer than 30 points."""
    size = draw(st.integers(1, 29))
    kind = draw(st.sampled_from(["permutation", "map", "near-path"]))
    if kind == "permutation":
        return tuple(draw(st.permutations(range(size))))
    if kind == "map":
        return tuple(draw(st.lists(st.integers(0, size - 1), min_size=size,
                                   max_size=size)))
    t = [max(x - 1, 0) for x in range(size)]
    for x in draw(st.lists(st.integers(0, size - 1), max_size=3)):
        t[x] = draw(st.integers(0, size - 1))
    return tuple(t)


@given(functional_graphs())
@settings(max_examples=300)
def test_cycles_split_the_class_walks_into_cycles_and_tails(t):
    class_of, reps, found, tails = cycles(t)
    labels, label_reps, on_cycle = _label_classes(t)
    assert (class_of, reps) == (labels, label_reps)
    assert [cycle[0] for cycle in found] == on_cycle
    for c, cycle in enumerate(found):
        # t closes the cycle, through distinct points of class c
        assert [t[p] for p in cycle] == cycle[1:] + cycle[:1]
        assert len(set(cycle)) == len(cycle)
        assert {class_of[p] for p in cycle} == {c}
    on_cycles = [p for cycle in found for p in cycle]
    assert sorted(on_cycles + tails) == list(range(len(t)))
    # every tail point comes after t of it
    seen = set(on_cycles)
    for x in tails:
        assert t[x] in seen
        seen.add(x)


@pytest.mark.parametrize("table", [
    (0,) + tuple(range(10 ** 4 - 1)),  # x -> x - 1 down to 0
    tuple(x ^ 1 for x in range(2000)),  # 1,000 two-cycles
], ids=["path", "two-cycles"])
def test_cycles_reads_each_entry_of_t_once(table):
    reads = [0]
    cycles(counted_tuple(table, reads, len(table)))
    assert reads[0] == len(table)


def test_rho_of_a_tail_into_a_cycle():
    # 4 -> 3 -> 1 -> 2 -> 1: tail (4, 3), cycle (1, 2)
    t = (0, 2, 1, 1, 3)
    assert rho(t, 4) == ([4, 3, 1, 2], 2)
    assert rho(t, 0) == ([0], 0)


@given(sized_maps(max_size=10), st.data())
def test_rho_is_the_orbit_up_to_its_first_repeat(case, data):
    size, t = case
    x = data.draw(st.integers(0, size - 1))
    orbit, start = rho(t, x)
    assert orbit == [iterate(t, i, x) for i in range(len(orbit))]
    assert len(set(orbit)) == len(orbit) <= size
    assert 0 <= start < len(orbit) and t[orbit[-1]] == orbit[start]


@given(systems(n=2, max_size=7))
def test_induced_map_sends_each_s_class_to_the_class_of_its_t_image(system):
    t, s = system.transforms
    part, induced = induced_map(t, s)
    assert part == invariance_classes(s)
    for x in range(system.size):
        assert induced[part.class_of[x]] == part.class_of[t[x]]


@given(systems(n=2, max_size=12))
def test_the_induced_map_classes_lift_to_the_joint_classes(system):
    # the fold `solve_bounded_transfer` recenters on: lifted through s's
    # classes, the classes of the map t induces are the components of the
    # union graph of s and t, ids and representatives included
    t, s = system.transforms
    part, induced = induced_map(t, s)
    joint = invariance_classes(induced)
    lifted = Partition(
        tuple(joint.class_of[c] for c in part.class_of),
        tuple(part.representative[c] for c in joint.representative))
    assert lifted == union_find_classes(system.size, [s, t])


def test_find_relation_identity_pair():
    assert find_relation((1, 0), 1, 1) == (0, 0)


def test_find_relation_basic_meeting():
    # t = +1 on Z_4: 0 and 2 meet with t^2 on one side
    t = tuple((x + 1) % 4 for x in range(4))
    assert find_relation(t, 0, 2) == (0, 2)
    assert find_relation(t, 2, 0) == (2, 0)


def test_find_relation_none_across_components():
    assert find_relation((0, 1), 0, 1) is None


def test_find_relation_rejects_bad_inputs():
    with pytest.raises(RangeError):
        find_relation((1, 0), 0, 2)
    with pytest.raises(RangeError):
        find_relation((1, 0), -1, 0)


def test_find_relation_breaks_ties_on_the_smaller_point():
    # 0 -> 1 <-> 2 and 3 -> 2: 0 and 3 meet at (2, 1) and at (1, 2), one
    # total; the least exponent on the smaller point 0 wins
    t = (1, 2, 1, 2)
    assert find_relation(t, 0, 3) == (1, 2)
    assert find_relation(t, 3, 0) == (2, 1)
    t = (1, 2, 3, 4, 5, 2, 4)  # 0 -> 1 -> (2 3 4 5) and 6 -> 4
    assert find_relation(t, 0, 6) == (2, 3)
    assert find_relation(t, 6, 0) == (3, 2)


def test_find_relation_needs_exponents_up_to_n_minus_one():
    # a tail through every point into a fixed point: the two ends meet
    # only after N - 1 steps, so exponents below N are all the walk needs
    # and all of them can be needed
    for size in range(2, 9):
        t = tuple(min(x + 1, size - 1) for x in range(size))
        assert find_relation(t, 0, size - 1) == (size - 1, 0)
        assert find_relation(t, size - 1, 0) == (0, size - 1)


@given(sized_maps(max_size=8), st.data())
@settings(max_examples=200, deadline=None)
def test_find_relation_equals_the_grid_search_with_an_identity_map(case,
                                                                   data):
    size, t = case
    x = data.draw(st.integers(0, size - 1))
    y = data.draw(st.integers(0, size - 1))
    # the orbits repeat within N steps, so exponents below N see them all
    rel = grid_relation(tuple(range(size)), t, x, y, size - 1)
    expected = None if rel is None else (rel[0], rel[2])
    assert rel is None or (rel[1], rel[3]) == (0, 0)
    assert find_relation(t, x, y) == expected


@given(sized_maps(max_size=8), st.data())
def test_find_relation_is_symmetric(case, data):
    size, t = case
    x = data.draw(st.integers(0, size - 1))
    y = data.draw(st.integers(0, size - 1))
    r1 = find_relation(t, x, y)
    r2 = find_relation(t, y, x)
    if r1 is None:
        assert r2 is None
    else:
        k, k2 = r1
        assert r2 == (k2, k)
        assert iterate(t, k, x) == iterate(t, k2, y)


@given(sized_maps(max_size=8), st.data())
def test_find_relation_meets_iff_same_class(case, data):
    size, t = case
    classes = invariance_classes(t)
    x = data.draw(st.integers(0, size - 1))
    y = data.draw(st.integers(0, size - 1))
    same = classes.class_of[x] == classes.class_of[y]
    rel = find_relation(t, x, y)
    assert (rel is not None) == same
    if same:
        # the exact meeting needs no exponent past N - 1
        assert max(rel) < size


@given(systems(n=2, max_size=7))
@settings(max_examples=150, deadline=None)
def test_every_point_carries_a_prescribed_relation(system):
    # the paper's three-map case split has one case on a finite set: for
    # every commuting pair each x has T^k S^l x = T^{k2} S^{l2} x, k > k2,
    # with k <= N from the induced map and S exponents below N
    size = system.size
    t, s = system.transforms
    part, induced = induced_map(t, s)
    for x in range(size):
        orbit, k2 = rho(induced, part.class_of[x])
        k = len(orbit)
        assert k2 < k <= size
        u, v = iterate(t, k, x), iterate(t, k2, x)
        assert part.class_of[u] == part.class_of[v]
        l, l2 = find_relation(s, u, v)
        assert max(l, l2) < size
        assert iterate(t, k, iterate(s, l, x)) == iterate(
            t, k2, iterate(s, l2, x))


def test_a_swap_and_the_identity_carry_a_prescribed_relation():
    # T = swap on two points, S = id: the induced map is T itself, so
    # each x has T^2 x = x, the relation with k = 2, k2 = 0 and no S steps
    t, s = (1, 0), (0, 1)
    part, induced = induced_map(t, s)
    for x in range(2):
        orbit, k2 = rho(induced, part.class_of[x])
        assert (len(orbit), k2) == (2, 0)
        assert find_relation(s, iterate(t, 2, x), x) == (0, 0)

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perdec.core import (
    PreconditionError,
    RangeError,
    identity,
    iterate,
    validate_system,
)
from perdec.orbits import (
    Partition,
    _components,
    default_bound,
    find_relation,
    induced_map,
    invariance_classes,
    joint_classes,
    prescribed_points,
    rho,
)
from tests.conftest import grid_relation, power_table, sized_maps, systems


def _word(t, s, k, n, x):
    for _ in range(n):
        x = s[x]
    for _ in range(k):
        x = t[x]
    return x


def test_default_bound_is_twice_the_size():
    assert default_bound(5) == 10


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


def test_partition_from_labels_orders_by_first_appearance():
    part = Partition.from_labels([7, 3, 7, 1])
    assert part.class_of == (0, 1, 0, 2)
    assert part.representative == (0, 1, 3)
    assert part.classes()[0] == (0, 2)
    assert part.classes() == [(0, 2), (1,), (3,)]


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
    assert invariance_classes(t) == _components(size, [t])


@given(systems(n=2, max_size=7))
def test_joint_classes_match_undirected_reachability(system):
    size = system.size
    t, s = system.transforms
    # reference: undirected closure over both graphs
    parent = list(range(size))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for m in (t, s):
        for x in range(size):
            ra, rb = find(x), find(m[x])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    part = Partition.from_labels([find(x) for x in range(size)])
    joint = joint_classes(system, (0, 1))
    assert joint.class_of == part.class_of


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


def test_joint_classes_rejects_empty_subset():
    system = validate_system([(0, 1)], 2)
    with pytest.raises(PreconditionError):
        joint_classes(system, [])


def test_find_relation_identity_pair():
    t = (1, 0)
    assert find_relation(t, 1, 1, 4) == (0, 0)
    assert find_relation(t, 1, 1) == (0, 0)


def test_find_relation_basic_meeting():
    # t = +1 on Z_4: 0 and 2 meet with t^2 on one side
    t = tuple((x + 1) % 4 for x in range(4))
    assert find_relation(t, 0, 2, 8) == (0, 2)
    assert find_relation(t, 2, 0, 8) == (2, 0)
    assert find_relation(t, 0, 2, 1) is None


def test_find_relation_none_across_components():
    t = (0, 1)
    assert find_relation(t, 0, 1, 6) is None
    assert find_relation(t, 0, 1) is None


def test_find_relation_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        find_relation((1, 0), 0, 1, 0)
    with pytest.raises(RangeError):
        find_relation((1, 0), 0, 2)


def test_find_relation_breaks_ties_on_the_smaller_point():
    # 0 -> 1 <-> 2 and 3 -> 2: 0 and 3 meet at (2, 1) and at (1, 2), one
    # total; the least exponent on the smaller point 0 wins
    t = (1, 2, 1, 2)
    assert find_relation(t, 0, 3) == (1, 2)
    assert find_relation(t, 3, 0) == (2, 1)
    t = (1, 2, 3, 4, 5, 2, 4)  # 0 -> 1 -> (2 3 4 5) and 6 -> 4
    assert find_relation(t, 0, 6) == (2, 3)
    assert find_relation(t, 6, 0) == (3, 2)
    assert find_relation(t, 0, 6, 2) is None


@given(sized_maps(max_size=8), st.data())
@settings(max_examples=200, deadline=None)
def test_find_relation_equals_the_grid_search_with_an_identity_map(case,
                                                                   data):
    size, t = case
    x = data.draw(st.integers(0, size - 1))
    y = data.draw(st.integers(0, size - 1))
    bound = data.draw(st.one_of(st.none(), st.integers(1, 2 * size + 2)))
    # without a bound the orbits repeat within N steps, so 2N + 2 sees all
    rel = grid_relation(identity(size), t, x, y, bound or 2 * size + 2)
    expected = None if rel is None else (rel[0], rel[2])
    assert rel is None or (rel[1], rel[3]) == (0, 0)
    assert find_relation(t, x, y, bound) == expected


@given(sized_maps(max_size=8), st.data())
def test_find_relation_is_symmetric(case, data):
    size, t = case
    x = data.draw(st.integers(0, size - 1))
    y = data.draw(st.integers(0, size - 1))
    bound = data.draw(st.one_of(st.none(), st.integers(1, 2 * size)))
    r1 = find_relation(t, x, y, bound)
    r2 = find_relation(t, y, x, bound)
    if r1 is None:
        assert r2 is None
    else:
        k, k2 = r1
        assert r2 == (k2, k)
        assert iterate(t, k, x) == iterate(t, k2, y)
        assert bound is None or max(k, k2) <= bound


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
        assert find_relation(t, x, y, default_bound(size)) == rel


@given(sized_maps(max_size=8), st.data())
def test_find_relation_monotone_in_bound(case, data):
    size, t = case
    x = data.draw(st.integers(0, size - 1))
    y = data.draw(st.integers(0, size - 1))
    small = data.draw(st.integers(1, 4))
    rel = find_relation(t, x, y, small)
    if rel is not None:
        # a larger bound still succeeds and never returns a longer witness
        for larger in (small + 3, None):
            rel2 = find_relation(t, x, y, larger)
            assert rel2 is not None
            assert sum(rel2) <= sum(rel)
            assert iterate(t, rel2[0], x) == iterate(t, rel2[1], y)


def test_prescribed_points_swap_and_identity():
    # T = swap on two points, S = id: x = 0 carries T^2 x = x
    t = (1, 0)
    s = (0, 1)
    pres = prescribed_points(s, t, 4)
    assert set(pres) == {0, 1}
    assert pres[0].as_tuple() == (2, 0, 0, 0)


def test_prescribed_points_requires_positive_bound():
    with pytest.raises(PreconditionError):
        prescribed_points((0, 1), (1, 0), 0)


@given(systems(n=2, max_size=7))
def test_prescribed_points_cover_domain_at_default_bound(system):
    t, s = system.transforms
    pres = prescribed_points(s, t)
    assert set(pres) == set(range(system.size))


@given(systems(n=2, max_size=6), st.integers(1, 4))
def test_prescribed_points_witnesses_hold(system, bound):
    t, s = system.transforms
    pres = prescribed_points(s, t, bound)
    for x, rel in pres.items():
        k, n, k2, n2 = rel.as_tuple()
        assert k > k2
        assert max(k, n, k2, n2) <= bound
        assert _word(t, s, k, n, x) == _word(t, s, k2, n2, x)


@given(systems(n=2, max_size=6), st.integers(1, 3))
def test_prescribed_points_monotone_in_bound(system, bound):
    t, s = system.transforms
    small = set(prescribed_points(s, t, bound))
    large = set(prescribed_points(s, t, bound + 4))
    assert small <= large

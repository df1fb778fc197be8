import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perdec import generators, lattice, oracle
from perdec.core import (
    Decomposition,
    InternalContractViolation,
    NotCommutingError,
    PreconditionError,
    RationalFunction,
    is_invariant,
    power,
    validate_system,
)
from perdec.check import (
    DualCertificate,
    verify_dual,
    verify_parts,
)
from perdec.oracle import (
    nullspace,
    oracle_decompose,
    split_over_classes,
    verified_split,
)
from perdec.orbits import Partition, invariance_classes
from perdec.serialize import parse_instance
from perdec.star import check_star_abelian
from tests.conftest import (
    class_indicators,
    constant,
    counted_partition,
    counted_tuple,
    linear_feasibility,
    pairing,
    partition_of_labels,
    rationals,
    systems,
    systems_with_functions,
    zero,
)


def _ref_eliminate(rows, rhs):
    """Plain Fraction-based Gauss-Jordan; returns (rank, feasible)."""
    ncols = len(rows[0]) if rows else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b)]
           for row, b in zip(rows, rhs)]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(aug)) if aug[i][col]), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        prow = aug[rank]
        for i in range(len(aug)):
            if i != rank and aug[i][col]:
                factor = aug[i][col] / prow[col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], prow)]
        rank += 1
    feasible = all(row[-1] == 0 for row in aug[rank:])
    return rank, feasible


def _matrices(max_rows=6, max_cols=6):
    return st.integers(1, max_rows).flatmap(
        lambda m: st.integers(1, max_cols).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                         min_size=m, max_size=m),
                st.lists(st.integers(-5, 5), min_size=m, max_size=m))))


@given(_matrices())
def test_linear_feasibility_matches_fraction_reference(case):
    rows, rhs = case
    ncols = len(rows[0])
    verdict, solution = linear_feasibility(rows, rhs, ncols)
    _, feasible = _ref_eliminate(rows, rhs)
    assert verdict == feasible
    assert (solution is not None) == feasible
    if solution is not None:
        for row, b in zip(rows, rhs):
            assert sum(a * c for a, c in zip(row, solution)) == b


@given(_matrices())
def test_nullspace_dimension_and_membership(case):
    rows, rhs = case
    ncols = len(rows[0])
    basis = nullspace(rows, ncols)
    rank, _ = _ref_eliminate(rows, [0] * len(rows))
    assert len(basis) == ncols - rank
    for vec in basis:
        for row in rows:
            assert sum(a * v for a, v in zip(row, vec)) == 0
    if basis:
        basis_rank, _ = _ref_eliminate(basis, [0] * len(basis))
        assert basis_rank == len(basis)  # linearly independent


# The dense elimination that the sparse one replaced, kept as the reference
# for bit-identical outputs.  Its pivot rule differs, but the solution with
# the free unknowns pinned to 0 is unique, and so is each nullspace vector,
# so any correct elimination returns the same Fractions.


def _dense_reduce_row(row):
    g = 0
    for v in row:
        g = math.gcd(g, v)
        if g == 1:
            break
    if g > 1:
        for i, v in enumerate(row):
            row[i] = v // g
    for v in row:
        if v:
            if v < 0:
                for i, w in enumerate(row):
                    row[i] = -w
            return


def _dense_eliminate(work, ncols):
    m = len(work)
    rank = 0
    pivots = []
    for col in range(ncols):
        best = -1
        for i in range(rank, m):
            v = work[i][col]
            if v and (best < 0 or abs(v) < abs(work[best][col])):
                best = i
        if best < 0:
            continue
        work[rank], work[best] = work[best], work[rank]
        piv = work[rank][col]
        for i in range(rank + 1, m):
            v = work[i][col]
            if v:
                g = math.gcd(piv, v)
                a, b = piv // g, v // g
                work[i] = [a * x - b * y for x, y in zip(work[i], work[rank])]
                _dense_reduce_row(work[i])
        pivots.append((col, rank))
        rank += 1
        if rank == m:
            break
    return pivots


def _dense_linear_feasibility(rows, rhs, ncols):
    work = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = _dense_eliminate(work, ncols)
    if any(row[ncols] for row in work[len(pivots):]):
        return False, None
    solution = [Fraction(0)] * ncols
    for col, row in reversed(pivots):
        acc = Fraction(work[row][ncols])
        for c in range(col + 1, ncols):
            if work[row][c]:
                acc -= work[row][c] * solution[c]
        solution[col] = acc / work[row][col]
    return True, solution


def _dense_nullspace(rows, ncols):
    work = [list(r) for r in rows]
    pivots = _dense_eliminate(work, ncols)
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for col, row in reversed(pivots):
            acc = Fraction(0)
            for c in range(col + 1, ncols):
                if work[row][c] and vec[c]:
                    acc -= work[row][c] * vec[c]
            vec[col] = acc / work[row][col]
        basis.append(vec)
    return basis


@st.composite
def _sparse_matrices(draw):
    """Integer matrices of mixed density with some all-zero rows and a
    right side that is nonzero somewhere."""
    m = draw(st.integers(1, 9))
    n = draw(st.integers(1, 9))
    density = draw(st.sampled_from([0.2, 0.5, 1.0]))
    entries = st.integers(-6, 6)
    rows = []
    for _ in range(m):
        if draw(st.integers(0, 4)) == 0:
            rows.append([0] * n)
        else:
            rows.append([draw(entries) if draw(st.floats(0, 1)) < density
                         else 0 for _ in range(n)])
    rhs = draw(st.lists(entries, min_size=m, max_size=m))
    if not any(rhs):
        rhs[draw(st.integers(0, m - 1))] = draw(st.sampled_from([-2, 1, 3]))
    return rows, rhs, n


def _assert_identical(rows, rhs, ncols):
    # equal, not merely equivalent: same Fractions in the same places, and
    # the same again with the rows taken in reverse order
    solution = _dense_linear_feasibility(rows, rhs, ncols)
    basis = _dense_nullspace(rows, ncols)
    for ordered, right in ((rows, rhs), (rows[::-1], rhs[::-1])):
        assert linear_feasibility(ordered, right, ncols) == solution
        assert ([list(vec.values) for vec in nullspace(ordered, ncols)]
                == basis)


@given(_sparse_matrices())
def test_sparse_elimination_is_bit_identical_to_the_dense_reference(case):
    _assert_identical(*case)


def _class_incidence(partitions, f):
    """The dense linear system of `split_over_classes`, the reference for
    its verdicts: one unknown per (part, class), columns in partition
    order; point x's row has a 1 at its class in each partition, and its
    right side is f's integer numerator over the common denominator.
    Returns (rows, rhs, ncols)."""
    ncols = sum(part.n_classes for part in partitions)
    rows = [[0] * ncols for _ in range(len(f))]
    offset = 0
    for part in partitions:
        for row, c in zip(rows, part.class_of):
            row[offset + c] = 1
        offset += part.n_classes
    return rows, f.numerators, ncols


@given(systems(nmax=4, max_size=9), st.integers(0, 10 ** 9))
def test_sparse_elimination_is_bit_identical_on_class_incidences(system,
                                                                 seed):
    f = generators.random_function(random.Random(f"incidence:{seed}"), system)
    partitions = [invariance_classes(t) for t in system.transforms]
    _assert_identical(*_class_incidence(partitions, f))


def _refines(q: Partition, p: Partition) -> bool:
    """Reference: every two points in one q-class share their p-class."""
    n = len(q.class_of)
    return all(p.class_of[x] == p.class_of[y] for x in range(n)
               for y in range(n) if q.class_of[x] == q.class_of[y])


def _finest_reference(partitions) -> list:
    """Indices of the partitions no other one refines, keeping the first
    of equal ones, by testing every ordered pair."""
    return [j for j, p in enumerate(partitions)
            if not any(_refines(q, p) and (q != p or i < j)
                       for i, q in enumerate(partitions) if i != j)]


def _assert_split_matches_the_dense_verdict(partitions, f, got):
    """got is None exactly when the dense class incidence is infeasible,
    and parts sum to f, each constant on its partition's classes."""
    feasible, _ = linear_feasibility(*_class_incidence(partitions, f))
    assert (got is not None) == feasible
    if got is None:
        return
    assert [sum(column) for column in zip(*got)] == list(f.values)
    for part, values in zip(partitions, (p.values for p in got)):
        spread = [values[r] for r in part.representative]
        assert values == tuple(spread[c] for c in part.class_of)


@given(st.integers(3, 5), st.integers(0, 10 ** 9), st.booleans(),
       st.sampled_from([(), ("twice",), ("identity",),
                        ("twice", "identity")]))
@settings(max_examples=80, deadline=None)
def test_split_over_three_to_five_partitions_matches_the_dense_verdict(
        n, seed, torus, extra):
    # g = num / d plus the constant 1 / 2d is (2 num + 1) / 2d at every
    # point, so it is never integral, and it is decomposable whenever g is.
    # Random systems mostly nest down to one partition; the axis shifts of
    # a torus never refine each other, so they reach the forest route for
    # three or more partitions.
    rng = random.Random(f"split:{seed}")
    if torus:
        dims = tuple(rng.randint(2, 3) for _ in range(n - len(extra)))
        base = validate_system([_shifts(dims, axis)
                                for axis in range(len(dims))],
                               math.prod(dims))
    else:
        base = generators.random_commuting_system(rng, n - len(extra), 8)
    maps = list(base.transforms)
    for kind in extra:
        other = rng.choice(maps) if kind == "twice" else tuple(
            range(base.size))
        maps.insert(rng.randint(0, len(maps)), other)
    system = validate_system(maps, base.size)
    g = rng.choice([generators.random_function,
                    generators.decomposable_function])(rng, system)
    f = g + constant(system.size, Fraction(1, 2 * g.denom))
    partitions = [invariance_classes(t) for t in system.transforms]
    kept = _finest_reference(partitions)
    assert oracle._finest(partitions) == kept
    got = split_over_classes(partitions, f)
    _assert_split_matches_the_dense_verdict(partitions, f, got)
    if got is None:
        _assert_stencil_dual(system.transforms, f)
        return
    assert verify_parts(system.transforms, f, got)
    assert all(not any(got[j]) for j in range(n) if j not in kept)


@given(st.integers(0, 10 ** 9))
@settings(max_examples=300)
def test_split_over_three_or_four_label_partitions_matches_the_dense_verdict(
        seed):
    # arbitrary label partitions on at most 9 points, with few labels each:
    # points with equal labels in every partition, repeated cycle rows and
    # empty cycle rows all come up, planted or perturbed at one point
    rng = random.Random(f"labels:{seed}")
    size = rng.randint(1, 9)
    partitions = [partition_of_labels([rng.randrange(rng.randint(1, 4))
                                       for _ in range(size)])
                  for _ in range(rng.randint(3, 4))]
    values = [Fraction(0)] * size
    for part in partitions:
        pick = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for _ in range(part.n_classes)]
        values = [v + pick[c] for v, c in zip(values, part.class_of)]
    if rng.random() < 0.5:
        values[rng.randrange(size)] += 1
    f = RationalFunction(tuple(values))
    got = split_over_classes(partitions, f)
    _assert_split_matches_the_dense_verdict(partitions, f, got)


def _assert_stencil_dual(maps, f):
    """The oracle refuses f on the commuting maps with a dual that passes
    `verify_dual` and has at most 2^k points, k the kept maps; one kept
    map gives the two-point ±1 dual f(T z) − f(z).  Returns the dual."""
    got = verified_split(maps, f)
    assert isinstance(got, DualCertificate)
    partitions = [invariance_classes(t) for t in maps]
    assert verify_dual(partitions, f, got)
    support = [w for w in got.weights.numerators if w]
    kept = oracle._finest(partitions)
    assert len(support) <= 2 ** len(kept)
    if len(kept) == 1:
        assert sorted(support) == [-1, 1]
    return got


def test_split_over_no_partitions_is_refused(monkeypatch):
    # every instance kind and `oracle_decompose` have at least one map, so
    # an empty family is a caller's error, refused before any solver runs
    def refuse(*args):
        raise AssertionError("no partition reached a solver")

    for name in ("_finest", "_split_one", "_split_two", "_split_many",
                 "_eliminate"):
        monkeypatch.setattr(oracle, name, refuse)
    for f in (zero(3), zero(0),
              RationalFunction((Fraction(0), Fraction(-2, 3), Fraction(5)))):
        with pytest.raises(PreconditionError):
            split_over_classes([], f)


@st.composite
def _nested_families(draw):
    """(maps, size) whose invariance partitions nest, in shuffled order:
    powers T^k of one map (repeats are duplicates), or shifts of Z_m by
    proper divisors d of m (classes: residues mod d), each maybe with a
    multiple k·d along, whose gcd with m is a multiple of d.  Sometimes
    the identity, which refines every partition, joins them."""
    rng = random.Random(f"nest:{draw(st.integers(0, 10 ** 9))}")
    count = rng.randint(2, 5)
    if draw(st.booleans()):
        size = rng.randint(1, 9)
        t = tuple(rng.randrange(size) for _ in range(size))
        maps = [power(t, rng.randint(1, 4)) for _ in range(count)]
    else:
        size = rng.choice([4, 6, 8, 12, 18, 30])
        divisors = [d for d in range(1, size) if size % d == 0]
        shifts = []
        while len(shifts) < count:
            a = rng.choice(divisors)
            shifts.append(a)
            if rng.random() < 0.5:
                shifts.append(a * rng.randint(0, 3) % size)
        maps = [tuple((x + a) % size for x in range(size)) for a in shifts]
    if rng.random() < 0.2:
        maps.append(tuple(range(size)))
    rng.shuffle(maps)
    return maps, size


@given(_nested_families(), st.integers(0, 10 ** 9))
def test_nested_families_solve_over_the_finest_partitions(case, seed):
    maps, size = case
    system = validate_system(maps, size)
    f = generators.random_function(random.Random(f"nested:{seed}"), system)
    partitions = [invariance_classes(t) for t in maps]
    kept = oracle._finest(partitions)
    assert kept == _finest_reference(partitions)
    feasible, _ = linear_feasibility(*_class_incidence(partitions, f))
    got = split_over_classes(partitions, f)
    assert (got is not None) == feasible
    if got is None:
        # one kept partition: the two-point ±1 dual
        _assert_stencil_dual(maps, f)
    else:
        assert verify_parts(maps, f, got)
        assert all(not any(got[j]) for j in range(len(maps))
                   if j not in kept)


def _shifts(dims, axis):
    """The unit shift along one axis of the torus Z_dims[0] x ...; its
    invariance classes are the window's lines along that axis."""
    stride = math.prod(dims[axis + 1:])
    w = dims[axis]
    return tuple(x + stride if x // stride % w < w - 1
                 else x - (w - 1) * stride for x in range(math.prod(dims)))


@st.composite
def _two_transform_cases(draw):
    """A two-transform system with a function on it: a random finite
    system, two shifts of Z_m, the torus of a 2-D window (whose shifts
    have the window's slices as classes), one map twice, or the identity
    (all-singleton classes) against a random map.  Returns (system,
    the window's dims or None, f)."""
    kind = draw(st.sampled_from(
        ["finite", "cyclic", "window", "twice", "singletons"]))
    rng = random.Random(f"two:{kind}:{draw(st.integers(0, 10 ** 9))}")
    window = None
    if kind == "finite":
        system = generators.random_commuting_system(rng, 2, 9)
    elif kind == "cyclic":
        m = rng.randint(1, 16)
        system = validate_system([tuple((x + a) % m for x in range(m))
                                  for a in (rng.randrange(m),
                                            rng.randrange(m))], m)
    elif kind == "window":
        dims = (rng.randint(2, 6), rng.randint(2, 6))
        system = validate_system([_shifts(dims, 0), _shifts(dims, 1)],
                                 dims[0] * dims[1])
    else:
        (t,) = generators.random_commuting_system(rng, 1, 9).transforms
        other = t if kind == "twice" else tuple(range(len(t)))
        system = validate_system([t, other], len(t))
    f = generators.random_function(rng, system)
    if kind == "window":
        window = dims
    return system, window, f


@given(_two_transform_cases())
def test_spanning_forest_agrees_with_the_elimination(case):
    system, window, f = case
    a, b = partitions = [invariance_classes(t) for t in system.transforms]
    if window is not None:
        assert [invariance_classes(t) for t in lattice.axis_maps(window)] \
            == partitions
    got = oracle._split_two([a, b], f)
    feasible, _ = linear_feasibility(*_class_incidence(partitions, f))
    assert (got is not None) == feasible
    if got is None:
        _assert_stencil_dual(system.transforms, f)
    else:
        parts = Decomposition(tuple(RationalFunction(p) for p in got))
        assert verify_parts(system.transforms, f, parts.parts)


def test_two_partitions_skip_the_elimination_and_read_labels_linearly(
        monkeypatch):
    def refuse(*args):
        raise AssertionError("two partitions reached the elimination")

    reads = [0]

    def counted_classes(t):
        return counted_partition(invariance_classes(t), reads)

    monkeypatch.setattr(oracle, "_split_many", refuse)
    monkeypatch.setattr(oracle, "_eliminate", refuse)
    monkeypatch.setattr(oracle, "invariance_classes", counted_classes)
    rng = random.Random(100)
    dims = (100, 100)
    size = dims[0] * dims[1]
    rows = [Fraction(rng.randint(-9, 9)) for _ in range(dims[0])]
    cols = [Fraction(rng.randint(-9, 9), 2) for _ in range(dims[1])]
    planted = [r + c for r in rows for c in cols]
    broken = list(planted)
    broken[-1] += 1
    early = list(planted)
    early[1] += 1
    # each point's two labels: once to list the edges, once per edge end in
    # the forest, once to build a part; the dual's four stencil points'
    # labels to check it; and _finest's equal-count comparison of the two
    # label tuples, which stops at the first differing pair, the second
    # label.  The forest stops at its first failing edge, so an early one
    # leaves most edges unread.
    for values, splits, bound in ((planted, True, 6 * size + 2),
                                  (broken, False, 6 * size + 2),
                                  (early, False, 3 * size)):
        reads[0] = 0
        got = verified_split(lattice.axis_maps(dims),
                             RationalFunction(values))
        assert isinstance(got, DualCertificate) != splits
        assert reads[0] <= bound


def test_counted_tuple_counts_comparisons_and_slices():
    reads = [0]
    t = counted_tuple((0, 1, 2, 3), reads)
    steps = [(lambda: t[1:3] == (1, 2), 2), (lambda: t[5:], 0),
             (lambda: t == (0, 1, 9, 3), 3), (lambda: t != (0, 1, 2, 3), 4),
             (lambda: (0, 5, 2, 3) == t, 2), (lambda: t == (0, 1), 0),
             (lambda: t == [0, 1, 2, 3], 0), (lambda: t[-1], 1),
             (lambda: hash(t) == hash((0, 1, 2, 3)), 0)]
    for step, cost in steps:
        before = reads[0]
        step()
        assert reads[0] - before == cost
    assert (t == (0, 1, 2, 3), t != (0, 1, 2), t == [0, 1, 2, 3]) == (
        True, True, False)


def test_nested_maps_skip_the_solvers_and_read_labels_linearly(
        monkeypatch):
    def refuse(*args):
        raise AssertionError("a nested family reached a solver")

    reads = [0]

    def counted_classes(t):
        return counted_partition(invariance_classes(t), reads)

    monkeypatch.setattr(oracle, "_eliminate", refuse)
    monkeypatch.setattr(oracle, "_split_two", refuse)
    monkeypatch.setattr(oracle, "_split_many", refuse)
    monkeypatch.setattr(oracle, "invariance_classes", counted_classes)
    rng = random.Random(22)
    size = 10 ** 4
    t = tuple(rng.randrange(size) for _ in range(size))
    square = power(t, 2)
    identity = tuple(range(size))
    planted = generators.random_invariant_part(rng, square)
    broken = RationalFunction(planted.values[:-1]
                              + (planted.values[-1] + 1,))
    cases = (([t, square, t, identity], planted, True),
             ([t, square, t, identity], broken, True),
             ([square, t, t], planted, True),
             ([t, t, square], broken, False))
    for maps, f, splits in cases:
        reads[0] = 0
        got = oracle_decompose(validate_system(maps, size), f)
        assert isinstance(got, DualCertificate) != splits
        # one finest partition, with more classes than any other: each
        # other one is compared with it by one pass over both label tuples
        # (2 reads a point), the class scan reads its labels once, and a
        # dual is checked on its two points alone
        assert reads[0] <= 7 * size


def _count_elimination(monkeypatch):
    """[rows entering _eliminate, combined rows, their entries]: every
    combined row passes through _reduce_row, so these measure the work."""
    work = [0, 0, 0]
    eliminate, reduce_row = oracle._eliminate, oracle._reduce_row

    def counted_eliminate(rows, ncols):
        work[0] += len(rows)
        return eliminate(rows, ncols)

    def counted_reduce(row):
        work[1] += 1
        work[2] += len(row)
        reduce_row(row)

    monkeypatch.setattr(oracle, "_eliminate", counted_eliminate)
    monkeypatch.setattr(oracle, "_reduce_row", counted_reduce)
    return work


def _box_elimination_work(monkeypatch, w):
    """The work of `split_over_classes` on a planted and a random w×w×w
    window's three axis partitions; the oracle must refuse the random one
    with an 8-point ±1 dual."""
    work = _count_elimination(monkeypatch)
    rng = random.Random(10)
    axes = [[Fraction(rng.randint(-9, 9), rng.randint(1, 3))
             for _ in range(w)] for _ in range(3)]
    planted = tuple(axes[0][a] + axes[1][b] + axes[2][c]
                    for a in range(w) for b in range(w) for c in range(w))
    broken = tuple(Fraction(rng.randint(-9, 9)) for _ in range(w ** 3))
    counts = []
    for values, splits in ((planted, True), (broken, False)):
        work[:] = [0, 0, 0]
        maps = lattice.axis_maps((w, w, w))
        window = RationalFunction(values)
        got = split_over_classes([invariance_classes(t) for t in maps],
                                 window)
        assert (got is not None) == splits
        counts.append(list(work))
        if not splits:
            # the mixed difference of the three axes: the corner stencil
            # of a unit cube
            dual = verified_split(maps, window)
            support = sorted(v for v in dual.weights.values if v)
            assert support == [-1] * 4 + [1] * 4
    return counts


def test_three_partitions_bound_the_elimination_work(monkeypatch):
    # a 10x10x10 window: the forest of the first two axes leaves one
    # cycle row per (i, j) with i, j >= 1, 81 distinct rows, repeated by
    # all ten planes; pivoting from the highest class ids down, each row
    # pivots on its own class (i, j) and no row is combined (0 combined
    # rows when pinned, 1,944 in the order of increasing ids).  The
    # random window repeats a row with another right side, so it is
    # refused before anything is eliminated.
    planted, broken = _box_elimination_work(monkeypatch, 10)
    assert planted[0] <= 81
    assert planted[1] <= 81
    assert planted[2] <= 1_000
    assert broken == [0, 0, 0]


def test_a_20_cubed_window_bounds_the_elimination_work(monkeypatch):
    # 361 distinct rows and again no combined row when pinned (35,739
    # combined rows and 331,398 entries in the order of increasing ids)
    planted, broken = _box_elimination_work(monkeypatch, 20)
    assert planted[0] <= 361
    assert planted[1] <= 361
    assert planted[2] <= 4_000
    assert broken == [0, 0, 0]


def test_a_contradiction_ends_the_elimination_at_once(monkeypatch):
    # x = 1, then x = 2, then 100 rows x + y_i = i: the second row reduces
    # to 0 = 1 against the first, and no later row is combined
    work = _count_elimination(monkeypatch)
    rows = [[1] + [0] * 100, [1] + [0] * 100] + [
        [1] + [int(c == i) for c in range(100)] for i in range(100)]
    rhs = [1, 2] + list(range(100))
    assert linear_feasibility(rows, rhs, 101) == (False, None)
    assert work[1] <= 1


def test_periodic_shifts_send_at_most_one_row_per_joint_class(monkeypatch):
    # Z_m with shifts (2, 3, 5): the classes are the residues mod 2, 3 and
    # 5, so there are 30 joint classes, and points of one joint class give
    # one row
    work = _count_elimination(monkeypatch)
    m = 3 * 10 ** 4
    maps = [tuple((x + a) % m for x in range(m)) for a in (2, 3, 5)]
    system = validate_system(maps, m)
    planted = generators.decomposable_function(random.Random(235), system)
    broken = RationalFunction(planted.values[:-1]
                              + (planted.values[-1] + 1,))
    for f, splits in ((planted, True), (broken, False)):
        work[:] = [0, 0, 0]
        got = verified_split(maps, f)
        assert isinstance(got, DualCertificate) != splits
        assert work[0] <= 30
        if not splits:
            # the last point against the first of its joint class, before
            # any elimination; the dual is the three shifts' stencil
            assert work == [0, 0, 0]
            assert sum(1 for w in got.weights.numerators if w) <= 8


def test_class_indicators_span_invariant_functions():
    t = (1, 2, 2, 3)
    basis = class_indicators(t)
    part = invariance_classes(t)
    assert len(basis) == part.n_classes
    for b in basis:
        assert is_invariant(t, b)
    # any invariant function is the rep-value combination of the basis
    g = RationalFunction(tuple(Fraction(part.class_of[x] * 7 - 3)
                               for x in range(4)))
    combo = zero(4)
    for c, b in enumerate(basis):
        weight = g[part.representative[c]]
        combo = combo + RationalFunction(tuple(weight * v for v in b.values))
    assert combo == g


def test_oracle_rejects_mismatched_length():
    system = validate_system([(1, 0)], 2)
    with pytest.raises(PreconditionError):
        oracle_decompose(system, zero(3))


def test_oracle_swap_noninvariant_is_infeasible():
    system = validate_system([(1, 0)], 2)
    f = RationalFunction((Fraction(0), Fraction(1)))
    got = oracle_decompose(system, f)
    assert isinstance(got, DualCertificate)
    assert pairing(got, f) != 0
    for b in class_indicators((1, 0)):
        assert pairing(got, b) == 0


def test_oracle_handles_duplicated_transforms():
    system = validate_system([(1, 0), (1, 0)], 2)
    f = constant(2, Fraction(5))
    got = oracle_decompose(system, f)
    assert isinstance(got, Decomposition)
    assert sum(got.parts[1:], got.parts[0]) == f


@given(systems(), st.integers(0, 10 ** 9))
def test_oracle_accepts_planted_decompositions(system, seed):
    rng = random.Random(f"planted:{seed}")
    f = generators.decomposable_function(rng, system)
    got = oracle_decompose(system, f)
    assert isinstance(got, Decomposition)
    assert len(got.parts) == system.n
    assert sum(got.parts[1:], got.parts[0]) == f
    for t, part in zip(system.transforms, got.parts):
        assert is_invariant(t, part)


@given(systems_with_functions())
def test_oracle_verdict_matches_span_membership(case):
    system, f = case
    # reference: f feasible iff in the span of all kernel indicator columns
    columns = []
    for t in system.transforms:
        columns.extend(class_indicators(t))
    rows = [[int(col[x]) for col in columns] for x in range(system.size)]
    den = 1
    for v in f.values:
        den = den * v.denominator // math.gcd(den, v.denominator)
    # A c = f is solvable iff A c' = den * f is (rescale the unknowns)
    rhs = [int(v * den) for v in f.values]
    _, feasible = _ref_eliminate(rows, rhs)
    got = oracle_decompose(system, f)
    if feasible:
        assert isinstance(got, Decomposition)
        assert bool(verify_parts(system.transforms, f, got.parts))
    else:
        assert isinstance(got, DualCertificate)
        assert pairing(got, f) != 0


@given(systems_with_functions(), st.data())
def test_verify_dual_matches_pairing_with_every_kernel_indicator(case, data):
    system, f = case
    basis = [e for t in system.transforms for e in class_indicators(t)]
    # weights from the annihilator of all indicators, sometimes perturbed,
    # so both accepted and rejected functionals come up
    null = nullspace([[int(v) for v in e] for e in basis], system.size)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(null),
                                max_size=len(null)))
    weights = [sum((c * vec[x] for c, vec in zip(coeffs, null)), Fraction(0))
               for x in range(system.size)]
    scale = math.lcm(*(w.denominator for w in weights))
    weights = [w * scale for w in weights]
    if data.draw(st.booleans()):
        x = data.draw(st.integers(0, system.size - 1))
        weights[x] += data.draw(st.integers(-2, 2))
    dual = DualCertificate(RationalFunction(tuple(weights)))
    expected = (pairing(dual, f) != 0
                and all(pairing(dual, e) == 0 for e in basis))
    partitions = [invariance_classes(t) for t in system.transforms]
    assert bool(verify_dual(partitions, f, dual)) == expected


def test_verify_dual_rejects_a_wrong_weight_count():
    system = validate_system([(1, 0)], 2)
    f = RationalFunction((Fraction(0), Fraction(1)))
    dual = oracle_decompose(system, f)
    partitions = [invariance_classes((1, 0))]
    assert verify_dual(partitions, f, dual)
    short = DualCertificate(RationalFunction(dual.weights.values[:1]))
    verdict = verify_dual(partitions, f, short)
    assert not verdict and "count" in verdict.reason


def _residue_labels(shift, length):
    """Reference classes of x -> x + shift on [0, length): residues modulo
    the shift, or singletons when no step stays inside the window."""
    if 0 < shift < length:
        return [x % shift for x in range(length)]
    return list(range(length))


@st.composite
def _z_windows(draw):
    """(shifts, values) on a window of Z: n <= 3 shifts in 0..5, length
    <= 12, values either random or a planted sum of periodic parts."""
    shifts = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
    length = draw(st.integers(2, 12))
    if draw(st.booleans()):
        values = draw(st.lists(rationals(-4, 4, 3), min_size=length,
                               max_size=length))
    else:
        values = [Fraction(0)] * length
        for a in shifts:
            labels = _residue_labels(a, length)
            picks = draw(st.lists(rationals(-4, 4, 3), min_size=length,
                                  max_size=length))
            values = [v + picks[c] for v, c in zip(values, labels)]
    return shifts, values


def _z_window_split(shifts, values):
    inst = parse_instance({"kind": "z-window", "length": len(values),
                           "shifts": shifts,
                           "values": [str(v) for v in values]})
    return inst.f, verified_split(inst.maps(), inst.f, inst.shifts)


@given(_z_windows())
def test_z_window_decider_matches_the_dense_rank_reference(case):
    shifts, values = case
    f, got = _z_window_split(shifts, values)
    labels = [_residue_labels(a, len(values)) for a in shifts]
    # one indicator column per (shift, class); f splits iff it lies in
    # their span
    columns = [[int(c == k) for c in lab] for lab in labels
               for k in sorted(set(lab))]
    rows = [list(row) for row in zip(*columns)]
    _, feasible = _ref_eliminate(rows, values)
    assert isinstance(got, Decomposition) == feasible
    if isinstance(got, DualCertificate):
        partitions = [partition_of_labels(lab) for lab in labels]
        assert verify_dual(partitions, f, got)
    else:
        assert sum(got.parts[1:], got.parts[0]) == f
        for a, part in zip(shifts, got.parts):
            assert all(part[x] == part[x + a]
                       for x in range(len(values) - a))


@given(_z_windows())
def test_feasible_z_windows_pass_the_abelian_star_check(case):
    # necessity: the partition condition holds for every sum of
    # shift-invariant parts
    shifts, values = case
    f, got = _z_window_split(shifts, values)
    if isinstance(got, Decomposition):
        assert check_star_abelian(shifts, f) is None


@st.composite
def _commuting_kinds(draw):
    """(maps, f) on a commuting kind: a random finite system of 1 to 4
    maps, 1 to 4 shifts of Z_m, or the axis maps of a window of 2 or 3
    axes; f random, planted, or planted and bumped at one point."""
    kind = draw(st.sampled_from(["finite", "cyclic", "window"]))
    rng = random.Random(f"kinds:{kind}:{draw(st.integers(0, 10 ** 9))}")
    n = rng.randint(1, 4)
    if kind == "finite":
        maps = generators.random_commuting_system(rng, n, 8).transforms
    elif kind == "cyclic":
        m = rng.randint(1, 16)
        maps = [tuple((x + a) % m for x in range(m))
                for a in (rng.randrange(m) for _ in range(n))]
    else:
        dims = tuple(rng.randint(2, 4) for _ in range(rng.randint(2, 3)))
        maps = lattice.axis_maps(dims)
    system = validate_system(maps, len(maps[0]))
    f = generators.random_function(rng, system)
    if rng.random() < 0.3:
        bump = [0] * system.size
        bump[rng.randrange(system.size)] = 1
        f = f + RationalFunction(bump)
    return list(maps), f


@given(_commuting_kinds())
@settings(max_examples=150, deadline=None)
def test_commuting_duals_are_stencils_of_the_kept_maps(case):
    # the verdict is the dense class incidence's, and a refusal's dual has
    # at most 2^k points, k the maps `_finest` keeps
    maps, f = case
    partitions = [invariance_classes(t) for t in maps]
    feasible, _ = linear_feasibility(*_class_incidence(partitions, f))
    got = verified_split(maps, f)
    assert isinstance(got, Decomposition) == feasible
    if not feasible:
        _assert_stencil_dual(maps, f)


def _euler_phi(d):
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


@given(st.lists(st.integers(0, 10), min_size=1, max_size=4),
       st.integers(2, 30), st.integers(0, 10 ** 9), st.booleans())
@settings(max_examples=150, deadline=None)
def test_z_window_duals_are_shifts_of_the_cyclotomic_product(
        shifts, length, seed, planted):
    # shifts of 0 and of at least the length make every f split; otherwise
    # a refusal's dual is x^z·P, at most deg P + 1 consecutive points with
    # deg P the sum of φ(d) over the divisors d of the in-window shifts
    rng = random.Random(f"zdual:{seed}")
    if planted:
        values = [Fraction(0)] * length
        for a in shifts:
            labels = _residue_labels(a, length)
            picks = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                     for _ in range(length)]
            values = [v + picks[c] for v, c in zip(values, labels)]
        if rng.random() < 0.5:
            values[rng.randrange(length)] += 1
    else:
        values = [Fraction(rng.randint(-3, 3)) for _ in range(length)]
    inst = parse_instance({"kind": "z-window", "length": length,
                           "shifts": shifts,
                           "values": [str(v) for v in values]})
    partitions = [invariance_classes(t) for t in inst.maps()]
    feasible, _ = linear_feasibility(*_class_incidence(partitions, inst.f))
    got = verified_split(inst.maps(), inst.f, inst.shifts)
    assert isinstance(got, Decomposition) == feasible
    if any(a == 0 or a >= length for a in shifts):
        assert feasible
    if not feasible:
        assert verify_dual(partitions, inst.f, got)
        divisors = {d for a in shifts for d in range(1, a + 1)
                    if a % d == 0}
        degree = sum(_euler_phi(d) for d in divisors)
        support = [x for x, w in enumerate(got.weights.numerators) if w]
        assert support[-1] - support[0] <= degree


def test_a_refusal_without_a_dual_violates_the_internal_contract(
        monkeypatch):
    # the solvers refuse a splittable f: its stencil vanishes everywhere,
    # so no dual can be built, and the oracle raises rather than refuse
    monkeypatch.setattr(oracle, "split_over_classes", lambda *args: None)
    m = 12
    maps = [tuple((x + a) % m for x in range(m)) for a in (2, 3)]
    f = generators.decomposable_function(random.Random(12),
                                         validate_system(maps, m))
    with pytest.raises(InternalContractViolation):
        verified_split(maps, f)
    shifts, values = (2, 3), [x % 2 + 5 * (x % 3) for x in range(12)]
    inst = parse_instance({"kind": "z-window", "length": 12,
                           "shifts": list(shifts),
                           "values": [str(v) for v in values]})
    with pytest.raises(InternalContractViolation):
        verified_split(inst.maps(), inst.f, inst.shifts)


def test_maps_that_do_not_commute_are_the_callers_error():
    # a z-window's completed shifts 2, 3 and 5 on [0, 16) do not commute,
    # so without the shifts the kept maps' stencil proves nothing: the
    # refusal of f(x) = x names the first pair that does not commute, by
    # its index among the maps passed, where a dropped duplicate counts
    inst = parse_instance({"kind": "z-window", "length": 16,
                           "shifts": [2, 3, 5],
                           "values": [str(x) for x in range(16)]})
    maps = inst.maps()
    for passed, witness in ((maps, (0, 1, 11)),
                            ((maps[0],) + maps, (0, 2, 11))):
        with pytest.raises(NotCommutingError) as caught:
            verified_split(passed, inst.f)
        assert caught.value.witness == witness
    got = verified_split(maps, inst.f, inst.shifts)
    assert verify_dual([invariance_classes(t) for t in maps], inst.f, got)

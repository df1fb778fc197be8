import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perdec import generators, lattice, oracle
from perdec.core import (
    Decomposition,
    PreconditionError,
    RationalFunction,
    is_invariant,
    validate_system,
    verify_decomposition,
)
from perdec.oracle import (
    DualCertificate,
    kernel_basis,
    linear_feasibility,
    nullspace,
    oracle_decompose,
    split_over_classes,
    verify_dual,
)
from perdec.lattice import LatticeWindow, slice_partitions
from perdec.orbits import invariance_classes
from tests.conftest import counted_partition, systems, systems_with_functions


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
    solution, dual = linear_feasibility(rows, rhs, ncols)
    _, feasible = _ref_eliminate(rows, rhs)
    assert (solution is not None) == feasible
    assert (dual is not None) == (not feasible)
    if solution is not None:
        for row, b in zip(rows, rhs):
            assert sum(a * c for a, c in zip(row, solution)) == b
    else:
        # dual: y A = 0 and y b != 0, both over the integers
        for col in range(ncols):
            assert sum(y * rows[i][col] for i, y in enumerate(dual)) == 0
        assert sum(y * b for y, b in zip(dual, rhs)) != 0


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
# for bit-identical outputs: same pivots, same row arithmetic, same signs.


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
    m = len(rows)
    work = [list(rows[i]) + [rhs[i]] + [1 if j == i else 0 for j in range(m)]
            for i in range(m)]
    pivots = _dense_eliminate(work, ncols)
    for i in range(len(pivots), m):
        if work[i][ncols]:
            return None, tuple(work[i][ncols + 1:])
    solution = [Fraction(0)] * ncols
    for col, row in reversed(pivots):
        acc = Fraction(work[row][ncols])
        for c in range(col + 1, ncols):
            if work[row][c]:
                acc -= work[row][c] * solution[c]
        solution[col] = acc / work[row][col]
    return solution, None


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
    # equal, not merely equivalent: same Fractions in the same places
    assert (linear_feasibility(rows, rhs, ncols)
            == _dense_linear_feasibility(rows, rhs, ncols))
    assert nullspace(rows, ncols) == _dense_nullspace(rows, ncols)


@given(_sparse_matrices())
def test_sparse_elimination_is_bit_identical_to_the_dense_reference(case):
    _assert_identical(*case)


@given(systems(nmax=4, max_size=9), st.integers(0, 10 ** 9))
def test_sparse_elimination_is_bit_identical_on_class_incidences(system,
                                                                 seed):
    f = generators.random_function(random.Random(f"incidence:{seed}"), system)
    partitions = [invariance_classes(t) for t in system.transforms]
    _assert_identical(*oracle._class_incidence(partitions, f))


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
    window or None, f)."""
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
        window = LatticeWindow(dims, f.values)
    return system, window, f


@given(_two_transform_cases())
def test_spanning_forest_agrees_with_the_elimination(case):
    system, window, f = case
    a, b = partitions = [invariance_classes(t) for t in system.transforms]
    if window is not None:
        assert slice_partitions(window) == partitions
    got = oracle._split_two(a, b, f)
    _, dual = linear_feasibility(*oracle._class_incidence(partitions, f))
    assert isinstance(got, DualCertificate) == (dual is not None)
    if isinstance(got, DualCertificate):
        weights = got.weights.values
        assert set(weights) <= {-1, 0, 1}
        support = sum(1 for w in weights if w)
        assert support % 2 == 0
        assert support <= 2 * min(a.n_classes, b.n_classes)
        assert verify_dual(partitions, f, got)
    else:
        parts = Decomposition(tuple(RationalFunction(p) for p in got))
        assert verify_decomposition(system, f, parts)


def test_two_partitions_skip_the_elimination_and_read_labels_linearly(
        monkeypatch):
    def refuse(rows, rhs, ncols):
        raise AssertionError("two partitions reached linear_feasibility")

    reads = [0]

    def counted_slices(window):
        return [counted_partition(part, reads)
                for part in slice_partitions(window)]

    monkeypatch.setattr(oracle, "linear_feasibility", refuse)
    monkeypatch.setattr(lattice, "slice_partitions", counted_slices)
    rng = random.Random(100)
    dims = (100, 100)
    size = dims[0] * dims[1]
    rows = [Fraction(rng.randint(-9, 9)) for _ in range(dims[0])]
    cols = [Fraction(rng.randint(-9, 9), 2) for _ in range(dims[1])]
    planted = LatticeWindow(dims, tuple(r + c for r in rows for c in cols))
    broken = list(planted.values)
    broken[-1] += 1
    for values, splits in ((planted.values, True), (broken, False)):
        reads[0] = 0
        got = lattice.lattice_oracle_decompose(LatticeWindow(dims, values))
        assert isinstance(got, DualCertificate) != splits
        # each point's two labels: once to list the edges, once per edge
        # end in the forest, once to build a part or check the dual
        assert reads[0] <= 6 * size


def test_three_partitions_bound_the_elimination_work(monkeypatch):
    # a 10x10x10 window goes to linear_feasibility; every combined row
    # passes through _reduce_row, so its rows and entries measure the work
    # (19,809 rows and ~2.7e5 entries for both windows when pinned)
    work = [0, 0]
    reduce_row = oracle._reduce_row

    def counted(row):
        work[0] += 1
        work[1] += len(row)
        reduce_row(row)

    monkeypatch.setattr(oracle, "_reduce_row", counted)
    rng = random.Random(10)
    dims = (10, 10, 10)
    axes = [[Fraction(rng.randint(-9, 9), rng.randint(1, 3))
             for _ in range(w)] for w in dims]
    planted = tuple(axes[0][a] + axes[1][b] + axes[2][c]
                    for a in range(10) for b in range(10) for c in range(10))
    broken = tuple(Fraction(rng.randint(-9, 9)) for _ in range(1000))
    for values, splits in ((planted, True), (broken, False)):
        work[:] = [0, 0]
        window = LatticeWindow(dims, values)
        got = split_over_classes(slice_partitions(window),
                                 RationalFunction(values))
        assert isinstance(got, DualCertificate) != splits
        assert work[0] <= 30_000
        assert work[1] <= 400_000


def test_kernel_basis_spans_invariant_functions():
    t = (1, 2, 2, 3)
    basis = kernel_basis(t)
    part = invariance_classes(t)
    assert len(basis) == part.n_classes
    for b in basis:
        assert is_invariant(t, b)
    # any invariant function is the rep-value combination of the basis
    g = RationalFunction(tuple(Fraction(part.class_of[x] * 7 - 3)
                               for x in range(4)))
    combo = RationalFunction.zero(4)
    for c, b in enumerate(basis):
        combo = combo + b.scale(g[part.representative[c]])
    assert combo == g


def test_oracle_rejects_mismatched_length():
    system = validate_system([(1, 0)], 2)
    with pytest.raises(PreconditionError):
        oracle_decompose(system, RationalFunction.zero(3))


def test_oracle_swap_noninvariant_is_infeasible():
    system = validate_system([(1, 0)], 2)
    f = RationalFunction((Fraction(0), Fraction(1)))
    got = oracle_decompose(system, f)
    assert isinstance(got, DualCertificate)
    assert got.pair(f) != 0
    for b in kernel_basis((1, 0)):
        assert got.pair(b) == 0


def test_oracle_handles_duplicated_transforms():
    system = validate_system([(1, 0), (1, 0)], 2)
    f = RationalFunction.constant(2, Fraction(5))
    got = oracle_decompose(system, f)
    assert isinstance(got, Decomposition)
    assert got.total() == f


@given(systems(), st.integers(0, 10 ** 9))
def test_oracle_accepts_planted_decompositions(system, seed):
    rng = random.Random(f"planted:{seed}")
    f = generators.decomposable_function(rng, system)
    got = oracle_decompose(system, f)
    assert isinstance(got, Decomposition)
    assert len(got.parts) == system.n
    assert got.total() == f
    for t, part in zip(system.transforms, got.parts):
        assert is_invariant(t, part)


@given(systems_with_functions())
def test_oracle_verdict_matches_span_membership(case):
    system, f = case
    # reference: f feasible iff in the span of all kernel indicator columns
    columns = []
    for t in system.transforms:
        columns.extend(kernel_basis(t))
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
        assert bool(verify_decomposition(system, f, got))
    else:
        assert isinstance(got, DualCertificate)
        assert got.pair(f) != 0


@given(systems_with_functions(), st.data())
def test_verify_dual_matches_pairing_with_every_kernel_indicator(case, data):
    system, f = case
    basis = [e for t in system.transforms for e in kernel_basis(t)]
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
    expected = dual.pair(f) != 0 and all(dual.pair(e) == 0 for e in basis)
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

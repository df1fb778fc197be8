import random
from fractions import Fraction
from functools import lru_cache

from hypothesis import strategies as st

from perdec import generators
from perdec.check import ConstrainedObstruction
from perdec.cohomology import _solve_on_quotient
from perdec.core import RationalFunction, compose
from perdec.oracle import _back_substitute, _eliminate, nullspace
from perdec.orbits import Partition, invariance_classes, rho


def counted_tuple(values, reads: list, limit=None) -> tuple:
    """values as a tuple that adds one to reads[0] per item read, by index,
    by slice, by iteration or by == and != (which read up to and including
    the first differing pair, and nothing when the lengths differ), and
    fails at once when reads[0] passes limit."""

    def count(n=1):
        reads[0] += n
        if limit is not None and reads[0] > limit:
            raise AssertionError(f"more than {limit} reads")

    class Counted(tuple):
        __hash__ = tuple.__hash__

        def __iter__(self):
            for item in super().__iter__():
                count()
                yield item

        def __getitem__(self, index):
            item = super().__getitem__(index)
            count(len(item) if isinstance(index, slice) else 1)
            return item

        def __eq__(self, other):
            equal = super().__eq__(other)
            if equal is not NotImplemented and len(self) == len(other):
                pairs = zip(tuple.__iter__(self), tuple.__iter__(other))
                count(next((i + 1 for i, (a, b) in enumerate(pairs)
                            if a is not b and a != b), len(self)))
            return equal

        def __ne__(self, other):
            equal = self.__eq__(other)
            return equal if equal is NotImplemented else not equal

    return Counted(values)


def class_members(part: Partition) -> list[tuple[int, ...]]:
    """The points of each class, by class id, each in increasing order."""
    out: list[list[int]] = [[] for _ in range(part.n_classes)]
    for x, c in enumerate(part.class_of):
        out[c].append(x)
    return [tuple(members) for members in out]


def counted_partition(part: Partition, reads: list) -> Partition:
    """part with class labels counted by `counted_tuple`."""
    return Partition(counted_tuple(part.class_of, reads), part.representative)


def delta(t, f: RationalFunction) -> RationalFunction:
    """Reference difference x -> f(t(x)) - f(x)."""
    return f.compose(t) - f


def zero(size: int) -> RationalFunction:
    """The zero function on size points."""
    return RationalFunction((Fraction(0),) * size)


def constant(size: int, value) -> RationalFunction:
    """The function with the one value everywhere."""
    return RationalFunction((Fraction(value),) * size)


def pairing(dual, f: RationalFunction) -> Fraction:
    """sum_x w(x) f(x) of a DualCertificate's weights w with f."""
    return sum((w * v for w, v in zip(dual.weights, f)), Fraction(0))


def constrained_transfer(t, s, g: RationalFunction):
    """h(t(x)) - h(x) = g(x) with h s-invariant: `_solve_on_quotient`'s
    h_q lifted to points, or its ConstrainedObstruction."""
    h_q, part, _ = _solve_on_quotient(t, s, g)
    if isinstance(h_q, ConstrainedObstruction):
        return h_q
    return RationalFunction(tuple(h_q[c] for c in part.class_of))


def linear_feasibility(rows, rhs, ncols):
    """`oracle._eliminate` and `oracle._back_substitute` on dense integer
    rows A and right side b: (verdict, solution), the verdict whether
    A c = b has a solution and the solution the Fraction one with free
    unknowns pinned to 0, or None."""
    work = [{c: v for c, v in enumerate(list(row) + [b]) if v}
            for row, b in zip(rows, rhs)]
    pivots = _eliminate(work, ncols)
    if pivots is None:
        return False, None
    # the right side is column ncols held at -1: A c - b = 0
    numerators, scale = _back_substitute(pivots, ncols, ncols, -1)
    return True, [Fraction(v, scale) for v in numerators]


def reference_solve_transfer(t, g: RationalFunction):
    """Reference transfer solver, quadratic on long tails: per weak class
    with least point x0, h(x) = sum_{i<n} g(t^i x0) - sum_{j<m} g(t^j x)
    where t^m x = t^n x0 is the first meeting of the two forward orbits;
    the first class (by least point) whose cycle sum is nonzero is
    returned instead, as the ConstrainedObstruction (x, k, 0, 0, total)
    of the cycle's first point x on that orbit and its length k."""
    part = invariance_classes(t)
    values: list = [None] * len(g)
    for x0, members in zip(part.representative, class_members(part)):
        orbit, start = rho(t, x0)
        index = {p: i for i, p in enumerate(orbit)}
        prefix = [Fraction(0)]
        for p in orbit:
            prefix.append(prefix[-1] + g[p])
        cycle_total = prefix[len(orbit)] - prefix[start]
        if cycle_total != 0:
            return ConstrainedObstruction(orbit[start], len(orbit) - start,
                                          0, 0, cycle_total)
        for x in members:
            partial = Fraction(0)
            q = x
            while q not in index:
                partial += g[q]
                q = t[q]
            values[x] = prefix[index[q]] - partial
    return RationalFunction(tuple(values))


def partition_of_labels(labels) -> Partition:
    """The Partition with one class per distinct label, numbered by first
    appearance scanning points upward, so each representative is its
    class minimum."""
    ids: dict = {}
    class_of, reps = [], []
    for x, lab in enumerate(labels):
        if lab not in ids:
            ids[lab] = len(reps)
            reps.append(x)
        class_of.append(ids[lab])
    return Partition(tuple(class_of), tuple(reps))


def union_find_classes(size: int, maps) -> Partition:
    """Reference joint classes: the weakly connected components of the
    union of the graphs x -> t(x), by union-find that keeps each root its
    component's least point, relabelled by `partition_of_labels`."""
    parent = list(range(size))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]  # path halving
            a = parent[a]
        return a

    for t in maps:
        for x in range(size):
            ra, rb = find(x), find(t[x])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return partition_of_labels([find(x) for x in range(size)])


def power_table(t, kmax: int) -> list:
    """Reference tables of t^0 .. t^kmax, composed one step at a time."""
    out = [tuple(range(len(t)))]
    for _ in range(kmax):
        out.append(compose(t, out[-1]))
    return out


def class_indicators(t) -> list:
    """Reference indicator functions of t's invariance classes; they span
    the t-invariant functions exactly."""
    part = invariance_classes(t)
    return [RationalFunction(tuple(Fraction(int(c == k))
                                   for c in part.class_of))
            for k in range(part.n_classes)]


def cycle_average(t, g: RationalFunction) -> RationalFunction:
    """Reference E g(x): the Fraction mean of g over the cycle that x's
    forward orbit enters, one orbit walk per invariance class."""
    part = invariance_classes(t)
    means = []
    for x in part.representative:
        seen = {}
        while x not in seen:
            seen[x] = len(seen)
            x = t[x]
        cycle = [g[p] for p, i in seen.items() if i >= seen[x]]
        means.append(sum(cycle, Fraction(0)) / len(cycle))
    return RationalFunction(tuple(means[c] for c in part.class_of))


def project_subtract(transforms, f: RationalFunction) -> tuple:
    """Reference parts of `decompose_n` in Fractions: f_j is the
    `cycle_average` of what f_1 .. f_{j-1} leave of f, for j < n, and
    the last part is what remains."""
    parts = []
    rest = f
    for t in transforms[:-1]:
        part = cycle_average(t, rest)
        parts.append(part)
        rest = rest - part
    parts.append(rest)
    return tuple(parts)


@lru_cache(maxsize=None)
def mixed_corners(n: int) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """(factors applied, positive) per corner of an n-fold mixed difference.

    The corner applying the factors in the subset counts positively when it
    leaves out an even number of them.
    """
    return tuple((tuple(b for b in range(n) if mask >> b & 1),
                  (n - bin(mask).count("1")) % 2 == 0)
                 for mask in range(1 << n))


def mixed_difference_rows(system) -> list:
    """Integer matrix of f -> D_1...D_n f, D_j f = f o T_j - f, walked
    corner by corner from `mixed_corners`."""
    rows = []
    for x in range(system.size):
        row = [0] * system.size
        for applied, positive in mixed_corners(system.n):
            w = x
            for j in applied:
                w = system.transforms[j][w]
            row[w] += 1 if positive else -1
        rows.append(row)
    return rows


def corner_stencil(values, offsets, z):
    """Reference mixed difference at z on a window of Z, factor a being
    g -> g(. + a) - g, summed corner by corner from `mixed_corners`; None
    unless every corner lies in the window."""
    total = 0
    for applied, positive in mixed_corners(len(offsets)):
        w = z + sum(offsets[b] for b in applied)
        if not 0 <= w < len(values):
            return None
        total += values[w] if positive else -values[w]
    return total


@lru_cache(maxsize=None)
def ordered_partitions(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Reference scan order: the set partitions of range(n), most blocks
    first, then lexicographic, so the all-singleton partition first."""
    if n == 0:
        return ((),)
    results = []

    def grow(x: int, blocks: list):
        if x == n:
            results.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(x)
            grow(x + 1, blocks)
            b.pop()
        blocks.append([x])
        grow(x + 1, blocks)
        blocks.pop()

    grow(0, [])
    results.sort(key=lambda blocks: (-len(blocks), blocks))
    return tuple(results)


def decomposable_reference(rng: random.Random, system) -> RationalFunction:
    """Reference `generators.decomposable_function`: one
    `random_invariant_part` per transform, summed in Fractions."""
    total = zero(system.size)
    for t in system.transforms:
        total = total + generators.random_invariant_part(rng, t)
    return total


def mixed_kernel_reference(rng: random.Random, system) -> RationalFunction:
    """Reference `generators.mixed_kernel_function`: the nullspace basis of
    `mixed_difference_rows`, combined in Fractions with one
    rng.randint(-3, 3) per basis vector."""
    basis = nullspace(mixed_difference_rows(system), system.size)
    values = [Fraction(0)] * system.size
    for vec in basis:
        c = Fraction(rng.randint(-3, 3))
        if c:
            values = [v + c * w for v, w in zip(values, vec)]
    return RationalFunction(tuple(values))


def product_system_reference(rng: random.Random, n: int,
                             max_size: int) -> tuple[int, tuple]:
    """Reference `generators._product_system`: the same factor and base
    draws, then each map built point by point, with one rng.randint(0, 2)
    per factor per map applied to each mixed-radix digit (first factor
    slowest).  Returns the domain size and the tables."""
    dims = []
    cap = max_size
    while cap >= 2 and (not dims or rng.random() < 0.5):
        dims.append(rng.randint(2, cap))
        cap //= dims[-1]
    bases = []
    for d in dims:
        if rng.random() < 0.5:
            a = rng.randrange(d)
            bases.append([(c + a) % d for c in range(d)])
        else:
            bases.append([rng.randrange(d) for _ in range(d)])
    size = 1
    for d in dims:
        size *= d
    tables = []
    for _ in range(n):
        exps = [rng.randint(0, 2) for _ in dims]
        table = []
        for x in range(size):
            digits, rest = [], x
            for d in reversed(dims):
                rest, c = divmod(rest, d)
                digits.append(c)
            y = 0
            for d, base, k, c in zip(dims, bases, exps, reversed(digits)):
                for _ in range(k):
                    c = base[c]
                y = y * d + c
            table.append(y)
        tables.append(tuple(table))
    return size, tuple(tables)


SYSTEM_STYLES = ("translation", "power", "product")


def system_of_style(style: str, n: int, max_size: int, seed: int):
    """A `random_commuting_system` of the given style: its first draw
    picks the style, so the first rng key whose first choice is `style`
    builds one."""
    k = 0
    while random.Random(f"style:{seed}:{k}").choice(SYSTEM_STYLES) != style:
        k += 1
    return generators.random_commuting_system(
        random.Random(f"style:{seed}:{k}"), n, max_size)


def rationals(lo: int = -30, hi: int = 30, dmax: int = 12):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, dmax))


def transform_tables(size: int):
    return st.lists(st.integers(0, size - 1), min_size=size,
                    max_size=size).map(tuple)


def value_functions(size: int):
    return st.lists(rationals(), min_size=size,
                    max_size=size).map(lambda vs: RationalFunction(tuple(vs)))


@st.composite
def sized_maps(draw, min_size: int = 1, max_size: int = 7):
    size = draw(st.integers(min_size, max_size))
    t = draw(transform_tables(size))
    return size, t


@st.composite
def systems(draw, n=None, max_size: int = 7, nmin: int = 1, nmax: int = 3):
    if n is None:
        n = draw(st.integers(nmin, nmax))
    seed = draw(st.integers(0, 10 ** 9))
    rng = random.Random(f"sys:{seed}")
    return generators.random_commuting_system(rng, n, max_size)


@st.composite
def systems_with_functions(draw, n=None, max_size: int = 7, style=None):
    system = draw(systems(n=n, max_size=max_size))
    seed = draw(st.integers(0, 10 ** 9))
    rng = random.Random(f"fun:{seed}")
    f = generators.random_function(rng, system, style)
    return system, f


def grid_relation(s, t, x, y, bound):
    """Reference two-map relation search: the first (k, n, k2, n2) with
    t^k s^n x = t^k2 s^n2 y and every exponent <= bound, in the order
    (k + n + k2 + n2, k, n, k2, n2) for x <= y, and swapped for x > y.

    Words are read off (bound + 1)^2 grids of t^k s^n x, one per point.
    """
    if x > y:
        rel = grid_relation(s, t, y, x, bound)
        return None if rel is None else (rel[2], rel[3], rel[0], rel[1])

    def grid(p):
        row = [p]
        for _ in range(bound):
            row.append(s[row[-1]])
        rows = [row]
        for _ in range(bound):
            rows.append([t[q] for q in rows[-1]])
        return rows

    gx, gy = grid(x), grid(y)
    for total in range(4 * bound + 1):
        for k in range(min(total, bound) + 1):
            for n in range(min(total - k, bound) + 1):
                rest = total - k - n
                for k2 in range(max(0, rest - bound), min(rest, bound) + 1):
                    if gx[k][n] == gy[k2][rest - k2]:
                        return (k, n, k2, rest - k2)
    return None


def seeded_window(seed, dims, perturbed):
    """A lattice-window document: a sum over the axes of random rationals
    that ignore their own axis, with one value changed when perturbed."""
    rng = random.Random(seed)
    size = 1
    for w in dims:
        size *= w
    strides, stride = [], size
    for w in dims:
        stride //= w
        strides.append(stride)
    values = [Fraction(0)] * size
    for w, stride in zip(dims, strides):
        line = {}
        for idx in range(size):
            key = idx - idx // stride % w * stride
            if key not in line:
                line[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            values[idx] += line[key]
    if perturbed:
        values[rng.randrange(size)] += Fraction(rng.randint(1, 5),
                                                rng.randint(1, 4))
    return {"kind": "lattice-window", "dims": list(dims),
            "values": [str(v) for v in values]}


def shift_table(m: int, a: int) -> tuple:
    """x -> x + a on Z_m."""
    return tuple((x + a) % m for x in range(m))


# planted Z_m shift families (t step, s shift, u shift), each shift a
# function of m even; the paper's three-map case split once told them apart
SHIFT_FAMILIES = {
    "+1, (m-1, m/2)": (1, lambda m: m - 1, lambda m: m // 2),
    "+1, (m/2, m-1)": (1, lambda m: m // 2, lambda m: m - 1),
    "+2, (m/2, m/2)": (2, lambda m: m // 2, lambda m: m // 2),
}

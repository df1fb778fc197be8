"""Ground-truth decomposability via exact linear algebra.

Decomposability of f is linear feasibility: f must lie in the span of the
invariance-class indicators of the maps.  Every instance kind is a list of
total maps on {0..N-1}: a window shift that would leave the window fixes
the point instead, and a fixed point constrains no invariant function.  So
`verified_split` decides every kind: `split_over_classes` on the maps'
invariance classes, then the parts are checked on the map tables.  Either
way the answer is verified parts or an exact dual functional.

Only the finest distinct partitions are solved over.  Write V_j for the
functions constant on the classes of partition j.  If partition i refines
partition j (each i-class lies inside one j-class), then V_j ⊆ V_i, and
V_j adds nothing to V_1 + … + V_n.  This happens when a map is the
identity, a power T^k of another map T, a duplicate, or a shift of Z_m
whose gcd with m is a multiple of another's.  So every partition that
another one refines is dropped (of equal ones the first is kept), and its
part is zero: any split over the kept partitions, with zeros added, is a
split over all of them.  A dual functional of the kept family sums to zero
on every kept class.  Each class of a dropped partition is a union of
classes of a kept one, so the dual sums to zero there too, and it is a
dual of the full family.  Each dual is verified once, against the full
family.  The kept partitions are solved by one of three routes.

One partition: a class scan.  f lies in V_1 iff it is constant on every
class, and then f is the part.  Otherwise some x differs from its class
representative r, and the weights +1 at x and −1 at r sum to zero on
every class but pair to f(x) − f(r) ≠ 0 with f.

Two partitions a and b: a spanning forest of the class graph.  Its nodes
are the a-classes and the b-classes, and each point x is an edge between
a(x) and b(x).  f = u∘a + v∘b asks for node potentials with p(a(x)) +
p(b(x)) = f(x) on every edge.  The graph is bipartite, so a cycle
x_1 … x_2k alternates between the sides; with weights +1, −1, +1, … on its
edges, every node on it meets two edges of opposite sign.  Hence the
weights sum to 0 on every class, and the alternating sum of f around the
cycle is the alternating sum of p(a(x)) + p(b(x)), which telescopes to 0.
So a cycle whose alternating sum of f is nonzero is a dual functional.
Conversely, set one root per tree to 0 and propagate p(far end) = f(x) −
p(near end) along tree edges.  Every tree edge then holds, and a non-tree
edge holds iff the cycle it closes through the tree has alternating sum 0.
So the forest decides in O(N), and the first failing edge gives a dual
with ±1 weights.  A simple cycle visits each class at most once and
alternates sides, so its support is even and at most 2·min(K_a, K_b).

Zero or at least three partitions: fraction-free elimination.  It works on
integer rows (function values are scaled by a common denominator), tracks
the row operations, and therefore hands out an exact dual functional
whenever the system is infeasible.  Rows are stored sparsely, as
{column: nonzero int}: a class-incidence row has one 1 per partition plus
its right side and one tracking entry, so the elimination (integer row
combinations, gcd-reduced) touches only nonzeros instead of m·(K + 1 + m)
dense cells for m points and K classes.  Its pivot rule (smallest
magnitude, first row on ties) and row arithmetic are those of the dense
elimination it replaced, so solutions, duals and nullspace bases are the
same.  Back-substitution runs on integers too: `_back_substitute`
solves the pivot rows on numerators over one common scale and builds one
Fraction per unknown at the end.  `_split_by_elimination` scales f to
numerators over one denominator d once, solves the class incidence with
the numerators as right side, and builds each part value once per class:
Fraction(q.numerator, q.denominator · d) for the class's solution entry q,
or q itself when d = 1.  No Fraction is divided.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .check import DualCertificate, verify_dual, verify_parts
from .core import (
    CommutingSystem,
    Decomposition,
    PreconditionError,
    RationalFunction,
    integer_values,
)
from .orbits import Partition, invariance_classes


def _reduce_row(row: Dict[int, int]) -> None:
    """Divide by the gcd of all entries and make the entry at the smallest
    column positive; an empty row stays empty."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        for k in row:
            row[k] //= g
    if row and row[min(row)] < 0:
        for k in row:
            row[k] = -row[k]


def _eliminate(work: List[Dict[int, int]], ncols: int
               ) -> List[Tuple[int, int]]:
    """Fraction-free forward elimination on the first ncols columns, in place.

    Each row is a sparse dict {column: nonzero int}.  Whole rows are
    combined, so columns past ncols (a right side, tracking columns) follow
    along.  The pivot in a column is the row of smallest nonzero magnitude,
    the first in the current row order on ties, which keeps the integer
    entries from growing; each combined row is a·row − b·pivot row,
    gcd-reduced, with the entry at its smallest column made positive.  The
    cost grows with the nonzeros touched, not with m·(ncols + 1 + m) dense
    cells.  Returns (column, row) per pivot.
    """
    m = len(work)
    rank = 0
    pivots: List[Tuple[int, int]] = []
    for col in range(ncols):
        hits = [i for i in range(rank, m) if col in work[i]]
        if not hits:
            continue
        best = min(hits, key=lambda i: abs(work[i][col]))
        work[rank], work[best] = work[best], work[rank]
        prow = work[rank]
        piv = prow[col]
        # the row that sat at rank now sits at best
        for i in hits:
            if i == best:
                continue
            if i == rank:
                i = best
            row = work[i]
            v = row[col]
            g = gcd(piv, v)
            a, b = piv // g, v // g
            new = {k: a * x for k, x in row.items()} if a != 1 else row
            for k, y in prow.items():
                x = new.get(k, 0) - b * y
                if x:
                    new[k] = x
                else:
                    del new[k]
            _reduce_row(new)
            work[i] = new
        pivots.append((col, rank))
        rank += 1
        if rank == m:
            break
    return pivots


def linear_feasibility(
    rows: Sequence[Sequence[int]], rhs: Sequence[int], ncols: int
) -> Tuple[Optional[List[Fraction]], Optional[Tuple[int, ...]]]:
    """Exact feasibility of A c = b over the rationals, A and b integral.

    Returns (solution, dual) with exactly one side present: a solution with
    free unknowns pinned to 0, or an integer row y with y A = 0, y b != 0.
    """
    m = len(rows)
    # sparse extended row: coefficients at 0..ncols-1, the right side at
    # ncols, identity tracking entry i at ncols + 1 + i
    work = []
    for i, row in enumerate(rows):
        entry = {c: v for c, v in enumerate(row) if v}
        if rhs[i]:
            entry[ncols] = rhs[i]
        entry[ncols + 1 + i] = 1
        work.append(entry)
    pivots = _eliminate(work, ncols)
    for i in range(len(pivots), m):
        if work[i].get(ncols):
            # the tracked row combination proves infeasibility
            return None, tuple(work[i].get(ncols + 1 + j, 0)
                               for j in range(m))
    # the right side is column ncols held at -1: A c - b = 0
    return _back_substitute(work, pivots, ncols, ncols, -1), None


def nullspace(rows: Sequence[Sequence[int]], ncols: int) -> List[List[Fraction]]:
    """Basis of the rational nullspace of an integer matrix.

    One basis vector per free column: that column is 1 and the pivot
    columns are back-solved.
    """
    work = [{c: v for c, v in enumerate(row) if v} for row in rows]
    pivots = _eliminate(work, ncols)
    pivot_cols = {col for col, _ in pivots}
    return [_back_substitute(work, pivots, ncols, free, 1)
            for free in range(ncols) if free not in pivot_cols]


def _back_substitute(work: List[Dict[int, int]],
                     pivots: List[Tuple[int, int]], ncols: int,
                     fixed: int, value: int) -> List[Fraction]:
    """Back-solve the eliminated rows as homogeneous equations in columns
    0..ncols: column fixed holds value, every other non-pivot column holds
    0, and columns past ncols (tracking entries) are ignored.

    The unknowns are integer numerators over one common scale.  Pivot
    column col gets acc / (piv · scale), acc = −Σ v · num[c] over the
    row's later columns; the scale, and every numerator so far, is
    multiplied by |piv| / gcd(acc, piv) only when that factor is not 1.
    One Fraction per column at the end.
    """
    num = [0] * (ncols + 1)
    num[fixed] = value
    scale = 1
    for col, row in reversed(pivots):
        entry = work[row]
        acc = 0
        for c, v in entry.items():
            if col < c <= ncols and num[c]:
                acc -= v * num[c]
        piv = entry[col]
        k = abs(piv) // gcd(acc, piv)
        if k != 1:
            scale *= k
            num = [k * x for x in num]
        num[col] = acc * k // piv
    zero = Fraction(0)
    return [Fraction(x, scale) if x else zero for x in num[:ncols]]


def _split_two(a: Partition, b: Partition, f: RationalFunction
               ) -> Union[List[Tuple[Fraction, ...]], DualCertificate]:
    """`split_over_classes` for two partitions, by a spanning forest of
    the class graph.

    On numerators num, u(a(x)) + v(b(x)) = num[x] is one edge per point x
    between a-class a(x) and b-class b(x).  A breadth-first forest sets
    potentials (roots: a-classes in id order, at 0; edges in point order);
    the first edge whose potentials disagree closes a cycle, and its
    alternating ±1 weights are the dual.
    """
    num, denom = integer_values(f)
    ka = a.n_classes
    # nodes: a-class i is i, b-class j is ka + j; edges[node] lists points
    edges: List[List[int]] = [[] for _ in range(ka + b.n_classes)]
    for x, (i, j) in enumerate(zip(a.class_of, b.class_of)):
        edges[i].append(x)
        edges[ka + j].append(x)
    potential: List[Optional[int]] = [None] * len(edges)
    # tree edge (point) and parent node of every non-root node
    via = [-1] * len(edges)
    parent = [-1] * len(edges)
    for root in range(ka):
        if potential[root] is not None:
            continue
        potential[root] = 0
        queue = [root]
        for node in queue:
            # the far end of an edge from an a-class is a b-class
            far, shift = (b.class_of, ka) if node < ka else (a.class_of, 0)
            here = potential[node]
            for x in edges[node]:
                other = far[x] + shift
                want = num[x] - here
                seen = potential[other]
                if seen is None:
                    potential[other] = want
                    via[other] = x
                    parent[other] = node
                    queue.append(other)
                elif seen != want:
                    return _cycle_dual(len(f), x, node, other, via, parent)
    values = [Fraction(p, denom) for p in potential]
    return [tuple(values[c] for c in a.class_of),
            tuple(values[ka + c] for c in b.class_of)]


def _cycle_dual(size: int, x: int, node: int, other: int, via: List[int],
                parent: List[int]) -> DualCertificate:
    """±1 weights on the cycle that edge x closes between two tree nodes:
    x, then the tree path from other to node, alternating in sign."""
    def ancestors(n: int) -> List[int]:
        path = [n]
        while parent[path[-1]] >= 0:
            path.append(parent[path[-1]])
        return path

    up, down = ancestors(other), ancestors(node)
    while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
        up.pop()
        down.pop()
    # up and down now end at their lowest common ancestor
    path = [via[n] for n in up[:-1]] + [via[n] for n in reversed(down[:-1])]
    one, minus = Fraction(1), Fraction(-1)
    weights = [Fraction(0)] * size
    weights[x] = one
    for k, y in enumerate(path):
        weights[y] = minus if k % 2 == 0 else one
    return DualCertificate(RationalFunction(tuple(weights)))


def _class_incidence(partitions: Sequence[Partition], f: RationalFunction
                     ) -> Tuple[List[List[int]], List[int], int, int]:
    """The linear system of `split_over_classes`: one unknown per (part,
    class), columns in partition order; point x's dense row has a 1 at its
    class in each partition, and its right side is f's integer numerator
    over the common denominator.  Returns (rows, rhs, ncols, denom)."""
    ncols = sum(part.n_classes for part in partitions)
    rows = [[0] * ncols for _ in range(len(f))]
    offset = 0
    for part in partitions:
        for row, c in zip(rows, part.class_of):
            row[offset + c] = 1
        offset += part.n_classes
    rhs, denom = integer_values(f)
    return rows, rhs, ncols, denom


def _finest(partitions: Sequence[Partition]) -> List[int]:
    """Indices, in input order, of the partitions no other one refines;
    of equal partitions only the first is kept.

    Only a partition with at least as many classes can refine p, so the
    partitions are taken by class count, descending (ties in input order),
    and each is tested against the ones kept so far: anything a dropped
    partition refines, the kept one that refines it refines too.  With
    equal counts, refinement is equality, and canonical labels (ids by
    first appearance) make that a tuple comparison.  With more classes, q
    refines p when every q-class meets one p-class: the (q, p) label pairs
    take exactly q.n_classes distinct values.
    """
    order = sorted(range(len(partitions)),
                   key=lambda j: -partitions[j].n_classes)
    kept: List[int] = []
    for j in order:
        p = partitions[j]
        for i in kept:
            q = partitions[i]
            if (q.class_of == p.class_of if q.n_classes == p.n_classes else
                    len(set(zip(q.class_of, p.class_of))) == q.n_classes):
                break
        else:
            kept.append(j)
    return sorted(kept)


def _split_one(part: Partition, f: RationalFunction
               ) -> Union[List[Tuple[Fraction, ...]], DualCertificate]:
    """`split_over_classes` for one partition, by a class scan: f itself
    when f is constant on every class, else +1 at the first point whose
    value differs from its class representative's and −1 there.

    The representatives' values are spread over their classes and compared
    with f as one tuple comparison, which tests identity before value:
    equal literals of an instance file parse to one Fraction object.
    """
    values = f.values
    reps = part.representative
    spread = tuple(map([values[r] for r in reps].__getitem__, part.class_of))
    if spread == values:
        return [values]
    x = next(x for x, (u, v) in enumerate(zip(spread, values)) if u != v)
    weights = [Fraction(0)] * len(f)
    weights[x], weights[reps[part.class_of[x]]] = Fraction(1), Fraction(-1)
    return DualCertificate(RationalFunction(tuple(weights)))


def _split_by_elimination(partitions: Sequence[Partition],
                          f: RationalFunction
                          ) -> Union[List[Tuple[Fraction, ...]],
                                     DualCertificate]:
    """`split_over_classes` by `linear_feasibility` on the class incidence
    with f's numerators, num / denom, as the right side.  A class's part
    value is its solution entry over denom, built once per class."""
    rows, num, ncols, denom = _class_incidence(partitions, f)
    solution, dual = linear_feasibility(rows, num, ncols)
    if dual is not None:
        return DualCertificate(RationalFunction(
            tuple(Fraction(w) for w in dual)))
    parts = []
    offset = 0
    for part in partitions:
        per_class = solution[offset:offset + part.n_classes]
        if denom != 1:
            per_class = [Fraction(q.numerator, q.denominator * denom)
                         for q in per_class]
        parts.append(tuple(per_class[c] for c in part.class_of))
        offset += part.n_classes
    return parts


def split_over_classes(partitions: Sequence[Partition], f: RationalFunction
                       ) -> Union[List[Tuple[Fraction, ...]], DualCertificate]:
    """Exact split of f into parts, part j constant on the classes of
    partitions[j].

    Returns the parts' value tuples (some feasible point, with no
    minimality), or a DualCertificate that `verify_dual` has accepted
    against every partition.  If partitions[i] refines partitions[j],
    every function constant on j's classes is constant on i's, so
    dropping j leaves the sum of the spaces unchanged: `_finest` keeps
    the partitions no other one refines (the first of equal ones).  One
    kept partition goes to the class scan `_split_one`, two to
    `_split_two`, any other count to `_split_by_elimination`.  A dropped
    partition's part is zero.  A dual of the kept family is a dual of the
    full family: each class of a dropped partition is a union of classes
    of a kept one, so the weights sum to zero on it too.
    """
    kept = _finest(partitions)
    finest = [partitions[j] for j in kept]
    if len(finest) == 1:
        outcome = _split_one(finest[0], f)
    elif len(finest) == 2:
        outcome = _split_two(*finest, f)
    else:
        outcome = _split_by_elimination(finest, f)
    if isinstance(outcome, DualCertificate):
        verify_dual(partitions, f, outcome).require("dual certificate")
        return outcome
    parts = [(Fraction(0),) * len(f)] * len(partitions)
    for j, values in zip(kept, outcome):
        parts[j] = values
    return parts


def verified_split(maps: Sequence[Sequence[int]], f: RationalFunction
                   ) -> Union[Decomposition, DualCertificate]:
    """Exact split of f into parts, part j invariant under maps[j], over
    the maps' invariance classes.  Each result is verified once: parts by
    `verify_parts` here, duals inside `split_over_classes`."""
    outcome = split_over_classes([invariance_classes(t) for t in maps], f)
    if isinstance(outcome, DualCertificate):
        return outcome
    decomposition = Decomposition(tuple(RationalFunction(values)
                                        for values in outcome))
    verify_parts(maps, f, decomposition.parts).require("oracle solution")
    return decomposition


def oracle_decompose(system: CommutingSystem, f: RationalFunction):
    """Decide decomposability exactly, by `verified_split`.

    Returns a verified Decomposition on feasibility, else a DualCertificate.
    The unknowns are one coefficient per (transform, invariance class).
    """
    if system.n < 1:
        raise PreconditionError("system needs at least one transformation")
    if len(f) != system.size:
        raise PreconditionError("function length does not match the domain")
    return verified_split(system.transforms, f)

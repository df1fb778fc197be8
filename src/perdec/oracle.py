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
Conversely, fix the gauge: adding c to every a-class of one tree and −c
to its b-classes changes no p(a(x)) + p(b(x)), so each tree's root may
be set to 0.  Then propagate p(far end) = f(x) − p(near end) along tree
edges.  Every tree edge holds, and a non-tree edge holds iff the cycle it
closes through the tree has alternating sum 0.  So the forest decides in
O(N), and the first failing edge gives a dual with ±1 weights.  A simple
cycle visits each class at most once and alternates sides, so its
support is even and at most 2·min(K_a, K_b).

Three or more partitions a, b, P_3, …, P_n (a and b the first two kept):
the forest of a and b, then elimination on the cycle rows.  f splits iff
some u_3, …, u_n leave a rest r = f − Σ u_j∘P_j that splits over a and
b.  By the two-partition case, that holds iff r pairs to 0 with the
cycle of every point x: the ±1 weights w_x of the cycle that x closes
through the tree (zero for a tree edge).  The weights w_x sum to 0 on
every a- and b-class, so that pairing is linear in the u_j alone: Σ_j
Σ_c R_x(j, c) u_j(c) = Σ_y w_x(y) f(y), where R_x(j, c) sums w_x over
the points of class c of P_j.  So x's row R_x has entries only on the
other partitions' classes, and its right side is the alternating sum of
f around the cycle.  Both come from the tree without walking the cycle.
A node's potential is the alternating sum of the values on its tree
path, so x's right side is f(x) − p(a(x)) − p(b(x)), and its row is x's
own columns minus the columns carried along the same two paths.

Rows repeat: points with equal labels in every partition have equal
rows, and on a box of Z^3 each plane spanned by the first two axes
repeats the same rows.  Each distinct row is solved once, and two cases
give a dual with no elimination.  If R_x = R_y and their right sides
differ, w_x − w_y sums to 0 on every class of a and b (each cycle does)
and of each P_j (the rows agree), but pairs to the difference with f;
for equal labels it is +1 at x and −1 at y.  If R_x is empty and its
right side is not, w_x is a dual.  Otherwise the distinct rows go to the
elimination.  Its dual z lifts to Σ z_k w_{x_k} over the rows' first
points x_k.  That sums to 0 on the a- and b-classes and to Σ z_k
R_{x_k}(j, c) = 0 on class c of P_j, and it pairs to Σ z_k (right side
k) ≠ 0 with f.  The lift is one pass up the forest, so no cycle is
walked.  A solution u meets every row, repeated ones included, so every
cycle sum of the rest r is 0, and the forest's potentials of r split it.
The rest is taken on integers: the solution's numerators over its scale
s are subtracted from s times f's numerators.

The elimination is fraction-free.  It works on integer rows (function
values are scaled by a common denominator), tracks the row operations,
and therefore hands out an exact dual functional whenever the system is
infeasible.  Rows are stored sparsely, as {column: nonzero int}, so the
elimination (integer row combinations, gcd-reduced) touches only
nonzeros instead of m·(K + 1 + m) dense cells for m rows and K columns.
Its pivot rule (smallest magnitude, first row on ties) and row arithmetic
are those of the dense elimination it replaced, so the solutions, duals
and nullspace bases are the same.  Back-substitution runs on integers
too: `_back_substitute` solves the pivot rows on numerators over one
common scale, and a part is its classes' numerators spread over the
points, over that scale times f's denominator.  No route builds a
Fraction: every part and every dual is a pair of integer numerators and
one denominator.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .check import DualCertificate, verify_dual, verify_parts
from .core import (
    CommutingSystem,
    Decomposition,
    PreconditionError,
    RationalFunction,
    _from_integers,
)
from .orbits import Partition, invariance_classes


def _add(row: Dict[int, int], entries: Iterable[Tuple[int, int]],
         k: int) -> None:
    """row += k · entries, in place; entries that cancel are dropped."""
    for c, v in entries:
        v = row.get(c, 0) + k * v
        if v:
            row[c] = v
        else:
            del row[c]


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
            _add(new, prow.items(), -b)
            _reduce_row(new)
            work[i] = new
        pivots.append((col, rank))
        rank += 1
        if rank == m:
            break
    return pivots


def _solve(work: List[Dict[int, int]], rhs: Sequence[int], ncols: int
           ) -> Tuple[Optional[Tuple[List[int], int]],
                      Optional[Tuple[int, ...]]]:
    """Exact feasibility of the sparse rows against rhs, over the
    rationals: (numerators, scale) of a solution with free unknowns pinned
    to 0, or an integer dual y with y A = 0 and y b != 0.  The rows are
    extended in place by the right side, at column ncols, and identity
    tracking entry i, at ncols + 1 + i."""
    m = len(work)
    for i, (row, b) in enumerate(zip(work, rhs)):
        if b:
            row[ncols] = b
        row[ncols + 1 + i] = 1
    pivots = _eliminate(work, ncols)
    for i in range(len(pivots), m):
        if work[i].get(ncols):
            # the tracked row combination proves infeasibility
            return None, tuple(work[i].get(ncols + 1 + j, 0)
                               for j in range(m))
    # the right side is column ncols held at -1: A c - b = 0
    return _back_substitute(work, pivots, ncols, ncols, -1), None


def nullspace(rows: Sequence[Sequence[int]], ncols: int
              ) -> List[RationalFunction]:
    """Basis of the rational nullspace of an integer matrix, one vector of
    length ncols per free column: that column is 1 and the pivot columns
    are back-solved.
    """
    work = [{c: v for c, v in enumerate(row) if v} for row in rows]
    pivots = _eliminate(work, ncols)
    pivot_cols = {col for col, _ in pivots}
    return [_from_integers(*_back_substitute(work, pivots, ncols, free, 1))
            for free in range(ncols) if free not in pivot_cols]


def _back_substitute(work: List[Dict[int, int]],
                     pivots: List[Tuple[int, int]], ncols: int,
                     fixed: int, value: int) -> Tuple[List[int], int]:
    """Back-solve the eliminated rows as homogeneous equations in columns
    0..ncols: column fixed holds value, every other non-pivot column holds
    0, and columns past ncols (tracking entries) are ignored.

    The unknowns are integer numerators over one common scale.  Pivot
    column col gets acc / (piv · scale), acc = −Σ v · num[c] over the
    row's later columns; the scale, and every numerator so far, is
    multiplied by |piv| / gcd(acc, piv) only when that factor is not 1.
    Returns the numerators of columns 0..ncols − 1 and the scale.
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
    return num[:ncols], scale


class _Forest:
    """The breadth-first spanning forest of the class graph of partitions a
    and b, with node potentials for the integer right side num.

    Nodes: a-class i is i, b-class j is ka + j; point x is an edge between
    a(x) and b(x).  Roots are the a-classes in id order, at potential 0,
    and each node's edges are taken in point order; a tree edge x gives its
    far end num[x] minus the near end's potential.  `via` and `parent`
    hold the tree edge (point) and parent node of every non-root node (−1
    at roots), `order` every node in visiting order, and `conflict` the
    first edge of that scan whose potentials disagree (None if none).
    With stop, the scan ends at that edge, and `order` holds the nodes
    visited so far, which include both its ends and their tree paths.
    """

    def __init__(self, a: Partition, b: Partition, num: Sequence[int],
                 stop: bool = False):
        self.a, self.b = a, b
        self.ka = ka = a.n_classes
        edges: List[List[int]] = [[] for _ in range(ka + b.n_classes)]
        for x, (i, j) in enumerate(zip(a.class_of, b.class_of)):
            edges[i].append(x)
            edges[ka + j].append(x)
        potential: List[Optional[int]] = [None] * len(edges)
        self.potential = potential
        self.via = via = [-1] * len(edges)
        self.parent = parent = [-1] * len(edges)
        self.order: List[int] = []
        self.conflict: Optional[int] = None
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
                    elif seen != want and self.conflict is None:
                        self.conflict = x
                        if stop:
                            self.order += queue
                            return
            self.order += queue

    def split(self, potential: Sequence[int], denom: int
              ) -> List[RationalFunction]:
        """The two parts: each class's potential over denom, spread over
        its points."""
        return [_from_integers(map(side.__getitem__, part.class_of), denom)
                for side, part in ((potential[:self.ka], self.a),
                                   (potential[self.ka:], self.b))]

    def dual(self, cycles: Dict[int, int]) -> DualCertificate:
        """The point weights of Σ k·(cycle of x) over cycles' items (x, k).

        The cycle of x is +1 at x minus the edges that carry num[x] into
        the potentials of a(x) and b(x): a tree edge into node w enters the
        potential of each node v below it with sign (−1)^(depth v − depth
        w).  So the tree edge into w weighs −S(w), S(w) = ν(w) − Σ S(c) over
        w's children c, where ν(v) sums k over the items with an end at v;
        one pass in reverse visiting order.  The parts of a(x)'s and b(x)'s
        root paths above their lowest common ancestor cancel, so one cycle
        is the ±1 simple cycle that x closes through the tree.
        """
        a, b, ka = self.a, self.b, self.ka
        weights = dict(cycles)
        pull = [0] * len(self.via)
        for x, k in cycles.items():
            pull[a.class_of[x]] += k
            pull[ka + b.class_of[x]] += k
        for node in reversed(self.order):
            s = pull[node]
            up = self.parent[node]
            if s and up >= 0:
                y = self.via[node]
                weights[y] = weights.get(y, 0) - s
                pull[up] -= s
        values = [0] * len(a.class_of)
        for x, w in weights.items():
            values[x] = w
        return DualCertificate(_from_integers(values, 1))


def _split_two(a: Partition, b: Partition, f: RationalFunction
               ) -> Union[List[RationalFunction], DualCertificate]:
    """`split_over_classes` for two partitions, by the `_Forest` of their
    class graph on f's numerators: the potentials are the parts, and the
    first edge whose potentials disagree closes a cycle whose alternating
    ±1 weights are the dual."""
    forest = _Forest(a, b, f.numerators, stop=True)
    if forest.conflict is not None:
        return forest.dual({forest.conflict: 1})
    return forest.split(forest.potential, f.denom)


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
               ) -> Union[List[RationalFunction], DualCertificate]:
    """`split_over_classes` for one partition, by a class scan: f itself
    when f is constant on every class, else +1 at the first point whose
    value differs from its class representative's and −1 there.  The
    representatives' numerators are spread over their classes and compared
    with f's as one tuple comparison.
    """
    values = f.numerators
    reps = part.representative
    spread = tuple(map([values[r] for r in reps].__getitem__, part.class_of))
    if spread == values:
        return [f]
    x = next(x for x, (u, v) in enumerate(zip(spread, values)) if u != v)
    weights = [0] * len(f)
    weights[x], weights[reps[part.class_of[x]]] = 1, -1
    return DualCertificate(_from_integers(weights, 1))


def _split_many(partitions: Sequence[Partition], f: RationalFunction
                ) -> Union[List[RationalFunction], DualCertificate]:
    """`split_over_classes` for three or more partitions: the `_Forest` of
    the first two, then elimination on the distinct cycle rows of the rest.

    Unknown (j, c), for the j-th partition past the first two, is column
    offset_j + K_j − 1 − c, K_j its class count.  Class ids follow the
    points, and the tree grows from low ids, so the columns it carries are
    mostly low, and a row's own columns are often the highest it has.
    Pivoting from the highest ids down then takes columns that few rows
    share, which keeps the elimination from filling in: a planted box of
    Z^3 combines no rows at all.

    coefficients[node] holds the columns that the tree carries into node's
    potential: a tree edge y gives its far end y's columns minus the near
    end's.  Point x's row is its own columns minus those of its two ends,
    its right side num[x] minus its ends' potentials.  Rows are scanned in
    point order, and one representative of each distinct row, with its
    right side, goes to `_solve`; a repeated joint label or row with
    another right side, or an empty row with a nonzero one, is a dual at
    once.
    """
    a, b, *rest = partitions
    num, denom = f.numerators, f.denom
    forest = _Forest(a, b, num)
    ka, potential, parent, via = (forest.ka, forest.potential, forest.parent,
                                  forest.via)
    labels, ncols = [], 0
    for part in rest:
        top = ncols + part.n_classes - 1
        labels.append([top - c for c in part.class_of])
        ncols += part.n_classes
    columns = list(zip(*labels))
    coefficients: List[Dict[int, int]] = [{}] * len(via)
    for node in forest.order:
        up = parent[node]
        if up >= 0:
            coefficients[node] = row = {c: -v for c, v in
                                        coefficients[up].items()}
            _add(row, ((c, 1) for c in columns[via[node]]), 1)
    first: Dict[tuple, Tuple[int, int]] = {}
    index: Dict[frozenset, int] = {}
    rows: List[Dict[int, int]] = []
    rhs: List[int] = []
    reps: List[int] = []
    for x, key in enumerate(zip(a.class_of, b.class_of, columns)):
        i, j, own = key
        r = num[x] - potential[i] - potential[ka + j]
        y, s = first.setdefault(key, (x, r))
        if y != x:
            if s != r:
                return forest.dual({x: 1, y: -1})
            continue
        row = {c: 1 for c in own}
        _add(row, coefficients[i].items(), -1)
        _add(row, coefficients[ka + j].items(), -1)
        if not row:
            if r:
                return forest.dual({x: 1})
            continue
        k = index.setdefault(frozenset(row.items()), len(rows))
        if k < len(rows):
            if rhs[k] != r:
                return forest.dual({x: 1, reps[k]: -1})
            continue
        rows.append(row)
        rhs.append(r)
        reps.append(x)
    solved, dual = _solve(rows, rhs, ncols)
    if dual is not None:
        return forest.dual({reps[k]: z for k, z in enumerate(dual) if z})
    nums, scale = solved
    # a potential is linear in the values on the tree: the potentials of
    # the rest f − Σ u_j∘P_j, on integers over scale · denom
    rest_potential = [scale * p - sum(v * nums[c] for c, v in q.items())
                      for p, q in zip(potential, coefficients)]
    d = scale * denom
    return forest.split(rest_potential, d) + [
        _from_integers(map(nums.__getitem__, label), d) for label in labels]


def split_over_classes(partitions: Sequence[Partition], f: RationalFunction
                       ) -> Union[List[RationalFunction], DualCertificate]:
    """Exact split of f into parts, part j constant on the classes of
    partitions[j].

    Returns the parts (some feasible point, with no
    minimality), or a DualCertificate that `verify_dual` has accepted
    against every partition.  If partitions[i] refines partitions[j],
    every function constant on j's classes is constant on i's, so
    dropping j leaves the sum of the spaces unchanged: `_finest` keeps
    the partitions no other one refines (the first of equal ones).  One
    kept partition goes to the class scan `_split_one`, two to
    `_split_two` and more to `_split_many`; an empty family is refused.
    A dropped partition's part is zero.  A dual of the kept family is a
    dual of the full family: each class of a dropped partition is a union
    of classes of a kept one, so the weights sum to zero on it too.
    """
    if not partitions:
        raise PreconditionError("split needs at least one partition")
    kept = _finest(partitions)
    finest = [partitions[j] for j in kept]
    if len(finest) == 1:
        outcome = _split_one(finest[0], f)
    elif len(finest) == 2:
        outcome = _split_two(*finest, f)
    else:
        outcome = _split_many(finest, f)
    if isinstance(outcome, DualCertificate):
        verify_dual(partitions, f, outcome).require("dual certificate")
        return outcome
    parts = [_from_integers((0,) * len(f), 1)] * len(partitions)
    for j, part in zip(kept, outcome):
        parts[j] = part
    return parts


def verified_split(maps: Sequence[Sequence[int]], f: RationalFunction
                   ) -> Union[Decomposition, DualCertificate]:
    """Exact split of f into parts, part j invariant under maps[j], over
    the maps' invariance classes.  Each result is verified once: parts by
    `verify_parts` here, duals inside `split_over_classes`."""
    outcome = split_over_classes([invariance_classes(t) for t in maps], f)
    if isinstance(outcome, DualCertificate):
        return outcome
    decomposition = Decomposition(tuple(outcome))
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

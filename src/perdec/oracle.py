"""Ground-truth decomposability via exact linear algebra.

Decomposability of f is linear feasibility: f must lie in the span of the
invariance-class indicators of the maps.  Every instance kind is a list of
total maps on {0..N-1}: a window shift that would leave the window fixes
the point instead, and a fixed point constrains no invariant function.  So
`verified_split` decides every kind: `split_over_classes` on the maps'
invariance classes, then the parts are checked on the map tables.  The
solvers only decide; a refusal's certificate, an exact dual functional,
is read off the instance by one of the two proofs at the end.

Only the finest distinct partitions are solved over.  Write V_j for the
functions constant on the classes of partition j.  If partition i refines
partition j (each i-class lies inside one j-class), then V_j ⊆ V_i, and
V_j adds nothing to V_1 + … + V_n.  This happens when a map is the
identity, a power T^k of another map T, a duplicate, or a shift of Z_m
whose gcd with m is a multiple of another's.  So every partition that
another one refines is dropped (of equal ones the first is kept), and its
part is zero: any split over the kept partitions, with zeros added, is a
split over all of them.  The kept partitions are solved by one of three
routes.

One partition: a class scan.  f lies in V_1 iff it is constant on every
class, and then f is the part.

Two partitions a and b: a spanning forest of the class graph.  Its nodes
are the a-classes and the b-classes, and each point x is an edge between
a(x) and b(x).  f = u∘a + v∘b asks for node potentials with p(a(x)) +
p(b(x)) = f(x) on every edge.  The graph is bipartite, so a cycle
x_1 … x_2k alternates between the sides, and the alternating sum of
p(a(x)) + p(b(x)) around it telescopes to 0.  So a cycle whose
alternating sum of f is nonzero rules a split out.  Conversely, fix the
gauge: adding c to every a-class of one tree and −c to its b-classes
changes no p(a(x)) + p(b(x)), so each tree's root may be set to 0.  Then
propagate p(far end) = f(x) − p(near end) along tree edges.  Every tree
edge holds, and a non-tree edge holds iff the cycle it closes through the
tree has alternating sum 0.  So the forest decides in O(N).

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
repeats the same rows.  Each distinct row is solved once.  A row repeated
with another right side, or an empty row with a nonzero one, cannot hold,
so f is refused with no elimination; the other distinct rows go to the
elimination.  A solution u meets every row, repeated ones included, so
every cycle sum of the rest r is 0, and the forest's potentials of r
split it.  The rest is taken on integers: the solution's numerators over
its scale s are subtracted from s times f's numerators.

The elimination is fraction-free and online.  It works on integer rows
(function values are scaled by a common denominator), stored sparsely as
{column: nonzero int}, and takes them one at a time: each is reduced
against the pivot row of its lowest column until that column is free,
and then becomes its pivot or cancels.  It tracks no row operation: a
row that reduces to its right side alone proves infeasibility, and ends
the elimination at once.  Its cost grows with the nonzeros touched, not
with m·(K + 1) dense cells for m rows and K columns.  Whatever the row
order, the pivot columns are the leading columns of the row space, so
the solution with the free unknowns pinned to 0, and each nullspace
vector with one free unknown 1 and the others 0, are unique: any
elimination order gives the same parts.  Back-substitution runs on
integers too: `_back_substitute` solves the pivot rows on numerators
over one common scale, and a part is its classes' numerators spread
over the points, over that scale times f's denominator.  No route builds
a Fraction: every part and every dual is a pair of integer numerators
and one denominator.

The dual of a refusal proves that f lies outside V_1 + … + V_n: it pairs
to 0 with every V_j and to nonzero with f.  Both proofs work on the
kernels alone, so the solvers need not say why they refuse.

(a) Commuting maps (finite, cyclic-group and lattice-window instances):
the mixed-difference stencil of the kept maps T_1 … T_k at the first
point z where D_1…D_k f is nonzero, D_j g = g∘T_j − g.  The adjoint of
D_j sends weight c at w to −c at w and +c at T_j w, so the stencil
w = D_k^*…D_1^* δ_z pairs with g to (D_1…D_k g)(z).  The D_j commute,
and D_j kills V_j, so the adjoint of a mixed difference over commuting
maps kills each V_j: w sums to 0 on every kept class, and so on every
class of a dropped partition, a union of kept ones.  It pairs with f to
D_1…D_k f(z) ≠ 0.  `decomp.decompose_n`'s theorem, on the kept maps,
says such a z exists whenever f does not split over them, that is,
whenever it does not split.  `check.stencil_weights` walks it, at most
2^k points.

(b) A window [0, L) of Z with shifts a_1 … a_n, whose completed maps
need not commute: x^z·P, where P = ∏_{d ∈ D} Φ_d, D holds the divisors
of the shifts a with 0 < a < L and Φ_d is the d-th cyclotomic
polynomial.  Write a functional w as W(x) = Σ_y w_y x^y.  For 0 < a < L
the classes of the shift a are the residue classes mod a, and W mod
(x^a − 1) holds w's sums over them, so w kills V_a iff (x^a − 1)
divides W.  Hence w kills every V_{a_j} iff the lcm of the x^{a_j} − 1,
which is P, divides W: the functionals that kill them are spanned by the
x^z·P with z ≤ L − 1 − deg P.  f splits iff it pairs to 0 with all of
them, so at the first z where Σ_i p_i f(z + i) ≠ 0, x^z·P is a dual with
at most deg P + 1 points.  A shift of 0 or of at least L has singleton
classes, and then every f splits.  `_window_dual` builds P from the
binomials x^g − 1 alone, g the gcds of sets of shifts.

If the elimination refuses and no such z exists, it contradicts the
theorem behind (a) or (b): `verified_split` raises
InternalContractViolation rather than return an unproved refusal, or
NotCommutingError when maps passed without shifts do not commute.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .check import DualCertificate, stencil_weights, verify_dual, verify_parts
from .core import (
    CommutingSystem,
    Decomposition,
    InternalContractViolation,
    NotCommutingError,
    PreconditionError,
    RationalFunction,
    _canonical,
    _from_integers,
    _mixed_difference,
    commute_witness,
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
    """Divide by the gcd of all entries; an empty row stays empty."""
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


def _eliminate(work: Iterable[Dict[int, int]], ncols: int
               ) -> Optional[Dict[int, Dict[int, int]]]:
    """Fraction-free online elimination: {leading column: pivot row}.

    Each row is a sparse dict {column: nonzero int}, and a right side, if
    any, sits at column ncols.  Rows are taken in order; each is combined
    with the pivot row of its lowest column, a·row − b·pivot row divided
    by its gcd, until that column has no pivot.  Then the row becomes that
    column's pivot, or it has cancelled and is dropped.  A row left with
    column ncols alone reads 0 = b ≠ 0, and then None is returned at once.
    Rows may be changed in place.  The cost grows with the nonzeros
    touched, not with m·(ncols + 1) dense cells.
    """
    pivots: Dict[int, Dict[int, int]] = {}
    for row in work:
        while row:
            col = min(row)
            prow = pivots.get(col)
            if prow is None:
                if col == ncols:
                    return None
                pivots[col] = row
                break
            piv, v = prow[col], row[col]
            g = gcd(piv, v)
            a, b = piv // g, v // g
            if a != 1:
                row = {k: a * x for k, x in row.items()}
            _add(row, prow.items(), -b)
            _reduce_row(row)
    return pivots


def nullspace(rows: Sequence[Sequence[int]], ncols: int
              ) -> List[RationalFunction]:
    """Basis of the rational nullspace of an integer matrix, one vector of
    length ncols per free column: that column is 1 and the pivot columns
    are back-solved.
    """
    pivots = _eliminate(({c: v for c, v in enumerate(row) if v}
                         for row in rows), ncols)
    return [_from_integers(*_back_substitute(pivots, ncols, free, 1))
            for free in range(ncols) if free not in pivots]


def _back_substitute(pivots: Dict[int, Dict[int, int]], ncols: int,
                     fixed: int, value: int) -> Tuple[List[int], int]:
    """Back-solve the pivot rows as homogeneous equations in columns
    0..ncols: column fixed holds value and every other non-pivot column
    holds 0.

    The unknowns are integer numerators over one common scale.  Pivot
    column col gets acc / (piv · scale), acc = −Σ v · num[c] over the
    row's later columns; the scale, and every numerator so far, is
    multiplied by |piv| / gcd(acc, piv) only when that factor is not 1.
    Returns the numerators of columns 0..ncols − 1 and the scale.
    """
    num = [0] * (ncols + 1)
    num[fixed] = value
    scale = 1
    for col in sorted(pivots, reverse=True):
        entry = pivots[col]
        acc = 0
        for c, v in entry.items():
            if c > col and num[c]:
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
    With stop, the scan ends at that edge.
    """

    def __init__(self, a: Partition, b: Partition, num: Sequence[int],
                 stop: bool = False):
        self.a, self.b = a, b
        self.ka = ka = a.n_classes
        edges: List[List[int]] = [[] for _ in range(ka + b.n_classes)]
        for x, (i, j) in enumerate(zip(a.class_of, b.class_of)):
            edges[i].append(x)
            edges[ka + j].append(x)
        self.potential = potential = [None] * len(edges)
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
                            return
            self.order += queue

    def split(self, potential: Sequence[int], denom: int
              ) -> List[RationalFunction]:
        """The two parts: each class's potential over denom, spread over
        its points."""
        return [_from_integers(map(side.__getitem__, part.class_of), denom)
                for side, part in ((potential[:self.ka], self.a),
                                   (potential[self.ka:], self.b))]


def _split_two(partitions: Sequence[Partition], f: RationalFunction
               ) -> Optional[List[RationalFunction]]:
    """`split_over_classes` for two partitions, by the `_Forest` of their
    class graph on f's numerators: the potentials are the parts, and an
    edge whose potentials disagree closes a cycle that refutes a split."""
    a, b = partitions
    forest = _Forest(a, b, f.numerators, stop=True)
    return (None if forest.conflict is not None
            else forest.split(forest.potential, f.denom))


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


def _split_one(partitions: Sequence[Partition], f: RationalFunction
               ) -> Optional[List[RationalFunction]]:
    """`split_over_classes` for one partition, by a class scan: f itself
    when f is constant on every class.  The representatives' numerators
    are spread over their classes and compared with f's as one tuple
    comparison.
    """
    (part,) = partitions
    values = f.numerators
    spread = tuple(map([values[r] for r in part.representative].__getitem__,
                       part.class_of))
    return [f] if spread == values else None


def _split_many(partitions: Sequence[Partition], f: RationalFunction
                ) -> Optional[List[RationalFunction]]:
    """`split_over_classes` for three or more partitions: the `_Forest` of
    the first two, then elimination on the distinct cycle rows of the rest.

    Unknown (j, c), for the j-th partition past the first two, is column
    offset_j + K_j − 1 − c, K_j its class count.  Class ids follow the
    points, and the tree grows from low ids, so the classes it carries are
    mostly low, and a row's own classes are often the highest it has:
    its lowest columns.  Each row then pivots on a column that few rows
    share, which keeps the elimination from filling in: a planted box of
    Z^3 combines no rows at all.

    coefficients[node] holds the columns that the tree carries into node's
    potential: a tree edge y gives its far end y's columns minus the near
    end's.  Point x's row is its own columns minus those of its two ends,
    its right side num[x] minus its ends' potentials.  Rows are scanned in
    point order.  A joint label maps to the index of its row, whose row
    is built only the first time, with its right side at column ncols;
    rows equal as dicts share one index, and row 0 is the empty one, with
    right side 0.  A row met again with another right side refuses f at
    once; every other distinct row goes to `_eliminate` once, and
    `_back_substitute` solves the pivots.
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
    first: Dict[tuple, int] = {}
    index: Dict[frozenset, int] = {frozenset(): 0}
    rows: List[Dict[int, int]] = [{}]
    for x, key in enumerate(zip(a.class_of, b.class_of, columns)):
        i, j, own = key
        r = num[x] - potential[i] - potential[ka + j]
        k = first.get(key)
        if k is None:
            row = {c: 1 for c in own}
            _add(row, coefficients[i].items(), -1)
            _add(row, coefficients[ka + j].items(), -1)
            k = first[key] = index.setdefault(frozenset(row.items()),
                                              len(rows))
            if k == len(rows):
                if r:
                    row[ncols] = r
                rows.append(row)
        if rows[k].get(ncols, 0) != r:
            return None
    pivots = _eliminate(rows[1:], ncols)
    if pivots is None:
        return None
    # the right side is column ncols held at -1: A c - b = 0
    nums, scale = _back_substitute(pivots, ncols, ncols, -1)
    # a potential is linear in the values on the tree: the potentials of
    # the rest f − Σ u_j∘P_j, on integers over scale · denom
    rest_potential = [scale * p - sum(v * nums[c] for c, v in q.items())
                      for p, q in zip(potential, coefficients)]
    d = scale * denom
    return forest.split(rest_potential, d) + [
        _from_integers(map(nums.__getitem__, label), d) for label in labels]


def split_over_classes(partitions: Sequence[Partition], f: RationalFunction,
                       kept: Optional[List[int]] = None
                       ) -> Optional[List[RationalFunction]]:
    """Exact split of f into parts, part j constant on the classes of
    partitions[j], or None when f has none.

    Returns the parts (some feasible point, with no minimality).  If
    partitions[i] refines partitions[j], every function constant on j's
    classes is constant on i's, so dropping j leaves the sum of the
    spaces unchanged: `_finest` keeps the partitions no other one refines
    (the first of equal ones), unless the caller passes what it returns
    as kept.  One kept partition goes to the class scan `_split_one`, two
    to `_split_two` and more to `_split_many`; an empty family is refused.
    A dropped partition's part is zero.
    """
    if not partitions:
        raise PreconditionError("split needs at least one partition")
    if kept is None:
        kept = _finest(partitions)
    finest = [partitions[j] for j in kept]
    route = (_split_one, _split_two, _split_many)[min(len(finest), 3) - 1]
    outcome = route(finest, f)
    if outcome is None:
        return None
    parts = [_from_integers((0,) * len(f), 1)] * len(partitions)
    for j, part in zip(kept, outcome):
        parts[j] = part
    return parts


def _stencil_dual(tables: Sequence[Sequence[int]], f: RationalFunction
                  ) -> Optional[DualCertificate]:
    """Proof (a): the mixed-difference stencil of the commuting tables at
    the first point where D_1…D_k f is nonzero, or None when it vanishes
    everywhere.  The first k − 1 factors are O(N) passes, the last one
    stops at z, and the walk has at most 2^k points."""
    row, last = _mixed_difference(tables[:-1], f.numerators), tables[-1]
    z = next((z for z, v in enumerate(row) if row[last[z]] != v), None)
    if z is None:
        return None
    weights = [0] * len(f)
    for x, w in stencil_weights(z, [t.__getitem__ for t in tables],
                                len(f)).items():
        weights[x] = w
    return DualCertificate(_canonical(tuple(weights), 1))


def _window_dual(shifts: Sequence[int], f: RationalFunction
                 ) -> Optional[DualCertificate]:
    """Proof (b): x^z·P on a window [0, len(f)) of Z, at the first z where
    Σ_i p_i f(z + i) is nonzero, or None when there is none.

    P is built from binomials, by exact integer products and quotients.
    Φ_d divides x^g − 1 iff d divides g, so x^{gcd S} − 1, for a set S of
    in-window shifts, holds Φ_d iff d divides every shift of S.  Hence
    P = ∏_{S ≠ ∅} (x^{gcd S} − 1)^{(−1)^{|S|+1}}: Φ_d's exponent there is
    1 − (1 − 1)^m = 1, m ≥ 1 the shifts d divides, and 0 when m = 0.  The
    exponents are summed per gcd, one shift at a time, and the positive
    ones are multiplied in first, so every quotient is exact.  The scan
    is O(L·deg P).
    """
    size = len(f)
    powers: Dict[int, int] = {}
    for a in {a for a in shifts if 0 < a < size}:
        for g, c in list(powers.items()):
            powers[gcd(g, a)] = powers.get(gcd(g, a), 0) - c
        powers[a] = powers.get(a, 0) + 1
    p = [1]
    for g, c in sorted(powers.items(), key=lambda item: -item[1]):
        for _ in range(abs(c)):
            if c > 0:
                p = [v - u for u, v in zip(p + [0] * g, [0] * g + p)]
                continue
            # p = q·(x^g − 1) gives q_k = q_{k−g} − p_k
            q: List[int] = []
            for k in range(len(p) - g):
                q.append((q[k - g] if k >= g else 0) - p[k])
            p = q
    num = f.numerators
    for z in range(size - len(p) + 1):
        if sum(map(mul, p, num[z:z + len(p)])):
            return DualCertificate(_canonical(
                (0,) * z + tuple(p) + (0,) * (size - z - len(p)), 1))
    return None


def verified_split(maps: Sequence[Sequence[int]], f: RationalFunction,
                   shifts: Optional[Sequence[int]] = None
                   ) -> Union[Decomposition, DualCertificate]:
    """Exact split of f into parts, part j invariant under maps[j], over
    the maps' invariance classes, or a dual functional.

    The maps commute, or they are a z-window's completed shifts, and
    shifts holds those shifts.  The solvers decide; a refusal's dual is
    `_stencil_dual` on the kept maps or, given shifts, `_window_dual`.
    Each result is verified once: parts by `verify_parts`, a dual by
    `verify_dual` against every map's classes.  A refusal with no dual,
    or with one that fails, contradicts the theorems behind both: without
    shifts it raises NotCommutingError when two kept maps do not commute,
    which the caller owes, and InternalContractViolation otherwise."""
    partitions = [invariance_classes(t) for t in maps]
    kept = _finest(partitions)
    parts = split_over_classes(partitions, f, kept)
    if parts is not None:
        verify_parts(maps, f, parts).require("oracle solution")
        return Decomposition(tuple(parts))
    dual = (_stencil_dual([maps[j] for j in kept], f)
            if shifts is None else _window_dual(shifts, f))
    checked = dual is not None and verify_dual(partitions, f, dual)
    if not checked:
        if shifts is None:
            # the stencil proves refusals over commuting maps only
            for i, j in combinations(kept, 2):
                x = commute_witness(maps[i], maps[j])
                if x is not None:
                    raise NotCommutingError(i, j, x)
        if dual is None:
            raise InternalContractViolation("f is refused, but has no dual")
        checked.require("dual certificate")
    return dual


def oracle_decompose(system: CommutingSystem, f: RationalFunction):
    """Decide decomposability exactly, by `verified_split`.

    Returns a verified Decomposition on feasibility, else a DualCertificate.
    The unknowns are one coefficient per (transform, invariance class); a
    system with no transform is refused by `split_over_classes`.
    """
    if len(f) != system.size:
        raise PreconditionError("function length does not match the domain")
    return verified_split(system.transforms, f)

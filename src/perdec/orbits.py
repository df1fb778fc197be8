"""Orbit partitions and relation witnesses.

Class representatives are always the minimum element index of their class,
a deterministic stand-in for an arbitrary choice, so every construction
downstream is reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

from .core import CommutingSystem, PreconditionError, RangeError


def default_bound(size: int) -> int:
    """Default exponent search bound 2N for relation search.

    The power sequence of any self-map on N points has preperiod plus
    period at most N (the rho shape).  `find_relation` and
    `prescribed_points`, and through them `decompose_three`, enumerate
    exponents up to 2N; its sufficiency is property-tested against 4N
    rather than proved in code.  The finite star check searches no
    exponents at all.
    """
    return 2 * size


@dataclass(frozen=True)
class Partition:
    """class_of[x] is x's class id; representative[c] is the class minimum.

    Ids are assigned by first appearance scanning elements upward, so the
    representative sequence is strictly increasing.
    """

    class_of: tuple[int, ...]
    representative: tuple[int, ...]

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "Partition":
        """Build from arbitrary per-element labels (equal label = same class)."""
        ids: Dict[int, int] = {}
        class_of = []
        reps = []
        for x, lab in enumerate(labels):
            if lab not in ids:
                ids[lab] = len(reps)
                reps.append(x)
            class_of.append(ids[lab])
        return cls(tuple(class_of), tuple(reps))

    @property
    def n_classes(self) -> int:
        return len(self.representative)

    def members(self, c: int) -> tuple[int, ...]:
        return tuple(x for x, cx in enumerate(self.class_of) if cx == c)

    def classes(self) -> list[tuple[int, ...]]:
        out: list[list[int]] = [[] for _ in range(self.n_classes)]
        for x, c in enumerate(self.class_of):
            out[c].append(x)
        return [tuple(members) for members in out]


def _components(size: int, edge_maps: Sequence[Sequence[int]]) -> Partition:
    """Weakly connected components of the union of the graphs x -> t(x)."""
    parent = list(range(size))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]  # path halving
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        # keep the smaller root so the representative is the class minimum
        if ra < rb:
            parent[rb] = ra
        else:
            parent[ra] = rb

    for t in edge_maps:
        for x in range(size):
            union(x, t[x])
    return Partition.from_labels([find(x) for x in range(size)])


def invariance_classes(t: Sequence[int]) -> Partition:
    """Classes on which every t-invariant function is constant.

    These are the weakly connected components of t's functional graph:
    f is t-invariant iff it is constant on each class.
    """
    return _components(len(t), [t])


def joint_classes(system: CommutingSystem, subset: Iterable[int]) -> Partition:
    """Components of the union graph over the chosen transforms."""
    indices = sorted(set(subset))
    if not indices:
        raise PreconditionError("subset of transforms must be nonempty")
    for j in indices:
        if not 0 <= j < system.n:
            raise RangeError(f"transform index {j} outside [0, {system.n})")
    return _components(system.size, [system.transforms[j] for j in indices])


@dataclass(frozen=True)
class Relation:
    """Witness of T^k S^n x = T^{k2} S^{n2} y for the (S, T, x, y) it came from."""

    k: int
    n: int
    k2: int
    n2: int

    def swapped(self) -> "Relation":
        return Relation(self.k2, self.n2, self.k, self.n)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.k, self.n, self.k2, self.n2)


def _word_grid(t: Sequence[int], s: Sequence[int], x: int,
               bound: int) -> list[list[int]]:
    """grid[k][n] = t^k(s^n(x)) for exponents up to bound."""
    row = [x]
    for _ in range(bound):
        row.append(s[row[-1]])
    grid = [row]
    for _ in range(bound):
        grid.append([t[p] for p in grid[-1]])
    return grid


def _reachable(maps: Sequence[Sequence[int]], x: int) -> set[int]:
    """Forward closure of {x} under the given maps."""
    seen = {x}
    frontier = [x]
    while frontier:
        p = frontier.pop()
        for m in maps:
            q = m[p]
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return seen


def find_relation(s: Sequence[int], t: Sequence[int], x: int, y: int,
                  bound: int) -> Optional[Relation]:
    """First relation T^k S^n x = T^{k2} S^{n2} y with exponents <= bound.

    For x <= y the search order is lexicographic in
    (k + n + k2 + n2, k, n, k2, n2); for x > y the result for (y, x) is
    swapped, which makes the outcome symmetric in the two points.
    Returns None when no relation exists within the bound.
    """
    if bound < 1:
        raise PreconditionError(f"bound must be >= 1, got {bound}")
    size = len(t)
    if not (0 <= x < size and 0 <= y < size):
        raise RangeError(f"elements {x}, {y} must lie in [0, {size})")
    if x == y:
        return Relation(0, 0, 0, 0)
    if x > y:
        rel = find_relation(s, t, y, x, bound)
        return None if rel is None else rel.swapped()
    # Forward closures are cheap and decide absence at every bound at once.
    if not (_reachable((s, t), x) & _reachable((s, t), y)):
        return None
    gx = _word_grid(t, s, x, bound)
    gy = _word_grid(t, s, y, bound)
    for total in range(4 * bound + 1):
        for k in range(min(total, bound) + 1):
            for n in range(min(total - k, bound) + 1):
                rest = total - k - n
                px = gx[k][n]
                for k2 in range(max(0, rest - bound), min(rest, bound) + 1):
                    # n2 is forced, so ascending k2 is lexicographic here
                    if px == gy[k2][rest - k2]:
                        return Relation(k, n, k2, rest - k2)
    return None


def _self_relation_scan(t: Sequence[int], s: Sequence[int], x: int,
                        bound: int) -> Optional[Relation]:
    """First (k, l, k2, l2) with T^k S^l x = T^{k2} S^{l2} x and k > k2."""
    grid = _word_grid(t, s, x, bound)
    for total in range(4 * bound + 1):
        for k in range(min(total, bound) + 1):
            for l in range(min(total - k, bound) + 1):
                rest = total - k - l
                p = grid[k][l]
                for k2 in range(max(0, rest - bound), min(rest, bound, k - 1) + 1):
                    if p == grid[k2][rest - k2]:
                        return Relation(k, l, k2, rest - k2)
    return None


def prescribed_points(s: Sequence[int], t: Sequence[int],
                      bound: Optional[int] = None) -> Dict[int, Relation]:
    """Points x with T^k S^l x = T^{k2} S^{l2} x, k > k2, exponents <= bound.

    Maps each such x to one witness Relation (n/n2 fields hold the S
    exponents).  The fast path walks the induced map on S-classes, whose
    first repeat gives T^k x ~ T^{k2} x within k <= N; the exhaustive
    bounded scan only runs when that witness does not fit the bound.
    """
    size = len(t)
    if bound is None:
        bound = default_bound(size)
    if bound < 1:
        raise PreconditionError(f"bound must be >= 1, got {bound}")
    s_classes = invariance_classes(s)
    ident = tuple(range(size))
    # induced map on S-classes; well-defined because s and t commute
    t_quot = [0] * s_classes.n_classes
    for c, rep in enumerate(s_classes.representative):
        t_quot[c] = s_classes.class_of[t[rep]]
    out: Dict[int, Relation] = {}
    for x in range(size):
        seen: Dict[int, int] = {}
        c = s_classes.class_of[x]
        step = 0
        while c not in seen:
            seen[c] = step
            c = t_quot[c]
            step += 1
        k2, k = seen[c], step
        # recover S exponents linking T^k x and T^{k2} x
        u = x
        for _ in range(k):
            u = t[u]
        v = x
        for _ in range(k2):
            v = t[v]
        link = find_relation(ident, s, u, v, bound)
        if (link is not None and k <= bound
                and link.k <= bound and link.k2 <= bound):
            out[x] = Relation(k, link.k, k2, link.k2)
            continue
        rel = _self_relation_scan(t, s, x, bound)
        if rel is not None:
            out[x] = rel
    return out

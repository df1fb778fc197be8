"""Orbit partitions and relation witnesses.

Class representatives are always the minimum element index of their class,
a deterministic stand-in for an arbitrary choice, so every construction
downstream is reproducible run to run.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from .core import (CommutingSystem, PreconditionError, RangeError, _Record,
                   _set_field, iterate)


def default_bound(size: int) -> int:
    """Default exponent bound 2N of `prescribed_points`, which serves only
    the case split that `decomp.decompose_three_report` reports.

    The power sequence of any self-map on N points has preperiod plus
    period at most N (the rho shape), so the witness that
    `prescribed_points` finds by orbit walks has exponents at most N and
    fits this bound: only an explicit smaller bound changes its output.
    No construction searches exponents, `find_relation` takes no bound by
    default (the exact orbit meeting), and the finite star check searches
    no exponents at all.
    """
    return 2 * size


class Partition(_Record):
    """class_of[x] is x's class id; representative[c] is the class minimum.

    Ids are assigned by first appearance scanning elements upward, so the
    representative sequence is strictly increasing.
    """

    class_of: tuple[int, ...]
    representative: tuple[int, ...]

    def __init__(self, class_of: tuple[int, ...],
                 representative: tuple[int, ...]):
        _set_field(self, "class_of", class_of)
        _set_field(self, "representative", representative)

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
    """Classes on which every t-invariant function is constant: the weakly
    connected components of t's functional graph.  Each holds one cycle,
    so a forward walk from the least unlabelled x joins the class of the
    first labelled point it meets, or closes a new cycle and starts a
    class whose least point is x; each point is walked once."""
    class_of = [-1] * len(t)
    reps: list[int] = []
    for x in range(len(t)):
        path, y = [], x
        while class_of[y] == -1:
            class_of[y] = -2  # on this walk
            path.append(y)
            y = t[y]
        c = class_of[y]
        if c == -2:
            c = len(reps)
            reps.append(x)
        for p in path:
            class_of[p] = c
    return Partition(tuple(class_of), tuple(reps))


def rho(t: Sequence[int], x: int) -> tuple[list[int], int]:
    """(orbit, start): x's forward orbit up to its first repeat, and the
    index where its cycle starts.

    orbit lists x, t(x), ... without repeats and t(orbit[-1]) is
    orbit[start], so orbit[start:] is the one cycle of x's class; the rho
    shape has at most N points.
    """
    index: Dict[int, int] = {}
    orbit: list[int] = []
    while x not in index:
        index[x] = len(orbit)
        orbit.append(x)
        x = t[x]
    return orbit, index[x]


def induced_map(t: Sequence[int],
                s: Sequence[int]) -> tuple[Partition, tuple[int, ...]]:
    """(classes, induced): s's invariance classes and the map t induces
    on them, well defined when s and t commute."""
    part = invariance_classes(s)
    return part, tuple(part.class_of[t[rep]] for rep in part.representative)


def joint_classes(system: CommutingSystem, subset: Iterable[int]) -> Partition:
    """Components of the union graph over the chosen transforms."""
    indices = sorted(set(subset))
    if not indices:
        raise PreconditionError("subset of transforms must be nonempty")
    for j in indices:
        if not 0 <= j < system.n:
            raise RangeError(f"transform index {j} outside [0, {system.n})")
    return _components(system.size, [system.transforms[j] for j in indices])


class Relation(_Record):
    """Witness of T^k S^n x = T^{k2} S^{n2} y for the (S, T, x, y) it came from."""

    k: int
    n: int
    k2: int
    n2: int

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


def find_relation(s: Sequence[int], x: int, y: int,
                  bound: Optional[int] = None) -> Optional[tuple[int, int]]:
    """First (k, k2) with s^k x = s^{k2} y and both exponents <= bound.

    The least k + k2 wins, ties going to the least exponent on min(x, y),
    which makes the outcome symmetric in the two points.  The orbits meet
    iff x and y share an `invariance_classes` class, and each repeats
    within N steps, so bound None (no cap) finds the exact meeting.  A
    hash join: the index of every point on min(x, y)'s `rho` goes into a
    table, then the other orbit is walked until no later step can win, in
    O(N).  Returns None when the orbits do not meet within the bound.
    """
    if bound is not None and bound < 1:
        raise PreconditionError(f"bound must be >= 1, got {bound}")
    size = len(s)
    if not (0 <= x < size and 0 <= y < size):
        raise RangeError(f"elements {x}, {y} must lie in [0, {size})")
    # exponents past N - 1 only revisit points the walks have seen
    limit = size - 1 if bound is None else min(bound, size - 1)
    a, b = min(x, y), max(x, y)
    orbit, _ = rho(s, a)
    first = {p: i for i, p in enumerate(orbit[:limit + 1])}
    best: Optional[tuple[int, int]] = None  # (k + k2, exponent on a)
    q = b
    for j in range(limit + 1):
        if best is not None and j > best[0]:
            break
        i = first.get(q)
        if i is not None and (best is None or (i + j, i) < best):
            best = (i + j, i)
        q = s[q]
    if best is None:
        return None
    total, i = best
    return (i, total - i) if x <= y else (total - i, i)


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
    exponents).  The fast path walks the induced map on S-classes once
    from each class, whose first repeat gives T^k x ~ T^{k2} x within
    k <= N, and links the two points by `find_relation` under s, whose
    exponents stay below N.  At the default bound 2N that witness always
    fits, so the exhaustive bounded scan only runs under an explicit
    smaller bound.
    """
    size = len(t)
    if bound is None:
        bound = default_bound(size)
    if bound < 1:
        raise PreconditionError(f"bound must be >= 1, got {bound}")
    s_classes, t_quot = induced_map(t, s)
    # (k2, k) of the first repeat T^k x ~ T^{k2} x depends only on the
    # S-class of x: one induced walk per class
    walks = []
    for start in range(s_classes.n_classes):
        orbit, k2 = rho(t_quot, start)
        walks.append((k2, len(orbit)))
    out: Dict[int, Relation] = {}
    for x in range(size):
        k2, k = walks[s_classes.class_of[x]]
        # recover S exponents linking T^k x and T^{k2} x
        v = iterate(t, k2, x)
        u = iterate(t, k - k2, v)
        link = find_relation(s, u, v, bound)
        if link is not None and k <= bound:
            out[x] = Relation(k, link[0], k2, link[1])
            continue
        rel = _self_relation_scan(t, s, x, bound)
        if rel is not None:
            out[x] = rel
    return out

"""Orbit partitions, orbit shapes and orbit meetings.

Class representatives are always the minimum element index of their class,
a deterministic stand-in for an arbitrary choice, so every construction
downstream is reproducible run to run.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .core import RangeError, _Record, _set_field


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

    @property
    def n_classes(self) -> int:
        return len(self.representative)


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


def find_relation(s: Sequence[int], x: int,
                  y: int) -> Optional[tuple[int, int]]:
    """First (k, k2) with s^k x = s^{k2} y, or None when there is none.

    The least k + k2 wins, ties going to the least exponent on min(x, y),
    which makes the outcome symmetric in the two points.  The orbits meet
    iff x and y share an `invariance_classes` class, and each repeats
    within N steps, so both exponents of the meeting are below N.  A hash
    join: the index of every point on min(x, y)'s `rho` goes into a
    table, then the other orbit is walked until no later step can win, in
    O(N).
    """
    size = len(s)
    if not (0 <= x < size and 0 <= y < size):
        raise RangeError(f"elements {x}, {y} must lie in [0, {size})")
    a, b = min(x, y), max(x, y)
    orbit, _ = rho(s, a)
    first = {p: i for i, p in enumerate(orbit)}
    best: Optional[tuple[int, int]] = None  # (k + k2, exponent on a)
    q = b
    # exponents past N - 1 only revisit points the walk has seen
    for j in range(size):
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

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
    connected components of t's functional graph, from `_label_classes`."""
    class_of, reps, _ = _label_classes(t)
    return Partition(class_of, tuple(reps))


def _label_classes(t: Sequence[int]
                   ) -> tuple[tuple[int, ...], list[int], list[int]]:
    """(class_of, representatives, on_cycle) of t's invariance classes,
    with on_cycle[c] a point on class c's one cycle.

    A forward walk from each least unlabelled x labels the points it
    reaches with the walk's own id until it meets a labelled point.  Its
    own id there closes a new cycle, and a class whose least point is x;
    any other id joins the class of that walk.  Each point is walked
    once, and one map of the walk ids gives every point its class.
    """
    walk_of = [-1] * len(t)
    class_of_walk: list[int] = []
    reps: list[int] = []
    on_cycle: list[int] = []
    for x in range(len(t)):
        if walk_of[x] != -1:
            continue
        w = len(class_of_walk)
        y = x
        while walk_of[y] == -1:
            walk_of[y] = w
            y = t[y]
        if walk_of[y] == w:
            class_of_walk.append(len(reps))
            reps.append(x)
            on_cycle.append(y)
        else:
            class_of_walk.append(class_of_walk[walk_of[y]])
    if len(reps) == len(class_of_walk):
        # every walk closed its own cycle, as in a permutation: the walk
        # ids are the class ids
        return tuple(walk_of), reps, on_cycle
    return tuple(map(class_of_walk.__getitem__, walk_of)), reps, on_cycle


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

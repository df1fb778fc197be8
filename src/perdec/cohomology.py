"""Solvers for the transfer equation h(Tx) - h(x) = g(x) and variants.

All three solvers work directly on the functional-graph structure of the
acting map (orbit walks, cycle sums, quotients), so none of them needs an
exponent search bound.  Absence is always certified: the caller gets the
offending cycle or self-relation together with its nonzero sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Optional, Sequence, Tuple, Union

from .core import (
    InternalContractViolation,
    PreconditionError,
    RationalFunction,
    VerificationResult,
    commute_witness,
    is_invariant,
    iterate,
)
from .orbits import (
    _components,
    find_relation,
    induced_map,
    invariance_classes,
    rho,
)


@dataclass(frozen=True)
class CycleObstruction:
    """A T-cycle whose g-sum is nonzero, so h(Tx) - h(x) = g(x) is unsolvable."""

    points: tuple[int, ...]
    total: Fraction


@dataclass(frozen=True)
class ConstrainedObstruction:
    """Witness T^k S^l x = S^{l2} x whose orbit sum of G is nonzero."""

    x: int
    k: int
    l: int
    l2: int
    total: Fraction


@dataclass(frozen=True)
class BoundedTransfer:
    """solution plus the partial-sum bound C controlling its sup norm."""

    solution: RationalFunction
    bound: Fraction


def solve_transfer(
    t: Sequence[int], g: RationalFunction
) -> Union[RationalFunction, CycleObstruction]:
    """Solve h(t(x)) - h(x) = g(x) exactly, with h = 0 at each weak
    class's least point.

    A solution exists iff the g-sum around every cycle vanishes; the
    first nonzero cycle (by class order) is returned otherwise.  One
    forward walk from each unsolved x, in point order: a walk that meets
    a solved point fills h backward along its path; a walk that closes a
    new cycle started at that class's least point, so once the cycle sum
    checks out h(x) = 0 and h fills forward.  Each point is walked once.
    """
    values: list = [None] * len(g)
    for x in range(len(g)):
        if values[x] is not None:
            continue
        path: list[int] = []
        index: Dict[int, int] = {}
        y = x
        while values[y] is None and y not in index:
            index[y] = len(path)
            path.append(y)
            y = t[y]
        if values[y] is None:
            cycle = path[index[y]:]
            total = sum((g[p] for p in cycle), Fraction(0))
            if total != 0:
                return CycleObstruction(tuple(cycle), total)
            h = Fraction(0)
            for p in path:
                values[p] = h
                h += g[p]
        else:
            h = values[y]
            for p in reversed(path):
                h -= g[p]
                values[p] = h
    return RationalFunction(tuple(values))


def scaled_cycle_means(t: Sequence[int], values: Sequence[int]
                       ) -> Tuple[Tuple[int, ...], list[int], int]:
    """(class_of, sums, scale): the mean of the integer values over the
    cycle that x's forward orbit enters is sums[class_of[x]] / scale.

    E, the projection onto the t-invariant functions along the image of
    g -> g o t - g (see `decomp.decompose_n`), on integer numerators.
    scale is the lcm of t's cycle lengths, so a cycle of length L has
    mean (scale // L) * (its sum) / scale, an integer over scale with no
    division.  One walk from each class representative finds the class's
    cycle; marks hold class ids, so they need no reset between classes.
    """
    part = invariance_classes(t)
    mark = [-1] * len(t)
    cycles = []
    for c, x in enumerate(part.representative):
        while mark[x] != c:
            mark[x] = c
            x = t[x]
        # x is the first point the walk met twice: it lies on the cycle
        cycle = [x]
        y = t[x]
        while y != x:
            cycle.append(y)
            y = t[y]
        cycles.append(cycle)
    scale = lcm(*map(len, cycles))
    sums = [scale // len(cycle) * sum(values[p] for p in cycle)
            for cycle in cycles]
    return part.class_of, sums, scale


def _check_commute(t: Sequence[int], s: Sequence[int]) -> None:
    w = commute_witness(t, s)
    if w is not None:
        raise PreconditionError(f"maps do not commute at x={w}")


def solve_transfer_constrained(
    t: Sequence[int], s: Sequence[int], g: RationalFunction
) -> Union[RationalFunction, ConstrainedObstruction]:
    """Solve h(t(x)) - h(x) = g(x) with h s-invariant (no correction term).

    Solvable iff the g-sum along T^i x, i < k, vanishes whenever
    T^k S^l x = S^{l2} x; the check happens on the quotient by s-classes,
    and a failure is returned as that witness with its nonzero sum, after
    `verify_bounded_transfer` has replayed it.
    """
    _check_commute(t, s)
    if not is_invariant(s, g):
        raise PreconditionError("right side is not s-invariant")
    part, induced = induced_map(t, s)
    g_q = RationalFunction(tuple(g[rep] for rep in part.representative))
    h_q = solve_transfer(induced, g_q)
    if isinstance(h_q, CycleObstruction):
        x = part.representative[h_q.points[0]]
        k = len(h_q.points)
        link = find_relation(s, iterate(t, k, x), x)
        if link is None:
            raise InternalContractViolation(
                "quotient cycle without a ground self-relation")
        obstruction = ConstrainedObstruction(x, k, *link, h_q.total)
        verify_bounded_transfer(t, s, g, obstruction).require("obstruction")
        return obstruction
    values = tuple(h_q[part.class_of[x]] for x in range(len(g)))
    return RationalFunction(values)


def partial_sum_bound(t: Sequence[int], g: RationalFunction,
                      horizon: Optional[int] = None) -> Fraction:
    """max |sum_{i<m} g(t^i x)| over x and 1 <= m <= horizon (default 2N).

    On solvable instances the partial sums are eventually periodic in m
    with preperiod plus period at most N, so the default horizon sees
    every value.  The sums run on integers: an orbit never leaves its
    weak class, so each class's values are scaled by the lcm of their
    denominators there.
    """
    size = len(g)
    if horizon is None:
        horizon = 2 * size
    best = Fraction(0)
    scaled = [0] * size
    for members in invariance_classes(t).classes():
        denom = lcm(*(g[x].denominator for x in members))
        for x in members:
            scaled[x] = g[x].numerator * (denom // g[x].denominator)
        top = 0
        for x in members:
            partial = 0
            p = x
            for _ in range(horizon):
                partial += scaled[p]
                p = t[p]
                if abs(partial) > top:
                    top = abs(partial)
        if Fraction(top, denom) > best:
            best = Fraction(top, denom)
    return best


def solve_bounded_transfer(
    t: Sequence[int], s: Sequence[int], g: RationalFunction
) -> Union[BoundedTransfer, ConstrainedObstruction]:
    """Constrained transfer solution recentered to a certified sup-norm bound.

    Returns (H, C) with h(t(x)) - h(x) = g(x), H s-invariant, C the
    partial-sum bound, and sup |H| <= 2C; recentering subtracts the
    midrange of H on each joint (s,t)-class, which preserves both defining
    identities.  Absent exactly when the constrained solve is absent.
    """
    solved = solve_transfer_constrained(t, s, g)
    if isinstance(solved, ConstrainedObstruction):
        return solved
    size = len(g)
    bound_c = partial_sum_bound(t, g)
    values = list(solved.values)
    for members in _components(size, [t, s]).classes():
        high = max(values[x] for x in members)
        low = min(values[x] for x in members)
        mid = (high + low) / 2
        for x in members:
            values[x] -= mid
    centered = RationalFunction(tuple(values))
    _check_bounded(t, s, g, centered, bound_c).require(
        "recentered solution")
    return BoundedTransfer(centered, bound_c)


def _check_bounded(t: Sequence[int], s: Sequence[int], g: RationalFunction,
                   h: RationalFunction,
                   bound_c: Fraction) -> VerificationResult:
    """h solves h(t(x)) - h(x) = g(x), is s-invariant and stays within 2C."""
    for x in range(len(g)):
        if h[t[x]] - h[x] != g[x]:
            return VerificationResult(False, f"transfer identity fails at {x}")
    if not is_invariant(s, h):
        return VerificationResult(False, "solution is not s-invariant")
    if h.max_abs() > 2 * bound_c:
        return VerificationResult(False, "solution exceeds twice the bound")
    return VerificationResult(True)


def orbit_sum(t: Sequence[int], g: RationalFunction, x: int,
              steps: int) -> Fraction:
    """sum_{i < steps} g(t^i x) for any steps >= 0, in at most N steps:
    the sum over x's tail, whole turns of its cycle, then a partial turn."""
    orbit, start = rho(t, x)
    prefix = [Fraction(0)]
    for p in orbit:
        prefix.append(prefix[-1] + g[p])
    if steps <= len(orbit):
        return prefix[steps]
    turns, rest = divmod(steps - start, len(orbit) - start)
    return prefix[start + rest] + turns * (prefix[-1] - prefix[start])


def verify_bounded_transfer(
    t: Sequence[int], s: Sequence[int], g: RationalFunction,
    result: Union[BoundedTransfer, ConstrainedObstruction],
) -> VerificationResult:
    """Check either answer of `solve_bounded_transfer` against (t, s, g).

    A BoundedTransfer (H, C) must solve h(t(x)) - h(x) = g(x) with H
    s-invariant and sup |H| <= 2C, and C must equal the recomputed
    `partial_sum_bound`.  A ConstrainedObstruction (x, k, l, l2, total)
    must satisfy T^k S^l x = S^{l2} x, and the g-sum along T^i S^l x,
    i < k, must equal its nonzero total.  Exponents are reduced along the
    rho shape of each map, so any exponents replay in O(N) steps.
    """
    size = len(g)
    if isinstance(result, BoundedTransfer):
        if len(result.solution) != size:
            return VerificationResult(False,
                                      "solution length differs from domain")
        verdict = _check_bounded(t, s, g, result.solution, result.bound)
        if not verdict:
            return verdict
        if partial_sum_bound(t, g) != result.bound:
            return VerificationResult(False,
                                      "stored bound differs from recomputed")
        return VerificationResult(True)
    if isinstance(result, ConstrainedObstruction):
        if not 0 <= result.x < size or min(result.k, result.l, result.l2) < 0:
            return VerificationResult(
                False, "witness point or exponent out of range")
        start = iterate(s, result.l, result.x)
        if iterate(t, result.k, start) != iterate(s, result.l2, result.x):
            return VerificationResult(False, "witness relation does not hold")
        total = orbit_sum(t, g, start, result.k)
        if total != result.total or total == 0:
            return VerificationResult(False, "obstruction sum does not replay")
        return VerificationResult(True)
    return VerificationResult(
        False, f"unexpected result type {type(result).__name__}")

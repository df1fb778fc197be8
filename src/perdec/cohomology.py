"""Solvers for the transfer equation h(Tx) - h(x) = g(x) and variants.

All four solvers work directly on the functional-graph structure of the
acting map (orbit walks, cycle sums, quotients), so none of them needs an
exponent search bound.  Absence is always certified: the caller gets the
offending cycle or self-relation together with its nonzero sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

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
    Partition,
    _components,
    find_relation,
    invariance_classes,
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
class TransferSolution:
    """solution g and the invariant correction term added to the right side."""

    solution: RationalFunction
    correction: Optional[RationalFunction] = None


@dataclass(frozen=True)
class BoundedTransfer:
    """solution plus the partial-sum bound C controlling its sup norm."""

    solution: RationalFunction
    bound: Fraction


def _orbit_to_repeat(t: Sequence[int], x0: int) -> Tuple[list, Dict[int, int], int]:
    """Forward orbit of x0 up to the first repeated point.

    Returns (orbit, index, start) where index maps point -> position and
    orbit[start:] is the unique cycle of x0's component.
    """
    orbit: list = []
    index: Dict[int, int] = {}
    p = x0
    while p not in index:
        index[p] = len(orbit)
        orbit.append(p)
        p = t[p]
    return orbit, index, index[p]


def solve_transfer(
    t: Sequence[int], g: RationalFunction
) -> Union[RationalFunction, CycleObstruction]:
    """Solve h(t(x)) - h(x) = g(x) exactly.

    Per weak class with representative x0 the solution is
    h(x) = sum_{i<n} g(t^i x0) - sum_{j<m} g(t^j x), where t^m x = t^n x0
    is the first meeting of the two forward orbits.  A solution exists iff
    the g-sum around every cycle vanishes; the first nonzero cycle (by
    class order) is returned otherwise.
    """
    size = len(g)
    part = invariance_classes(t)
    values: list = [None] * size
    for c in range(part.n_classes):
        x0 = part.representative[c]
        orbit, index, start = _orbit_to_repeat(t, x0)
        prefix = [Fraction(0)]
        for p in orbit:
            prefix.append(prefix[-1] + g[p])
        cycle_total = prefix[len(orbit)] - prefix[start]
        if cycle_total != 0:
            return CycleObstruction(tuple(orbit[start:]), cycle_total)
        for x in part.members(c):
            partial = Fraction(0)
            q = x
            while q not in index:
                partial += g[q]
                q = t[q]
            values[x] = prefix[index[q]] - partial
    return RationalFunction(tuple(values))


def cycle_average(t: Sequence[int], g: RationalFunction,
                  part: Optional[Partition] = None) -> RationalFunction:
    """E g(x): the mean of g over the cycle that x's forward orbit enters.

    E is the projection onto the t-invariant functions along the image of
    g -> g o t - g (see `decomp.decompose_n`); one cycle walk per class.
    ``part`` is t's class partition when the caller already has it.
    """
    if part is None:
        part = invariance_classes(t)
    means = []
    for rep in part.representative:
        orbit, _, start = _orbit_to_repeat(t, rep)
        cycle = orbit[start:]
        means.append(sum((g[p] for p in cycle), Fraction(0)) / len(cycle))
    return RationalFunction(tuple(means[c] for c in part.class_of))


def solve_transfer_mod_invariant(
    t: Sequence[int], g: RationalFunction
) -> TransferSolution:
    """Solve h(t(x)) - h(x) = g(x) + gamma(x) with gamma t-invariant.

    Always solvable: on each class gamma is the negated average of g around
    the class's unique cycle, which zeroes the cycle sum.
    """
    gamma = -cycle_average(t, g)
    h = solve_transfer(t, g + gamma)
    if isinstance(h, CycleObstruction):
        raise InternalContractViolation(
            "forced correction failed to zero a cycle sum")
    return TransferSolution(h, gamma)


def _check_commute(t: Sequence[int], s: Sequence[int]) -> None:
    w = commute_witness(t, s)
    if w is not None:
        raise PreconditionError(f"maps do not commute at x={w}")


def _quotient(t: Sequence[int], s: Sequence[int]):
    """S-class partition and the map induced by t on the classes."""
    part = invariance_classes(s)
    induced = tuple(part.class_of[t[part.representative[c]]]
                    for c in range(part.n_classes))
    return part, induced


def solve_transfer_pair(
    t: Sequence[int],
    s: Sequence[int],
    g: RationalFunction,
    class_values: Optional[Mapping[int, Fraction]] = None,
) -> TransferSolution:
    """Solve h(t(x)) - h(x) = g(x) + gamma(x) with h, gamma both s-invariant
    and gamma also t-invariant.

    Works on the quotient by s-classes, where t acts as an induced map, and
    lifts the solution back.  ``class_values`` optionally pins gamma's
    constant on the joint class containing a given element (the free-choice
    hook used by the three-transformation decomposition); a pin that
    conflicts with a forced cycle average raises PreconditionError.
    """
    _check_commute(t, s)
    if not is_invariant(s, g):
        raise PreconditionError("right side is not s-invariant")
    part, induced = _quotient(t, s)
    g_q = RationalFunction(tuple(g[rep] for rep in part.representative))
    qpart = invariance_classes(induced)
    gamma_q = -cycle_average(induced, g_q, qpart)
    if class_values:
        pinned: Dict[int, Fraction] = {}
        for element, value in class_values.items():
            qc = qpart.class_of[part.class_of[element]]
            value = Fraction(value)
            if qc in pinned and pinned[qc] != value:
                raise PreconditionError(
                    f"conflicting pinned constants on one class: "
                    f"{pinned[qc]} vs {value}")
            pinned[qc] = value
        gamma_q = RationalFunction(tuple(
            pinned.get(qpart.class_of[c], v) for c, v in enumerate(gamma_q)))
    h_q = solve_transfer(induced, g_q + gamma_q)
    if isinstance(h_q, CycleObstruction):
        if class_values:
            raise PreconditionError(
                "pinned correction constant conflicts with a forced cycle "
                f"average (cycle total {h_q.total})")
        raise InternalContractViolation(
            "forced correction failed on the quotient")
    values = tuple(h_q[part.class_of[x]] for x in range(len(g)))
    gamma = tuple(gamma_q[part.class_of[x]] for x in range(len(g)))
    return TransferSolution(RationalFunction(values), RationalFunction(gamma))


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
    part, induced = _quotient(t, s)
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
    joint = _components(size, [t, s])
    values = list(solved.values)
    for c in range(joint.n_classes):
        members = joint.members(c)
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
    orbit, _, start = _orbit_to_repeat(t, x)
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

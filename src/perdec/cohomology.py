"""Solvers for the transfer equation h(Tx) - h(x) = g(x) and its bounded,
s-invariant variant.

Both solvers work directly on the functional-graph structure of the
acting map (orbit walks, cycle sums, quotients), so none of them needs an
exponent search bound.  Absence is always certified: the caller gets the
offending self-relation T^k S^l x = S^{l2} x (a cycle: S the identity)
together with its nonzero sum.
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

from .check import (
    BoundedTransfer,
    ConstrainedObstruction,
    _check_bounded,
    _match_lengths,
    partial_sum_bound,
    verify_bounded_transfer,
)
from .core import (
    InternalContractViolation,
    PreconditionError,
    RationalFunction,
    _from_integers,
    commute_witness,
    is_invariant,
    iterate,
)
from .orbits import find_relation, induced_map, invariance_classes


def _transfer_walk(
    t: Sequence[int], g: RationalFunction
) -> Union[RationalFunction, ConstrainedObstruction]:
    """Solve h(t(x)) - h(x) = g(x) exactly, with h = 0 at each weak
    class's least point, with no check of the answer: its one caller,
    `_solve_on_quotient`, has each answer checked once, on the ground maps.

    A solution exists iff the g-sum around every cycle vanishes; the
    first nonzero cycle (by class order) is returned otherwise, as the
    witness T^k x = x, the ConstrainedObstruction with S the identity and
    l = l2 = 0.  One forward walk from each unsolved x, in point order: a
    walk that meets a solved point fills h backward along its path; a
    walk that closes a new cycle started at that class's least point, so
    once the cycle sum checks out h(x) = 0 and h fills forward.  Each
    point is walked once, on g's numerators: h has g's denominator.
    """
    from fractions import Fraction

    _match_lengths(g, t)
    numerators = g.numerators
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
            total = sum(map(numerators.__getitem__, cycle))
            if total:
                return ConstrainedObstruction(
                    cycle[0], len(cycle), 0, 0, Fraction(total, g.denom))
            h = 0
            for p in path:
                values[p] = h
                h += numerators[p]
        else:
            h = values[y]
            for p in reversed(path):
                h -= numerators[p]
                values[p] = h
    return _from_integers(values, g.denom)


def _solve_on_quotient(t: Sequence[int], s: Sequence[int],
                       g: RationalFunction):
    """(solution, classes, induced): h(t(x)) - h(x) = g(x) with h
    s-invariant, as `_transfer_walk` on the quotient by s's invariance
    classes, with those classes and the map t induces on them.

    The solution is h_q over the classes, and h_q lifted to points solves
    the equation: the maps commute and g is s-invariant (both checked up
    front), so t sends each s-class c into induced(c), g is g_q(c) on c,
    and the walk's identity on the quotient holds at each point; the
    caller checks the lifted solution.  It is solvable iff the g-sum along
    T^i x, i < k, vanishes whenever T^k S^l x = S^{l2} x; otherwise the
    solution is that witness with its nonzero sum, lifted from the
    quotient cycle to the ground maps, a ConstrainedObstruction that
    `verify_bounded_transfer` has replayed there, the one check of a
    refusal.
    """
    _match_lengths(g, t, s)
    w = commute_witness(t, s)
    if w is not None:
        raise PreconditionError(f"maps do not commute at x={w}")
    if not is_invariant(s, g):
        raise PreconditionError("right side is not s-invariant")
    part, induced = induced_map(t, s)
    g_q = _from_integers(map(g.numerators.__getitem__, part.representative),
                         g.denom)
    h_q = _transfer_walk(induced, g_q)
    if isinstance(h_q, ConstrainedObstruction):
        x, k = part.representative[h_q.x], h_q.k
        link = find_relation(s, iterate(t, k, x), x)
        if link is None:
            raise InternalContractViolation(
                "quotient cycle without a ground self-relation")
        obstruction = ConstrainedObstruction(x, k, *link, h_q.total)
        verify_bounded_transfer(t, s, g, obstruction).require(
            "constrained obstruction")
        return obstruction, part, induced
    return h_q, part, induced


def solve_bounded_transfer(
    t: Sequence[int], s: Sequence[int], g: RationalFunction
) -> Union[BoundedTransfer, ConstrainedObstruction]:
    """Constrained transfer solution recentered to a certified sup-norm bound.

    Returns (H, C) with h(t(x)) - h(x) = g(x), H s-invariant, C the
    partial-sum bound, and sup |H| <= 2C; recentering subtracts the
    midrange of H on each joint (s,t)-class, which preserves both defining
    identities.  Absent exactly when the constrained solve is absent.

    The joint classes, the components of the union graph of s and t, are
    the lift of the invariance classes of the map t induces on the
    s-classes P.  That map is well defined: an edge y = s(x) gives t(y) =
    s(t(x)), as the maps commute, so t sends each class of P into one
    class, and the lifted classes are the components once t's edges are
    added.  Their ids stay in order of least points, each representative
    the class minimum: P's classes are so numbered, so a joint class's
    least s-class holds its least point.  H is h_q on each s-class, so the
    midranges are taken over h_q on the quotient, on its numerators over
    twice its denominator.
    """
    h_q, part, induced = _solve_on_quotient(t, s, g)
    if isinstance(h_q, ConstrainedObstruction):
        return h_q
    bound_c = partial_sum_bound(t, g)
    joint = invariance_classes(induced)
    members: list = [[] for _ in range(joint.n_classes)]
    for c, value in zip(joint.class_of, h_q.numerators):
        members[c].append(value)
    mids = [max(values) + min(values) for values in members]
    centered = _from_integers(
        [2 * h_q.numerators[c] - mids[joint.class_of[c]]
         for c in part.class_of], 2 * h_q.denom)
    _check_bounded(t, s, g, centered, bound_c).require(
        "recentered solution")
    return BoundedTransfer(centered, bound_c)

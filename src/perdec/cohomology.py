"""Solvers for the transfer equation h(Tx) - h(x) = g(x) and its bounded,
s-invariant variant.

`solve_bounded_transfer` walks the acting map's `orbits.cycles` on the
quotient by s's classes, with no exponent search bound, and centres each
class of that walk; C is one more pass over the cycles.
Absence is always certified: the caller gets the offending self-relation
T^k S^l x = S^{l2} x (a cycle: S the identity) with its nonzero sum.
"""

from __future__ import annotations

from typing import Sequence, Union

from .check import (
    BoundedTransfer,
    ConstrainedObstruction,
    _check_bounded,
    _match_lengths,
    transfer_bound,
    verify_bounded_transfer,
)
from .core import (
    InternalContractViolation,
    PreconditionError,
    RationalFunction,
    _canonical,
    _from_integers,
    commute_witness,
    is_invariant,
)
from .orbits import cycles, find_relation, induced_map, iterate


def _transfer_walk(
    t: Sequence[int], g: RationalFunction
) -> Union[RationalFunction, ConstrainedObstruction]:
    """Solve h(t(x)) - h(x) = g(x) exactly, with h centred on each weak
    class, max + min = 0 there, with no check of the answer: its one
    caller, `solve_bounded_transfer`, checks each answer once, on the
    ground maps.

    A solution exists iff the g-sum around every cycle of `orbits.cycles`
    vanishes; otherwise the first nonzero one (by class order) is the
    witness T^k x = x, the ConstrainedObstruction with S the identity and
    l = l2 = 0.  h runs from 0 around each cycle and back along the tails,
    all on g's numerators, and each class then subtracts its midrange:
    2h - (max + min) over twice g's denominator.
    """
    from fractions import Fraction

    _match_lengths(g, t)
    class_of, reps, found, tails = cycles(t)
    numerators = g.numerators
    values = [0] * len(g)
    for cycle in found:
        h = 0
        for p in cycle:
            values[p] = h
            h += numerators[p]
        if h:
            return ConstrainedObstruction(cycle[0], len(cycle), 0, 0,
                                          Fraction(h, g.denom))
    for x in tails:
        values[x] = values[t[x]] - numerators[x]
    high = [values[x] for x in reps]
    low = high[:]
    for v, c in zip(values, class_of):
        if v > high[c]:
            high[c] = v
        elif v < low[c]:
            low[c] = v
    return _from_integers([2 * v - high[c] - low[c]
                           for v, c in zip(values, class_of)], 2 * g.denom)


def solve_bounded_transfer(
    t: Sequence[int], s: Sequence[int], g: RationalFunction
) -> Union[BoundedTransfer, ConstrainedObstruction]:
    """Constrained transfer solution centred to a certified sup-norm bound.

    Returns (H, C) with h(t(x)) - h(x) = g(x), H s-invariant, C =
    `transfer_bound` of H, and sup |H| <= 2C, as H's max and min cancel
    on each joint (s,t)-class; or, when no s-invariant solution exists,
    the ConstrainedObstruction that certifies it.

    H is `_transfer_walk` on the quotient by s's invariance classes P,
    lifted to points.  The maps commute and g is s-invariant (both checked
    up front), so an edge y = s(x) gives t(y) = s(t(x)): t sends each
    class c of P into induced(c), g is g_q(c) on c, and the walk's
    identity on the quotient holds at each point.  The induced map's
    classes lift to the joint classes, the components once t's edges join
    P's, so the walk's centring centres H on each.  It is solvable iff the
    g-sum along T^i x, i < k, vanishes whenever T^k S^l x = S^{l2} x;
    otherwise the walk's quotient cycle lifts to that witness with its
    nonzero sum, which `verify_bounded_transfer` replays on the ground
    maps, as `_check_bounded` checks H there.
    """
    _match_lengths(g, t, s)
    w = commute_witness(t, s)
    if w is not None:
        raise PreconditionError(f"maps do not commute at x={w}")
    if not is_invariant(s, g):
        raise PreconditionError("right side is not s-invariant")
    part, induced = induced_map(t, s)
    g_q = _from_integers([g.numerators[x] for x in part.representative],
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
        return obstruction
    # every class of P holds a point, so the lift keeps h_q's canonical pair
    solution = _canonical(tuple(map(h_q.numerators.__getitem__,
                                    part.class_of)), h_q.denom)
    bound_c = transfer_bound(t, solution)
    _check_bounded(t, s, g, solution, bound_c).require("recentered solution")
    return BoundedTransfer(solution, bound_c)

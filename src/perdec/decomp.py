"""Constructive invariant-sum decompositions of a function on a finite set.

Every construction returns either a verified Decomposition or the
violation of `check_star`, the one producer of refusal certificates; none
returns an unverified result.  On a finite domain f decomposes exactly
when its mixed difference vanishes, for every number of transforms, and
`decompose_n` proves it by building the parts from cycle averages; a
refusal is always the first point where the mixed difference does not
vanish, and it costs one O(N) stencil pass.  `decompose_two` is its
n = 2 case and `decompose_three` its n = 3 case.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence, Tuple, Union

from .check import StarViolation, verify_parts
from .core import (
    CommutingSystem,
    Decomposition,
    InternalContractViolation,
    PreconditionError,
    RationalFunction,
    _from_integers,
    validate_system,
)
from .orbits import _label_classes
from .star import check_star

DecompOutcome = Union[Decomposition, StarViolation]


def scaled_cycle_means(t: Sequence[int], values: Sequence[int]
                       ) -> Tuple[Tuple[int, ...], list[int], int]:
    """(class_of, sums, scale): the mean of the integer values over the
    cycle that x's forward orbit enters is sums[class_of[x]] / scale.

    E, the projection onto the t-invariant functions along the image of
    g -> g o t - g (see `decompose_n`), on integer numerators.  scale is
    the lcm of t's cycle lengths, so a cycle of length L has mean
    (scale // L) * (its sum) / scale, an integer over scale with no
    division.  The class walk records one point on each cycle, and one
    turn from it sums the cycle and counts its length.
    """
    class_of, _, on_cycle = _label_classes(t)
    lengths = [0] * len(on_cycle)
    sums = [0] * len(on_cycle)
    for c, x in enumerate(on_cycle):
        total, length, y = values[x], 1, t[x]
        while y != x:
            total += values[y]
            length += 1
            y = t[y]
        lengths[c], sums[c] = length, total
    scale = lcm(*lengths)
    return class_of, [scale // length * total for length, total
                      in zip(lengths, sums)], scale


def decompose_n(system: CommutingSystem,
                f: RationalFunction) -> DecompOutcome:
    """Split f into one T_j-invariant part per transform of the system,
    or refuse.

    Project, subtract, repeat: f_j = E_j(f - f_1 - ... - f_{j-1}) for
    j < n, where E_j is the cycle average under T_j (`scaled_cycle_means`),
    and f_n is what remains.  Parts come back in the order of the
    system's transforms; the system checked once that they commute, so
    nothing here checks it again.  When f does not split the refusal is
    check_star's violation, a point where the mixed difference
    D_1...D_n f (D_j f = f o T_j - f) is nonzero.

    Why this splits every f whose mixed difference vanishes: let P f =
    f o T.  If (P - I)^2 f = 0 then D f is constant on each component of
    T, and its sum around the component's cycle is zero, so D f = 0;
    hence ker(P - I) = ker(P - I)^2 and the functions split as Inv(T) +
    im(P - I).  The projection E onto Inv(T) along im(P - I) is the cycle
    average, and it commutes with every P_i of a commuting T_i, since T_i
    maps T-cycles onto T-cycles.  Write r_j = f - f_1 - ... - f_j =
    (I - E_j) r_{j-1}, r_0 = f.  If D_j...D_n r_{j-1} = 0, then g =
    D_{j+1}...D_n r_{j-1} is T_j-invariant, so D_{j+1}...D_n r_j =
    (I - E_j) g = 0.  By induction D_n r_{n-1} = 0: the last part is
    T_n-invariant, and f_j = E_j r_{j-1} is T_j-invariant by construction.
    The mixed difference is necessary as well (it kills each invariant
    part), so on a finite domain it decides decomposability for every n.

    For three maps t, s, u the paper builds the parts from two transfer
    equations whose correction constants depend on which prescribed
    relations T^k S^l x = T^{k2} S^{l2} x, k > k2, hold in each class;
    the cycle-average split fixes the gauge instead, so no part depends
    on them or on an exponent bound.  On a finite set that case split has
    one case.  The map t induces on the s-classes (`orbits.induced_map`)
    repeats within N steps, giving k > k2 with t^k x and t^{k2} x in one
    s-class, and two points of one s-class meet under s within N steps
    (`orbits.find_relation`), so every point carries both the (s, t) and
    the (u, t) relation.

    One common denominator: the projections run on integer numerators
    over D = denom(f) scale_1 ... scale_{n-1}, where scale_j is the lcm
    of T_j's cycle lengths.  Step j multiplies the rest and D by scale_j;
    a T_j-cycle of length L then has mean (scale_j // L) times the sum of
    the unscaled rest over the cycle, over the new D.  That is an exact
    integer because L divides scale_j, whatever the earlier steps left in
    the numerators.  The scales multiply: each step divides by its own
    map's cycle lengths once more, so one lcm over all maps is not always
    enough.  The returned values still reduce to small denominators: that
    of part j at x divides denom(f) L_1(x)...L_j(x), with L_i(x) the
    length of the T_i-cycle that x's orbit enters, at most
    denom(f) N^(n-1), since T_j^m maps the T_i-cycle entered by x onto
    the one entered by T_j^m x.

    No step builds a Fraction.  The parts sum to f by construction and
    part j < n is constant on its classes, so they fail verification only
    where the final rest is not T_n-invariant, an integer test; then the
    refusal is check_star's.  Otherwise part j < n is its class sums
    spread over the points, over the D of step j, and part n the final
    rest over the final D, each reduced to its canonical pair by
    `_from_integers`; the parts are verified on those numerators before
    they are returned.

    On a lattice window's axis maps (`lattice.axis_maps`) every cycle is
    a point of an upper face, fixed by its map, so E_j reads the rest off
    the upper face x_j = w_j - 1 and spreads it along axis j, and every
    scale is 1.
    """
    if not system.n:
        raise PreconditionError("decomposition needs at least one transform")
    if len(f) != system.size:
        raise PreconditionError("function length does not match the domain")
    rest, denom = list(f.numerators), f.denom
    means = []
    for t in system.transforms[:-1]:
        class_of, sums, scale = scaled_cycle_means(t, rest)
        rest = [scale * v - sums[c] for v, c in zip(rest, class_of)]
        denom *= scale
        means.append((class_of, sums, denom))
    if list(map(rest.__getitem__, system.transforms[-1])) != rest:
        violation = check_star(system, f)
        if violation is None:
            raise InternalContractViolation(
                "the last part is not invariant but the mixed difference "
                "vanishes")
        return violation
    parts = [_from_integers(map(sums.__getitem__, class_of), part_denom)
             for class_of, sums, part_denom in means]
    parts.append(_from_integers(rest, denom))
    decomposition = Decomposition(tuple(parts))
    verify_parts(system.transforms, f, decomposition.parts).require(
        "projection construction")
    return decomposition


def decompose_two(s: Sequence[int], t: Sequence[int],
                  f: RationalFunction) -> DecompOutcome:
    """`decompose_n` on the system of s and t: parts ordered like the
    arguments."""
    return decompose_n(validate_system([s, t], len(f)), f)


def decompose_three(t: Sequence[int], s: Sequence[int], u: Sequence[int],
                    f: RationalFunction) -> DecompOutcome:
    """`decompose_n` on the system of t, s and u: parts ordered like the
    arguments."""
    return decompose_n(validate_system([t, s, u], len(f)), f)

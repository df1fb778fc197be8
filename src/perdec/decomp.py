"""Constructive invariant-sum decompositions of a function on a finite set.

Every construction returns either a verified Decomposition or the
violation of `check_star`, the one producer of refusal certificates; none
returns an unverified result.  On a finite domain f decomposes exactly
when its mixed difference vanishes, for every number of transforms, and
`decompose_n` proves it by building the parts from cycle averages; a
refusal is always the first point where the mixed difference does not
vanish, and it costs one O(N) stencil pass.  `decompose_two` and
`decompose_three` build the parts of the n = 2 and n = 3 cases in their
own gauges, by propagation and by transfer equations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple, Union

from .cohomology import cycle_average, orbit_sum, solve_transfer_pair
from .core import (
    BoundTooSmallError,
    Decomposition,
    InternalContractViolation,
    PreconditionError,
    RationalFunction,
    delta,
    iterate,
    validate_system,
    verify_decomposition,
)
from .orbits import Relation, default_bound, joint_classes
from .star import StarViolation, check_star

DecompOutcome = Union[Decomposition, StarViolation]


def decompose_n(transforms: Sequence[Sequence[int]],
                f: RationalFunction) -> DecompOutcome:
    """Split f into one T_j-invariant part per transform, or refuse.

    Project, subtract, repeat: f_j = E_j(f - f_1 - ... - f_{j-1}) for
    j < n, where E_j = `cycle_average` under T_j, and f_n is what remains.
    Parts come back in the order of `transforms`.  When they fail
    verification the refusal is check_star's violation, a point where the
    mixed difference D_1...D_n f (D_j f = f o T_j - f) is nonzero.

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

    Denominators stay small: with L_i(x) the length of the T_i-cycle that
    x's orbit enters, r_j(x) has a denominator dividing denom(f) times
    L_1(x)...L_j(x).  By induction: E_j r_{j-1}(x) is a sum over the
    T_j-cycle entered by x, divided by L_j(x), and each point c = T_j^m x
    on that cycle has L_i(c) dividing L_i(x), because T_j^m maps the
    T_i-cycle Z entered by x onto the one entered by c, whose points
    T_i^|Z| fixes.  So every part value has a denominator dividing
    denom(f) times n - 1 cycle lengths, at most denom(f) N^(n-1).
    """
    if not transforms:
        raise PreconditionError("decomposition needs at least one transform")
    system = validate_system(transforms, len(f))
    parts = []
    rest = f
    for t in system.transforms[:-1]:
        part = cycle_average(t, rest)
        parts.append(part)
        rest = rest - part
    parts.append(rest)
    decomposition = Decomposition(tuple(parts))
    if verify_decomposition(system, f, decomposition):
        return decomposition
    violation = check_star(system, f)
    if violation is None:
        raise InternalContractViolation(
            "projection construction failed verification but the mixed "
            "difference vanishes")
    return violation


def decompose_two(s: Sequence[int], t: Sequence[int],
                  f: RationalFunction) -> DecompOutcome:
    """Split f into an s-invariant and a t-invariant part, or refuse.

    The s-invariant part g is built by propagation: on each joint class
    g(x0) = f(x0) at the class minimum x0, g stays equal across every
    s-edge and f - g across every t-edge, walking edges both ways.  Any
    two decompositions differ by a function constant on joint classes,
    which the pin at x0 fixes, so when f decomposes at all (g, f - g) is
    the one decomposition with that pin.  Parts come back in the argument
    order (s, t).

    When the built parts fail verification the refusal is check_star's
    violation, a point where the double difference along (s, t) is
    nonzero.  That this point exists on a finite domain is the n = 2 case
    of decompose_n's theorem; directly: when the double
    difference vanishes, D = f(t.) - f is s-invariant, so it is the
    t-difference of an s-invariant function iff its sum around every
    t-cycle of s-classes is zero.  Such a cycle t^m s^a x = s^b x sums to
    f(s^b x) - f(s^a x); as f(s.) - f is t-invariant, f grows by that same
    amount at each step along s^(a + r(b - a)) x, and a finite domain
    forces it to be zero.
    """
    system = validate_system([s, t], len(f))
    size = system.size
    edges: list = [[] for _ in range(size)]
    for x in range(size):
        for y, across_t in ((s[x], False), (t[x], True)):
            edges[x].append((y, across_t))
            edges[y].append((x, across_t))
    values: list = [None] * size
    for x0 in range(size):
        if values[x0] is not None:
            continue
        values[x0] = f[x0]
        stack = [x0]
        while stack:
            x = stack.pop()
            for y, across_t in edges[x]:
                if values[y] is None:
                    values[y] = (values[x] + f[y] - f[x] if across_t
                                 else values[x])
                    stack.append(y)
    g = RationalFunction(tuple(values))
    decomposition = Decomposition((g, f - g))
    if verify_decomposition(system, f, decomposition):
        return decomposition
    violation = check_star(system, f)
    if violation is None:
        raise InternalContractViolation(
            "two-part construction failed verification but the partition "
            "condition passes")
    return violation


def _forced_constant(t: Sequence[int], g: RationalFunction, x: int,
                     rel: Relation) -> Fraction:
    """-1/(k - k2) times the sum of g along T^i x for i in [k2, k)."""
    steps = rel.k - rel.k2
    return -orbit_sum(t, g, iterate(t, rel.k2, x), steps) / steps


def decompose_three(t: Sequence[int], s: Sequence[int], u: Sequence[int],
                    f: RationalFunction,
                    bound: Optional[int] = None) -> DecompOutcome:
    """Split f into t-, s-, and u-invariant parts, or refuse.

    Returns parts (g, h, l) ordered like the arguments (t, s, u).
    """
    outcome, _ = decompose_three_report(t, s, u, f, bound)
    return outcome


def decompose_three_report(
    t: Sequence[int], s: Sequence[int], u: Sequence[int],
    f: RationalFunction, bound: Optional[int] = None,
) -> Tuple[DecompOutcome, dict]:
    """decompose_three plus per-class branch diagnostics.

    The report maps each joint-class representative to which correction
    branch applied: "neither", "s-only", "u-only", or "both", meaning
    which of the (s,t)- and (u,t)-prescribed point kinds were found in
    the class within the bound.
    """
    from .orbits import prescribed_points

    system = validate_system([t, s, u], len(f))
    size = system.size
    if bound is None:
        bound = default_bound(size)
    violation = check_star(system, f)
    if violation is not None:
        return violation, {"branches": {}}

    big_f = delta(t, f)
    two = decompose_two(s, u, big_f)
    if isinstance(two, StarViolation):
        raise InternalContractViolation(
            "derivative of a condition-passing function failed the "
            "two-transform conditions")
    part_h, part_l = two.parts  # s-invariant, u-invariant

    pres_s = prescribed_points(s, t, bound)
    pres_u = prescribed_points(u, t, bound)
    joint = joint_classes(system, (0, 1, 2))
    joint_st = joint_classes(system, (0, 1))
    joint_ut = joint_classes(system, (0, 2))

    def one_per_subclass(members, partition) -> list:
        seen = set()
        picks = []
        for x in members:
            c = partition.class_of[x]
            if c not in seen:
                seen.add(c)
                picks.append(x)
        return picks

    chi_pins: Dict[int, Fraction] = {}
    lam_pins: Dict[int, Fraction] = {}
    branches: Dict[int, str] = {}
    for c in range(joint.n_classes):
        members = joint.members(c)
        ws = next(((x, pres_s[x]) for x in members if x in pres_s), None)
        wu = next(((x, pres_u[x]) for x in members if x in pres_u), None)
        if ws is None and wu is None:
            branch = "neither"
            chi_value: Optional[Fraction] = Fraction(0)
            lam_value: Optional[Fraction] = Fraction(0)
        elif ws is not None and wu is None:
            branch = "s-only"
            chi_value = _forced_constant(t, part_h, ws[0], ws[1])
            lam_value = -chi_value
        elif wu is not None and ws is None:
            branch = "u-only"
            lam_value = _forced_constant(t, part_l, wu[0], wu[1])
            chi_value = -lam_value
        else:
            branch = "both"
            chi_value = None
            lam_value = None
        branches[joint.representative[c]] = branch
        if chi_value is not None:
            for x in one_per_subclass(members, joint_st):
                chi_pins[x] = chi_value
            for x in one_per_subclass(members, joint_ut):
                lam_pins[x] = lam_value

    try:
        sol_h = solve_transfer_pair(t, s, part_h,
                                    class_values=chi_pins or None)
        sol_l = solve_transfer_pair(t, u, part_l,
                                    class_values=lam_pins or None)
    except PreconditionError as exc:
        raise BoundTooSmallError(
            "correction constants chosen from bounded prescribed-point "
            f"classification are inconsistent: {exc}") from exc
    chi, lam = sol_h.correction, sol_l.correction
    if not (chi + lam).is_zero():
        raise InternalContractViolation(
            "correction functions do not cancel on a class with both "
            "prescribed kinds")
    h, l = sol_h.solution, sol_l.solution
    g = f - h - l
    decomposition = Decomposition((g, h, l))
    verify_decomposition(system, f, decomposition).require(
        "three-part construction")
    return decomposition, {"branches": branches}

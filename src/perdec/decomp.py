"""Constructive invariant-sum decompositions for two and three transforms.

Both constructions return either a verified Decomposition or the
StarViolation that blocks it; they never return an unverified result.
For four or more transforms no construction is known and the linear
oracle is the only decision procedure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple, Union

from .cohomology import orbit_sum, solve_transfer_pair
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
from .orbits import Relation, default_bound, find_relation, joint_classes
from .star import (
    StarInstance,
    StarViolation,
    check_star,
    compatibility_violation,
    mixed_pair_violation,
)

DecompOutcome = Union[Decomposition, StarViolation]


def decompose_one(t: Sequence[int], f: RationalFunction) -> DecompOutcome:
    """One transform: f decomposes iff it is already t-invariant."""
    validate_system([t], len(f))
    for x in range(len(f)):
        value = f[t[x]] - f[x]
        if value != 0:
            instance = StarInstance(blocks=((0,),), distinguished=(0,),
                                    exponents=(1,), premises=(), z=x)
            return StarViolation(instance, value, "MixedDeltaNonzero")
    return Decomposition((f,))


def decompose_two(s: Sequence[int], t: Sequence[int], f: RationalFunction,
                  bound: Optional[int] = None) -> DecompOutcome:
    """Split f into an s-invariant and a t-invariant part, or refuse.

    Succeeds iff the double difference vanishes and every relation
    T^k S^n x = T^{k2} S^{n2} x (exponents <= bound) gives
    f(T^k x) = f(T^{k2} x).  The s-invariant part is
    g(x) = f(T^{k2} x0) - f(T^k x) + f(x) with x0 the representative of
    x's joint class and (k, n, k2, n2) the first witness relation linking
    x to x0; the value does not depend on the witness.  Parts come back
    as (g, f - g) matching the argument order (s, t).
    """
    system = validate_system([s, t], len(f))
    if bound is None:
        bound = default_bound(system.size)
    violation = mixed_pair_violation(s, t, f)
    if violation is not None:
        return violation
    violation = compatibility_violation(s, t, f, bound, side="t")
    if violation is not None:
        return violation
    joint = joint_classes(system, (0, 1))
    values: list = [None] * system.size
    for c in range(joint.n_classes):
        x0 = joint.representative[c]
        for x in joint.members(c):
            rel = find_relation(s, t, x, x0, bound)
            if rel is None:
                raise BoundTooSmallError(
                    f"no relation linking {x} to its representative {x0} "
                    f"within exponent bound {bound}")
            values[x] = (f[iterate(t, rel.k2, x0)] - f[iterate(t, rel.k, x)]
                         + f[x])
    g = RationalFunction(tuple(values))
    decomposition = Decomposition((g, f - g))
    verify_decomposition(system, f, decomposition).require(
        "two-part construction")
    return decomposition


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
    violation = check_star(system, f, bound)
    if violation is not None:
        return violation, {"branches": {}}

    big_f = delta(t, f)
    two = decompose_two(s, u, big_f, bound)
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

"""Constructive invariant-sum decompositions of a function on a finite set.

Every construction returns either a verified Decomposition or the
violation of `check_star`, the one producer of refusal certificates; none
returns an unverified result.  On a finite domain f decomposes exactly
when its mixed difference vanishes, for every number of transforms, and
`decompose_n` proves it by building the parts from cycle averages; a
refusal is always the first point where the mixed difference does not
vanish, and it costs one O(N) stencil pass.  `decompose_two` is its
n = 2 case and `decompose_three` its n = 3 case; the report of the
latter classifies prescribed points without changing parts.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from .cohomology import cycle_average
from .core import (
    Decomposition,
    InternalContractViolation,
    PreconditionError,
    RationalFunction,
    validate_system,
    verify_decomposition,
)
from .orbits import default_bound, joint_classes, prescribed_points
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

    The n = 2 case of `decompose_n`: the parts are (E_s f, f - E_s f),
    ordered like the arguments (s, t), and a refusal is check_star's
    violation, the first point where the double difference is nonzero.
    """
    return decompose_n([s, t], f)


def decompose_three(t: Sequence[int], s: Sequence[int], u: Sequence[int],
                    f: RationalFunction) -> DecompOutcome:
    """Split f into t-, s-, and u-invariant parts, or refuse.

    The n = 3 case of `decompose_n`: parts (g, h, l) ordered like the
    arguments (t, s, u), or check_star's violation.  The paper builds the
    parts from two transfer equations whose correction constants depend
    on the prescribed points of each class; the cycle-average split fixes
    the gauge instead, so no part depends on them or on an exponent bound.
    """
    return decompose_n([t, s, u], f)


_BRANCHES = {(False, False): "neither", (True, False): "s-only",
             (False, True): "u-only", (True, True): "both"}


def decompose_three_report(
    t: Sequence[int], s: Sequence[int], u: Sequence[int],
    f: RationalFunction, bound: Optional[int] = None,
) -> Tuple[DecompOutcome, dict]:
    """decompose_three plus the paper's per-class case split.

    The report maps each joint-class representative to "neither",
    "s-only", "u-only" or "both": which of the (s,t)- and (u,t)-prescribed
    point kinds `prescribed_points` finds in the class within the
    exponent bound (default `default_bound`).  It is a diagnostic only:
    the parts are decompose_three's, whatever the bound.
    """
    outcome = decompose_three(t, s, u, f)
    if isinstance(outcome, StarViolation):
        return outcome, {"branches": {}}
    if bound is None:
        bound = default_bound(len(f))
    pres_s = prescribed_points(s, t, bound)
    pres_u = prescribed_points(u, t, bound)
    joint = joint_classes(validate_system([t, s, u], len(f)), (0, 1, 2))
    branches = {
        members[0]: _BRANCHES[any(x in pres_s for x in members),
                              any(x in pres_u for x in members)]
        for members in joint.classes()}
    return outcome, {"branches": branches}

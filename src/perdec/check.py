"""Every certificate type and the one checker for each.

The producers run these checkers on their results before returning them
and --verify runs them on stored ones, so this module imports only `core`
and `orbits`: a replay loads none of the code it checks.  Each result
type that --verify reads has one public checker here: `verify_parts` for
a decomposition, `replay_violation` for a star violation,
`verify_star_pass` for a pass, `verify_dual`, `verify_bounded_transfer`
(its bound C is `transfer_bound` of the solution, read once the solution
solves the transfer) and `verify_report`.  A star violation is its
blocks, z and nonzero value, and replays as the one stencil its blocks
give: on map tables the n singletons, on a z-window one step per block
at the block's signed least common multiple.
"""

from __future__ import annotations

from functools import partial
from math import lcm
from operator import add
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, Optional,
                    Sequence, Union)

from .core import (
    PreconditionError,
    RationalFunction,
    VerificationResult,
    _Record,
    _mixed_difference,
    is_invariant,
    window_difference,
)
from .orbits import Partition, cycles, iterate, rho, rho_steps

if TYPE_CHECKING:
    from fractions import Fraction


class StarViolation(_Record):
    """A nonzero mixed difference of the partition condition: the blocks
    of the transform indices, the point z and the stencil's value there.
    The heads, exponents and premises of the paper's instance follow from
    the blocks (`star`), so a violation stores none of them."""

    blocks: tuple[tuple[int, ...], ...]
    z: int
    value: Fraction


class DualCertificate(_Record):
    """A linear functional on value tables proving non-decomposability.

    Pairs to zero with every invariance-kernel basis function of the system
    and to a nonzero value with the target f; `verify_dual` checks both.
    """

    weights: RationalFunction


class ConstrainedObstruction(_Record):
    """Witness T^k S^l x = S^{l2} x whose orbit sum of G is nonzero."""

    x: int
    k: int
    l: int
    l2: int
    total: Fraction


class BoundedTransfer(_Record):
    """solution plus the bound C on its sup norm: its largest change along
    a forward orbit of t, the largest |partial sum| of g."""

    solution: RationalFunction
    bound: Fraction


class SearchReport(_Record):
    """Outcome of a randomized search over commuting systems: its
    parameters and its counts.  The systems are finite, where a star pass
    splits, so there is no candidate to list."""

    n: int
    max_size: int
    trials: int
    seed: int
    star_pass: int
    star_fail: int
    oracle_feasible: int
    oracle_infeasible: int
    necessity_checked: int
    necessity_violations: int
    discrepancies: int


def _match_lengths(g: RationalFunction, *maps: Sequence[int]) -> None:
    """Refuse maps whose tables are not as long as g's domain."""
    if any(len(m) != len(g) for m in maps):
        raise PreconditionError("transform length does not match function")


def verify_parts(tables: Sequence[Sequence[int]], f: RationalFunction,
                 parts: Sequence[RationalFunction]) -> VerificationResult:
    """Exact check that parts split f, one part per map table, part j
    invariant under tables[j]; tables not as long as f raise
    PreconditionError.  The reason names the first defect:
    "LengthMismatch(j)", then "SumMismatch(x)", then "NotInvariant(j,x)"
    where part j differs at x and at tables[j][x].  A fixed point
    constrains nothing, so a window shift completed by fixed points
    checks its in-window pairs.

    All on integers: f and the parts are scaled to one lcm of their n + 1
    denominators and summed point by point, and a part is invariant when
    its numerators read through its map are its numerators.  Each scaled
    numerator is as long as that lcm, so the check costs O((n + 1) N) big-
    int operations on numbers of the lcm's length: small when the
    functions share few distinct denominators, up to quadratic in the
    input when the denominators are pairwise coprime (see
    `values_from_json`).
    """
    _match_lengths(f, *tables)
    if len(parts) != len(tables):
        return VerificationResult(False,
                                  "part count differs from transform count")
    for j, part in enumerate(parts):
        if len(part) != len(f):
            return VerificationResult(False, f"LengthMismatch({j})")
    denom = lcm(f.denom, *(part.denom for part in parts))

    def scaled(g: RationalFunction) -> list[int]:
        k = denom // g.denom
        return list(g.numerators) if k == 1 else [k * v for v in g.numerators]

    def first_difference(a: Sequence[int], b: Sequence[int]) -> int:
        return next(x for x, (u, v) in enumerate(zip(a, b)) if u != v)

    total = [0] * len(f)
    for part in parts:
        total = list(map(add, total, scaled(part)))
    want = scaled(f)
    if total != want:
        return VerificationResult(
            False, f"SumMismatch({first_difference(total, want)})")
    for j, (t, part) in enumerate(zip(tables, parts)):
        numerators = part.numerators
        moved = tuple([numerators[y] for y in t])
        if moved != numerators:
            return VerificationResult(
                False,
                f"NotInvariant({j},{first_difference(moved, numerators)})")
    return VerificationResult(True)


def stencil_weights(z: int, steps: Iterable[Callable[[int], int]],
                    size: int) -> Optional[Dict[int, int]]:
    """The point weights of the mixed difference at z with factors
    g -> g o step - g, as {point: nonzero integer}, or None when a step
    leaves [0, size).  Walked one factor at a time, each sending c at w to
    -c at w and +c at step(w), so at most min(size, 2^factors) points are
    live."""
    coeffs = {z: 1}
    for step in steps:
        moved: Dict[int, int] = {}
        for w, c in coeffs.items():
            moved[w] = moved.get(w, 0) - c
            u = step(w)
            if not 0 <= u < size:
                return None
            moved[u] = moved.get(u, 0) + c
        coeffs = {w: c for w, c in moved.items() if c}
    return coeffs


def stencil_value(f: RationalFunction, z: int,
                  steps: Iterable[Callable[[int], int]]) -> Optional[int]:
    """The numerator over f.denom of the mixed difference of f at z with
    factors g -> g o step - g, or None when a step leaves [0, len(f)):
    f paired with `stencil_weights`, so only the stencil's points are
    read."""
    coeffs = stencil_weights(z, steps, len(f))
    if coeffs is None:
        return None
    numerators = f.numerators
    return sum(c * numerators[w] for w, c in coeffs.items())


def _block_offset(shifts: Sequence[int],
                  block: tuple[int, ...]) -> Optional[int]:
    """The block's signed offset: the least common multiple of its member
    shifts, the least k * a_head, k >= 1, that passes the block's premises
    whichever member is the head.  None when the block is empty, holds a
    zero shift (whose stencil is zero) or shifts of both signs (no common
    multiple)."""
    members = [shifts[i] for i in block]
    if not members or min(members) <= 0 <= max(members):
        return None
    step = lcm(*members)
    return step if members[0] > 0 else -step


def replay_violation(f: RationalFunction, violation: StarViolation,
                     tables: Sequence[Sequence[int]] = (),
                     shifts: Optional[Sequence[int]] = None) -> bool:
    """A stored violation replays when its blocks fit the instance, z is
    in range and the mixed difference at z, one `stencil_value`, is the
    stored nonzero value.

    On total map tables the blocks must be the n singletons in order, the
    all-singleton stencil `check_star` emits, read over the tables
    O(n * min(N, 2^n)) times: on a finite domain that condition decides
    alone (`decomp.decompose_n`), so no producer emits another.  On a
    window of Z with the given shifts, the blocks must partition the shift
    indices, each with a signed offset (`_block_offset`); the stencil
    steps w -> w + offset fail when they leave the window."""
    blocks, z = violation.blocks, violation.z
    if shifts is None:
        if blocks != tuple((j,) for j in range(len(tables))):
            return False
        steps = [t.__getitem__ for t in tables]
    else:
        covered = sorted(i for block in blocks for i in block)
        if covered != list(range(len(shifts))):
            return False
        offsets = [_block_offset(shifts, block) for block in blocks]
        if None in offsets:
            return False
        steps = [partial(add, offset) for offset in offsets]
    if not 0 <= z < len(f):
        return False
    num = stencil_value(f, z, steps)
    v = violation.value
    return bool(num) and num * v.denominator == v.numerator * f.denom


def window_scan(shifts: Sequence[int], f_num: Sequence[int]
                ) -> Optional[tuple]:
    """The partition condition on a window of Z with maps x -> x + a_i:
    (blocks, z, value) of the first stencil nonzero in-window, or None
    when all vanish.  One stencil per set partition of the shift indices,
    most blocks first, then lexicographic, each block at its signed least
    common multiple (`_block_offset`); a partition with a block that has
    none, or whose offset leaves the window, has no stencil.  A window
    pass carries no certificate, so this scan is its checker, and the
    first hit is the violation `star.check_star_abelian` emits.

    Partitions are built block by block, each block grown from its least
    index and the last taking what is left, and the prefix stencil's row
    is carried down, one `window_difference` pass per block.  A prefix
    whose stencil vanishes in-window is dropped, as every stencil below
    it differences its zero row further.  So are the prefixes extending
    its last block: their offset is a multiple k o of the block's o, and
    x^{ko} - 1 = (x^o - 1)(1 + x^o + ... + x^{(k-1)o}), so each of their
    rows at z sums the dropped row at z, z + o, ..., which all fit where
    it fits.  A block out of reach, or leaving too few indices for the
    blocks still to come, is dropped with its extensions too."""
    size = len(f_num)

    def walk(blocks, lo, row, rest, count):
        # the first hit among the partitions that end in count blocks of
        # rest, below a prefix with a nonzero row
        if not count:
            j = next(j for j, v in enumerate(row) if v)
            return blocks, lo + j, row[j]
        # (block, indices that may join it), popped in lexicographic order
        stack = [(rest, ())] if count == 1 else [(rest[:1], rest[1:])]
        while stack:
            block, later = stack.pop()
            offset = _block_offset(shifts, block)
            if offset is None or abs(offset) >= size \
                    or len(rest) - len(block) < count - 1:
                continue
            shift, below = window_difference(row, (offset,))
            if not any(below):
                continue
            hit = walk(blocks + (block,), lo + shift, below,
                       tuple(i for i in rest if i not in block), count - 1)
            if hit is not None:
                return hit
            stack += [(block + (later[k],), later[k + 1:])
                      for k in reversed(range(len(later)))]
        return None

    for count in range(len(shifts), 0, -1):
        hit = walk((), 0, f_num, tuple(range(len(shifts))), count)
        if hit is not None:
            return hit
    return None


def verify_star_pass(f: RationalFunction,
                     tables: Sequence[Sequence[int]] = (),
                     shifts: Optional[Sequence[int]] = None
                     ) -> VerificationResult:
    """A star-check pass, which carries no certificate, by the condition
    itself: on total map tables the mixed difference vanishes; on a window
    of Z with the given shifts, `window_scan` finds no stencil."""
    f_num = f.numerators
    if shifts is None:
        failed = bool(tables) and any(_mixed_difference(tables, f_num))
    else:
        failed = bool(shifts) and window_scan(shifts, f_num) is not None
    if failed:
        return VerificationResult(False, "the star check fails on this "
                                         "instance")
    return VerificationResult(True)


def verify_dual(partitions: Sequence[Partition], f: RationalFunction,
                dual: DualCertificate) -> VerificationResult:
    """Check that dual proves f is no sum of parts, part j constant on the
    classes of partitions[j].

    The weights must pair to nonzero with f and sum to zero over every
    class of every partition.  A class sum is the pairing with that class's
    indicator, and the indicators span the functions constant on the
    classes.  Zero weights add nothing to either, so one pass finds the
    support and every sum runs over the support alone.
    """
    if len(dual.weights) != len(f):
        return VerificationResult(False,
                                  "weight count differs from domain size")
    # both sides scaled to integers by positive factors: the pairing keeps
    # its zero/nonzero answer
    numerators = dual.weights.numerators
    support = [x for x, w in enumerate(numerators) if w]
    weights = [numerators[x] for x in support]
    if not sum(w * f.numerators[x] for x, w in zip(support, weights)):
        return VerificationResult(False, "dual functional vanishes on f")
    for j, part in enumerate(partitions):
        sums: Dict[int, int] = {}
        for x, w in zip(support, weights):
            c = part.class_of[x]
            sums[c] = sums.get(c, 0) + w
        if any(sums.values()):
            return VerificationResult(
                False, f"dual functional does not vanish on an invariant "
                       f"function of part {j}")
    return VerificationResult(True)


def _check_bounded(t: Sequence[int], s: Sequence[int], g: RationalFunction,
                   h: RationalFunction,
                   bound_c: Fraction) -> VerificationResult:
    """h solves h(t(x)) - h(x) = g(x) at every x, on numerators over the
    lcm of the two denominators, is s-invariant and stays within 2C."""
    denom = lcm(h.denom, g.denom)
    a, b = denom // h.denom, denom // g.denom
    hn, gn = h.numerators, g.numerators
    for x in range(len(g)):
        if a * (hn[t[x]] - hn[x]) != b * gn[x]:
            return VerificationResult(False, f"transfer identity fails at {x}")
    if not is_invariant(s, h):
        return VerificationResult(False, "solution is not s-invariant")
    if h.max_abs() > 2 * bound_c:
        return VerificationResult(False, "solution exceeds twice the bound")
    return VerificationResult(True)


def transfer_bound(t: Sequence[int], h: RationalFunction) -> Fraction:
    """max |h(t^m x) - h(x)| over x and m >= 1: the largest |partial sum|
    of g from x when h solves h(t(x)) - h(x) = g(x).  hi[x] and lo[x],
    h's extremes over t(x), t^2(x), ..., are its cycle's on a cycle of
    `orbits.cycles`, and hi[x] = max(h(t(x)), hi[t(x)]) along the tails."""
    from fractions import Fraction

    _, _, found, tails = cycles(t)
    numerators = h.numerators
    hi, lo = [0] * len(h), [0] * len(h)
    for cycle in found:
        values = [numerators[p] for p in cycle]
        high, low = max(values), min(values)
        for p in cycle:
            hi[p], lo[p] = high, low
    for x in tails:
        y = t[x]
        hi[x], lo[x] = max(hi[y], numerators[y]), min(lo[y], numerators[y])
    return Fraction(max((max(a - v, v - b) for a, v, b
                         in zip(hi, numerators, lo)), default=0), h.denom)


def orbit_sum(t: Sequence[int], g: RationalFunction, x: int,
              steps: int) -> Fraction:
    """sum_{i < steps} g(t^i x) for any steps >= 0, in at most N steps:
    the sum over x's `rho` orbit up to `rho_steps`' point, plus its whole
    turns of the cycle."""
    from fractions import Fraction

    orbit, start = rho(t, x)
    prefix = [0]
    for p in orbit:
        prefix.append(prefix[-1] + g.numerators[p])
    turns, i = rho_steps(orbit, start, steps)
    total = prefix[i] + turns * (prefix[-1] - prefix[start])
    return Fraction(total, g.denom)


def verify_bounded_transfer(
    t: Sequence[int], s: Sequence[int], g: RationalFunction,
    result: Union[BoundedTransfer, ConstrainedObstruction],
) -> VerificationResult:
    """Check either answer of `cohomology.solve_bounded_transfer` against
    (t, s, g); with s the identity an obstruction is a cycle of t.  Tables
    not as long as g raise PreconditionError.

    A BoundedTransfer (H, C) must solve h(t(x)) - h(x) = g(x), which
    makes H's changes along t's orbits g's partial sums, before C must
    equal their largest, `transfer_bound` of H; H must be s-invariant
    with sup |H| <= 2C.  A ConstrainedObstruction (x, k, l, l2, total)
    must satisfy T^k S^l x = S^{l2} x, and the g-sum along T^i S^l x,
    i < k, must equal its nonzero total.  Exponents are reduced along the
    rho shape of each map, so any exponents replay in O(N) steps.
    """
    _match_lengths(g, t, s)
    size = len(g)
    if isinstance(result, BoundedTransfer):
        if len(result.solution) != size:
            return VerificationResult(False,
                                      "solution length differs from domain")
        verdict = _check_bounded(t, s, g, result.solution, result.bound)
        if verdict and transfer_bound(t, result.solution) != result.bound:
            return VerificationResult(False,
                                      "stored bound differs from recomputed")
        return verdict
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


def spot_trials(n: int, trials: int) -> int:
    """How many of trials 0 .. trials - 1 the search oracle-checks when
    their star check fails: all of them for n <= 3, and for n >= 4 every
    7th from trial 0.  The search checks trial i exactly when it raises
    this count, so the policy has this one definition."""
    return trials if n <= 3 else (trials + 6) // 7


def verify_report(report: SearchReport) -> VerificationResult:
    """A search report whose parameters and counts a search can produce.
    The search takes n >= 2 and max_size >= 2.  Every trial passes or
    fails the star check; every pass and every checked failure that is no
    necessity violation gets one oracle verdict; every refusal on a pass
    and every violation is a discrepancy.  The checked failures are the
    failing spot trials (`spot_trials`): at most the spots, and at least
    the spots that are no pass, so every failure for n <= 3.  A stored
    report is read by these fields alone: any other key, such as the
    "candidates" list of earlier releases, is ignored."""
    r = report
    spots = spot_trials(r.n, r.trials)
    if not (r.n >= 2 and r.max_size >= 2
            and min(r.star_pass, r.star_fail, r.oracle_feasible,
                    r.oracle_infeasible, r.necessity_violations) >= 0
            and r.star_pass + r.star_fail == r.trials
            and r.necessity_violations <= r.necessity_checked <= r.star_fail
            and r.oracle_feasible + r.oracle_infeasible == (
                r.star_pass + r.necessity_checked - r.necessity_violations)
            and r.discrepancies >= r.necessity_violations
            and r.discrepancies == (r.star_pass - r.oracle_feasible
                                    + r.necessity_violations)
            and spots - r.star_pass <= r.necessity_checked <= spots):
        return VerificationResult(False, "report counts no search produces")
    return VerificationResult(True)

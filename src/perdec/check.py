"""Every certificate type and the one checker for each.

The producers run these checkers on their results before returning them
and --verify runs them on stored ones, so this module imports only `core`
and `orbits`: a replay loads none of the code it checks.  Each result
type that --verify reads has one public checker here: `verify_parts` for
a decomposition, `replay_violation` for a star violation,
`verify_star_pass` for a pass, `verify_dual`, `verify_bounded_transfer`
and `verify_report`.  A star violation replays only as the one instance
its producer emits: on map tables the all-singleton stencil
`star.check_star` emits, on a z-window the `window_instance` of its
blocks that `star.check_star_abelian` emits.
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
    iterate,
    window_difference,
)
from .orbits import Partition, rho

if TYPE_CHECKING:
    from fractions import Fraction


class StarInstance(_Record):
    """One premise/conclusion instance of the partition condition.

    blocks partition the transform indices; distinguished[b] is block b's
    head; exponents[b] its k; premises holds one (i, l, l2) triple per
    non-distinguished index i, witnessing head^k i^l z = i^{l2} z.
    """

    blocks: tuple[tuple[int, ...], ...]
    distinguished: tuple[int, ...]
    exponents: tuple[int, ...]
    premises: tuple[tuple[int, int, int], ...]
    z: int


class StarViolation(_Record):
    """A premise-satisfying instance whose conclusion value is nonzero."""

    instance: StarInstance
    value: Fraction
    kind: str  # "MixedDeltaNonzero", the one kind


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
    """solution plus the partial-sum bound C controlling its sup norm."""

    solution: RationalFunction
    bound: Fraction


class SearchReport(_Record):
    """Outcome of a randomized search over commuting systems.

    The systems are finite, where a star pass splits, so the search finds
    no candidate and `candidates` is always empty; the field stays so the
    report keeps its shape on the wire."""

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
    candidates: tuple = ()


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
        moved = tuple(map(numerators.__getitem__, t))
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


def window_instance(shifts: Sequence[int], blocks: tuple[tuple[int, ...], ...],
                    z: int) -> Optional[StarInstance]:
    """The instance `star.check_star_abelian` emits for these blocks at z:
    each block headed by its first index, at the exponent that takes the
    head's shift to the block's signed offset o (`_block_offset`), with
    one premise (i, 0, o / a_i) per other member, sorted.  None when a
    block has no offset."""
    offsets = [_block_offset(shifts, block) for block in blocks]
    if None in offsets:
        return None
    premises = sorted((i, 0, o // shifts[i])
                      for block, o in zip(blocks, offsets) for i in block[1:])
    return StarInstance(blocks, tuple(block[0] for block in blocks),
                        tuple(o // shifts[block[0]]
                              for block, o in zip(blocks, offsets)),
                        tuple(premises), z)


def replay_violation(f: RationalFunction, violation: StarViolation,
                     tables: Sequence[Sequence[int]] = (),
                     shifts: Optional[Sequence[int]] = None) -> bool:
    """Re-derive a stored violation as the one instance its producer
    emits, with z in range, whose mixed difference at z, one
    `stencil_value`, is the stored nonzero value.  Any other instance
    does not replay.

    On total map tables that is the all-singleton instance `check_star`
    emits (blocks (0,), ..., (n-1,), heads 0..n-1 at exponent 1, no
    premises), its stencil read over the tables O(n * min(N, 2^n))
    times: on a finite domain the all-singleton condition decides alone
    (`decomp.decompose_n`), so no producer emits another.  On a window
    of Z with the given shifts, the stored blocks must partition the
    shift indices and the instance must be their `window_instance`, the
    one `star.check_star_abelian` emits; its stencil steps w -> w +
    k * a_head fail when they leave the window."""
    inst = violation.instance
    if shifts is None:
        n = len(tables)
        want = StarInstance(tuple((j,) for j in range(n)), tuple(range(n)),
                            (1,) * n, (), inst.z)
    else:
        covered = sorted(i for block in inst.blocks for i in block)
        if covered != list(range(len(shifts))):
            return False
        want = window_instance(shifts, inst.blocks, inst.z)
    if inst != want or not 0 <= inst.z < len(f):
        return False
    steps = ([t.__getitem__ for t in tables] if shifts is None
             else [partial(add, k * shifts[h])
                   for h, k in zip(inst.distinguished, inst.exponents)])
    num = stencil_value(f, inst.z, steps)
    v = violation.value
    return bool(num) and num * v.denominator == v.numerator * f.denom


def window_scan(shifts: Sequence[int], f_num: Sequence[int]
                ) -> Optional[tuple]:
    """The partition condition on a window of Z with maps x -> x + a_i:
    (blocks, z, value) of the first stencil nonzero in-window, or None
    when all vanish.  One stencil per set partition of the shift indices,
    most blocks first, then lexicographic, each block at its signed least
    common multiple (`_block_offset`); a partition with a block that has
    none, or whose offset leaves the window, has no stencil.  A window pass carries no certificate,
    so this scan is its checker, and `star.check_star_abelian` builds its
    violation from the first hit.

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


def partial_sum_bound(t: Sequence[int], g: RationalFunction,
                      horizon: Optional[int] = None) -> Fraction:
    """max |sum_{i<m} g(t^i x)| over x and 1 <= m <= horizon (default 2N).

    On solvable instances the partial sums are eventually periodic in m
    with preperiod plus period at most N, so the default horizon sees
    every value.  The sums run on g's numerators, over its denominator.
    """
    from fractions import Fraction

    size = len(g)
    if horizon is None:
        horizon = 2 * size
    numerators = g.numerators
    top = 0
    for x in range(size):
        partial = 0
        p = x
        for _ in range(horizon):
            partial += numerators[p]
            p = t[p]
            if abs(partial) > top:
                top = abs(partial)
    return Fraction(top, g.denom)


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


def orbit_sum(t: Sequence[int], g: RationalFunction, x: int,
              steps: int) -> Fraction:
    """sum_{i < steps} g(t^i x) for any steps >= 0, in at most N steps:
    the sum over x's tail, whole turns of its cycle, then a partial turn."""
    from fractions import Fraction

    orbit, start = rho(t, x)
    prefix = [0]
    for p in orbit:
        prefix.append(prefix[-1] + g.numerators[p])
    if steps <= len(orbit):
        return Fraction(prefix[steps], g.denom)
    turns, rest = divmod(steps - start, len(orbit) - start)
    total = prefix[start + rest] + turns * (prefix[-1] - prefix[start])
    return Fraction(total, g.denom)


def verify_bounded_transfer(
    t: Sequence[int], s: Sequence[int], g: RationalFunction,
    result: Union[BoundedTransfer, ConstrainedObstruction],
) -> VerificationResult:
    """Check either answer of `cohomology.solve_bounded_transfer` against
    (t, s, g); with s the identity an obstruction is a cycle of t.  Tables
    not as long as g raise PreconditionError.

    A BoundedTransfer (H, C) must solve h(t(x)) - h(x) = g(x) with H
    s-invariant and sup |H| <= 2C, and C must equal the recomputed
    `partial_sum_bound`.  A ConstrainedObstruction (x, k, l, l2, total)
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


def verify_report(report: SearchReport) -> VerificationResult:
    """A search report whose parameters and counts a search can produce.
    The search takes n >= 2 and max_size >= 2.  Every trial passes or
    fails the star check; every pass and every checked failure that is no
    necessity violation gets one oracle verdict; and every violation is a
    discrepancy.  A report never lists a candidate: its reader refuses
    any."""
    r = report
    if not (r.n >= 2 and r.max_size >= 2
            and min(r.star_pass, r.star_fail, r.oracle_feasible,
                    r.oracle_infeasible, r.necessity_violations) >= 0
            and r.star_pass + r.star_fail == r.trials
            and r.necessity_violations <= r.necessity_checked <= r.star_fail
            and r.oracle_feasible + r.oracle_infeasible == (
                r.star_pass + r.necessity_checked - r.necessity_violations)
            and r.discrepancies >= r.necessity_violations):
        return VerificationResult(False, "report counts no search produces")
    return VerificationResult(True)

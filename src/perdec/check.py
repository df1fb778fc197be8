"""Every certificate type and the one checker for each.

The producers run these checkers on their results before returning them
and --verify runs them on stored ones, so this module imports only `core`
and `orbits`: a replay loads none of the code it checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import lcm
from operator import add, lt
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, Optional,
                    Sequence, Union)

from .core import (
    CommutingSystem,
    Decomposition,
    PreconditionError,
    RationalFunction,
    VerificationResult,
    _Record,
    _mixed_difference,
    integer_values,
    is_invariant,
    iterate,
    validate_system,
    window_difference,
)
from .orbits import Partition, invariance_classes, rho

if TYPE_CHECKING:
    from .lattice import LatticeWindow


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
    kind: str  # "MixedDeltaNonzero" | "CompatibilityFailure" (older output)


class DualCertificate(_Record):
    """A linear functional on value tables proving non-decomposability.

    Pairs to zero with every invariance-kernel basis function of the system
    and to a nonzero value with the target f; `verify_dual` checks both.
    """

    weights: RationalFunction

    def pair(self, f: RationalFunction) -> Fraction:
        return sum((w * v for w, v in zip(self.weights, f)), Fraction(0))


class CycleObstruction(_Record):
    """A T-cycle whose g-sum is nonzero, so h(Tx) - h(x) = g(x) is unsolvable."""

    points: tuple[int, ...]
    total: Fraction


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


class Candidate(_Record):
    """A star-pass oracle-infeasible instance with its dual weights."""

    trial: int
    size: int
    transforms: tuple[tuple[int, ...], ...]
    values: tuple[str, ...]
    dual_weights: tuple[str, ...]


class SearchReport(_Record):
    """Outcome of a randomized search over commuting systems."""

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
    candidates: tuple[Candidate, ...]


def first_parts_defect(tables: Sequence[Sequence[int]], f: Sequence[Fraction],
                       parts: Sequence[Sequence[Fraction]]
                       ) -> Optional[tuple[str, ...]]:
    """First defect of parts as a split of f, part j invariant under the
    map tables[j]: ("LengthMismatch", j), then ("SumMismatch", x), then
    ("NotInvariant", j, x) where part j differs at x and at tables[j][x];
    None when there is none.  A fixed point constrains nothing, so a
    window shift completed by fixed points checks its in-window pairs.

    Values are compared as (numerator, denominator) pairs, with no
    Fraction arithmetic.  Each point sums on integers over a denominator
    that grows only to the lcm of that point's own denominators, so no
    number outgrows what the Fraction sum would form.
    """
    for j, part in enumerate(parts):
        if len(part) != len(f):
            return ("LengthMismatch", j)
    target, *columns = [[v.as_integer_ratio() for v in values]
                        for values in (f, *parts)]
    for x, ((want, denom), *terms) in enumerate(zip(target, *columns)):
        total = 0
        for num, q in terms:
            if denom % q:
                scale = lcm(denom, q) // denom
                total *= scale
                want *= scale
                denom *= scale
            total += num * (denom // q)
        if total != want:
            return ("SumMismatch", x)
    for j, (t, ratios) in enumerate(zip(tables, columns)):
        moved = [ratios[y] for y in t]
        if moved != ratios:
            x = next(x for x, (a, b) in enumerate(zip(moved, ratios))
                     if a != b)
            return ("NotInvariant", j, x)
    return None


def verify_parts(tables: Sequence[Sequence[int]], f: Sequence[Fraction],
                 parts: Sequence[Sequence[Fraction]]) -> VerificationResult:
    """One part per map, checked by `first_parts_defect`; the reason tag
    is "LengthMismatch(j)", "SumMismatch(x)" or "NotInvariant(j,x)"."""
    if len(parts) != len(tables):
        return VerificationResult(False,
                                  "part count differs from transform count")
    defect = first_parts_defect(tables, f, parts)
    if defect is None:
        return VerificationResult(True)
    tag, *where = defect
    return VerificationResult(False, f"{tag}({','.join(map(str, where))})")


def verify_decomposition(system: CommutingSystem, f: RationalFunction,
                         decomposition: Decomposition) -> VerificationResult:
    """Exact check that parts sum to f and part j is T_j-invariant, by
    `verify_parts` on the system's tables."""
    if len(decomposition.parts) != system.n:
        raise PreconditionError(
            f"decomposition has {len(decomposition.parts)} parts, "
            f"system has {system.n} transforms")
    if not decomposition.parts:
        raise PreconditionError("empty decomposition has no ambient size")
    if len(f) != system.size:
        raise PreconditionError("function length does not match the domain")
    return verify_parts(system.transforms, f, decomposition.parts)


def verify_lattice_parts(f: LatticeWindow,
                         parts: Sequence[LatticeWindow]) -> VerificationResult:
    """Check a lattice decomposition: one part per axis, shaped like f,
    summing to f, part j constant along axis j (`first_parts_defect` on
    the axis maps)."""
    if len(parts) != len(f.dims) or any(p.dims != f.dims for p in parts):
        return VerificationResult(False, "parts do not match the window shape")
    defect = first_parts_defect(f.axis_maps(), f.values,
                                [p.values for p in parts])
    if defect is None:
        return VerificationResult(True)
    if defect[0] == "SumMismatch":
        return VerificationResult(
            False, f"parts do not sum to f at {f.coords(defect[1])}")
    _, j, idx = defect
    return VerificationResult(False, f"part {j} varies along axis {j} at "
                                     f"{f.coords(idx)}")


def stencil_value(values: Sequence[Fraction], z: int,
                  steps: Iterable[Callable[[int], int]]
                  ) -> Optional[Fraction]:
    """The mixed difference at z with factors g -> g o step - g, or None
    when a step leaves [0, len(values)).  Walked as point -> integer
    coefficient, each factor sending c at w to -c at w and +c at step(w),
    so at most min(len(values), 2^factors) points are live and read."""
    size = len(values)
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
    # one Fraction at the end, over the lcm of the live points' denominators
    nums, denom = integer_values([values[w] for w in coeffs])
    return Fraction(sum(c * p for c, p in zip(coeffs.values(), nums)), denom)


def _well_formed(inst: StarInstance, n: int, size: int) -> bool:
    """Blocks partition range(n), each with a head in it and an exponent
    >= 1; one (i, l, l2) premise per non-head index; z in [0, size)."""
    if not len(inst.blocks) == len(inst.distinguished) == len(inst.exponents):
        return False
    covered = sorted(i for block in inst.blocks for i in block)
    if covered != list(range(n)):
        return False
    for block, h, k in zip(inst.blocks, inst.distinguished, inst.exponents):
        if h not in block or k < 1:
            return False
    expected = sorted(i for block, h in zip(inst.blocks, inst.distinguished)
                      for i in block if i != h)
    if any(len(p) != 3 for p in inst.premises) \
            or sorted(p[0] for p in inst.premises) != expected:
        return False
    return 0 <= inst.z < size


def _replays(violation: StarViolation, n: int, f: RationalFunction,
             premise: Callable[[int, int, int, int, int], bool],
             step: Callable[[int, int], Callable[[int], int]]) -> bool:
    """The body of both violation replays: the instance is well formed,
    premise(i, l, l2, h, k) holds for each premise triple of index i whose
    block head h sits at exponent k, and the mixed difference at z with
    the factors step(h, k) of the heads equals the stored nonzero value."""
    inst = violation.instance
    if not _well_formed(inst, n, len(f)):
        return False
    head = {i: (h, k) for block, h, k
            in zip(inst.blocks, inst.distinguished, inst.exponents)
            for i in block}
    if not all(premise(i, l, l2, *head[i]) for i, l, l2 in inst.premises):
        return False
    value = stencil_value(f.values, inst.z,
                          [step(h, k) for h, k
                           in zip(inst.distinguished, inst.exponents)])
    return value == violation.value and value != 0


def replay_violation(system: CommutingSystem, f: RationalFunction,
                     violation: StarViolation) -> bool:
    """Re-derive a stored violation: structure, premises, and exact value.

    Each `iterate` call walks at most N steps, and `stencil_value`
    evaluates the value block by block on at most N live points, so the
    replay costs O(blocks * N^2 + premises * N) whatever the exponents.
    """
    tables = system.transforms
    z = violation.instance.z

    def premise(i, l, l2, h, k):
        return (l >= 0 and l2 >= 0
                and iterate(tables[h], k, iterate(tables[i], l, z))
                == iterate(tables[i], l2, z))

    return _replays(violation, system.n, f, premise,
                    lambda h, k: partial(iterate, tables[h], k))


def replay_abelian_violation(shifts: Sequence[int], f: RationalFunction,
                             violation: StarViolation) -> bool:
    """Re-derive a window violation arithmetically: premise (i, 0, mult)
    says mult * a_i = k * a_head, and the value is `stencil_value` with
    steps w -> w + k * a_head, which fails when a step leaves the
    window."""
    def premise(i, l, mult, h, k):
        return l == 0 and mult >= 0 and mult * shifts[i] == k * shifts[h]

    return _replays(violation, len(shifts), f, premise,
                    lambda h, k: partial(add, k * shifts[h]))


def verify_point_violation(f: LatticeWindow,
                           point: Sequence[int]) -> VerificationResult:
    """Check a point certificate: the d-fold mixed forward difference of f
    is evaluable and nonzero there, so no split into axis-constant parts
    exists."""
    if len(point) != len(f.dims) or any(not 0 <= c < w - 1
                                        for c, w in zip(point, f.dims)):
        return VerificationResult(
            False, "point is not a stencil base inside the window")
    if stencil_value(f.values, f.index(point),
                     [partial(add, stride) for stride in f.strides()]) == 0:
        return VerificationResult(False,
                                  "mixed difference vanishes at the point")
    return VerificationResult(True)


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Set partitions of range(n), most blocks first, then lexicographic.

    The all-singleton partition therefore always comes first.
    """
    if n == 0:
        return ((),)
    results = []

    def grow(x: int, blocks: list):
        if x == n:
            results.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(x)
            grow(x + 1, blocks)
            b.pop()
        blocks.append([x])
        grow(x + 1, blocks)
        blocks.pop()

    grow(0, [])
    results.sort(key=lambda blocks: (-len(blocks), blocks))
    return tuple(results)


def _scan_order(n: int):
    """The all-singleton partition, then the rest of `_partitions(n)`,
    built only once the first has been scanned."""
    yield tuple((i,) for i in range(n))
    yield from _partitions(n)[1:]


def _block_offset(shifts: Sequence[int], block: tuple[int, ...],
                  size: int) -> Optional[int]:
    """The block's signed offset: the least common multiple of its member
    shifts, the least k * a_head, k >= 1, that passes the block's premises
    whichever member is the head.  None when it leaves the window
    (|offset| >= size) or when the block holds a zero shift (whose
    stencil is zero) or shifts of both signs (no common multiple)."""
    members = [shifts[i] for i in block]
    if min(members) <= 0 <= max(members):
        return None
    step = lcm(*members)
    if step >= size:
        return None
    return step if members[0] > 0 else -step


def window_scan(shifts: Sequence[int], f_num: Sequence[int]
                ) -> Optional[tuple]:
    """The partition condition on a window of Z with maps x -> x + a_i:
    (blocks, offsets, z, value) of the first stencil nonzero in-window,
    or None when all vanish.  One stencil per set partition of the shift
    indices, all-singleton first, each block at its signed least common
    multiple (`_block_offset`); a partition with a block out of reach is
    skipped, and a stencil depends only on its multiset of offsets, so
    each multiset is scanned once.  A window pass carries no certificate,
    so this scan is its checker, and `star.check_star_abelian` builds its
    violation from the first hit."""
    scanned = set()
    for blocks in _scan_order(len(shifts)):
        offsets = [_block_offset(shifts, block, len(f_num))
                   for block in blocks]
        if None in offsets:
            continue
        key = tuple(sorted(offsets))
        if key in scanned:
            continue
        scanned.add(key)
        lo, row = window_difference(f_num, offsets)
        j = next((j for j, v in enumerate(row) if v), None)
        if j is not None:
            return blocks, offsets, lo + j, row[j]
    return None


def verify_star_pass(f: RationalFunction,
                     tables: Sequence[Sequence[int]] = (),
                     shifts: Optional[Sequence[int]] = None
                     ) -> VerificationResult:
    """A star-check pass, which carries no certificate, by the condition
    itself: on total map tables the mixed difference vanishes; on a window
    of Z with the given shifts, `window_scan` finds no stencil."""
    f_num, _ = integer_values(f)
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
    support = [x for x, w in enumerate(dual.weights) if w]
    # both sides scaled to integers by positive factors: the pairing keeps
    # its zero/nonzero answer
    weights, _ = integer_values([dual.weights[x] for x in support])
    values, _ = integer_values([f[x] for x in support])
    if not sum(w * v for w, v in zip(weights, values)):
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


def verify_cycle_obstruction(t: Sequence[int], g: RationalFunction,
                             obstruction: CycleObstruction
                             ) -> VerificationResult:
    """Check an obstruction of `cohomology.solve_transfer`: its points are
    distinct points of the domain that t walks in order and back to the
    first, and its total is their g-sum and nonzero.  Any solution h
    telescopes to 0 around a cycle, so none exists."""
    if len(t) != len(g):
        raise PreconditionError("transform length does not match function")
    points = obstruction.points
    if (len(set(points)) != len(points)
            or not all(0 <= p < len(g) for p in points)):
        return VerificationResult(
            False, "cycle points are not distinct points of the domain")
    if any(t[p] != q for p, q in zip(points, points[1:] + points[:1])):
        return VerificationResult(False, "points do not form a cycle of t")
    numerators, denom = integer_values([g[p] for p in points])
    total = Fraction(sum(numerators), denom)
    if total != obstruction.total or total == 0:
        return VerificationResult(False, "obstruction sum does not replay")
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
    """Check either answer of `cohomology.solve_bounded_transfer` against
    (t, s, g).

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


def verify_candidate(candidate: Candidate) -> VerificationResult:
    """A search candidate from its stored fields alone: the transforms
    form a commuting system (RangeError or NotCommutingError otherwise),
    the values' mixed difference vanishes, so the star check passes, and
    the stored dual weights pass `verify_dual` against the transforms'
    invariance classes.  On a finite system a vanishing mixed difference
    means f splits (`decomp.decompose_n`), so no candidate can pass."""
    system = validate_system(candidate.transforms, candidate.size)
    f = RationalFunction(tuple(map(Fraction, candidate.values)))
    if len(f) != system.size:
        raise PreconditionError("function length does not match the domain")
    if not system.n:
        raise PreconditionError("system needs at least one transformation")
    passed = verify_star_pass(f, system.transforms)
    if not passed:
        return passed
    dual = DualCertificate(RationalFunction(
        tuple(map(Fraction, candidate.dual_weights))))
    return verify_dual([invariance_classes(t) for t in system.transforms],
                       f, dual)


def verify_report(report: SearchReport) -> VerificationResult:
    """A search report whose counts a search can produce, and whose every
    candidate passes `verify_candidate`.  Every trial passes or fails the
    star check; every pass and every checked failure that is no necessity
    violation gets one oracle verdict; every violation is a discrepancy;
    and every candidate is an infeasible verdict, in trial order."""
    r = report
    # the candidates' trials, bracketed by -1 and the trial count
    trials = [-1, *[c.trial for c in r.candidates], r.trials]
    if not (min(r.star_pass, r.star_fail, r.oracle_feasible,
                r.oracle_infeasible, r.necessity_violations) >= 0
            and r.star_pass + r.star_fail == r.trials
            and r.necessity_violations <= r.necessity_checked <= r.star_fail
            and r.oracle_feasible + r.oracle_infeasible == (
                r.star_pass + r.necessity_checked - r.necessity_violations)
            and r.discrepancies >= r.necessity_violations
            and len(r.candidates) <= r.oracle_infeasible
            and all(map(lt, trials, trials[1:]))):
        return VerificationResult(False, "report counts no search produces")
    for c in r.candidates:
        if not verify_candidate(c):
            return VerificationResult(False, f"candidate from trial {c.trial} "
                                             f"does not re-verify")
    return VerificationResult(True)

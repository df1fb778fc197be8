"""The partition-family necessary condition and its checkers.

For a partition of the transform indices into blocks with one distinguished
index per block, exponents k per block, and a base point z, the condition
says: whenever every non-distinguished index i in a block with head h
admits l, l2 with h^k i^l z = i^{l2} z, the mixed difference of f taken
with the heads at their exponents must vanish at z.  This is necessary for
decomposability for every n.  On a finite domain it is also sufficient,
and already its all-singleton instance, the mixed difference, decides it
(`check_star`), which is one O(nN) pass of `core`'s integer stencil over
the map tables.  On windows of Z, where the maps are partial, the mixed
difference alone is not sufficient and the multi-element partitions of
`check_star_abelian` add conclusions of their own.

Violations carry a full replayable instance; `replay_violation` re-derives
both the premises and the nonzero value from scratch, in time polynomial
in the domain size and the number of blocks whatever the exponents.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from typing import Optional, Sequence

from .core import (
    CommutingSystem,
    PreconditionError,
    RangeError,
    RationalFunction,
    _mixed_difference,
    integer_values,
    iterate,
    mixed_corners,
    validate_system,
)
from .oracle import Decomposition, DualCertificate, oracle_decompose


@dataclass(frozen=True)
class StarInstance:
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


@dataclass(frozen=True)
class StarViolation:
    """A premise-satisfying instance whose conclusion value is nonzero."""

    instance: StarInstance
    value: Fraction
    kind: str  # "MixedDeltaNonzero" | "CompatibilityFailure" (older output)


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


def check_star(system: CommutingSystem,
               f: RationalFunction) -> Optional[StarViolation]:
    """First violation of the partition condition, or None when it passes.

    On a finite domain the condition holds exactly when the all-singleton
    mixed difference D_1...D_n f (D_j f = f o T_j - f) vanishes, so that is
    all that is computed: n unit-difference passes over the map tables on
    f's integer numerators, O(nN).  The first nonzero point z is returned
    as the all-singleton instance (every head at exponent 1, no premises);
    the other partitions can never add a violation.

    The proof that the mixed difference suffices on a finite domain is
    constructive and lives in `decomp.decompose_n`, which builds the parts
    by cycle averages.  On windows of Z, where the maps are partial, it
    fails; see `check_star_abelian`.
    """
    if len(f) != system.size:
        raise PreconditionError("function length does not match the domain")
    n = system.n
    if n == 0:
        return None
    f_num, denom = integer_values(f)
    row = _mixed_difference(system.transforms, f_num)
    z = next((z for z, value in enumerate(row) if value), None)
    if z is None:
        return None
    instance = StarInstance(tuple((j,) for j in range(n)), tuple(range(n)),
                            (1,) * n, (), z)
    return StarViolation(instance, Fraction(row[z], denom),
                         "MixedDeltaNonzero")


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


def replay_violation(system: CommutingSystem, f: RationalFunction,
                     violation: StarViolation) -> bool:
    """Re-derive a stored violation: structure, premises, and exact value.

    Each `iterate` call walks at most N steps, and the value is evaluated
    block by block on at most N live points, so the replay costs
    O(blocks * N^2 + premises * N) whatever the exponents.
    """
    inst = violation.instance
    if not _well_formed(inst, system.n, system.size):
        return False
    head_of = {}
    k_of = {}
    for block, h, k in zip(inst.blocks, inst.distinguished, inst.exponents):
        for i in block:
            head_of[i] = h
            k_of[i] = k
    tables = system.transforms
    for i, l, l2 in inst.premises:
        if l < 0 or l2 < 0:
            return False
        left = iterate(tables[head_of[i]], k_of[i],
                       iterate(tables[i], l, inst.z))
        right = iterate(tables[i], l2, inst.z)
        if left != right:
            return False
    # the stencil as point -> integer coefficient: each block sends c at w
    # to -c at w and +c at head^k(w), so at most N points stay live
    coeffs = {inst.z: 1}
    for h, k in zip(inst.distinguished, inst.exponents):
        moved: dict[int, int] = {}
        for w, c in coeffs.items():
            moved[w] = moved.get(w, 0) - c
            u = iterate(tables[h], k, w)
            moved[u] = moved.get(u, 0) + c
        coeffs = {w: c for w, c in moved.items() if c}
    # one Fraction at the end: integer numerators over the lcm of the live
    # points' denominators
    ratios = [(c * f[w].numerator, f[w].denominator)
              for w, c in coeffs.items()]
    denom = lcm(*(q for _, q in ratios))
    value = Fraction(sum(p * (denom // q) for p, q in ratios), denom)
    return value == violation.value and value != 0


def _natural_multiple(a: int, b: int) -> Optional[int]:
    """Smallest m >= 0 with m*a = b over Z, else None."""
    if b == 0:
        return 0
    if a == 0:
        return None
    m, r = divmod(b, a)
    return m if r == 0 and m >= 0 else None


def _shift_corners(offsets: Sequence[int]) -> list[tuple[int, bool]]:
    """(offset, positive) per corner of the mixed difference whose factors
    translate by the given offsets."""
    return [(sum(offsets[b] for b in applied), positive)
            for applied, positive in mixed_corners(len(offsets))]


def _shift_stencil(values: Sequence, corners: Sequence[tuple[int, bool]],
                   z: int):
    """Mixed difference of values at z on a window of Z, or None unless
    every corner lies inside the window."""
    size = len(values)
    total = 0
    for off, positive in corners:
        w = z + off
        if not 0 <= w < size:
            return None
        total += values[w] if positive else -values[w]
    return total


def check_star_abelian(shifts: Sequence[int], f: RationalFunction,
                       bound: Optional[int] = None) -> Optional[StarViolation]:
    """Partition-condition verdict on a window of Z (indices 0..len(f)-1)
    with partial maps x -> x + a_i.

    Conclusions are only evaluated at points whose whole difference
    stencil stays in-window.  Premises become arithmetic: the head
    conclusion for block b at exponent k applies when each member shift
    a_i has a natural multiple equal to k * a_head, removing the exponent
    search; heads of larger blocks run up to bound (default 2 * len(f)),
    which must be at least 1.
    The stored premise triples are (i, 0, multiple).  Translations of Z_m
    are total maps on a finite set, where `check_star` decides alone.
    """
    size = len(f)
    for a in shifts:
        if not isinstance(a, int) or isinstance(a, bool):
            raise RangeError(f"shift {a!r} is not an integer")
    if bound is None:
        bound = 2 * size
    if bound < 1:
        raise PreconditionError(f"bound must be >= 1, got {bound}")
    n = len(shifts)
    if n == 0:
        return None
    f_num, denom = integer_values(f)
    for blocks in _partitions(n):
        for heads in product(*blocks):
            kmax = [1 if len(block) == 1 else bound for block in blocks]
            nb = len(blocks)
            for kvec in product(*[range(1, kmax[b] + 1) for b in range(nb)]):
                premises = []
                gated = True
                for b, (block, h) in enumerate(zip(blocks, heads)):
                    target = kvec[b] * shifts[h]
                    for i in block:
                        if i == h:
                            continue
                        mult = _natural_multiple(shifts[i], target)
                        if mult is None:
                            gated = False
                            break
                        premises.append((i, 0, mult))
                    if not gated:
                        break
                if not gated:
                    continue
                corners = _shift_corners(
                    [kvec[b] * shifts[heads[b]] for b in range(nb)])
                for z in range(size):
                    value = _shift_stencil(f_num, corners, z)
                    if value:
                        instance = StarInstance(
                            blocks, tuple(heads), tuple(kvec),
                            tuple(sorted(premises)), z)
                        return StarViolation(instance, Fraction(value, denom),
                                             "MixedDeltaNonzero")
    return None


def replay_abelian_violation(shifts: Sequence[int], f: RationalFunction,
                             violation: StarViolation) -> bool:
    """Re-derive a window violation arithmetically."""
    inst = violation.instance
    if not _well_formed(inst, len(shifts), len(f)):
        return False
    head_of = {}
    k_of = {}
    for block, h, k in zip(inst.blocks, inst.distinguished, inst.exponents):
        for i in block:
            head_of[i] = h
            k_of[i] = k
    for i, l, mult in inst.premises:
        if (l != 0 or mult < 0
                or mult * shifts[i] != k_of[i] * shifts[head_of[i]]):
            return False
    corners = _shift_corners([k * shifts[h] for h, k
                              in zip(inst.distinguished, inst.exponents)])
    value = _shift_stencil(f.values, corners, inst.z)
    return value is not None and value == violation.value and value != 0


@dataclass(frozen=True)
class Candidate:
    """A star-pass oracle-infeasible instance, re-verified from scratch."""

    trial: int
    size: int
    transforms: tuple[tuple[int, ...], ...]
    values: tuple[str, ...]
    dual_weights: tuple[str, ...]


@dataclass(frozen=True)
class SearchReport:
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


def _reverify_candidate(transforms, size, value_strings):
    """Fresh objects, fresh verdicts; returns the new dual weights or None."""
    system = validate_system([list(t) for t in transforms], size)
    f = RationalFunction(tuple(Fraction(v) for v in value_strings))
    if check_star(system, f) is not None:
        return None
    res = oracle_decompose(system, f)
    if isinstance(res, DualCertificate):
        return tuple(str(w) for w in res.weights)
    return None


def _run_trials(n: int, max_size: int, start: int, stop: int,
                seed: int) -> dict:
    from . import generators

    counts = {key: 0 for key in (
        "star_pass", "star_fail", "oracle_feasible", "oracle_infeasible",
        "necessity_checked", "necessity_violations", "discrepancies")}
    candidates = []
    smoke = n <= 3
    for trial in range(start, stop):
        rng = random.Random(f"{seed}:{trial}")
        system = generators.random_commuting_system(rng, n, max_size)
        f = generators.random_function(rng, system)
        violation = check_star(system, f)
        if violation is None:
            counts["star_pass"] += 1
            res = oracle_decompose(system, f)
            if isinstance(res, DualCertificate):
                counts["oracle_infeasible"] += 1
                if smoke:
                    counts["discrepancies"] += 1
                value_strings = tuple(str(v) for v in f)
                weights = _reverify_candidate(
                    system.transforms, system.size, value_strings)
                if weights is None:
                    counts["discrepancies"] += 1
                else:
                    candidates.append(Candidate(
                        trial, system.size, system.transforms,
                        value_strings, weights))
            else:
                counts["oracle_feasible"] += 1
        else:
            counts["star_fail"] += 1
            if smoke or trial % 7 == 0:
                counts["necessity_checked"] += 1
                res = oracle_decompose(system, f)
                if isinstance(res, Decomposition):
                    counts["necessity_violations"] += 1
                    counts["discrepancies"] += 1
                else:
                    counts["oracle_infeasible"] += 1
    counts["candidates"] = candidates
    return counts


def search_counterexample(n: int, max_size: int, trials: int, seed: int,
                          workers: int = 1) -> SearchReport:
    """Randomized hunt for star-pass but non-decomposable instances.

    The systems are finite, where `check_star` is exact for every n, so
    no n finds a candidate: the search is a regression of that theorem
    and of the oracle.  With n <= 3 any star/oracle disagreement counts as
    a discrepancy.  With n >= 4 a star-pass oracle-infeasible instance
    would be re-verified from scratch and shipped with its dual
    certificate.  Star-fail instances are spot-checked (every 7th trial
    for n >= 4) for the necessity direction.

    Deterministic under a fixed seed: each trial reseeds from (seed,
    trial), so the worker count never changes the outcome.  At most one
    worker process runs per CPU and per trial (the pool starts all of
    them at once).
    """
    if n < 2:
        raise PreconditionError("search needs at least two transformations")
    if max_size < 2:
        raise PreconditionError("max_size must be at least 2")
    if trials < 0:
        raise PreconditionError("trials must be nonnegative")
    if workers < 1:
        raise PreconditionError("workers must be at least 1")
    workers = min(workers, trials, os.cpu_count() or 1)
    shards: list
    if workers <= 1:
        shards = [_run_trials(n, max_size, 0, trials, seed)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        step = (trials + workers - 1) // workers
        spans = [(lo, min(lo + step, trials))
                 for lo in range(0, trials, step)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shards = list(pool.map(_shard_entry,
                                   [(n, max_size, lo, hi, seed)
                                    for lo, hi in spans]))
    merged = {key: sum(s[key] for s in shards)
              for key in shards[0] if key != "candidates"}
    all_candidates = sorted(
        (c for s in shards for c in s["candidates"]), key=lambda c: c.trial)
    return SearchReport(
        n=n, max_size=max_size, trials=trials, seed=seed,
        candidates=tuple(all_candidates), **merged)


def _shard_entry(args) -> dict:
    return _run_trials(*args)

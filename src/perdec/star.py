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
`check_star_abelian` add conclusions of their own; they are still only
necessary there, and `oracle.verified_split` decides windows exactly.
There each block's offsets are the multiples k * l of the signed least
common multiple l of its shifts, and one stencil per set partition, every
block at its l, decides them all: x^{kl} - 1 = (x^l - 1)(1 + x^l + ... +
x^{(k-1)l}) writes the stencil with a block at kl as a sum of in-window
stencils with that block at l, so every multiple vanishes in-window when
the least one does.

Violations carry a full replayable instance; both replays re-derive the
premises and, by `core.stencil_value`, the nonzero value from scratch, in
time polynomial in the domain size and the number of blocks whatever the
exponents.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import lcm
from operator import add
from typing import Optional, Sequence

from .core import (
    CommutingSystem,
    Decomposition,
    PreconditionError,
    RangeError,
    RationalFunction,
    _mixed_difference,
    integer_values,
    iterate,
    stencil_value,
    validate_system,
    window_difference,
)


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

    Each `iterate` call walks at most N steps, and `core.stencil_value`
    evaluates the value block by block on at most N live points, so the
    replay costs O(blocks * N^2 + premises * N) whatever the exponents.
    """
    inst = violation.instance
    if not _well_formed(inst, system.n, system.size):
        return False
    head = {i: (h, k) for block, h, k
            in zip(inst.blocks, inst.distinguished, inst.exponents)
            for i in block}
    tables = system.transforms
    for i, l, l2 in inst.premises:
        if l < 0 or l2 < 0:
            return False
        h, k = head[i]
        left = iterate(tables[h], k, iterate(tables[i], l, inst.z))
        if left != iterate(tables[i], l2, inst.z):
            return False
    value = stencil_value(f.values, inst.z,
                          [partial(iterate, tables[h], k) for h, k
                           in zip(inst.distinguished, inst.exponents)])
    return value == violation.value and value != 0


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


def _scan_order(n: int):
    """The all-singleton partition, then the rest of `_partitions(n)`,
    built only once the first has been scanned."""
    yield tuple((i,) for i in range(n))
    yield from _partitions(n)[1:]


def _window_violation(f_num: Sequence[int], offsets: Sequence[int]
                      ) -> Optional[tuple[int, int]]:
    """First (z, value) whose in-window stencil for the given factor
    offsets is nonzero, or None when all vanish."""
    lo, row = window_difference(f_num, offsets)
    return next(((lo + j, v) for j, v in enumerate(row) if v), None)


def check_star_abelian(shifts: Sequence[int],
                       f: RationalFunction) -> Optional[StarViolation]:
    """Partition-condition verdict on a window of Z (indices 0..len(f)-1)
    with partial maps x -> x + a_i.

    Conclusions are only evaluated at points whose whole difference
    stencil stays in-window.  Premises become arithmetic: a block's
    conclusion at offset k * a_head applies when that offset is a natural
    multiple of every member shift, that is a multiple k * l of the
    block's signed least common multiple l, whichever member is the head,
    so the least index heads each block.  Only k = 1 is scanned
    (`_block_offset`), with no exponent bound, since

        x^{kl} - 1 = (x^l - 1)(1 + x^l + ... + x^{(k-1)l}):

    a partition's stencil at z with one block at kl is the sum of its
    stencils with that block at l taken at z, z + l, ..., z + (k-1)l, each
    of which fits in the window whenever the kl one does.  So every
    multiple vanishes in-window when the least one does, and the first
    violation of a partition, if any, is at its all-least offsets; for a
    one-element block that is the cap at exponent 1.  Each offset
    multiset is scanned once, one unit-difference pass per offset.  The
    stored premise triples are (i, 0, l // a_i).  Translations of Z_m are
    total maps on a finite set, where `check_star` decides alone.
    """
    size = len(f)
    for a in shifts:
        if not isinstance(a, int) or isinstance(a, bool):
            raise RangeError(f"shift {a!r} is not an integer")
    if not shifts:
        return None
    f_num, denom = integer_values(f)
    # a stencil depends only on its multiset of offsets, and every one
    # scanned so far vanished: a repeat cannot find a violation
    scanned = set()
    for blocks in _scan_order(len(shifts)):
        offsets = [_block_offset(shifts, block, size) for block in blocks]
        if None in offsets:
            continue
        key = tuple(sorted(offsets))
        if key in scanned:
            continue
        scanned.add(key)
        hit = _window_violation(f_num, offsets)
        if hit is not None:
            z, value = hit
            heads = tuple(block[0] for block in blocks)
            kvec = tuple(o // shifts[h] for h, o in zip(heads, offsets))
            premises = tuple(sorted(
                (i, 0, o // shifts[i])
                for block, o in zip(blocks, offsets) for i in block[1:]))
            instance = StarInstance(blocks, heads, kvec, premises, z)
            return StarViolation(instance, Fraction(value, denom),
                                 "MixedDeltaNonzero")
    return None


def replay_abelian_violation(shifts: Sequence[int], f: RationalFunction,
                             violation: StarViolation) -> bool:
    """Re-derive a window violation arithmetically; the value is
    `core.stencil_value` with steps w -> w + k * a_head, which fails when
    a step leaves the window."""
    inst = violation.instance
    if not _well_formed(inst, len(shifts), len(f)):
        return False
    head = {i: (h, k) for block, h, k
            in zip(inst.blocks, inst.distinguished, inst.exponents)
            for i in block}
    for i, l, mult in inst.premises:
        h, k = head[i]
        if l != 0 or mult < 0 or mult * shifts[i] != k * shifts[h]:
            return False
    value = stencil_value(f.values, inst.z,
                          [partial(add, k * shifts[h]) for h, k
                           in zip(inst.distinguished, inst.exponents)])
    return value == violation.value and value != 0


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
    from .oracle import DualCertificate, oracle_decompose

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
    from .oracle import DualCertificate, oracle_decompose

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
    workers = min(workers, trials)
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
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

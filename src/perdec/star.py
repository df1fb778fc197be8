"""The partition-family necessary condition and the counterexample search.

For a partition of the transform indices into blocks with one distinguished
index per block, exponents k per block, and a base point z, the condition
says: whenever every non-distinguished index i in a block with head h
admits l, l2 with h^k i^l z = i^{l2} z (its premises), the mixed
difference of f taken with the heads at their exponents must vanish at
z.  This is necessary for decomposability for every n.  On a finite
domain it is also sufficient, and already its all-singleton instance,
the mixed difference, decides it (`check_star`), which is one O(nN) pass
of `core`'s integer stencil over the map tables.  On windows of Z, where
the maps are partial, the mixed difference alone is not sufficient and
the multi-element partitions of `check_star_abelian` add conclusions of
their own, one stencil per set partition; they are still only necessary
there, and `oracle.verified_split` decides windows exactly.

A violation (`check.StarViolation`) stores only its blocks, z and the
nonzero value; the rest of the instance follows from the blocks.  On a
finite domain the blocks are the n singletons, each its own head at
exponent 1 with no premise.  On a window each block is headed by its
least index h at the exponent that takes a_h to the block's signed least
common multiple l, and each other member i has the premise
h^k i^0 z = i^{l / a_i} z.  `check.replay_violation` rebuilds the stencil
from the blocks alone.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .check import SearchReport, StarViolation, spot_trials, window_scan
from .core import (
    CommutingSystem,
    Decomposition,
    InternalContractViolation,
    PreconditionError,
    RangeError,
    RationalFunction,
    _mixed_difference,
)


def check_star(system: CommutingSystem,
               f: RationalFunction) -> Optional[StarViolation]:
    """First violation of the partition condition, or None when it passes.

    On a finite domain the condition holds exactly when the all-singleton
    mixed difference D_1...D_n f (D_j f = f o T_j - f) vanishes, so that is
    all that is computed: n unit-difference passes over the map tables on
    f's integer numerators, O(nN).  The first nonzero point z is returned
    with the all-singleton blocks (every head at exponent 1, no premises),
    the one violation `check.replay_violation` accepts on map tables; the
    other partitions can never add a violation.

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
    f_num, denom = f.numerators, f.denom
    row = _mixed_difference(system.transforms, f_num)
    z = next((z for z, value in enumerate(row) if value), None)
    if z is None:
        return None
    from fractions import Fraction

    return StarViolation(tuple((j,) for j in range(n)), z,
                         Fraction(row[z], denom))


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
    (`check.window_scan`), with no exponent bound, by one lemma: if the
    stencil S divides S', then x^z S' is a sum of terms x^{z+i} S, each of
    which fits in the window wherever x^z S' does, so S' vanishes
    in-window when S does.  As

        x^{kl} - 1 = (x^l - 1)(1 + x^l + ... + x^{(k-1)l}),

    every multiple vanishes in-window when the least one does, and the
    first violation of a partition, if any, is at its all-least offsets;
    for a one-element block that is the cap at exponent 1.  The same lemma
    lets the scan drop every partition below a vanishing prefix of
    blocks, and with it the prefixes that extend its last block.  The
    violation is the scan's first hit, its blocks, z and value.
    Translations of Z_m are total maps on a finite set, where
    `check_star` decides alone.
    """
    for a in shifts:
        if not isinstance(a, int) or isinstance(a, bool):
            raise RangeError(f"shift {a!r} is not an integer")
    if not shifts:
        return None
    hit = window_scan(shifts, f.numerators)
    if hit is None:
        return None
    from fractions import Fraction

    blocks, z, value = hit
    return StarViolation(blocks, z, Fraction(value, f.denom))


def _run_trials(n: int, max_size: int, trials: int, seed: int) -> dict:
    from . import generators
    from .oracle import oracle_decompose

    counts = {key: 0 for key in (
        "star_pass", "star_fail", "oracle_feasible", "oracle_infeasible",
        "necessity_checked", "necessity_violations", "discrepancies")}
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        system = generators.random_commuting_system(rng, n, max_size)
        f = generators.random_function(rng, system)
        violation = check_star(system, f)
        if violation is None:
            counts["star_pass"] += 1
            # f splits (decomp.decompose_n), so a refusal has no dual and
            # raises; it is an infeasible verdict and a discrepancy
            try:
                res = oracle_decompose(system, f)
            except InternalContractViolation:
                res = None
            if isinstance(res, Decomposition):
                counts["oracle_feasible"] += 1
            else:
                counts["oracle_infeasible"] += 1
                counts["discrepancies"] += 1
        else:
            counts["star_fail"] += 1
            if spot_trials(n, trial + 1) > spot_trials(n, trial):
                counts["necessity_checked"] += 1
                res = oracle_decompose(system, f)
                if isinstance(res, Decomposition):
                    counts["necessity_violations"] += 1
                    counts["discrepancies"] += 1
                else:
                    counts["oracle_infeasible"] += 1
    return counts


def search_counterexample(n: int, max_size: int, trials: int,
                          seed: int) -> SearchReport:
    """Randomized hunt for star-pass but non-decomposable instances.

    The systems are finite, where `check_star` is exact for every n, so
    no n finds a candidate and the report holds counts alone: the search
    is a regression of that theorem and of the oracle, and any
    star/oracle disagreement counts as a discrepancy.  On a star pass the
    oracle's dual, the mixed-difference stencil, cannot exist, so an
    oracle refusal there raises InternalContractViolation and is counted
    as such.  Star-fail instances are spot-checked (every one for n <= 3,
    every 7th trial for n >= 4; `check.spot_trials`) for the necessity
    direction.

    Deterministic under a fixed seed: each trial reseeds from (seed,
    trial).
    """
    if n < 2:
        raise PreconditionError("search needs at least two transformations")
    if max_size < 2:
        raise PreconditionError("max_size must be at least 2")
    if trials < 0:
        raise PreconditionError("trials must be nonnegative")
    return SearchReport(n=n, max_size=max_size, trials=trials, seed=seed,
                        **_run_trials(n, max_size, trials, seed))

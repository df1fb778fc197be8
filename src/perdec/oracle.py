"""Ground-truth decomposability via exact linear algebra.

Decomposability of f is linear feasibility: f must lie in the span of the
invariance-class indicators of the transforms.  The elimination works on
integer rows (function values are scaled by a common denominator), tracks
the row operations, and therefore hands out an exact dual functional
whenever the system is infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple, Union

from .core import (
    CommutingSystem,
    Decomposition,
    PreconditionError,
    RationalFunction,
    VerificationResult,
    integer_values,
    verify_decomposition,
)
from .orbits import Partition, invariance_classes


@dataclass(frozen=True)
class DualCertificate:
    """A linear functional on value tables proving non-decomposability.

    Pairs to zero with every invariance-kernel basis function of the system
    and to a nonzero value with the target f; `verify_dual` checks both.
    """

    weights: RationalFunction

    def pair(self, f: RationalFunction) -> Fraction:
        return sum((w * v for w, v in zip(self.weights, f)), Fraction(0))


def kernel_basis(t: Sequence[int]) -> List[RationalFunction]:
    """Indicator functions of t's invariance classes; they span the
    t-invariant functions exactly."""
    part = invariance_classes(t)
    size = len(t)
    out = []
    for c in range(part.n_classes):
        out.append(RationalFunction(
            tuple(Fraction(1 if part.class_of[x] == c else 0)
                  for x in range(size))))
    return out


def _reduce_row(row: List[int]) -> None:
    """Divide by the gcd of all entries and make the first nonzero positive."""
    g = 0
    for v in row:
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        for i, v in enumerate(row):
            row[i] = v // g
    for v in row:
        if v:
            if v < 0:
                for i, w in enumerate(row):
                    row[i] = -w
            return


def _eliminate(work: List[List[int]], ncols: int) -> List[Tuple[int, int]]:
    """Fraction-free forward elimination on the first ncols columns, in place.

    Whole rows are combined, so columns past ncols (a right side, tracking
    columns) follow along.  Pivots prefer the smallest nonzero magnitude in
    the column, which keeps the integer entries from growing; rows are
    gcd-reduced after each step.  Returns (column, row) per pivot.
    """
    m = len(work)
    rank = 0
    pivots: List[Tuple[int, int]] = []
    for col in range(ncols):
        best = -1
        for i in range(rank, m):
            v = work[i][col]
            if v and (best < 0 or abs(v) < abs(work[best][col])):
                best = i
        if best < 0:
            continue
        work[rank], work[best] = work[best], work[rank]
        piv = work[rank][col]
        for i in range(rank + 1, m):
            v = work[i][col]
            if v:
                g = gcd(piv, v)
                a, b = piv // g, v // g
                work[i] = [a * x - b * y for x, y in zip(work[i], work[rank])]
                _reduce_row(work[i])
        pivots.append((col, rank))
        rank += 1
        if rank == m:
            break
    return pivots


def linear_feasibility(
    rows: Sequence[Sequence[int]], rhs: Sequence[int], ncols: int
) -> Tuple[Optional[List[Fraction]], Optional[Tuple[int, ...]]]:
    """Exact feasibility of A c = b over the rationals, A and b integral.

    Returns (solution, dual) with exactly one side present: a solution with
    free unknowns pinned to 0, or an integer row y with y A = 0, y b != 0.
    """
    m = len(rows)
    # extended row: coefficient part | rhs | identity tracking part
    work = [list(rows[i]) + [rhs[i]] + [1 if j == i else 0 for j in range(m)]
            for i in range(m)]
    pivots = _eliminate(work, ncols)
    for i in range(len(pivots), m):
        if work[i][ncols]:
            # the tracked row combination proves infeasibility
            return None, tuple(work[i][ncols + 1:])
    solution = [Fraction(0)] * ncols
    for col, row in reversed(pivots):
        acc = Fraction(work[row][ncols])
        for c in range(col + 1, ncols):
            if work[row][c]:
                acc -= work[row][c] * solution[c]
        solution[col] = acc / work[row][col]
    return solution, None


def nullspace(rows: Sequence[Sequence[int]], ncols: int) -> List[List[Fraction]]:
    """Basis of the rational nullspace of an integer matrix.

    One basis vector per free column: that column is 1 and the pivot
    columns are back-solved.
    """
    work = [list(r) for r in rows]
    pivots = _eliminate(work, ncols)
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for col, row in reversed(pivots):
            acc = Fraction(0)
            for c in range(col + 1, ncols):
                if work[row][c] and vec[c]:
                    acc -= work[row][c] * vec[c]
            vec[col] = acc / work[row][col]
        basis.append(vec)
    return basis


def verify_dual(partitions: Sequence[Partition], f: RationalFunction,
                dual: DualCertificate) -> VerificationResult:
    """Check that dual proves f is no sum of parts, part j constant on the
    classes of partitions[j].

    The weights must pair to nonzero with f and sum to zero over every
    class of every partition.  A class sum is the pairing with that class's
    indicator (the functions `kernel_basis` lists), taken here in O(N).
    """
    if len(dual.weights) != len(f):
        return VerificationResult(False,
                                  "weight count differs from domain size")
    if dual.pair(f) == 0:
        return VerificationResult(False, "dual functional vanishes on f")
    weights, _ = integer_values(dual.weights)
    for j, part in enumerate(partitions):
        sums = [0] * part.n_classes
        for w, c in zip(weights, part.class_of):
            sums[c] += w
        if any(sums):
            return VerificationResult(
                False, f"dual functional does not vanish on an invariant "
                       f"function of part {j}")
    return VerificationResult(True)


def split_over_classes(partitions: Sequence[Partition], f: RationalFunction
                       ) -> Union[List[Tuple[Fraction, ...]], DualCertificate]:
    """Exact split of f into parts, part j constant on the classes of
    partitions[j].

    The unknowns are one value per (part, class).  Returns the parts' value
    tuples (some feasible point, with no minimality), or a DualCertificate
    that `verify_dual` has accepted.
    """
    offsets = [0]
    for part in partitions:
        offsets.append(offsets[-1] + part.n_classes)
    ncols = offsets[-1]
    rows = []
    for x in range(len(f)):
        row = [0] * ncols
        for j, part in enumerate(partitions):
            row[offsets[j] + part.class_of[x]] += 1
        rows.append(row)
    rhs, denom = integer_values(f)
    solution, dual = linear_feasibility(rows, rhs, ncols)
    if dual is not None:
        certificate = DualCertificate(RationalFunction(
            tuple(Fraction(w) for w in dual)))
        verify_dual(partitions, f, certificate).require("dual certificate")
        return certificate
    return [tuple(solution[offsets[j] + c] / denom for c in part.class_of)
            for j, part in enumerate(partitions)]


def oracle_decompose(system: CommutingSystem, f: RationalFunction):
    """Decide decomposability by exact elimination.

    Returns a verified Decomposition on feasibility, else a DualCertificate.
    The unknowns are one coefficient per (transform, invariance class).
    """
    if system.n < 1:
        raise PreconditionError("system needs at least one transformation")
    if len(f) != system.size:
        raise PreconditionError("function length does not match the domain")
    outcome = split_over_classes(
        [invariance_classes(t) for t in system.transforms], f)
    if isinstance(outcome, DualCertificate):
        return outcome
    decomposition = Decomposition(tuple(RationalFunction(values)
                                        for values in outcome))
    verify_decomposition(system, f, decomposition).require("oracle solution")
    return decomposition

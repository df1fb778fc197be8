"""Ground-truth decomposability via exact linear algebra.

Decomposability of f is linear feasibility: f must lie in the span of the
invariance-class indicators of the transforms.  The elimination works on
integer rows (function values are scaled by a common denominator), tracks
the row operations, and therefore hands out an exact dual functional
whenever the system is infeasible.

Rows are stored sparsely, as {column: nonzero int}: a class-incidence row
has one 1 per partition plus its right side and one tracking entry, so the
fraction-free elimination (integer row combinations, gcd-reduced) touches
only nonzeros instead of m·(K + 1 + m) dense cells for m points and K
classes.  Its pivot rule (smallest magnitude, first row on ties) and row
arithmetic are those of the dense elimination it replaced, so solutions,
duals and nullspace bases are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple, Union

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


def _reduce_row(row: Dict[int, int]) -> None:
    """Divide by the gcd of all entries and make the entry at the smallest
    column positive; an empty row stays empty."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        for k in row:
            row[k] //= g
    if row and row[min(row)] < 0:
        for k in row:
            row[k] = -row[k]


def _eliminate(work: List[Dict[int, int]], ncols: int
               ) -> List[Tuple[int, int]]:
    """Fraction-free forward elimination on the first ncols columns, in place.

    Each row is a sparse dict {column: nonzero int}.  Whole rows are
    combined, so columns past ncols (a right side, tracking columns) follow
    along.  The pivot in a column is the row of smallest nonzero magnitude,
    the first in the current row order on ties, which keeps the integer
    entries from growing; each combined row is a·row − b·pivot row,
    gcd-reduced, with the entry at its smallest column made positive.  The
    cost grows with the nonzeros touched, not with m·(ncols + 1 + m) dense
    cells.  Returns (column, row) per pivot.
    """
    m = len(work)
    rank = 0
    pivots: List[Tuple[int, int]] = []
    for col in range(ncols):
        hits = [i for i in range(rank, m) if col in work[i]]
        if not hits:
            continue
        best = min(hits, key=lambda i: abs(work[i][col]))
        work[rank], work[best] = work[best], work[rank]
        prow = work[rank]
        piv = prow[col]
        # the row that sat at rank now sits at best
        for i in hits:
            if i == best:
                continue
            if i == rank:
                i = best
            row = work[i]
            v = row[col]
            g = gcd(piv, v)
            a, b = piv // g, v // g
            new = {k: a * x for k, x in row.items()} if a != 1 else row
            for k, y in prow.items():
                x = new.get(k, 0) - b * y
                if x:
                    new[k] = x
                else:
                    del new[k]
            _reduce_row(new)
            work[i] = new
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
    # sparse extended row: coefficients at 0..ncols-1, the right side at
    # ncols, identity tracking entry i at ncols + 1 + i
    work = []
    for i, row in enumerate(rows):
        entry = {c: v for c, v in enumerate(row) if v}
        if rhs[i]:
            entry[ncols] = rhs[i]
        entry[ncols + 1 + i] = 1
        work.append(entry)
    pivots = _eliminate(work, ncols)
    for i in range(len(pivots), m):
        if work[i].get(ncols):
            # the tracked row combination proves infeasibility
            return None, tuple(work[i].get(ncols + 1 + j, 0)
                               for j in range(m))
    solution = [Fraction(0)] * ncols
    for col, row in reversed(pivots):
        entry = work[row]
        acc = Fraction(entry.get(ncols, 0))
        for c, v in entry.items():
            if col < c < ncols:
                acc -= v * solution[c]
        solution[col] = acc / entry[col]
    return solution, None


def nullspace(rows: Sequence[Sequence[int]], ncols: int) -> List[List[Fraction]]:
    """Basis of the rational nullspace of an integer matrix.

    One basis vector per free column: that column is 1 and the pivot
    columns are back-solved.
    """
    work = [{c: v for c, v in enumerate(row) if v} for row in rows]
    pivots = _eliminate(work, ncols)
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for col, row in reversed(pivots):
            entry = work[row]
            acc = Fraction(0)
            for c, v in entry.items():
                if c > col and vec[c]:
                    acc -= v * vec[c]
            vec[col] = acc / entry[col]
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

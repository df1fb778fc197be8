"""Finite windows of Z^d with coordinate unit shifts.

Distinct unit shifts are unrelated: a word in two of them can only revisit
a point if the exponents match exactly, so no self-relations exist and the
vanishing mixed difference alone already characterizes decomposability.
The decomposition projects, subtracts and repeats, like `decomp.decompose_n`:
the part of each axis but the first is the rest read off one base slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import List, Optional, Sequence, Tuple, Union

from .core import (
    InternalContractViolation,
    PreconditionError,
    RangeError,
    RationalFunction,
    VerificationResult,
    as_fraction,
    first_sum_mismatch,
    integer_ratios,
    mixed_corners,
)
from .oracle import DualCertificate, split_over_classes
from .orbits import Partition
from .star import (
    StarViolation,
    _shift_corners,
    _shift_stencil,
    check_star_abelian,
)


@dataclass(frozen=True)
class LatticeWindow:
    """A rational-valued table on a box window of Z^d.

    values are row-major with the last axis fastest; every extent is at
    least 2 so each axis difference is evaluable somewhere.
    """

    dims: tuple[int, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        dims = tuple(self.dims)
        if not dims:
            raise RangeError("window needs at least one axis")
        size = 1
        for w in dims:
            if not isinstance(w, int) or isinstance(w, bool) or w < 2:
                raise RangeError(f"extent {w!r} must be an integer >= 2")
            size *= w
        values = tuple(map(as_fraction, self.values))
        if len(values) != size:
            raise RangeError(
                f"expected {size} values for dims {dims}, got {len(values)}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return _prod(self.dims)

    def strides(self) -> tuple[int, ...]:
        return _strides(self.dims)

    def get(self, coords: Sequence[int]) -> Fraction:
        return self.values[self.index(coords)]

    def index(self, coords: Sequence[int]) -> int:
        if len(coords) != len(self.dims):
            raise RangeError("coordinate arity does not match dims")
        idx = 0
        for c, w, st in zip(coords, self.dims, self.strides()):
            if not 0 <= c < w:
                raise RangeError(f"coordinate {c} outside [0, {w})")
            idx += c * st
        return idx

    def coords(self, idx: int) -> tuple[int, ...]:
        out = []
        for w, st in zip(self.dims, self.strides()):
            out.append(idx // st % w)
        return tuple(out)

    def restrict(self, new_dims: Sequence[int]) -> "LatticeWindow":
        """Sub-window keeping coordinates below new_dims on every axis."""
        nd = tuple(new_dims)
        if len(nd) != len(self.dims) or any(a > b for a, b
                                            in zip(nd, self.dims)):
            raise RangeError("restriction must shrink within the window")
        return LatticeWindow(nd, tuple(self.get(c) for c
                                       in product(*map(range, nd))))


def _prod(dims: Sequence[int]) -> int:
    out = 1
    for w in dims:
        out *= w
    return out


def _strides(dims: Sequence[int]) -> tuple[int, ...]:
    """Row-major strides, last axis fastest."""
    out = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        out[i] = out[i + 1] * dims[i + 1]
    return tuple(out)


def _mixed_delta_at(values: Sequence[Fraction], strides: Sequence[int],
                    idx: int) -> Fraction:
    """d-fold mixed forward difference at the point with row-major index
    idx; the caller keeps every coordinate one below its upper edge."""
    total = Fraction(0)
    for applied, positive in mixed_corners(len(strides)):
        value = values[idx + sum(strides[j] for j in applied)]
        total += value if positive else -value
    return total


def _mixed_delta_witness(f: LatticeWindow) -> Optional[tuple[int, ...]]:
    """First point (lexicographic) where the full mixed difference is nonzero."""
    strides = f.strides()
    for idx in range(f.size):
        base = tuple(idx // st % w for w, st in zip(f.dims, strides))
        if any(c + 1 >= w for c, w in zip(base, f.dims)):
            continue
        if _mixed_delta_at(f.values, strides, idx) != 0:
            return base
    return None


def verify_point_violation(f: LatticeWindow,
                           point: Sequence[int]) -> VerificationResult:
    """Check a point certificate: the d-fold mixed forward difference of f
    is evaluable and nonzero there, so no split into axis-constant parts
    exists."""
    if len(point) != len(f.dims) or any(not 0 <= c < w - 1
                                        for c, w in zip(point, f.dims)):
        return VerificationResult(
            False, "point is not a stencil base inside the window")
    if _mixed_delta_at(f.values, f.strides(), f.index(point)) == 0:
        return VerificationResult(False,
                                  "mixed difference vanishes at the point")
    return VerificationResult(True)


def mixed_delta_witness(f: LatticeWindow) -> Optional[tuple[int, ...]]:
    """First point where the d-fold mixed forward difference is nonzero,
    or None when it vanishes wherever evaluable."""
    point = _mixed_delta_witness(f)
    if point is not None:
        verify_point_violation(f, point).require("point certificate")
    return point


def lattice_decompose(f: LatticeWindow,
                      base: int = 0) -> Tuple[LatticeWindow, ...]:
    """Split f into d parts, part j constant along axis j, summing to f.

    Project, subtract, repeat: for the axes j = d-1 down to 1, part j is
    the rest restricted to the slice x_j = min(base, w_j - 1) and spread
    along axis j, and it is subtracted from the rest; part 0 is what
    remains.  So part j vanishes on the base slice of every later axis,
    the gauge that different bases vary.  When the mixed difference
    vanishes the parts verify (the proof of `decomp.decompose_n`, with
    the slice restriction as the projection); otherwise PreconditionError
    names the first point where it does not.
    """
    if base < 0:
        raise PreconditionError(f"base hyperplane must be >= 0, got {base}")
    rest = list(f.values)
    parts = []
    strides = f.strides()
    for j in range(len(f.dims) - 1, 0, -1):
        w, stride = f.dims[j], strides[j]
        b = min(base, w - 1)
        part = [rest[idx + (b - idx // stride % w) * stride]
                for idx in range(f.size)]
        rest = [r - p for r, p in zip(rest, part)]
        parts.append(LatticeWindow(f.dims, tuple(part)))
    parts.append(LatticeWindow(f.dims, tuple(rest)))
    parts.reverse()
    if verify_lattice_parts(f, parts):
        return tuple(parts)
    witness = _mixed_delta_witness(f)
    if witness is None:
        raise InternalContractViolation(
            "slice construction failed verification but the mixed "
            "difference vanishes")
    raise PreconditionError(f"mixed difference is nonzero at {witness}")


def verify_lattice_parts(f: LatticeWindow,
                         parts: Sequence[LatticeWindow]) -> VerificationResult:
    """Check a lattice decomposition: one part per axis, shaped like f,
    summing to f, part j constant along axis j."""
    if len(parts) != len(f.dims) or any(p.dims != f.dims for p in parts):
        return VerificationResult(False, "parts do not match the window shape")
    columns = [integer_ratios(p.values) for p in parts]
    idx = first_sum_mismatch(integer_ratios(f.values), columns)
    if idx is not None:
        return VerificationResult(
            False, f"parts do not sum to f at {f.coords(idx)}")
    for j, (ratios, w, stride) in enumerate(zip(columns, f.dims,
                                                f.strides())):
        # a block of w lines along axis j: each point but the last line's
        # must equal its successor one stride on
        block = w * stride
        for start in range(0, f.size, block):
            end = start + block - stride
            if ratios[start:end] != ratios[start + stride:end + stride]:
                idx = next(idx for idx in range(start, end)
                           if ratios[idx] != ratios[idx + stride])
                return VerificationResult(False, f"part {j} varies along "
                                                 f"axis {j} at {f.coords(idx)}")
    return VerificationResult(True)


def slice_partitions(f: LatticeWindow) -> List[Partition]:
    """Per axis j, the window's lines along axis j as a partition.

    Functions constant along axis j are exactly those constant on these
    classes.  A line is labelled by its point with coordinate j zeroed, so
    class ids run over the other coordinates in row-major order.
    """
    return [Partition.from_labels([idx - idx // stride % w * stride
                                   for idx in range(f.size)])
            for w, stride in zip(f.dims, f.strides())]


def lattice_oracle_decompose(
    f: LatticeWindow,
) -> Union[Tuple[LatticeWindow, ...], DualCertificate]:
    """Window-level linear feasibility, independent of the construction.

    Unknowns are one value per (axis, complement slice); feasibility gives
    parts directly, infeasibility an exact dual functional on the window.
    Both are verified before they are returned.
    """
    outcome = split_over_classes(slice_partitions(f),
                                 RationalFunction(f.values))
    if isinstance(outcome, DualCertificate):
        return outcome
    parts = tuple(LatticeWindow(f.dims, values) for values in outcome)
    verify_lattice_parts(f, parts).require("window oracle parts")
    return parts


@dataclass(frozen=True)
class ZWindowDemo:
    """The canonical negative example: f(x) = x against two unit shifts."""

    length: int
    shifts: tuple[int, int]
    mixed_delta_zero: bool
    violation: Optional[StarViolation]


def z_window_counterexample(length: int = 10) -> ZWindowDemo:
    """f(x) = x on a window of Z with shifts (1, 1).

    The two shifts agree, so the double difference f(x+2) - 2 f(x+1) + f(x)
    vanishes identically; still no split into two shift-invariant parts
    exists, and the arithmetic checker returns the blocking instance
    (both indices in one block, exponent 1).
    """
    if length < 3:
        raise PreconditionError("window must have length at least 3")
    f = RationalFunction(tuple(Fraction(x) for x in range(length)))
    shifts = (1, 1)
    corners = _shift_corners(shifts)
    mixed_ok = all(not _shift_stencil(f.values, corners, z)
                   for z in range(length))
    violation = check_star_abelian(shifts, f)
    return ZWindowDemo(length, shifts, mixed_ok, violation)

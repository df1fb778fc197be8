"""Finite windows of Z^d with coordinate unit shifts.

Distinct unit shifts are unrelated: a word in two of them can only revisit
a point if the exponents match exactly, so no self-relations exist and the
vanishing mixed difference alone already characterizes decomposability.
A window is a list of total maps (`LatticeWindow.axis_maps`): the shift
along axis j fixes the points on the upper face of that axis.  A fixed
point constrains no invariant function, so the witness, the oracle and
the checkers are `star`'s, `oracle`'s and `check`'s on those tables;
`star` and `oracle` load only when a witness or an oracle verdict is
asked for.  The decomposition projects, subtracts and repeats, like
`decomp.decompose_n`: the part of each axis but the first is the rest
read off one base slice.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from operator import sub
from typing import Optional, Sequence, Tuple, Union

from .check import (
    DualCertificate,
    StarViolation,
    verify_lattice_parts,
    verify_point_violation,
)
from .core import (
    CommutingSystem,
    InternalContractViolation,
    PreconditionError,
    RangeError,
    RationalFunction,
    RationalLike,
    _Record,
    _as_fractions,
    _set_field,
    integer_values,
    window_difference,
)


def window_size(dims: Sequence[int]) -> int:
    """Point count of a box window; RangeError unless it has an axis and
    every extent is an integer >= 2."""
    if not dims:
        raise RangeError("window needs at least one axis")
    size = 1
    for w in dims:
        if not isinstance(w, int) or isinstance(w, bool) or w < 2:
            raise RangeError(f"extent {w!r} must be an integer >= 2")
        size *= w
    return size


class LatticeWindow(_Record):
    """A rational-valued table on a box window of Z^d.

    values are row-major with the last axis fastest; every extent is at
    least 2 so each axis difference is evaluable somewhere.
    """

    dims: tuple[int, ...]
    values: tuple[Fraction, ...]

    def __init__(self, dims: Sequence[int], values: Sequence[RationalLike]):
        dims = tuple(dims)
        size = window_size(dims)
        values = _as_fractions(values)
        if len(values) != size:
            raise RangeError(
                f"expected {size} values for dims {dims}, got {len(values)}")
        _set_field(self, "dims", dims)
        _set_field(self, "values", values)

    @property
    def size(self) -> int:
        return len(self.values)

    def strides(self) -> tuple[int, ...]:
        """Row-major strides, last axis fastest."""
        out = [1] * len(self.dims)
        for i in range(len(self.dims) - 2, -1, -1):
            out[i] = out[i + 1] * self.dims[i + 1]
        return tuple(out)

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
        return tuple(idx // st % w for w, st in zip(self.dims, self.strides()))

    def axis_maps(self) -> tuple[tuple[int, ...], ...]:
        """Per axis j, the table of x -> x + e_j on row-major indices, with
        x itself when x_j = w_j - 1.  Each map moves only its own
        coordinate, so they commute."""
        maps = []
        for w, stride in zip(self.dims, self.strides()):
            t = list(range(stride, self.size + stride))
            for top in range((w - 1) * stride, self.size, w * stride):
                t[top:top + stride] = range(top, top + stride)
            maps.append(tuple(t))
        return tuple(maps)

    def restrict(self, new_dims: Sequence[int]) -> "LatticeWindow":
        """Sub-window keeping coordinates below new_dims on every axis."""
        nd = tuple(new_dims)
        if len(nd) != len(self.dims) or any(a > b for a, b
                                            in zip(nd, self.dims)):
            raise RangeError("restriction must shrink within the window")
        window_size(nd)
        # the kept points' indices, as sums of one offset per axis
        offsets = product(*(range(0, w * stride, stride)
                            for w, stride in zip(nd, self.strides())))
        return _trusted(nd, tuple(self.values[sum(o)] for o in offsets))


def _trusted(dims: tuple[int, ...],
             values: tuple[Fraction, ...]) -> LatticeWindow:
    """A LatticeWindow built without the constructor's checks, for dims
    that passed `window_size` and exactly their size of Fractions read or
    computed from a window: its parts and its restrictions."""
    window = object.__new__(LatticeWindow)
    _set_field(window, "dims", dims)
    _set_field(window, "values", values)
    return window


def mixed_delta_witness(f: LatticeWindow) -> Optional[tuple[int, ...]]:
    """First point where the d-fold mixed forward difference is nonzero,
    or None when it vanishes wherever evaluable.

    This is `check_star` on the axis maps: on an upper face of axis j the
    axis-j difference is 0, and it stays 0 because no other map moves
    coordinate j, so the first nonzero point is a stencil base.
    """
    from .star import check_star

    violation = check_star(CommutingSystem(f.size, f.axis_maps()),
                           RationalFunction(f.values))
    if violation is None:
        return None
    point = f.coords(violation.instance.z)
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
    names the first point where it does not.  The slices are copied and
    subtracted on f's integer numerators over one common denominator, and
    each distinct numerator becomes one Fraction.
    """
    if base < 0:
        raise PreconditionError(f"base hyperplane must be >= 0, got {base}")
    rest, denom = integer_values(f.values)
    numerators = []
    for w, stride in zip(f.dims[:0:-1], f.strides()[:0:-1]):
        # in each block of w runs along axis j, the base slice's run
        # repeated w times
        lo = min(base, w - 1) * stride
        part = []
        for top in range(0, f.size, w * stride):
            part += rest[top + lo:top + lo + stride] * w
        rest = list(map(sub, rest, part))
        numerators.append(part)
    numerators.append(rest)
    memo = dict.fromkeys(chain.from_iterable(numerators))
    for v in memo:
        memo[v] = Fraction(v, denom)
    parts = [_trusted(f.dims, tuple(map(memo.__getitem__, part)))
             for part in reversed(numerators)]
    if verify_lattice_parts(f, parts):
        return tuple(parts)
    witness = mixed_delta_witness(f)
    if witness is None:
        raise InternalContractViolation(
            "slice construction failed verification but the mixed "
            "difference vanishes")
    raise PreconditionError(f"mixed difference is nonzero at {witness}")


def lattice_oracle_decompose(
    f: LatticeWindow,
) -> Union[Tuple[LatticeWindow, ...], DualCertificate]:
    """Window-level linear feasibility, independent of the construction.

    `oracle.verified_split` on the axis maps: unknowns are one value per
    (axis, line along it); feasibility gives verified parts directly,
    infeasibility a verified exact dual functional on the window.
    """
    from .oracle import verified_split

    outcome = verified_split(f.axis_maps(), RationalFunction(f.values))
    if isinstance(outcome, DualCertificate):
        return outcome
    return tuple(_trusted(f.dims, part.values) for part in outcome.parts)


class ZWindowDemo(_Record):
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
    from .star import check_star_abelian

    f = RationalFunction(tuple(Fraction(x) for x in range(length)))
    shifts = (1, 1)
    mixed_ok = not any(window_difference(f.values, shifts)[1])
    violation = check_star_abelian(shifts, f)
    return ZWindowDemo(length, shifts, mixed_ok, violation)

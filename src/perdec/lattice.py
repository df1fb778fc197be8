"""Finite windows of Z^d with coordinate unit shifts.

Distinct unit shifts are unrelated: a word in two of them can only revisit
a point if the exponents match exactly, so no self-relations exist and the
vanishing mixed difference alone already characterizes decomposability.
A window is a list of total maps (`LatticeWindow.axis_maps`): the map of
axis j steps toward one slice x_j = k_j and fixes the points on it, the
upper face unless a base is given.  A fixed point constrains no
invariant function, and every slice gives the same lines as classes, so
the witness is `core._mixed_difference` on the upper-face tables, the
oracle and the checkers are `oracle`'s and `check`'s on them, and the
decomposition is `decomp.decompose_n` on the base-slice tables; `decomp`
and `oracle` load only when a decomposition or an oracle verdict is asked
for.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence, Tuple, Union

from .check import (
    DualCertificate,
    StarViolation,
    verify_point_violation,
)
from .core import (
    PreconditionError,
    RangeError,
    RationalFunction,
    RationalLike,
    _mixed_difference,
    _set_field,
    _trusted_system,
)


def window_size(dims: Sequence[int]) -> int:
    """Point count of a box window; RangeError unless it has an axis,
    every extent is an integer >= 2 and the count has few enough digits
    to print in a mismatch message.  Linear in the axes: the product
    stops growing past 4 bits per digit allowed."""
    if not dims:
        raise RangeError("window needs at least one axis")
    limit = sys.get_int_max_str_digits()
    size = 1
    for w in dims:
        if not isinstance(w, int) or isinstance(w, bool) or w < 2:
            raise RangeError(f"extent {w!r} must be an integer >= 2")
        if not limit or size.bit_length() <= 4 * limit:
            size *= w
    if limit and size.bit_length() > 3 * limit and size >= 10 ** limit:
        raise RangeError(f"window point count has more than {limit} digits")
    return size


class LatticeWindow(RationalFunction):
    """A rational-valued table on a box window of Z^d: a function on the
    row-major indices, last axis fastest, with the window's extents.

    Every extent is at least 2 so each axis difference is evaluable
    somewhere.
    """

    dims: tuple[int, ...]

    def __init__(self, dims: Sequence[int], values: Sequence[RationalLike]):
        dims = tuple(dims)
        size = window_size(dims)
        super().__init__(values)
        if len(self) != size:
            raise RangeError(
                f"expected {size} values for dims {dims}, got {len(self)}")
        _set_field(self, "dims", dims)

    @property
    def size(self) -> int:
        return len(self.numerators)

    def strides(self) -> tuple[int, ...]:
        """Row-major strides, last axis fastest."""
        out = [1] * len(self.dims)
        for i in range(len(self.dims) - 2, -1, -1):
            out[i] = out[i + 1] * self.dims[i + 1]
        return tuple(out)

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

    def axis_maps(self, base: Optional[int] = None
                  ) -> tuple[tuple[int, ...], ...]:
        """Per axis j, a table on row-major indices that fixes the slice
        x_j = k_j, k_j = min(base, w_j - 1) or w_j - 1 without a base, and
        sends x to x + e_j below it and to x - e_j above it.  Each map
        moves only its own coordinate, so they commute, and each line
        along axis j is one class whose only cycle is its point on the
        slice."""
        maps = []
        for w, stride in zip(self.dims, self.strides()):
            k = w - 1 if base is None else min(base, w - 1)
            t = list(range(stride, self.size + stride))
            for lo in range(k * stride, self.size, w * stride):
                hi, end = lo + stride, lo + (w - k) * stride
                t[lo:hi] = range(lo, hi)
                t[hi:end] = range(lo, end - stride)
            maps.append(tuple(t))
        return tuple(maps)


def _trusted(dims: tuple[int, ...], f: RationalFunction) -> LatticeWindow:
    """f's pair as a LatticeWindow, built without the constructor's checks,
    for dims that passed `window_size` and f of exactly their size: a
    window's parts."""
    window = object.__new__(LatticeWindow)
    _set_field(window, "numerators", f.numerators)
    _set_field(window, "denom", f.denom)
    _set_field(window, "dims", dims)
    return window


def mixed_delta_witness(f: LatticeWindow) -> Optional[tuple[int, ...]]:
    """First point where the d-fold mixed forward difference is nonzero,
    or None when it vanishes wherever evaluable.

    This is `_mixed_difference` on the axis maps and f's numerators: on
    an upper face of axis j the axis-j difference is 0, and it stays 0
    because no other map moves coordinate j, so the first nonzero point is
    a stencil base.
    """
    row = _mixed_difference(f.axis_maps(), f.numerators)
    z = next((z for z, value in enumerate(row) if value), None)
    if z is None:
        return None
    point = f.coords(z)
    verify_point_violation(f, point).require("point certificate")
    return point


def lattice_decompose(f: LatticeWindow,
                      base: int = 0) -> Tuple[LatticeWindow, ...]:
    """Split f into d parts, part j constant along axis j, summing to f.

    `decomp.decompose_n` on `f.axis_maps(base)`, axes d-1 down to 0: part
    j is the rest read off the slice x_j = min(base, w_j - 1) and spread
    along axis j for j >= 1, and part 0 is what remains.  So part j
    vanishes on the base slice of every later axis, the gauge that
    different bases vary.  When the mixed difference does not vanish,
    PreconditionError names its first nonzero point.
    """
    if base < 0:
        raise PreconditionError(f"base hyperplane must be >= 0, got {base}")
    from .decomp import decompose_n

    outcome = decompose_n(_trusted_system(len(f), f.axis_maps(base)[::-1]),
                          f)
    if isinstance(outcome, StarViolation):
        raise PreconditionError(
            f"mixed difference is nonzero at {mixed_delta_witness(f)}")
    return tuple(_trusted(f.dims, part) for part in reversed(outcome.parts))


def lattice_oracle_decompose(
    f: LatticeWindow,
) -> Union[Tuple[LatticeWindow, ...], DualCertificate]:
    """Window-level linear feasibility, independent of the construction.

    `oracle.verified_split` on the axis maps: unknowns are one value per
    (axis, line along it); feasibility gives verified parts directly,
    infeasibility a verified exact dual functional on the window.
    """
    from .oracle import verified_split

    outcome = verified_split(f.axis_maps(), f)
    if isinstance(outcome, DualCertificate):
        return outcome
    return tuple(_trusted(f.dims, part) for part in outcome.parts)

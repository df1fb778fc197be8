"""Finite windows of Z^d as finite commuting systems.

A box window with extents w_0..w_{d-1} (every w_j >= 2) holds its points
at row-major indices, last axis fastest.  Its axis map j (`axis_maps`)
sends x to x + e_j below the upper face x_j = w_j - 1 and fixes the
points on that face.  Each map moves only its own coordinate, so the
maps commute, and each line along axis j is one class of map j whose
only cycle is its point on the face.  A function is invariant under
map j exactly when it is constant along axis j, so a split of a window
function into axis-constant parts is a split into parts invariant under
the axis maps: the finite question on a finite commuting system, which
`decomp.decompose_n`, `star.check_star` and `oracle.verified_split`
decide with the finite certificates and checkers.

Distinct unit shifts are unrelated: a word in two of them can only
revisit a point if the exponents match exactly, so the star check finds
no self-relation and its all-singleton instance, the vanishing mixed
difference, alone decides a window.
"""

from __future__ import annotations

import sys
from math import prod
from typing import Sequence

from .core import RangeError


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


def axis_maps(dims: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Per axis j of a window that `window_size` accepts, the table on
    row-major indices that sends x to x + e_j and fixes the upper face
    x_j = w_j - 1."""
    size = stride = prod(dims)
    maps = []
    for w in dims:
        stride //= w
        t = list(range(stride, size + stride))
        for lo in range((w - 1) * stride, size, w * stride):
            t[lo:lo + stride] = range(lo, lo + stride)
        maps.append(tuple(t))
    return tuple(maps)

"""Scan kernels: the inner loops of the partition and compatibility checks.

Values are integer numerators over a caller-held common denominator, so
all comparisons are integer comparisons.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Tuple

# perfbench's tracer reads implementation_name(), _compiled and the
# kmax/bound/f_num parameter names of the two scans.
_compiled = None


def implementation_name() -> str:
    return "pure"


def star_scan(head_pows, gates, kmax, bound, f_num):
    """First nonzero premise-gated mixed difference.

    head_pows[b][k][x] is block b's distinguished transform iterated k
    times (1 <= k <= kmax[b]); gates[b][k] is a bitmask over z whose bit z
    is set when block b's premise holds at exponent k and point z.  bound,
    the exponent bound the tables were built with, is not used by the scan.

    Scans exponent vectors lexicographically (each component from 1) with
    z ascending innermost, skipping z outside every block's gate; returns
    (kvec, z, value) for the first nonzero alternating-sum difference of
    f_num, else None.
    """
    nb = len(head_pows)
    everywhere = (1 << len(f_num)) - 1
    for kvec in product(*[range(1, top + 1) for top in kmax]):
        live = everywhere
        for b in range(nb):
            live &= gates[b][kvec[b]]
        if not live:
            continue
        # unit differences from the last block down, so each stencil
        # point applies block 0's table first
        row = f_num
        for b in range(nb - 1, -1, -1):
            row = [row[w] - v for w, v in zip(head_pows[b][kvec[b]], row)]
        for z, value in enumerate(row):
            if value and live >> z & 1:
                return tuple(kvec), z, value
    return None


def compat_scan(pow_a, pow_b, f_num, bound, value_on_a):
    """First value conflict over relations A^k B^n x = A^{k2} B^{n2} x.

    The compared value at (k, n, x) is f_num[A^k x] when value_on_a, else
    f_num[B^n x].  Scans x ascending, then (k + n, k) ascending, recording
    the first word reaching each image point; a conflict is the first word
    whose point was already reached with a different compared value.

    Returns (x, k, n, k2, n2, value, value2) with (k2, n2) the earlier
    word and value2 its compared value, else None.
    """
    size = len(f_num)
    for x in range(size):
        first: Dict[int, Tuple[int, int, int]] = {}
        for total in range(2 * bound + 1):
            for k in range(max(0, total - bound), min(total, bound) + 1):
                n = total - k
                base = pow_b[n][x]
                p = pow_a[k][base]
                v = f_num[pow_a[k][x]] if value_on_a else f_num[base]
                seen = first.get(p)
                if seen is None:
                    first[p] = (k, n, v)
                elif seen[2] != v:
                    return (x, k, n, seen[0], seen[1], v, seen[2])
    return None

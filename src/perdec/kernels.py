"""Scan kernel: the inner loop of the partition-condition check.

Values are integer numerators over a caller-held common denominator, so
all comparisons are integer comparisons.
"""

from __future__ import annotations

from itertools import product

# perfbench's tracer reads implementation_name(), _compiled and the
# kmax/bound/f_num parameter names of star_scan.
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

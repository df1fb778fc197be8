"""Kernel selection: compiled scans when available and safe, else pure Python.

The compiled twin works on C int64 values, so it is only used when the
integer inputs comfortably fit (the pure twin has no such limit).  Set
PERDEC_PURE=1 before import to force the pure implementations, e.g. for
benchmarking or debugging.
"""

from __future__ import annotations

import os

from . import _kernels_py as _pure

_compiled = None
if not os.environ.get("PERDEC_PURE"):
    try:
        from . import _kernels as _compiled  # type: ignore[no-redef]
    except ImportError:
        _compiled = None

# mixed differences sum 2^nb terms; stay far inside int64 territory
_INT64_SAFE = 1 << 57


def implementation_name() -> str:
    return "compiled" if _compiled is not None else "pure"


def _fits_int64(f_num, bound: int) -> bool:
    if bound >= (1 << 30) or len(f_num) >= (1 << 30):
        return False
    return all(-_INT64_SAFE <= v <= _INT64_SAFE for v in f_num)


def star_scan(head_pows, gates, kmax, bound, f_num):
    """Route one partition-condition scan to the compiled or pure kernel.

    bound, the exponent bound the power tables were built with, only takes
    part in the route check.
    """
    if _compiled is not None and _fits_int64(f_num, bound):
        return _compiled.star_scan(head_pows, gates, kmax, f_num)
    return _pure.star_scan(head_pows, gates, kmax, f_num)


def compat_scan(pow_a, pow_b, f_num, bound, value_on_a):
    if _compiled is not None and _fits_int64(f_num, bound):
        return _compiled.compat_scan(pow_a, pow_b, f_num, bound, value_on_a)
    return _pure.compat_scan(pow_a, pow_b, f_num, bound, value_on_a)

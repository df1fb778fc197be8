"""Name of the implementation behind the scans, for the benchmark record.

The mixed-difference stencil itself is `core._mixed_difference`.
"""

from __future__ import annotations


def implementation_name() -> str:
    return "pure"

"""Resource caps: one ``Meter`` per structure against ``RGF_MAX_MEM_MB``.

The cap bounds the estimated bytes each structure holds: the dense product,
triangle rows, golden partials, the residue stream's arrays and rows, the
walk's states, the carry automaton's states and rows, and the P_ib
frontier's rows and elements.  Each engine charges its own estimates to a
``Meter``, which raises the one ``ResourceLimitError`` of the cap.  Unset
or empty means the default; any other value but a positive integer is a
ValueError.
"""

from __future__ import annotations

import os

from .errors import ResourceLimitError

DEFAULT_MAX_MEM_MB = 6144

# Rough per-coefficient cost of a pure-Python dense list of small ints.
PYOBJ_BYTES_PER_COEFF = 32
# Per-entry cost of a list or object array of big ints or TPolys while a row
# is built from the one before (tracemalloc: 205, triangle rows at symbolic t).
PYOBJ_BYTES_PER_BIG_COEFF = 208


def max_mem_bytes() -> int:
    raw = os.environ.get("RGF_MAX_MEM_MB", "")
    if not raw:
        return DEFAULT_MAX_MEM_MB * (1 << 20)
    try:
        mb = int(raw)
    except ValueError:
        mb = 0
    if mb < 1:
        raise ValueError(f"RGF_MAX_MEM_MB must be a positive integer of megabytes, got {raw!r}")
    return mb * (1 << 20)


class Meter:
    """The bytes one structure holds, ``used``, against the cap read once; a
    structure that frees what it held charges a negative size."""

    def __init__(self, what: str):
        self.what, self.cap, self.used = what, max_mem_bytes(), 0

    def charge(self, size: int, n: int) -> None:
        """Add ``size``; past the cap, raise with ``limit_n`` = n."""
        self.used += size
        if self.used > self.cap:
            raise ResourceLimitError(
                f"{self.what} needs {self.used} bytes at n = {n}, over the RGF_MAX_MEM_MB cap", limit_n=n
            )

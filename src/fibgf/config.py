"""Resource caps for the polynomial engines.

``RGF_MAX_MEM_MB`` caps the estimated footprint of the pure engine's dense
coefficient list, of the residue stream's one array plus its block
temporaries, of the states the difference walk and the residue carry
automaton store, and of the rows and elements the P_ib frontier keeps (the
triangle poset is ``frontier_poset(2, 3, n)``).  The default is generous for
desk-scale work but stops runaway expansions with a clean error.  Unset or
empty means the default; any other value but a positive integer is a
ValueError.
"""

from __future__ import annotations

import os

DEFAULT_MAX_MEM_MB = 6144

# Rough per-coefficient cost of a pure-Python dense list of small ints.
PYOBJ_BYTES_PER_COEFF = 32


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

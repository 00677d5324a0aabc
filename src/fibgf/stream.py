"""numpy residue counts mod m: the fallback of the carry automaton.

``carry`` counts coefficients by residue class mod m without building the
product; this module is what ``stats.residue_series`` hands a series to when
the automaton's carries blow up.  The product lives in one preallocated
array, as long as the last partial product, of the narrowest unsigned dtype
that holds one factor's sums, so depth-30 pipelines mod 2 and 3 stay on one
byte per coefficient.  Each factor rewrites the array in place from the top
down, one ``CHUNK``-sized block at a time, and every block is reduced mod m
and counted while it is still in cache.  ``stream_plan`` sizes a series
from the spec alone, for ``stats`` and for ``residue_series_fast``, which
charges its footprint to the cap before any work.  numpy is imported on
first use, so that sizing a series and ``import fibgf`` stay numpy-free.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

from .config import PYOBJ_BYTES_PER_COEFF, Meter, max_mem_bytes
from .polynomials import ProductSpec, product_block

CHUNK = 1 << 16


class StreamPlan(NamedTuple):
    """The stream's sizes for one series, as ``stream_plan`` works them out."""

    # factors 1..n_max as (a mod m, e), one per exponent of factor_terms
    factors: list[list[tuple[int, int]]]
    lengths: list[int]  # of the partial products for n = 0..n_max
    itemsize: int  # bytes per entry
    footprint: list[int]  # bytes held for n = 0..n_max
    limit: int | None  # the first n whose footprint passes the RGF_MAX_MEM_MB cap


def stream_plan(spec: ProductSpec, m: int, n_max: int) -> StreamPlan:
    """What the stream would hold for the series, without numpy.

    Entries are below m after each reduction, and a factor adds at most
    (m - 1) * sum_j (a_j mod m) to one, so an entry takes the smallest
    unsigned width that holds (m - 1) * (1 + sum_j (a_j mod m)); past 8 bytes
    this raises ValueError.  The footprint of n factors is the array of their
    product, the block temporaries, the two m-length counts and the rows
    0..n, which the series keeps.
    """
    bound = (m - 1) * (1 + sum(aj % m for aj in spec.a))
    itemsize = next((size for size in (1, 2, 4, 8) if bound < 1 << (8 * size)), None)
    if itemsize is None:
        raise ValueError(f"residue sums mod {m} reach {bound}, past uint64")
    factors = [[(c % m, e) for c, e in spec.factor_terms(i)] for i in range(1, n_max + 1)]
    lengths = list(replace(spec, n=n_max).partial_lengths())
    # a block's product, then bincount's intp copy of it (a scaled source, while it lives, is no
    # wider), and no source copies; a factor's and a block's int64 counts
    temporaries = CHUNK * (itemsize + 8) + 16 * m
    footprint, rows = [], 0
    for length in lengths:
        rows += 8 * m + PYOBJ_BYTES_PER_COEFF * min(m, length)  # m list slots; an int per nonzero count
        footprint.append(length * itemsize + temporaries + rows)
    cap = max_mem_bytes()
    limit = next((n for n, size in enumerate(footprint) if size > cap), None)
    return StreamPlan(factors, lengths, itemsize, footprint, limit)


def residue_series_fast(spec: ProductSpec, m: int, n_max: int) -> list[list[int]]:
    """Counts of coefficients in each residue class mod m, per factor count.

    Each factor steps the array in place, ``CHUNK`` entries at a time from
    the top down: each block comes from ``product_block``, is reduced mod m,
    written back and counted.  ``spec`` has integer coefficients.  Raises
    ResourceLimitError(limit_n=n) before any work when the footprint of
    ``stream_plan`` at n would pass the RGF_MAX_MEM_MB cap.
    """
    import numpy as np

    factors, lengths, itemsize, footprint, limit = stream_plan(spec, m, n_max)
    if limit is not None:
        Meter("residue stream").charge(footprint[limit], limit)
    first = spec.prefactor_coefficients()
    if not first:
        return [[0] * m for _ in range(n_max + 1)]
    arr = np.zeros(lengths[-1], dtype=f"u{itemsize}")
    arr[: len(first)] = [c % m for c in first]
    # bincount takes intp input (numpy 1.x refuses to cast uint64)
    out = [[int(v) for v in np.bincount(arr[: len(first)].astype(np.intp), minlength=m)]]
    for i, terms in enumerate(factors):
        prev, counts = arr[: lengths[i]], np.zeros(m, dtype=np.int64)
        # exact from the top down: a block reads only entries of prev below it, none yet rewritten
        for hi in range(lengths[i + 1], 0, -CHUNK):
            lo = max(hi - CHUNK, 0)
            block = product_block(prev, terms, lo, hi)
            block %= m
            arr[lo:hi] = block
            counts += np.bincount(block.astype(np.intp), minlength=m)
        out.append([int(v) for v in counts])
    return out

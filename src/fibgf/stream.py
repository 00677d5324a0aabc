"""numpy residue counts mod m for every integer product.

The pure-Python engine in ``polynomials``/``stats`` is the small-depth
oracle; this module counts coefficients by residue class mod m along the
growing product, reducing mod m inside the stream on the narrowest unsigned
arrays that hold one factor's sums, so depth-30 pipelines mod 2 and 3 stay
on bytes.  Correlation sums do not come here: ``walk`` computes them without
expanding the product.
"""

from __future__ import annotations

import numpy as np

from .config import max_mem_bytes
from .errors import ResourceLimitError
from .polynomials import ProductSpec

CHUNK = 1 << 22


def _shift_add(arr: np.ndarray, terms: list[tuple[int, int]], i: int) -> np.ndarray:
    """arr * (1 + sum_j a_j x^{e_j}) as a new array of arr's dtype, a_j >= 0.

    The array grows by the largest exponent of ``terms`` even where that
    term's coefficient is 0, so the zero coefficients it pads stay counted.
    """
    shift = max((e for _, e in terms), default=0)
    old_len = arr.shape[0]
    new_len = old_len + shift
    if (new_len + old_len) * arr.itemsize > max_mem_bytes():
        raise ResourceLimitError(
            f"streaming product needs {new_len} coefficients at factor {i}, "
            f"over the RGF_MAX_MEM_MB cap",
            limit_n=i,
        )
    new = np.zeros(new_len, dtype=arr.dtype)
    new[:old_len] = arr
    for aj, e in terms:
        if aj == 0:
            continue
        view = new[e : e + old_len]
        np.add(view, arr if aj == 1 else arr * aj, out=view)
    return new


def _class_counts(arr: np.ndarray, m: int) -> list[int]:
    """Counts of each value 0..m-1 in arr.  ``bincount`` takes intp input
    (numpy 1.x refuses to cast uint64), so it sees one CHUNK at a time."""
    counts = np.zeros(m, dtype=np.int64)
    for start in range(0, arr.shape[0], CHUNK):
        counts += np.bincount(arr[start : start + CHUNK].astype(np.intp), minlength=m)
    return [int(v) for v in counts]


def residue_series_fast(spec: ProductSpec, m: int, n_max: int) -> list[list[int]]:
    """Counts of coefficients in each residue class mod m, per factor count.

    ``spec`` has integer coefficients.  Entries are below m after each
    reduction, and a factor adds at most (m - 1) * sum_j (a_j mod m) to one,
    so the arrays take the smallest unsigned dtype that holds
    (m - 1) * (1 + sum_j (a_j mod m)).
    """
    bound = (m - 1) * (1 + sum(aj % m for aj in spec.a))
    dtype = np.min_scalar_type(bound)
    if dtype.kind != "u":
        raise ValueError(f"residue sums mod {m} reach {bound}, past uint64")
    first = [1] if spec.prefactor is None else spec.prefactor.dense_coefficients()
    if not first:
        return [[0] * m for _ in range(n_max + 1)]
    arr = np.array([c % m for c in first], dtype=dtype)
    out = [_class_counts(arr, m)]
    for i in range(1, n_max + 1):
        arr = _shift_add(arr, [(aj % m, e) for aj, e in spec.factor_terms(i)], i)
        arr %= m
        out.append(_class_counts(arr, m))
    return out

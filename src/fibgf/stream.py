"""numpy-backed residue pipeline for large integer products.

The pure-Python engine in ``polynomials``/``stats`` is the reference; this
module counts coefficients by residue class mod m along the growing product,
reducing mod m inside the stream on byte arrays so that depth-30 pipelines
stay fast.  Correlation sums do not come here: ``walk`` computes them without
expanding the product.
"""

from __future__ import annotations

import numpy as np

from .config import max_mem_bytes
from .errors import ResourceLimitError
from .polynomials import ProductSpec

CHUNK = 1 << 22


def _int_terms(spec: ProductSpec, i: int) -> list[tuple[int, int]]:
    terms = spec.factor_terms(i)
    for aj, _ in terms:
        if not isinstance(aj, int):
            raise ValueError("fast engine requires integer factor coefficients")
    return terms


def _initial_array(spec: ProductSpec) -> np.ndarray:
    if spec.prefactor is None:
        return np.ones(1, dtype=np.int64)
    if spec.prefactor.has_symbolic_coeffs():
        raise ValueError("fast engine requires an integer prefactor")
    dense = spec.prefactor.dense_coefficients()
    if not dense:
        raise ValueError("zero prefactor is not supported by the streaming engine")
    return np.array(dense, dtype=np.int64)


def _shift_add(arr: np.ndarray, terms: list[tuple[int, int]], i: int) -> np.ndarray:
    """arr * (1 + sum_j a_j x^{e_j}) as a new array of arr's dtype.

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
        if aj == 1:
            np.add(view, arr, out=view)
        elif aj == -1:
            np.subtract(view, arr, out=view)
        else:
            np.add(view, arr * aj, out=view)
    return new


def _class_counts(arr: np.ndarray, m: int) -> list[int]:
    """Counts of each value 0..m-1 in arr; ``bincount`` widens its input to
    int64, so it sees one CHUNK at a time."""
    counts = np.zeros(m, dtype=np.int64)
    for start in range(0, arr.shape[0], CHUNK):
        counts += np.bincount(arr[start : start + CHUNK], minlength=m)
    return [int(v) for v in counts]


def residue_series_fast(spec: ProductSpec, m: int, n_max: int) -> list[list[int]]:
    """Counts of coefficients in each residue class mod m, per factor count."""
    terms = [[(aj % m, e) for aj, e in _int_terms(spec, i)] for i in range(1, n_max + 1)]
    if terms and (m - 1) * (1 + max(sum(aj for aj, _ in t) for t in terms)) > 255:
        raise ValueError("modulus too large for the byte-wide residue pipeline")
    arr = (_initial_array(spec) % m).astype(np.uint8)
    out = [_class_counts(arr, m)]
    for i, factor in enumerate(terms, 1):
        arr = _shift_add(arr, factor, i)
        arr %= m
        out.append(_class_counts(arr, m))
    return out

"""numpy-backed streaming engine for large integer coefficient pipelines.

The pure-Python engine in ``polynomials``/``stats`` is the reference; this
module re-implements the integer-specialized streaming product on int64
arrays so that depth-30+ pipelines stay fast.  Exactness is preserved:

  * coefficient growth is tracked via exact min/max after every factor and
    guarded against int64 overflow before it can happen;
  * correlation sums use either an exact value histogram (small coefficient
    values) or Chinese-remainder reconstruction over 31-bit primes with an
    a-priori magnitude bound, all in overflow-safe int64 steps;
  * residue counting reduces mod m inside the stream on byte arrays.
"""

from __future__ import annotations

import numpy as np

from .config import max_mem_bytes
from .errors import ResourceLimitError
from .polynomials import ProductSpec
from .stats import CorrSpec

INT64_MAX = (1 << 63) - 1
HIST_SPAN_CAP = 1 << 22  # largest value-histogram we are willing to allocate
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


def stream_product(spec: ProductSpec, n_max: int):
    """Yield (i, array, abs_max) for i = 0..n_max along the growing product.

    ``array`` holds the exact coefficients of x^0..x^deg as int64; it is the
    live buffer and must not be mutated by consumers.
    """
    arr = _initial_array(spec)
    abs_max = max(int(arr.max()), -int(arr.min()))
    yield 0, arr, abs_max
    for i in range(1, n_max + 1):
        terms = _int_terms(spec, i)
        growth = 1 + sum(abs(aj) for aj, _ in terms)
        if abs_max * growth > INT64_MAX:
            raise ResourceLimitError(
                f"coefficients would overflow int64 at factor {i}", limit_n=i
            )
        arr = _shift_add(arr, terms, i)
        abs_max = max(int(arr.max()), -int(arr.min()))
        yield i, arr, abs_max


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin for n < 3.3e24
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_PRIME_CACHE: list[int] = []


def _primes_for_bound(bound: int) -> list[int]:
    """31-bit primes whose product exceeds 2*bound + 2."""
    need = 2 * bound + 2
    out: list[int] = []
    prod = 1
    idx = 0
    while prod <= need:
        if idx == len(_PRIME_CACHE):
            candidate = (_PRIME_CACHE[-1] - 2) if _PRIME_CACHE else ((1 << 31) - 1)
            while not _is_prime(candidate):
                candidate -= 2
            _PRIME_CACHE.append(candidate)
        p = _PRIME_CACHE[idx]
        out.append(p)
        prod *= p
        idx += 1
    return out


def _crt_combine(primes: list[int], residues: list[int]) -> int:
    x, modulus = 0, 1
    for p, r in zip(primes, residues):
        inv = pow(modulus % p, -1, p)
        t = ((r - x) * inv) % p
        x += modulus * t
        modulus *= p
    if x > modulus // 2:
        x -= modulus
    return x


def _pow_mod_vec(v: np.ndarray, e: int, p: int) -> np.ndarray:
    out = v.copy()
    for _ in range(e - 1):
        out *= v
        out %= p
    return out


def _corr_value_crt(arr: np.ndarray, alpha: tuple[int, ...], abs_max: int) -> int:
    """Exact windowed correlation sum via CRT over 31-bit primes."""
    deg = arr.shape[0] - 1
    active = [j for j, a in enumerate(alpha) if a]
    top = active[-1]
    n_windows = deg + 1 - top
    if n_windows <= 0:
        return 0
    bound = (deg + 1) * pow(max(abs_max, 1), sum(alpha))
    primes = _primes_for_bound(bound)
    residues = []
    for p in primes:
        total = 0
        for start in range(0, n_windows, CHUNK):
            stop = min(start + CHUNK, n_windows)
            acc = None
            for j in active:
                w = arr[start + j : stop + j] % p
                if alpha[j] > 1:
                    w = _pow_mod_vec(w, alpha[j], p)
                if acc is None:
                    acc = w
                else:
                    acc = acc * w % p
            total = (total + int(acc.sum())) % p
        residues.append(total)
    return _crt_combine(primes, residues)


def _value_histogram(arr: np.ndarray) -> list[tuple[int, int]]:
    """(value, count) for each nonzero value in arr (its span must be small)."""
    lo, hi = int(arr.min()), int(arr.max())
    span = hi - lo + 1
    counts = np.zeros(span, dtype=np.int64)
    n = arr.shape[0]
    for start in range(0, n, CHUNK):
        chunk = arr[start : min(start + CHUNK, n)]
        if lo:
            chunk = chunk - lo
        counts += np.bincount(chunk, minlength=span)
    return [(int(idx) + lo, int(counts[idx])) for idx in np.nonzero(counts)[0] if idx + lo]


def multi_corr_series_fast(spec: ProductSpec, alphas: list[CorrSpec], n_max: int) -> list[list[int]]:
    """Several correlation series from a single streamed product build; exact.

    Returns one list per alpha, aligned with 0..n_max.  While the values
    span at most HIST_SPAN_CAP, the single-index alphas share one value
    histogram per step; every other sum is reconstructed by CRT.
    """
    outs: list[list[int]] = [[] for _ in alphas]
    for _, arr, abs_max in stream_product(spec, n_max):
        hist = None
        for slot, a in zip(outs, alphas):
            if len(a.alpha) == 1 and 2 * abs_max + 1 <= HIST_SPAN_CAP:
                if hist is None:
                    hist = _value_histogram(arr)
                slot.append(sum(count * v ** a.alpha[0] for v, count in hist))
            else:
                slot.append(_corr_value_crt(arr, a.alpha, abs_max))
    return outs


def residue_series_fast(spec: ProductSpec, m: int, n_max: int) -> list[list[int]]:
    """Counts of coefficients in each residue class mod m, per factor count."""
    terms = [[(aj % m, e) for aj, e in _int_terms(spec, i)] for i in range(1, n_max + 1)]
    if terms and (m - 1) * (1 + max(sum(aj for aj, _ in t) for t in terms)) > 255:
        raise ValueError("modulus too large for the byte-wide residue pipeline")
    arr = (_initial_array(spec) % m).astype(np.uint8)
    out = [[int(v) for v in np.bincount(arr, minlength=m)]]
    for i, factor in enumerate(terms, 1):
        arr = _shift_add(arr, factor, i)
        arr %= m
        out.append([int(v) for v in np.bincount(arr, minlength=m)])
    return out

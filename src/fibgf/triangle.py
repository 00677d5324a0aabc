"""The grouped weight triangle: rows, marks, and the 7-term recurrence.

A row is its entries together with a marks string over f/m/l: each entry is
the first, middle or last member of a group of two or three.  A group
boundary sits exactly where an ``l`` is followed by an ``f``.  Only the first
group may start with ``m`` (its first member is a virtual zero before the
row) and only the last may end with ``m`` (a virtual zero after it).  Row
n+1 is produced from row n by these rules, writing t for the weight, which
``next_row`` applies to the whole row at once as array operations:

  * a row that starts with ``f`` (entry b) first gives (b, t*b), marked ``ml``;
  * each ``m`` entry a gives (a, t*a), marked ``fl``;
  * each ``l`` entry e followed by an ``f`` entry b gives (e, b + t*e, t*b),
    marked ``fml``;
  * a row that ends with ``l`` (entry e) last gives (e, t*e), marked ``fm``.

With these conventions the entries of row n are exactly the coefficients of
prod_{i=1}^{n} (1 + t x^{F_{i+1}}), which ``verify_rows_match_product``
checks rather than assumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .config import PYOBJ_BYTES_PER_BIG_COEFF, Meter
from .errors import InvariantError
from .polynomials import INT64_MAX, TPoly, product_block
from .sequences import fibonacci


@dataclass(frozen=True, eq=False)
class GroupedRow:
    entries: object  # a 1-D numpy array: int64, or object for Python ints and TPoly
    marks: str  # one of f/m/l per entry
    index: int


def _next_dtype(row: GroupedRow | None, t):
    """The dtype of the row after ``row`` (row 1 for None): int64 while its entries,
    at most (1 + |t|) times the largest of ``row``, fit it; else object."""
    import numpy as np

    if not isinstance(t, int) or (row is not None and row.entries.dtype == object):
        return object
    top = 1 if row is None else int(np.abs(row.entries).max())
    return np.int64 if (1 + abs(t)) * top <= INT64_MAX else object


def first_row(t=1) -> GroupedRow:
    """Row 1, (1, t)."""
    import numpy as np

    return GroupedRow(entries=np.array([1, t], dtype=_next_dtype(None, t)), marks="fl", index=1)


def next_row(row: GroupedRow, t=1) -> GroupedRow:
    """Apply the production rule once, on arrays.

    Each entry v gives the pair (v, t*v); at each l-f boundary the l's t*e
    and the f's b add into one entry, so the new marks read m -> fl, inner
    l -> fml, inner f -> "", with a leading f -> ml and a trailing l -> fm.
    An int64 row whose new entries could pass ``INT64_MAX`` steps on Python
    ints instead.

    Each new entry covers the entries of this row it is summed from; those
    covers make the triangle poset, which is P_{2,3}:
    ``poset.frontier_poset(2, 3, n)`` grows it.
    """
    import numpy as np

    vals, marks = row.entries.astype(_next_dtype(row, t), copy=False), row.marks
    flat = np.stack((vals, t * vals), axis=1).reshape(-1)  # v_0, t v_0, v_1, t v_1, ...
    codes = np.frombuffer(marks.encode(), np.uint8)
    lf = (codes[:-1] == ord("l")) & (codes[1:] == ord("f"))  # an l-f boundary after entry k
    merged = flat[1:-1:2]  # t v_k, which takes v_{k+1} at a boundary
    merged[lf] += flat[2::2][lf]
    keep = np.ones(flat.shape[0], bool)
    keep[2::2] = ~lf
    new_marks = marks.replace("f", "").replace("m", "FL").replace("l", "fml").lower()
    if marks[0] == "f":
        new_marks = "ml" + new_marks
    if marks[-1] == "l":
        new_marks = new_marks[:-3] + "fm"
    return GroupedRow(entries=flat[keep], marks=new_marks, index=row.index + 1)


# What an int64 row step holds per entry of the two rows alive: the entry,
# the pairs array, the masks and the marks (tracemalloc: 17.5).
INT64_ROW_BYTES = 18


def triangle_rows(n_max: int, t=1):
    """Yield rows 1..n_max (none when n_max = 0); ValueError for a negative n_max.

    Row n has F_{n+3} - 1 entries, as its product has coefficients, and is
    built while row n - 1 is held: step n charges the F_{n+2} entries by
    which row n outgrows row n - 2, at ``INT64_ROW_BYTES``, or at
    ``PYOBJ_BYTES_PER_BIG_COEFF`` when row n is object (77 at t = 2^21)
    each, limit_n = n."""
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    meter = Meter("triangle rows")
    row = None
    for n in range(1, n_max + 1):
        entry_bytes = PYOBJ_BYTES_PER_BIG_COEFF if _next_dtype(row, t) is object else INT64_ROW_BYTES
        meter.charge(entry_bytes * fibonacci(n + 2), n)
        row = first_row(t) if row is None else next_row(row, t)
        yield row


def verify_rows_match_product(n_max: int, t=1) -> None:
    """Check entries of row n = coefficients of prod_{i<=n} (1 + t x^{F_{i+1}}), n <= n_max.

    Each row is checked against the row before it, from the empty product
    (1), so no product is built: with L entries in row n - 1 and
    F = F_{n+1}, row n must have L + F entries, below F those of row n - 1,
    from F to L those of row n - 1 plus t times its first L - F, and from L
    on t times its last F.  That is row n - 1 times 1 + t x^F, so by
    induction every row is its product.  Raises InvariantError carrying the
    first mismatching exponent, or the row index when the lengths differ.
    """
    import numpy as np

    prev = GroupedRow(entries=np.ones(1, np.int64), marks="", index=0)  # the empty product
    for row in triangle_rows(n_max, t):
        _check_step(prev, row, t)
        prev = row


# entries compared at a time, so that the temporaries stay small
_CHECK_BLOCK = 1024


def _check_step(prev: GroupedRow, row: GroupedRow, t) -> None:
    """Check ``row`` against ``prev`` times 1 + t x^F, F = F_{row.index+1},
    ``_CHECK_BLOCK`` entries at a time from exponent 0, each block of the
    right-hand side from ``product_block`` in the dtype ``next_row`` steps
    in, so each comparison is exact."""
    import numpy as np

    shift = fibonacci(row.index + 1)
    size = len(prev.entries) + shift
    if len(row.entries) != size:
        raise InvariantError(f"row {row.index} has {len(row.entries)} entries, product has {size}", detail=row.index)
    low = prev.entries.astype(_next_dtype(prev, t), copy=False)
    for start in range(0, size, _CHECK_BLOCK):
        stop = min(start + _CHECK_BLOCK, size)
        bad = np.flatnonzero(row.entries[start:stop] != product_block(low, [(t, shift)], start, stop))
        if bad.size:
            k = start + int(bad[0])
            raise InvariantError(f"row {row.index} disagrees with the product at exponent {k}", detail=k)


def format_row(row: GroupedRow) -> str:
    """Entries separated by spaces, with a bullet before each f that follows an l."""
    parts: list[str] = []
    for value, prev, mark in zip(row.entries.tolist(), " " + row.marks, row.marks):
        if prev + mark == "lf":
            parts.append("•")
        parts.append(str(value))
    return " ".join(parts)


# -- the seven mark-correlation sums and their transition matrix -------------

CORRELATION_NAMES = ("A1", "A2", "A3", "A31", "A12", "A13", "A23")

MARK_MATRIX = (
    (0, 1, 1, 0, 0, 0, 0),
    (1, 0, 1, 2, 0, 0, 0),
    (1, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 1, 1),
    (0, 0, 1, 1, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0),
    (1, 0, 0, 1, 0, 0, 0),
)


def _int_entries(row: GroupedRow):
    """The row's entries in a dtype that holds their products and sums: int64
    while len * max^2 fits it, else Python ints; ValueError for symbolic ones."""
    import numpy as np

    vals = row.entries
    if vals.dtype == object:
        if not all(map(isinstance, vals, repeat(int))):
            raise ValueError("mark correlations need integer entries; specialize t")
        return vals
    top = int(np.abs(vals).max(initial=0))
    return vals if vals.shape[0] * top * top <= INT64_MAX else vals.astype(object)


def a_vector(row: GroupedRow) -> tuple[int, ...]:
    """(A1, A2, A3, A31, A12, A13, A23): squared and adjacent mark sums.

    Each is a masked dot product: the sum of v_k v_{k+s} over the k with
    mark x at k and mark y at k + s, with s = 0 for the squares and s = 1
    for the products of an x entry with the y entry after it.
    """
    import numpy as np

    vals = _int_entries(row)
    codes = np.frombuffer(row.marks.encode(), np.uint8)
    f, m, l = (codes == ord(mark) for mark in "fml")

    def dot(x, y, s: int) -> int:
        both = x[: len(x) - s] & y[s:]
        return int(vals[: len(vals) - s][both] @ vals[s:][both])

    return tuple(dot(*xys) for xys in ((f, f, 0), (m, m, 0), (l, l, 0), (l, f, 1), (f, m, 1), (f, l, 1), (m, l, 1)))


def _mat_vec(m, v):
    return tuple(sum(mij * vj for mij, vj in zip(row, v)) for row in m)


def verify_m_recurrence(n_max: int) -> dict:
    """Check v(n+1) = M v(n) and A1+A2+A3 = sum of squared entries, n < n_max.

    Returns a report with the first index where the matrix recurrence holds
    onward, the verified range, and any failure detail.  Of each row only
    its vector is kept.
    """
    vs, sum_ok = [], True
    for row in triangle_rows(n_max, t=1):
        vs.append(a_vector(row))
        vals = _int_entries(row)
        sum_ok = sum_ok and sum(vs[-1][:3]) == int(vals @ vals)
    failures = []
    for n in range(1, n_max):
        if _mat_vec(MARK_MATRIX, vs[n - 1]) != vs[n]:
            failures.append({"n": n, "v_n": vs[n - 1], "v_next": vs[n]})
    return {
        "status": "pass" if not failures and sum_ok else "fail",
        "checked_until": n_max,
        "first_valid_index": 1 if not failures else None,
        "matrix_failures": failures,
        "square_sum_identity": sum_ok,
        "vectors": {1: list(vs[0]), 2: list(vs[1])} if n_max >= 2 else {},
    }


def mark_matrix_charpoly() -> TPoly:
    """det(xI - M) as an integer polynomial (TPoly reused as Z[x])."""
    x = TPoly.t()
    mat = [[x - mij if i == j else TPoly((-mij,)) for j, mij in enumerate(row)]
           for i, row in enumerate(MARK_MATRIX)]
    return _det(mat)


def _det(mat) -> TPoly:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = TPoly()
    for j in range(n):
        if not mat[0][j]:
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * _det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def expected_charpoly() -> TPoly:
    """x^2 (x+1)^2 (x^3 - 2x^2 - 2x + 2)."""
    x2 = TPoly((0, 0, 1))
    xp1 = TPoly((1, 1))
    cubic = TPoly((2, -2, -2, 1))
    return x2 * xp1 * xp1 * cubic

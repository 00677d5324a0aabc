"""The grouped weight triangle: rows, marks, and the 7-term recurrence.

A row is its entries together with a marks string over f/m/l: each entry is
the first, middle or last member of a group of two or three.  A group
boundary sits exactly where an ``l`` is followed by an ``f``.  Only the first
group may start with ``m`` (its first member is a virtual zero before the
row) and only the last may end with ``m`` (a virtual zero after it).  Row
n+1 is produced from row n by one left-to-right pass over the marks, writing
t for the weight:

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
from itertools import compress, repeat
from operator import mul

from .config import PYOBJ_BYTES_PER_COEFF, Meter
from .errors import InvariantError
from .polynomials import TPoly, fibonacci_product_spec, partial_products
from .sequences import fibonacci


@dataclass(frozen=True)
class GroupedRow:
    entries: tuple
    marks: str  # one of f/m/l per entry
    index: int


def first_row(t=1) -> GroupedRow:
    return GroupedRow(entries=(1, t), marks="fl", index=1)


def next_row(row: GroupedRow, t=1) -> GroupedRow:
    """Apply the production rule once.

    Each new entry covers the entries of this row it is summed from; those
    covers make the triangle poset, which is P_{2,3}:
    ``poset.frontier_poset(2, 3, n)`` grows it.
    """
    vals, marks = row.entries, row.marks
    # the entries times t (the entries themselves at t = 1)
    tvals = vals if isinstance(t, int) and t == 1 else [t * v for v in vals]
    entries: list = []
    new_marks: list[str] = []
    if marks[0] == "f":
        entries += (vals[0], tvals[0])
        new_marks.append("ml")
    last = len(marks) - 1
    for k, mark in enumerate(marks):
        if mark == "m":
            entries += (vals[k], tvals[k])
            new_marks.append("fl")
        elif mark == "l" and k < last:  # an inner l is always followed by an f
            entries += (vals[k], vals[k + 1] + tvals[k], tvals[k + 1])
            new_marks.append("fml")
    if marks[-1] == "l":
        entries += (vals[-1], tvals[-1])
        new_marks.append("fm")
    return GroupedRow(entries=tuple(entries), marks="".join(new_marks), index=row.index + 1)


def triangle_rows(n_max: int, t=1):
    """Yield rows 1..n_max (none when n_max = 0); ValueError for a negative n_max.

    Row n has F_{n+3} - 1 entries, as its product has coefficients, and is
    built while row n - 1 is held: step n charges the F_{n+2} entries by which
    row n outgrows row n - 2 at ``PYOBJ_BYTES_PER_COEFF`` each, limit_n = n."""
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    meter = Meter("triangle rows")
    row = None
    for n in range(1, n_max + 1):
        meter.charge(PYOBJ_BYTES_PER_COEFF * fibonacci(n + 2), n)
        row = first_row(t) if row is None else next_row(row, t)
        yield row


def verify_rows_match_product(n_max: int, t=1) -> None:
    """Check entries of row n = coefficients of the weighted product, n <= n_max.

    Each row is compared with its partial product as ``partial_products``
    yields it, so no partial product outlives its row.  Raises
    InvariantError carrying the first mismatching exponent, or the row index
    when the lengths differ.
    """
    partials = partial_products(fibonacci_product_spec(n_max, t=t))
    next(partials)  # the empty product has no row
    for row, partial in zip(triangle_rows(n_max, t), partials):
        coeffs = partial.dense_coefficients()
        if len(coeffs) != len(row.entries):
            raise InvariantError(
                f"row {row.index} has {len(row.entries)} entries, product has {len(coeffs)}",
                detail=row.index,
            )
        if list(row.entries) != coeffs:
            k = next(k for k, (a, b) in enumerate(zip(row.entries, coeffs)) if a != b)
            raise InvariantError(f"row {row.index} disagrees with the product at exponent {k}", detail=k)


def format_row(row: GroupedRow) -> str:
    """Entries separated by spaces, with a bullet before each f that follows an l."""
    parts: list[str] = []
    for value, prev, mark in zip(row.entries, " " + row.marks, row.marks):
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


# bytes.translate tables: a marks byte to 1 where it is the given mark, else to 0
_MARK_TABLES = {mark: bytes(int(byte == ord(mark)) for byte in range(256)) for mark in "fml"}


def a_vector(row: GroupedRow) -> tuple[int, ...]:
    """(A1, A2, A3, A31, A12, A13, A23): squared and adjacent mark sums.

    Each mark has a 0/1 byte mask over the marks string.  A mark's mask
    picks its entries to square; the AND of x's mask, read as an int, with
    y's shifted down one byte picks the products of an x entry with the y
    entry after it.
    """
    vals = row.entries
    if not all(map(isinstance, vals, repeat(int))):
        raise ValueError("mark correlations need integer entries; specialize t")
    f, m, l = (row.marks.encode().translate(_MARK_TABLES[mark]) for mark in "fml")

    def squares(mask: bytes) -> int:
        picked = list(compress(vals, mask))
        return sum(map(mul, picked, picked))

    products = list(map(mul, vals, vals[1:]))
    f_int, m_int, l_int = (int.from_bytes(mask, "little") for mask in (f, m, l))

    def pairs(left: int, right: int) -> int:
        return sum(compress(products, (left & right >> 8).to_bytes(len(f), "little")))

    return (
        squares(f),
        squares(m),
        squares(l),
        pairs(l_int, f_int),
        pairs(f_int, m_int),
        pairs(f_int, l_int),
        pairs(m_int, l_int),
    )


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
        sum_ok = sum_ok and sum(vs[-1][:3]) == sum(map(mul, row.entries, row.entries))
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

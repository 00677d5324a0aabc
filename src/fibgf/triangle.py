"""The grouped weight triangle: rows, groups, marks, and the 7-term recurrence.

Rows are sequences of scalars partitioned into consecutive groups of two or
three members, where a group may carry *virtual* zero sentinels at the row
boundary.  Row n+1 is produced from row n by an operational rule validated
against the defining product: writing t for the weight,

  * below each middle entry a of a 3-group: the 2-group (a, t*a);
  * below each (group-end e, next-group-begin b) pair: the 3-group
    (e, b + t*e, t*b);
  * when the leading group has no virtual first member, a leading boundary
    pair (virtual 0, first entry b) fires, giving a 3-group (virt, b, t*b)
    whose first slot is a virtual zero; symmetrically on the right with
    (e, t*e, virt).

With these conventions the entries of row n are exactly the coefficients of
prod_{i=1}^{n} (1 + t x^{F_{i+1}}), which ``verify_rows_match_product``
checks rather than assumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import InvariantError
from .polynomials import CoeffPoly, TPoly, build_product, fibonacci_product_spec


@dataclass(frozen=True)
class Group:
    start: int            # index of the first visible member
    length: int           # counts virtual sentinel members (2 or 3)
    leading_virtual: bool = False
    trailing_virtual: bool = False

    @property
    def visible(self) -> int:
        return self.length - int(self.leading_virtual) - int(self.trailing_virtual)

    def roles(self) -> list[str]:
        """Marks of the visible members: 'f'irst / 'm'iddle / 'l'ast."""
        slots = ["f", "l"] if self.length == 2 else ["f", "m", "l"]
        if self.leading_virtual:
            slots = slots[1:]
        if self.trailing_virtual:
            slots = slots[:-1]
        return slots


@dataclass(frozen=True)
class GroupedRow:
    entries: tuple
    groups: tuple[Group, ...]
    index: int

    def marks(self) -> list[str]:
        out: list[str] = []
        for g in self.groups:
            out.extend(g.roles())
        if len(out) != len(self.entries):
            raise InvariantError("groups do not tile the row", detail=self.index)
        return out


@dataclass(frozen=True)
class Production:
    """One group of the next row: ``kind`` in {lead, pair, middle, trail}.

    ``parents`` holds the source positions in the current row (left first).
    """

    kind: str
    parents: tuple[int, ...]


# The production rule: per kind, the visible children of the new group, left
# to right, each a sum of (parent slot, power of t) terms.  ``next_row``
# evaluates it.  The children's covers make the triangle poset, which is
# P_{2,3}: ``poset.frontier_poset(2, 3, n)`` grows it.
CHILDREN = {
    "lead": (((0, 0),), ((0, 1),)),
    "pair": (((0, 0),), ((0, 1), (1, 0)), ((1, 1),)),
    "middle": (((0, 0),), ((0, 1),)),
    "trail": (((0, 0),), ((0, 1),)),
}


def production_plan(row: GroupedRow) -> list[Production]:
    """The left-to-right production schedule for the next row."""
    plan: list[Production] = []
    groups = row.groups
    first, last = groups[0], groups[-1]
    if not first.leading_virtual:
        plan.append(Production("lead", (first.start,)))
    for gi, g in enumerate(groups):
        if gi > 0:
            prev = groups[gi - 1]
            e = prev.start + prev.visible - 1
            plan.append(Production("pair", (e, g.start)))
        if g.length == 3:  # the middle member is never virtual
            plan.append(Production("middle", (g.start + 1 - g.leading_virtual,)))
    if not last.trailing_virtual:
        plan.append(Production("trail", (last.start + last.visible - 1,)))
    return plan


def first_row(t=1) -> GroupedRow:
    return GroupedRow(entries=(1, t if not isinstance(t, int) else t), groups=(Group(0, 2),), index=1)


def next_row(row: GroupedRow, t=1) -> GroupedRow:
    """Apply the production rule once."""
    entries: list = []
    groups: list[Group] = []
    vals = row.entries
    # by power of t: the entries, and the entries times t (the same at t = 1)
    weighted = (vals, vals if isinstance(t, int) and t == 1 else [t * v for v in vals])
    for prod in production_plan(row):
        start = len(entries)
        parents = prod.parents
        for terms in CHILDREN[prod.kind]:
            (slot, power), *rest = terms
            value = weighted[power][parents[slot]]
            for slot, power in rest:
                value = value + weighted[power][parents[slot]]
            entries.append(value)
        lead, trail = prod.kind == "lead", prod.kind == "trail"
        groups.append(Group(start, len(entries) - start + lead + trail, leading_virtual=lead, trailing_virtual=trail))
    return GroupedRow(entries=tuple(entries), groups=tuple(groups), index=row.index + 1)


def triangle_rows(n_max: int, t=1):
    """Yield rows 1..n_max (none when n_max = 0); ValueError for a negative n_max."""
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    row = None
    for _ in range(n_max):
        row = first_row(t) if row is None else next_row(row, t)
        yield row


def verify_rows_match_product(n_max: int, t=1) -> None:
    """Check entries of row n = coefficients of the weighted product, n <= n_max.

    Raises InvariantError carrying the first mismatching exponent.
    """
    partials: dict[int, CoeffPoly] = {}
    build_product(fibonacci_product_spec(n_max, t=t), callback=lambda i, p: partials.__setitem__(i, p))
    for row in triangle_rows(n_max, t):
        coeffs = partials[row.index].dense_coefficients()
        if len(coeffs) != len(row.entries):
            raise InvariantError(
                f"row {row.index} has {len(row.entries)} entries, product has {len(coeffs)}",
                detail=row.index,
            )
        if list(row.entries) == coeffs:
            continue
        k = next(k for k, (a, b) in enumerate(zip(row.entries, coeffs)) if a != b)
        raise InvariantError(f"row {row.index} disagrees with the product at exponent {k}", detail=k)


def format_row(row: GroupedRow) -> str:
    """Entries separated by spaces with a bullet between groups."""
    parts: list[str] = []
    for gi, g in enumerate(row.groups):
        if gi > 0:
            parts.append("•")
        parts.extend(str(row.entries[g.start + off]) for off in range(g.visible))
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


def a_vector(row: GroupedRow) -> tuple[int, ...]:
    """(A1, A2, A3, A31, A12, A13, A23): squared and adjacent mark sums."""
    marks = row.marks()
    vals = row.entries
    if any(not isinstance(v, int) for v in vals):
        raise ValueError("mark correlations need integer entries; specialize t")
    firsts = [v if m == "f" else 0 for v, m in zip(vals, marks)]
    mids = [v if m == "m" else 0 for v, m in zip(vals, marks)]
    lasts = [v if m == "l" else 0 for v, m in zip(vals, marks)]

    def dot(xs, ys):  # sum x_k y_k over the shorter length
        return sum(map(mul, xs, ys))

    return (
        dot(firsts, firsts),
        dot(mids, mids),
        dot(lasts, lasts),
        dot(lasts, firsts[1:]),
        dot(firsts, mids[1:]),
        dot(firsts, lasts[1:]),
        dot(mids, lasts[1:]),
    )


def _mat_vec(m, v):
    return tuple(sum(mij * vj for mij, vj in zip(row, v)) for row in m)


def verify_m_recurrence(n_max: int) -> dict:
    """Check v(n+1) = M v(n) and A1+A2+A3 = sum of squared entries, n < n_max.

    Returns a report with the first index where the matrix recurrence holds
    onward, the verified range, and any failure detail.
    """
    rows = list(triangle_rows(n_max, t=1))
    vs = [a_vector(r) for r in rows]
    sq = [sum(v * v for v in r.entries) for r in rows]
    failures = []
    for n in range(1, n_max):
        if _mat_vec(MARK_MATRIX, vs[n - 1]) != vs[n]:
            failures.append({"n": n, "v_n": vs[n - 1], "v_next": vs[n]})
    sum_ok = all(vs[n - 1][0] + vs[n - 1][1] + vs[n - 1][2] == sq[n - 1] for n in range(1, n_max + 1))
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
        if mat[0][j].is_zero():
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

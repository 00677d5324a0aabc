import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibgf.triangle
from fibgf.checks import run_check
from fibgf.errors import InvariantError, ResourceLimitError
from fibgf.polynomials import TPoly, build_product, fibonacci_product_spec, partial_products
from fibgf.sequences import fibonacci
from fibgf.triangle import (
    GroupedRow,
    a_vector,
    expected_charpoly,
    first_row,
    format_row,
    mark_matrix_charpoly,
    next_row,
    triangle_rows,
    verify_m_recurrence,
    verify_rows_match_product,
)


def test_first_row():
    assert first_row(1).entries.tolist() == [1, 1]
    t = TPoly.t()
    assert first_row(t).entries.tolist() == [1, t]
    assert first_row(-1).entries.tolist() == [1, -1]
    assert first_row(1).entries.dtype == np.int64
    assert first_row(t).entries.dtype == object == first_row(2**63).entries.dtype


def test_triangle_rows_yields_exactly_n_max_rows():
    for n_max in (0, 1, 2, 5):
        rows = list(triangle_rows(n_max, 1))
        assert [row.index for row in rows] == list(range(1, n_max + 1))
    verify_rows_match_product(0)


def test_negative_row_count_is_rejected():
    for n_max in (-3, -1):
        with pytest.raises(ValueError, match="n_max >= 0"):
            list(triangle_rows(n_max, 1))
    with pytest.raises(ValueError, match="n_max >= 0"):
        verify_m_recurrence(-2)


def _group_spans(marks):
    """(start, stop) of each group: the marks split at every l followed by an f."""
    cuts = [0, *(m.start() for m in re.finditer("(?<=l)f", marks)), len(marks)]
    return list(zip(cuts, cuts[1:]))


def test_row_progression_matches_display():
    rows = list(triangle_rows(5, 1))
    assert rows[1].entries.tolist() == [1, 1, 1, 1]
    assert rows[2].entries.tolist() == [1, 1, 1, 2, 1, 1, 1]
    assert rows[3].entries.tolist() == [1, 1, 1, 2, 1, 2, 2, 1, 2, 1, 1, 1]
    assert rows[4].entries.tolist() == [1, 1, 1, 2, 1, 2, 2, 1, 3, 2, 2, 3, 1, 2, 2, 1, 2, 1, 1, 1]
    groups5 = [tuple(rows[4].entries[i:j].tolist()) for i, j in _group_spans(rows[4].marks)]
    assert groups5 == [(1, 1), (1, 2, 1), (2, 2), (1, 3, 2), (2, 3, 1), (2, 2), (1, 2, 1), (1, 1)]


def test_weighted_row_production():
    t = TPoly.t()
    r2 = next_row(first_row(t), t)
    assert r2.entries.tolist() == [1, t, t, t * t]


def test_row_sizes():
    for row in triangle_rows(16, 1):
        assert len(row.entries) == fibonacci(row.index + 3) - 1


def test_virtual_edge_parity():
    # a row starts and ends with a middle (a virtual edge member) exactly when n is even
    for row in triangle_rows(22, 1):
        assert (row.marks[0] == "m") == (row.index % 2 == 0)
        assert (row.marks[-1] == "m") == (row.index % 2 == 0)


def test_group_sizes_and_marks_tile():
    for row in triangle_rows(12, 1):
        assert len(row.marks) == len(row.entries)
        groups = [row.marks[i:j] for i, j in _group_spans(row.marks)]
        # with its virtual members restored, every group is f l or f m l
        padded = [("f" if g[0] == "m" else "") + g + ("l" if g[-1] == "m" else "") for g in groups]
        assert set(padded) <= {"fl", "fml"}
        # only the first group may start with m, only the last may end with it
        assert all(g[0] == "f" for g in groups[1:]) and all(g[-1] == "l" for g in groups[:-1])


def test_marks_of_virtual_boundary_row():
    r2 = list(triangle_rows(2, 1))[1]
    assert r2.marks == "mlfm"


def test_a_vector_examples():
    rows = list(triangle_rows(4, 1))
    assert a_vector(rows[0]) == (1, 0, 1, 0, 0, 1, 0)
    assert a_vector(rows[1]) == (1, 2, 1, 1, 1, 0, 1)
    assert a_vector(rows[3]) == (7, 10, 7, 6, 5, 4, 5)


def _a_vector_by_lists(row: GroupedRow) -> tuple[int, ...]:
    """The list version ``a_vector`` replaced, as its reference: one
    full-length list per mark, zero off the mark."""
    vals, marks = row.entries.tolist(), row.marks
    firsts = [v if m == "f" else 0 for v, m in zip(vals, marks)]
    mids = [v if m == "m" else 0 for v, m in zip(vals, marks)]
    lasts = [v if m == "l" else 0 for v, m in zip(vals, marks)]

    def dot(xs, ys):
        return sum(x * y for x, y in zip(xs, ys))

    return (
        dot(firsts, firsts),
        dot(mids, mids),
        dot(lasts, lasts),
        dot(lasts, firsts[1:]),
        dot(firsts, mids[1:]),
        dot(firsts, lasts[1:]),
        dot(mids, lasts[1:]),
    )


def test_a_vector_matches_the_list_version_on_rows():
    for t in (1, 2, -1):
        for row in triangle_rows(16, t):
            assert a_vector(row) == _a_vector_by_lists(row), (t, row.index)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-50, 50), st.sampled_from("fml")), max_size=30))
def test_a_vector_matches_the_list_version_on_any_marks(cells):
    # any marks string, not only the production rule's: runs of one mark, mf, lm, ...
    for dtype in (np.int64, object):
        entries = np.array([v for v, _ in cells], dtype=dtype)
        row = GroupedRow(entries=entries, marks="".join(m for _, m in cells), index=0)
        assert a_vector(row) == _a_vector_by_lists(row)


def _next_row_by_marks(entries: tuple, marks: str, t) -> tuple[tuple, str]:
    """The per-mark pass ``next_row`` replaced, as its reference: one
    Python step per mark on tuples."""
    tvals = [t * v for v in entries]
    out: list = []
    new_marks: list[str] = []
    if marks[0] == "f":
        out += (entries[0], tvals[0])
        new_marks.append("ml")
    last = len(marks) - 1
    for k, mark in enumerate(marks):
        if mark == "m":
            out += (entries[k], tvals[k])
            new_marks.append("fl")
        elif mark == "l" and k < last:  # an inner l is always followed by an f
            out += (entries[k], entries[k + 1] + tvals[k], tvals[k + 1])
            new_marks.append("fml")
    if marks[-1] == "l":
        out += (entries[-1], tvals[-1])
        new_marks.append("fm")
    return tuple(out), "".join(new_marks)


WEIGHTS = (1, -1, 3, 2**21, TPoly.t())


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(WEIGHTS), st.integers(1, 14))
def test_array_rows_match_the_per_mark_pass(t, n_max):
    entries, marks = (1, t), "fl"
    for row in triangle_rows(n_max, t):
        assert (row.entries.tolist(), row.marks) == (list(entries), marks), (t, row.index)
        if isinstance(t, int):
            ints = GroupedRow(np.array(entries, dtype=object), marks, row.index)
            assert a_vector(row) == a_vector(ints) == _a_vector_by_lists(row), (t, row.index)
        entries, marks = _next_row_by_marks(entries, marks, t)


@pytest.mark.parametrize("t, bound", [(1, 8), (-1, 1), (3, 8)])
def test_rows_and_sums_switch_to_python_ints(t, bound, monkeypatch):
    # rows, their sums of squares and products that might pass int64 are held
    # as Python ints: the same entries and sums with a bound that forces it
    want = [(row.entries.tolist(), row.marks, a_vector(row)) for row in triangle_rows(12, t)]
    monkeypatch.setattr(fibgf.triangle, "INT64_MAX", bound)
    rows = list(triangle_rows(12, t))
    # a row steps to Python ints before its entries could pass the bound
    assert rows[-1].entries.dtype == object
    assert all(np.abs(row.entries).max() <= bound for row in rows if row.entries.dtype != object)
    assert [(row.entries.tolist(), row.marks, a_vector(row)) for row in rows] == want


def test_a_vector_rejects_symbolic():
    t = TPoly.t()
    with pytest.raises(ValueError):
        a_vector(first_row(t))


def test_m_recurrence():
    rep = verify_m_recurrence(20)
    assert rep["status"] == "pass"
    assert rep["first_valid_index"] == 1
    assert rep["square_sum_identity"]
    assert rep["vectors"][2] == [1, 2, 1, 1, 1, 0, 1]


def test_square_sum_is_power_sum():
    v2 = [1, 2, 4, 10, 24, 60]
    for row, want in zip(triangle_rows(5, 1), v2[1:]):
        a = a_vector(row)
        assert a[0] + a[1] + a[2] == want


def test_charpoly():
    got = mark_matrix_charpoly()
    assert got == expected_charpoly()
    # x^2 (x+1)^2 (x^3 - 2x^2 - 2x + 2) expanded
    assert list(got.c) == [0, 0, 2, 2, -4, -5, 0, 1]


def test_rows_match_product_all_weights():
    verify_rows_match_product(12, t=1)
    verify_rows_match_product(10, t=-1)
    verify_rows_match_product(10, t=3)
    verify_rows_match_product(12, t=TPoly.t())


def test_rows_match_product_symbolic_deep():
    verify_rows_match_product(22, t=TPoly.t())


def test_rows_match_product_rejects_a_corrupted_row(monkeypatch):
    # each row is compared as its partial product is built: row 7 off at exponent 3
    real = fibgf.triangle.next_row

    def corrupted(row, t=1):
        out = real(row, t)
        if out.index != 7:
            return out
        entries = out.entries.copy()
        entries[3] += 1
        return GroupedRow(entries, out.marks, out.index)

    monkeypatch.setattr(fibgf.triangle, "next_row", corrupted)
    verify_rows_match_product(6, t=3)
    with pytest.raises(InvariantError) as err:
        verify_rows_match_product(10, t=3)
    assert err.value.detail == 3


def test_rows_match_product_keeps_no_partials():
    # hnfn's rows at t = 2^21: keeping every partial product peaks at 7.5 MB,
    # a partial beside each row at 6.1 MB; row against row, only rows n - 1
    # and n and one block of the check are alive (3.4 MB)
    tracemalloc.start()
    try:
        verify_rows_match_product(20, t=2**21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 10**6, peak


def test_row_charge_covers_the_check_of_rows_against_rows(monkeypatch):
    # the rows' charge covers what iterating the rows and checking them hold
    # beside them: at hnfn's T = 2^(n+1) (tracemalloc reads 27-42 % of the
    # charge) and at symbolic t, whose TPoly entries fill most of it (64-97 %)
    charged = []

    class Recording(fibgf.triangle.Meter):
        def charge(self, size, n):
            super().charge(size, n)
            charged.append(size)

    def iterate(n, t):
        for _ in triangle_rows(n, t):
            pass

    monkeypatch.setattr(fibgf.triangle, "Meter", Recording)
    for n in (12, 16, 20):
        for t in (2 ** (n + 1), TPoly.t()):
            for run in (iterate, verify_rows_match_product):
                charged.clear()
                tracemalloc.start()
                try:
                    run(n, t)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < sum(charged), (n, t, run.__name__, peak, sum(charged))


def test_rows_match_product_catches_a_fault_that_vanishes_at_t_one(monkeypatch):
    # t - 1 added to one entry of row 9 leaves every row at t = 1 as it was;
    # hnfn's T = 2^13 sees it, at its exponent (inside the overlap 55..87)
    real = fibgf.triangle.next_row

    def faulty(row, t=1):
        out = real(row, t)
        if out.index != 9:
            return out
        entries = out.entries.copy()
        entries[70] += t - 1
        return GroupedRow(entries, out.marks, out.index)

    monkeypatch.setattr(fibgf.triangle, "next_row", faulty)
    verify_rows_match_product(12, t=1)
    with pytest.raises(InvariantError) as err:
        verify_rows_match_product(12, t=2**13)
    assert err.value.detail == 70
    report = run_check("verify", "hnfn", nmax=12)
    assert (report.status, report.details["detail"]) == ("fail", 70)


def _as_tpoly(v):
    return v if isinstance(v, TPoly) else TPoly((v,))


def test_rows_and_products_are_read_exactly_at_a_power_of_two():
    # the hnfn check compares rows with products at an int T = 2^(n+1); that
    # decides symbolic equality only while every t-coefficient stays in [0, T)
    t = TPoly.t()
    partials = dict(enumerate(partial_products(fibonacci_product_spec(14, t=t))))
    for row in triangle_rows(14, t):
        n, big = row.index, 2 ** (row.index + 1)
        entries = [_as_tpoly(v) for v in row.entries]
        assert all(0 <= c <= 2 ** (n - 1) for v in entries for c in v.c), n
        coeffs = [_as_tpoly(v) for v in partials[n].dense_coefficients()]
        assert all(0 <= c < 2**n for v in coeffs for c in v.c), n
        assert [v.evaluate(big) for v in entries] == list(triangle_rows(n, big))[-1].entries.tolist(), n


def test_format_row_paper_style():
    rows = list(triangle_rows(3, 1))
    assert format_row(rows[0]) == "1 1"
    assert format_row(rows[1]) == "1 1 • 1 1"
    assert format_row(rows[2]) == "1 1 • 1 2 1 • 1 1"


def test_row_entries_equal_product_error_detail():
    # corrupting a row must be caught with the offending exponent
    import dataclasses

    good = list(triangle_rows(3, 1))[2]
    bad = dataclasses.replace(good, entries=good.entries.copy())
    bad.entries[3] = 9
    poly = build_product(fibonacci_product_spec(3))
    coeffs = poly.dense_coefficients()
    mismatch = [k for k, (a, b) in enumerate(zip(bad.entries, coeffs)) if a != b]
    assert mismatch == [3]


def test_rows_are_charged_until_the_cap(monkeypatch):
    # rows n - 1 and n, INT64_ROW_BYTES an int64 entry: rows 20 and 21 pass 1 MB
    monkeypatch.setenv("RGF_MAX_MEM_MB", "1")
    with pytest.raises(ResourceLimitError) as err:
        for _ in triangle_rows(24):
            pass
    assert err.value.limit_n == 21
    assert len(list(triangle_rows(20))) == 20
    assert verify_m_recurrence(20)["status"] == "pass"

"""Residue counts mod m by a memoised carry automaton over digit words.

For the product P(x) * prod_{i=1}^{n} (1 + sum_j a_j x^{e_ij}) with integer
coefficients c, h(n, a) counts the k in [0, deg] with c(k) = a mod m.  No
product is built: k is read as a digit word over the factors' degrees, from
the top factor down, and c(k) mod m is tracked as a weighted set of carries.

Digits.  Factor i has digit base D_i, its largest exponent whose summed
coefficient is nonzero over Z (the last of ``ProductSpec.factor_terms``); a
factor whose terms all cancel is 1, and its one digit 0 moves nothing.  At
the top R is the degree of the whole product.  A digit d at factor i leaves
R' = min(R - d D_i, D_i - 1) for the factors below, so the digit words
biject onto k in [0, deg] for any positive bases.  After factor 1
a remainder r in [0, R] is read against P's dense coefficients.

Carries.  A carry V is the part of k not yet matched by the chosen exponents:
a choice of exponent e (0 with weight 1, or a term with weight a_e mod m) at
digit d moves V to V + d D_i - e.  At the end c(k) = sum_V count_V P(V + r).
Every exponent is >= 1, so the factors below i contribute between 0 and
sum_{j<i} D_j, and a carry outside -R' <= V <= sum_{j<i} D_j + deg P can
never be matched: it is dropped, exactly.  Carries whose count vanishes
mod m are dropped too; the states with no carry left are one, ``None``,
which puts each of its k-suffixes in class 0.

A state is (R, carries) with the factors below it unread.  Its completion,
the sparse map class -> number of k-suffixes, depends only on the state and
the factors below, never on n, so one table per factor index is shared by
the whole series.  ``walk.complete`` fills the tables, as for the level
walk.  Linear-recurrence digit systems are finite-state (Frougny, Math.
Systems Theory 25, 1992), so for the presets the tables stay small.
Recurrences whose carries grow without bound run into the work budget or
the RGF_MAX_MEM_MB cap; each state is charged for its carries, successors
and classes, and each row a series keeps for its m classes.
"""

from __future__ import annotations

from dataclasses import replace

from .config import Meter
from .errors import ResourceLimitError
from .polynomials import ProductSpec
from .walk import complete

# Estimated bytes a stored state holds: a fixed part (table slot, key tuple,
# completion and successor maps), and one part per carry in its key, per
# successor and per class in its completion map.  tracemalloc measured 0.5 to
# 0.75 of this on the presets, f_{i+1} = f_i + f_{i-3}, a prefactor of degree
# 100 and m from 2 to 1000.
STATE_BYTES = 500
CARRY_BYTES = 100
LINK_BYTES = 50
CLASS_BYTES = 100
# A kept row: a list slot per class, holding the completion map's counts.
ROW_CLASS_BYTES = 8

# The stream's cost in carry updates: an update takes 1.3 to 1.8 us, the stream
# about 6.5 ns per coefficient of its partial products, and numpy's import and
# first call about 95 ms (2 vCPUs, Python 3.11, numpy 2.4).  The import is
# charged even where numpy is loaded already, so that the engine a series runs
# on depends on the spec, m and n_max alone.
STREAM_COEFFS_PER_UPDATE = 250
STREAM_SETUP_UPDATES = 60_000


def stream_budget(coefficients: int) -> int:
    """A quarter of the carry updates that take as long as the stream takes
    on ``coefficients`` partial-product coefficients, numpy's import and
    first call included, so that a series the automaton hands off costs at
    most about 1.25 times the stream alone."""
    return (STREAM_SETUP_UPDATES + coefficients // STREAM_COEFFS_PER_UPDATE) // 4


class _Carry:
    def __init__(self, spec: ProductSpec, m: int, budget: int | None):
        """The automaton of factors 1..spec.n, read from the spec alone."""
        self.m = m
        self.budget = budget
        self.first = [c % m for c in spec.prefactor_coefficients()]
        listed = list(spec.factors())
        self.degree = [length - 1 for _, length in listed]  # degree[i]: the degree after factor i
        self.factors: list = [None]  # factor i >= 1: (D_i, ((e, a_e mod m), ...)), D_i = 0 for a factor 1
        for terms, _ in listed[1:]:
            base = terms[-1][1] if terms else 0
            self.factors.append((base, ((0, 1),) + tuple((e, c % m) for c, e in terms if c % m)))
        self.tables: list[dict] = [{None: {0: 1}} for _ in self.factors]  # None: no carry left, class 0
        self.meter = Meter("carry automaton")  # estimated bytes of the tables and the pending level
        self.work = 0  # carry updates, prefactor reads and class merges

    def _spend(self, units: int, n: int) -> None:
        self.work += units
        if self.budget is not None and self.work > self.budget:
            message = f"carry automaton passed its budget of {self.budget} carry updates at n = {n}"
            raise ResourceLimitError(message, limit_n=n)

    def _read_prefactor(self, state: tuple, n: int) -> dict:
        """Classes of the remainders r in [0, R] against P's coefficients."""
        rest, carries = state
        first, m = self.first, self.m
        self._spend((rest + 1) * len(carries), n)
        classes: dict[int, int] = {}
        for r in range(rest + 1):
            total = 0
            for v, count in carries:
                if 0 <= v + r < len(first):
                    total += count * first[v + r]
            total %= m
            classes[total] = classes.get(total, 0) + 1
        self.meter.charge(STATE_BYTES + CARRY_BYTES * len(carries) + CLASS_BYTES * len(classes), n)
        return classes

    def _successors(self, state: tuple, i: int, n: int) -> dict:
        """Next state -> number of digits reaching it after reading factor i;
        the k-suffixes with no carry left count under ``None``."""
        rest, carries = state
        base, choices = self.factors[i]
        base = base or rest + 1  # a factor 1 has the one digit 0, which leaves the state as it is
        high, m = self.degree[i - 1], self.m
        shifts = range(0, rest + 1, base)
        self._spend(len(shifts) * len(carries) * len(choices), n)
        out: dict = {}
        get = out.get
        for shift in shifts:
            below = min(rest - shift, base - 1)
            moved: dict[int, int] = {}
            reach = moved.get
            for v, count in carries:
                v += shift
                for e, w in choices:
                    if -below <= v - e <= high:
                        moved[v - e] = reach(v - e, 0) + count * w
            kept = tuple(sorted((v, c % m) for v, c in moved.items() if c % m))
            if kept:
                out[below, kept] = get((below, kept), 0) + 1
            else:
                out[None] = get(None, 0) + below + 1
        self.meter.charge(STATE_BYTES + CARRY_BYTES * len(carries) + LINK_BYTES * len(out), n)
        return out

    def _fold(self, succ: dict, below: dict, n: int) -> dict:
        """Classes of a state: its successors' classes times their ways."""
        self._spend(sum(map(len, map(below.__getitem__, succ))), n)
        classes: dict[int, int] = {}
        get = classes.get
        for nxt, ways in succ.items():
            for a, count in below[nxt].items():
                classes[a] = get(a, 0) + ways * count
        self.meter.charge(CLASS_BYTES * len(classes), n)
        return classes

    def row(self, n: int) -> list[int]:
        """[h(n, a) for a in 0..m-1]: the completion of the start state."""
        row = [0] * self.m
        if self.first:  # P = 0 leaves every class empty
            start = (self.degree[n], ((0, 1),))
            for a, count in complete(self.tables, start, n, self._successors, self._read_prefactor, self._fold).items():
                row[a] = count
        return row


def carry_residue_series(spec: ProductSpec, m: int, n_max: int, budget: int | None = None) -> list[list[int]]:
    """Per n in 0..n_max, [h(n, a) for a in 0..m-1] for the integer product ``spec``.

    Raises ``ResourceLimitError`` with ``limit_n`` = the first n whose states
    and kept rows would pass the RGF_MAX_MEM_MB cap or, when ``budget`` is
    given, whose carry updates, prefactor reads and class merges would pass
    ``budget`` in total over the series.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    automaton = _Carry(replace(spec, n=n_max), m, budget)
    rows = []
    for n in range(n_max + 1):
        automaton.meter.charge(ROW_CLASS_BYTES * m, n)  # the row, kept for the caller
        rows.append(automaton.row(n))
    return rows

"""Exact correlation sums by a pruned walk over row-sum differences.

For the product P(x) * prod_{i=1}^{n} (1 + sum_j a_j x^{e_ij}) with
coefficients c, the sum v(n) = sum_{k >= 0} prod_j c(k+j)^{alpha_j} is a
weighted count of tuples of term choices: one row per unit of alpha (alpha_j
rows of offset j), each row choosing one term of every factor, such that every
row's exponent sum minus its offset is the same k >= 0.  A tuple weighs the
product of the coefficients it chose, so ints and ``TPoly`` weights both work
and no product is ever expanded.

The walk for n reads factor n first, then n - 1, ..., 1 and the prefactor
last; for the nondecreasing exponent sequences of the presets that is largest
exponent first.  Any order is exact, the order only decides how hard the slack
prunes: a state is dropped once its spread (largest minus smallest row value)
exceeds the slack S_i, the prefactor's spread plus the largest exponent of
each factor still unread, because no later choice can close a wider gap.

Rows that share an offset are interchangeable, so a state is, per offset, the
sorted tuple of rows taken relative to the first row; a run of m equal rows
spreads over a factor's terms with multinomial weights.  The prefactor, read
last, is the leaf: every row takes one of its terms and all rows must end
equal.  Leading zero offsets of alpha are stripped, and the terms with k < 0
that this adds are subtracted again, read from the product truncated below
x^top.  Two walks write the rows.

The level walk (``_LevelWalk``) writes each row as an int, its exponent sum
so far minus its offset, relative to the least row.  Its states depend on
the level (the number of factors unread), so v(n) is the completion weight
of the start state with n factors unread, memoised in one table per level by
``complete``, the two-pass core that the carry automaton runs too.

The basis walk (``_BasisWalk``) writes rows in the recurrence basis.  Let
f_{m+d} = c_1 f_{m+d-1} + ... + c_d f_m be the exponent recurrence, j_0 the
first j with a_j != 0, and g_m = f_{m+offset+j_0}, so that the term a_j of
factor i sits at g_{i+s} with s = j - j_0.  With factors 1..i unread (level
i) a row is integer coordinates in the basis B_i = (g_{i+1}, ..., g_{i+d})
plus a constant that carries its offset.  Reading factor i rebases v to
B_{i-1} by v'_0 = c_d v_{d-1}, v'_p = v_{p-1} + c_{d-p} v_{d-1}, then adds
the vector of the term the row takes: the unit vector s for s < d, and past
that the recurrence's combination of the d vectors before it.  The step, and
so the state set, is the same at every level (a transfer matrix, Stanley EC1
4.7), so one successor map per state serves the whole series.  Terms with
equal exponents stay separate vectors: a state's liveness is decided on the
ints of its rows, which tuples that swap such terms share, and their weights
sum to the combined coefficient, so a combination that cancels is kept or
dropped whole and weighs 0 either way.

For a pair difference g of two rows, a bitmask over the levels 0..N records
where |g.B_i + g_c| is within S_i; a state is alive at the levels where all
its pair masks agree.  A successor is kept only if it is alive one level
below a level where its parent is alive and can be reached from the start.
That is exact: a successor dropped that way has no completion at any level
where its weight would be used, and a state that is dead at a level has none
there either, so its table entry there is 0.

The basis walk runs when the recurrence meets Brauer's condition
c_1 >= ... >= c_d >= 1 with c_1 + ... + c_d >= 2: its root is then a Pisot
number, and for single-term factors the live states stay finitely many as
the depth grows (Frougny, Math. Systems Theory 25, 1992).  Elsewhere the
level walk runs: without a contracting second root (periodic and other
non-Pisot recurrences), or with a weakly contracting one (f_{i+1} = f_i +
f_{i-3}), vector states alive at many levels far outnumber the level walk's
(level, state) pairs.  The basis walk also hands a spec off to the level
walk, and is dropped, when a new state is alive and reachable at fewer than
d levels: with a wide prefactor, equal exponents (the first factors of
k-bonacci at offset 0) or a window, many vector states then share one int
state per level, and the level walk keeps fewer.  A state first reached
within d steps of depth n_max is such a state, so shallow series take the
level walk, which is cheap there.
"""

from __future__ import annotations

from dataclasses import replace
from math import factorial
from operator import add, mul, sub
from sys import getsizeof

from .config import Meter
from .polynomials import ProductSpec, _multiply_dense

# Estimated bytes per stored state of the level walk (key tuple, table entry,
# value, successor map): tracemalloc measured 130-700 on integer power sums
# up to depth 200.
LEVEL_STATE_BYTES = 400
# The same for the basis walk per state (key tuple, alive mask, depth, two
# table slots, its share of the memoised pair masks) and per successor link
# (edge entry); the link weights and the values of the two live tables are
# charged apart by ``_value_bytes``, as they are made.
STATE_BYTES = 4000
LINK_BYTES = 500


def _value_bytes(values) -> int:
    """The charge for weights or table values: twice their size, which
    covers the temporaries of their products and sums and the freed tuples
    the allocator keeps for reuse (charged once, tracemalloc read 1.09 of
    the whole charge on a Z[t] three-term window at depth 14)."""
    return 2 * sum(map(getsizeof, values))


def _compositions(m: int, parts: int):
    """All tuples of ``parts`` nonnegative ints summing to m (none for parts = 0)."""
    if parts < 2:
        if parts:
            yield (m,)
        return
    for first in range(m, -1, -1):
        for rest in _compositions(m - first, parts - 1):
            yield (first,) + rest


def _spreads(m: int, weights: list):
    """The ways m equal rows spread over terms of the given weights: per way,
    the term index of each row, ascending, and the multinomial weight
    m! / prod count! * prod w^count."""
    for counts in _compositions(m, len(weights)):
        weight = factorial(m)
        for count in counts:
            weight //= factorial(count)
        taken: tuple[int, ...] = ()
        for t, (w, count) in enumerate(zip(weights, counts)):
            if count:
                weight = weight * w**count
                taken += (t,) * count
        yield taken, weight


def _group_sort(rows, sizes) -> list:
    """The rows sorted within each offset group, groups in order."""
    out: list = []
    pos = 0
    for size in sizes:
        out += sorted(rows[pos : pos + size])
        pos += size
    return out


def complete(tables: list[dict], start, n: int, expand, leaf, fold):
    """The completion of ``start`` at level n, in two passes over ``tables``
    (per level, a memo state -> completion).  Walk down from level n, taking
    ``expand(state, i, n)`` (successor -> weight) of each state missing from
    its level's table; complete the states left at level 0 with
    ``leaf(state, n)``; fill the tables back up with ``fold(successors,
    table below, n)``.  The hooks get n for the charges they make."""
    pending = []
    need = () if start in tables[n] else (start,)
    i = n
    while need and i:
        level = {state: expand(state, i, n) for state in need}
        pending.append((i, level))
        below = tables[i - 1]
        need = {s for succ in level.values() for s in succ if s not in below}
        i -= 1
    tables[0].update((state, leaf(state, n)) for state in need)
    for i, level in reversed(pending):
        table, below = tables[i], tables[i - 1]
        for state, succ in level.items():
            table[state] = fold(succ, below, n)
    return tables[n][start]


class _Rows:
    """What both walks share: the row groups of an alpha whose first offset
    is 0, the slack and the factors (from one pass over the spec), the
    prefactor leaf and the meter of the RGF_MAX_MEM_MB cap."""

    def __init__(self, spec: ProductSpec, alpha: tuple[int, ...], n_max: int):
        self.spec = spec
        self.n_max = n_max
        active = [j for j, a in enumerate(alpha) if a]
        self.sizes = [alpha[j] for j in active]
        self.offsets = [j for j in active for _ in range(alpha[j])]
        self.prefactor = {e: c for e, c in enumerate(spec.prefactor_coefficients()) if c}
        self.ends = (min(self.prefactor), max(self.prefactor)) if self.prefactor else (0, 0)
        listed = list(replace(spec, n=n_max).factors())
        # S_i, the slack with factors 1..i unread: the prefactor's spread plus their top exponents
        self.slack = [length - 1 - self.ends[0] for _, length in listed]
        # factor i: its terms with the 1, as (weight, exponent)
        self.factors = [[(1, 0)] + terms for terms, _ in listed]
        self.meter = Meter("difference walk")  # estimated bytes kept

    def _leaf(self, vals):
        """The weight of the ways rows with int values ``vals`` each take a
        prefactor term and all end at one value K: sum over K of
        prod_p P[K - vals_p].  Equal rows that end equal took the same term,
        so no multinomial weight arises."""
        if not self.prefactor:
            return 0
        low, high = self.ends
        total = 0
        for k in range(max(vals) + low, min(vals) + high + 1):
            weight = 1
            for x in vals:
                c = self.prefactor.get(k - x)
                if c is None:
                    break
                weight = weight * c
            else:
                total = total + weight
        return total


class _LevelWalk(_Rows):
    """The level walk: int rows, one table of states per level."""

    def __init__(self, spec: ProductSpec, alpha: tuple[int, ...], n_max: int):
        super().__init__(spec, alpha, n_max)
        self.start = tuple(self.offsets[-1] - j for j in self.offsets)
        self.spreads: dict[tuple, list] = {}
        self.tables: list[dict[tuple, object]] = [{} for _ in range(n_max + 1)]

    def _spread_run(self, i: int, m: int) -> list[tuple]:
        """The ways m equal rows read factor i: (added exponents, ascending; weight)."""
        cached = self.spreads.get((i, m))
        if cached is None:
            terms = self.factors[i]
            cached = [(tuple(terms[t][1] for t in taken), w) for taken, w in _spreads(m, [c for c, _ in terms])]
            self.spreads[i, m] = cached
        return cached

    def _successors(self, state: tuple, i: int, n: int) -> dict[tuple, object]:
        """Weighted states after reading factor i >= 1, pruned by the slack
        below it; the state is charged to v(n)."""
        self.meter.charge(LEVEL_STATE_BYTES, n)
        limit = self.slack[i - 1]
        partial = [((), 1, None, None)]  # (values, weight, least, largest)
        pos = 0
        for size in self.sizes:
            stop = pos + size
            while pos < stop:
                v = state[pos]
                run = pos + 1
                while run < stop and state[run] == v:
                    run += 1
                grown = []
                for added, weight in self._spread_run(i, run - pos):
                    low, high = v + added[0], v + added[-1]
                    vals = tuple(v + e for e in added)
                    for prev, w, lo, hi in partial:
                        lo = low if lo is None else min(lo, low)
                        hi = high if hi is None else max(hi, high)
                        if hi - lo <= limit:
                            grown.append((prev + vals, w * weight, lo, hi))
                partial = grown
                pos = run
        out: dict[tuple, object] = {}
        for vals, w, lo, _ in partial:
            key = tuple(x - lo for x in _group_sort(vals, self.sizes))
            out[key] = out[key] + w if key in out else w
        return out

    def _charged_leaf(self, state: tuple, n: int):
        """The leaf of ``state``, charged to v(n)."""
        self.meter.charge(LEVEL_STATE_BYTES, n)
        return self._leaf(state)

    @staticmethod
    def _fold(succ: dict, below: dict, n: int):
        """A state's completion weight from its successors'."""
        return sum(w * below[nxt] for nxt, w in succ.items())

    def value(self, n: int):
        """v(n): the completion weight of the start state with n factors unread."""
        if self.start[0] > self.slack[n]:  # the start state's spread
            return 0
        return complete(self.tables, self.start, n, self._successors, self._charged_leaf, self._fold)

    def series(self) -> list:
        """[v(0), ..., v(n_max)]."""
        return [self.value(n) for n in range(self.n_max + 1)]


class _HandOff(Exception):
    """The basis walk gives up its spec: the level walk keeps fewer states."""


class _BasisWalk(_Rows):
    """The basis walk to depth n_max: rows in the recurrence basis, one
    successor map per state for every level."""

    def __init__(self, spec: ProductSpec, alpha: tuple[int, ...], n_max: int):
        super().__init__(spec, alpha, n_max)
        seq = spec.exponent_seq
        self.d = d = seq.order
        self.rev = seq.coeffs[::-1]  # c_d, ..., c_1
        anchor = next((j for j, aj in enumerate(spec.a) if aj), 0)
        vectors = [tuple(int(p == s) for p in range(d)) for s in range(d)]
        while len(vectors) < spec.h - anchor:
            below = vectors[-1 : -d - 1 : -1]  # the vectors of s - 1, ..., s - d
            vectors.append(tuple(sum(c * v[p] for c, v in zip(seq.coeffs, below)) for p in range(d)))
        # terms with one vector are one term; the constant coordinate stays 0
        merged: dict[tuple, object] = {}
        for j, aj in enumerate(spec.a):
            if aj:
                vec = vectors[j - anchor] + (0,)
                merged[vec] = merged.get(vec, 0) + aj
        self.terms = [(vec, w) for vec, w in merged.items() if w]
        exps = [seq.term(spec.offset + anchor + i) for i in range(1, n_max + d + 1)]  # g_1, ..., g_{n_max + d}
        self.basis = [tuple(exps[i : i + d]) for i in range(n_max + 1)]
        self.start = tuple((0,) * d + (-j,) for j in self.offsets)
        self.masks: dict[tuple, int] = {}
        self.alive: dict[tuple, int] = {}
        self.spreads: dict[int, list] = {}

    def _pair_mask(self, g: tuple) -> int:
        """Bit i set when the rows g apart can still end equal at level i."""
        mask = self.masks.get(g)
        if mask is None:
            mask, const = 0, g[-1]
            for i, (row, bound) in enumerate(zip(self.basis, self.slack)):
                if abs(sum(map(mul, g, row)) + const) <= bound:
                    mask |= 1 << i
            self.masks[g] = mask
        return mask

    def _spread_run(self, m: int) -> list[tuple]:
        """The ways m equal rows read a factor: (term index per row, 0 for
        the factor's 1; the distinct indices; weight; the AND of the pair
        masks between the distinct term vectors)."""
        cached = self.spreads.get(m)
        if cached is None:
            vectors = [(0,) * (self.d + 1)] + [vec for vec, _ in self.terms]
            cached = []
            for taken, weight in _spreads(m, [1] + [w for _, w in self.terms]):
                fresh = tuple(dict.fromkeys(taken))
                cached.append((taken, fresh, weight, self._rows_mask([vectors[t] for t in fresh])))
            self.spreads[m] = cached
        return cached

    def _expand(self, state: tuple, window: int) -> dict[tuple, object]:
        """Weighted successors of ``state`` one level down that are alive at
        a level of ``window``; their alive masks go to ``self.alive``."""
        d, rev, masks = self.d, self.rev, self.masks
        partial = [((), (), 1, -1)]  # (rows, distinct rows, weight, AND of pair masks)
        pos = 0
        for size in self.sizes:
            stop = pos + size
            while pos < stop:
                row = state[pos]
                run = pos + 1
                while run < stop and state[run] == row:
                    run += 1
                top = row[d - 1]
                kept = (top * rev[0],) + tuple(row[p - 1] + top * rev[p] for p in range(1, d)) + row[d:]
                moved = [kept] + [tuple(map(add, kept, vec)) for vec, _ in self.terms]
                grown = []
                for taken, distinct, weight, inner in self._spread_run(run - pos):
                    rows = tuple(moved[t] for t in taken)
                    fresh = tuple(moved[t] for t in distinct)
                    for prev, seen, w, mask in partial:
                        mask &= inner
                        for u in fresh:
                            for p in seen:
                                g = tuple(map(sub, u, p))
                                mask &= masks[g] if g in masks else self._pair_mask(g)
                        if mask & window:
                            grown.append((prev + rows, seen + fresh, w * weight, mask))
                partial = grown
                pos = run
        out: dict[tuple, object] = {}
        alive = self.alive
        for rows, _, w, mask in partial:
            ordered = _group_sort(rows, self.sizes)
            origin = ordered[0]
            key = tuple(tuple(map(sub, row, origin)) for row in ordered)
            if key not in alive:
                self._hand_off(mask & window)
                alive[key] = mask
            out[key] = out[key] + w if key in out else w
        return out

    def _hand_off(self, used: int) -> None:
        """Raise ``_HandOff`` for a new state alive and reachable at fewer than
        d levels (the set bits of ``used``)."""
        if used.bit_count() < self.d:
            raise _HandOff

    def _rows_mask(self, rows) -> int:
        """The AND of the pair masks of all pairs of ``rows``."""
        mask = -1
        for q, row in enumerate(rows):
            for p in rows[:q]:
                mask &= self._pair_mask(tuple(map(sub, row, p)))
        return mask

    def series(self) -> list:
        """[v(0), ..., v(n_max)]: build the automaton breadth-first, number
        its states in depth order (the start is 0), then fill one table per
        level, a list indexed by state, keeping two at a time: level 0 holds
        each state's leaf, level i is M times level i - 1, each state's
        weights times the values of its links below.

        Every state is filled at every level, and the entries that are read
        are exact.  A state dead at level i has every successor dead at
        i - 1, since S_i = S_{i-1} + the top exponent of factor i and a row
        moves by at most that, so from any subset of its links its value is
        0, down to a leaf of 0.  A state alive and reachable at level i
        keeps every successor alive at i - 1 among its links, and those are
        reachable there; its other links are dead at i - 1.  So the start
        state's value is exact at every level, and the other entries are
        never read into it."""
        n_max = self.n_max
        start = self.start
        self.alive[start] = self._rows_mask(start)
        index = {start: 0}  # each state's number, in depth order
        edges: dict[tuple, dict] = {}
        frontier = [start]
        t = 0
        while frontier:
            self.meter.charge(STATE_BYTES * len(frontier), t)
            found = []
            for state in frontier:
                # the levels where the state is alive and reachable, one below
                window = (self.alive[state] & ((2 << (n_max - t)) - 1)) >> 1
                edges[state] = succ = self._expand(state, window) if window else {}
                # links are used from depth t + 1 on; a weight is charged by its size
                self.meter.charge(LINK_BYTES * len(succ) + _value_bytes(succ.values()), t + 1)
                for nxt in succ:
                    if nxt not in index:
                        index[nxt] = len(index)
                        found.append(nxt)
            frontier = found
            t += 1
        states = list(index)
        links = [tuple(map(index.__getitem__, edges[state])) for state in states]  # successor indices
        weights = [tuple(edges.pop(state).values()) for state in states]
        base = self.basis[0]
        # level 0: the leaves, the rows as ints reading the prefactor
        table = [self._leaf([sum(map(mul, row, base)) + row[-1] for row in state]) for state in states]
        out = []
        held = charged = 0  # bytes of the values in the last table; of the two tables, charged
        for i in range(n_max + 1):
            if i:
                table = [sum(map(mul, w, map(below.__getitem__, succ))) for w, succ in zip(weights, links)]
            size = _value_bytes(table)
            if size + held > charged:
                self.meter.charge(size + held - charged, i)
                charged = size + held
            held = size
            out.append(table[0])  # the start state is state 0
            below = table
        return out


def _low_terms(spec: ProductSpec, alpha: tuple[int, ...], n_max: int) -> list:
    """Per n, the terms with -lead <= k < 0 that stripping alpha's lead
    leading zero offsets adds: prod_j c_n(k' + j)^alpha_j over k' < lead,
    read from the product truncated below x^(lead + top)."""
    active = [j for j, a in enumerate(alpha) if a]
    lead = active[0]
    if not lead:
        return [0] * (n_max + 1)
    width = active[-1]
    low = (spec.prefactor_coefficients() + [0] * width)[:width]
    out = []
    for n in range(n_max + 1):
        if n:
            low = _multiply_dense(low, [(c, e) for c, e in spec.factor_terms(n) if e < width])[:width]
        total = 0
        for k in range(lead):
            term = 1
            for j in active:
                term = term * low[k + j - lead] ** alpha[j]
            total = total + term
        out.append(total)
    return out


def basis_walk_applies(spec: ProductSpec) -> bool:
    """Whether ``corr_walk_series`` starts the basis walk on ``spec``: the
    recurrence meets Brauer's condition c_1 >= ... >= c_d >= 1 with
    c_1 + ... + c_d >= 2."""
    c = spec.exponent_seq.coeffs
    return c[-1] >= 1 and sum(c) >= 2 and all(x >= y for x, y in zip(c, c[1:]))


def _walk(spec: ProductSpec, alpha: tuple[int, ...], n_max: int) -> list:
    """The series of the basis walk, or of the level walk where the basis
    walk does not apply or hands the spec off."""
    if basis_walk_applies(spec):
        try:
            return _BasisWalk(spec, alpha, n_max).series()
        except _HandOff:
            pass
    return _LevelWalk(spec, alpha, n_max).series()


def corr_walk_series(spec: ProductSpec, alpha: tuple[int, ...], n_max: int) -> list:
    """[v(0), ..., v(n_max)] for the window exponents ``alpha``, exactly.

    Runs the basis walk where ``basis_walk_applies`` and it does not hand
    the spec off, and the level walk elsewhere.  Raises
    ``ResourceLimitError`` with ``limit_n`` = the first n that would push the
    stored estimate over the ``RGF_MAX_MEM_MB`` cap; every n below it runs.
    For the basis walk that n is the first breadth-first depth, or the first
    level whose table values pass the cap, reached before any hand-off; a
    spec handed off starts its charge again in the level walk.
    """
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    alpha = tuple(alpha)
    lead = next(j for j, a in enumerate(alpha) if a)
    return list(map(sub, _walk(spec, alpha[lead:], n_max), _low_terms(spec, alpha, n_max)))

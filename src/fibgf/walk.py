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
exceeds the sum of (largest - smallest exponent) over the factors still
unread, because no later choice can close a wider gap.

Rows that share an offset are interchangeable, so a state is, per offset, the
sorted tuple of row values taken relative to one of them; a run of m equal
rows spreads over a factor's terms with multinomial weights.  The completion
weight of a state depends only on the state and the number of factors still
unread, never on n, so each state is expanded once for the whole series and
v(n) is the completion weight of the start state with n factors unread.  The
prefactor, read last, is the leaf: every row takes one of its terms and all
rows must end equal.  Two codecs write the row values.

The level walk (``_Walk``) writes each row as an int, its exponent sum so far
minus its offset, relative to the least row.  Its states depend on the level
(the number of factors unread), so it keeps one table per level.  A row of
offset 0 ends with k = its sum >= 0; when the first active offset is
positive, the state instead carries min(least row value, 0), so that k >= 0
can be checked once every factor is read.

The basis walk (``_BasisWalk``) writes each row as integer coordinates in the
basis B_i = (e_{i+1}, ..., e_{i+d}) of the d exponents above level i, plus a
constant that carries the row's offset, relative to the first row.  For a
single-term factor e_i = f_{i+s} with f_{m+d} = c_1 f_{m+d-1} + ... + c_d f_m,
reading factor i rebases v to v'_0 = c_d v_{d-1}, v'_p = v_{p-1} +
c_{d-p} v_{d-1}, then adds the unit vector of e_i to each row that takes the
term: the step, and so the state set, is the same at every level (a transfer
matrix, Stanley EC1 4.7).  For a pair difference g of two rows, a bitmask
over the levels 0..N records where |g.B_i + g_c| is within the slack S_i;
a state is alive at the levels where all its pair masks agree.  A successor
is kept only if it is alive one level below a level where its parent is alive
and can be reached from the start.  That is exact: a successor dropped that
way has no completion at any level where its weight would be used, and a
state that is dead at a level has none there either, so its table entry
there is 0.  Leading zero offsets are stripped, and the terms with k < 0 that
this adds are subtracted again, read from the product truncated below x^top.

The basis walk runs when the recurrence meets Brauer's condition
c_1 >= ... >= c_d >= 1 with c_1 + ... + c_d >= 2 (its root is then a Pisot
number, so the live states stay finitely many as the depth grows: Frougny,
Math. Systems Theory 25, 1992), every factor has a single term, and the
exponents of the first d + 1 factors are positive and strictly increasing
(then all of them are).  Elsewhere, where its state set can grow with the
depth or with runs of equal exponents, the level walk runs.
"""

from __future__ import annotations

from math import factorial
from operator import mul, sub

from .config import max_mem_bytes
from .errors import ResourceLimitError
from .polynomials import ProductSpec

# Estimated bytes per stored state (key tuple, table entry, value, successor
# map): tracemalloc measured 130-700 on integer power sums up to depth 200.
STATE_BYTES = 400
# The same for the basis walk, whose state also keeps its alive mask and
# successor map, next to the memoised pair masks and two tables: tracemalloc
# read 1,000-3,200 bytes a state on automata of 250-3,500 states with wide
# prefactors, more with more rows.
BASIS_STATE_BYTES = 4000


def _compositions(m: int, parts: int):
    """All tuples of ``parts`` nonnegative ints summing to m (none for parts = 0)."""
    if parts < 2:
        if parts:
            yield (m,)
        return
    for first in range(m, -1, -1):
        for rest in _compositions(m - first, parts - 1):
            yield (first,) + rest


def _group_sort(rows, sizes) -> list:
    """The rows sorted within each offset group, groups in order."""
    out: list = []
    pos = 0
    for size in sizes:
        out += sorted(rows[pos : pos + size])
        pos += size
    return out


def basis_walk_applies(spec: ProductSpec) -> bool:
    """Whether ``corr_walk_series`` runs the basis walk on ``spec``: Brauer's
    condition on the recurrence, one term per factor, and positive, strictly
    increasing exponents over the first d + 1 factors."""
    c = spec.exponent_seq.coeffs
    if c[-1] < 1 or sum(c) < 2 or any(x < y for x, y in zip(c, c[1:])):
        return False
    terms = [j for j, aj in enumerate(spec.a) if aj]
    if len(terms) != 1 or spec.offset + terms[0] < 0:
        return False
    shift = spec.offset + terms[0]
    e = [spec.exponent_seq.term(shift + i) for i in range(1, len(c) + 2)]
    return e[0] >= 1 and all(x < y for x, y in zip(e, e[1:]))


class _Rows:
    """What both codecs share: row groups, the run spreads, the prefactor
    leaf and the charge against RGF_MAX_MEM_MB."""

    state_bytes = STATE_BYTES

    def __init__(self, spec: ProductSpec, alpha: tuple[int, ...]):
        self.spec = spec
        active = [j for j, a in enumerate(alpha) if a]
        self.top = active[-1]
        self.sizes = [alpha[j] for j in active]
        self.offsets = [j for j in active for _ in range(alpha[j])]
        self.track_min = active[0] > 0
        if spec.prefactor is None:
            terms = [(1, 0)]
        else:
            terms = [(c, e) for e, c in spec.prefactor.items()]
        self.prefactor = {e: c for c, e in terms}
        self.factors = [terms]  # factor 0 is the prefactor
        self.slack = [terms[-1][1] - terms[0][1] if terms else 0]
        self.options: list[dict[int, list]] = [{}]
        self.stored = 0

    def _charge(self, count: int, n: int) -> None:
        self.stored += count
        if self.stored * self.state_bytes > max_mem_bytes():
            raise ResourceLimitError(
                f"difference walk needs {self.stored} states at n = {n}, over the RGF_MAX_MEM_MB cap",
                limit_n=n,
            )

    def _spread_run(self, i: int, m: int) -> list[tuple]:
        """The ways m equal rows read factor i: (added exponents, ascending; weight)."""
        cached = self.options[i].get(m)
        if cached is None:
            terms = self.factors[i]
            cached = []
            for counts in _compositions(m, len(terms)):
                weight = factorial(m)
                for count in counts:
                    weight //= factorial(count)
                added: tuple[int, ...] = ()
                for (c, e), count in zip(terms, counts):
                    if count:
                        weight = weight * c**count
                        added += (e,) * count
                cached.append((added, weight))
            self.options[i][m] = cached
        return cached

    def _leaf(self, vals, floor=None):
        """The weight of the ways rows with int values ``vals`` each take a
        prefactor term and all end at one value K (K >= ``floor`` if given):
        sum over K of prod_p P[K - vals_p].  Equal rows that end equal took
        the same term, so no multinomial weight arises."""
        if not self.prefactor:
            return 0
        terms = self.factors[0]
        low, high = max(vals) + terms[0][1], min(vals) + terms[-1][1]
        if floor is not None:
            low = max(low, floor)
        total = 0
        for k in range(low, high + 1):
            weight = 1
            for x in vals:
                c = self.prefactor.get(k - x)
                if c is None:
                    break
                weight = weight * c
            else:
                total = total + weight
        return total


class _Walk(_Rows):
    """The level walk: int rows, one table of states per level."""

    def __init__(self, spec: ProductSpec, alpha: tuple[int, ...]):
        super().__init__(spec, alpha)
        start = tuple(self.top - j for j in self.offsets)
        self.start = start + (-self.top,) if self.track_min else start
        self.tables: list[dict[tuple, object]] = [{}]

    def _add_factor(self) -> None:
        terms = [(1, 0)] + self.spec.factor_terms(len(self.factors))
        self.factors.append(terms)
        self.slack.append(self.slack[-1] + terms[-1][1] - terms[0][1])
        self.options.append({})
        self.tables.append({})

    def _successors(self, state: tuple, i: int) -> dict[tuple, object]:
        """Weighted states after reading factor i >= 1, pruned by the slack below it."""
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
            if self.track_min:
                key += (min(state[-1] + lo, 0),)
            out[key] = out[key] + w if key in out else w
        return out

    def _end(self, state: tuple):
        """The leaf of a level-0 state: its rows read the prefactor; with a
        positive first offset, the carried least value l needs K + l >= 0."""
        if self.track_min:
            return self._leaf(state[:-1], -state[-1])
        return self._leaf(state)

    def value(self, n: int):
        """v(n): the completion weight of the start state with n factors unread."""
        while len(self.factors) <= n:
            self._add_factor()
        if self.start[0] > self.slack[n]:  # the start state's spread
            return 0
        pending = []
        need = [self.start]
        i = n
        while need:
            self._charge(len(need), n)
            if not i:
                self.tables[0].update((state, self._end(state)) for state in need)
                break
            level = {state: self._successors(state, i) for state in need}
            pending.append((i, level))
            below = self.tables[i - 1]
            need = {s for succ in level.values() for s in succ if s not in below}
            i -= 1
        for i, level in reversed(pending):
            table, below = self.tables[i], self.tables[i - 1]
            for state, succ in level.items():
                table[state] = sum(w * below[nxt] for nxt, w in succ.items())
        return self.tables[n][self.start]


class _BasisWalk(_Rows):
    """The basis walk to depth n_max: rows in the recurrence basis, one
    successor map per state for every level.  Build it only where
    ``basis_walk_applies``; ``alpha`` has its leading zeros stripped here."""

    state_bytes = BASIS_STATE_BYTES

    def __init__(self, spec: ProductSpec, alpha: tuple[int, ...], n_max: int):
        self.lead = next(j for j, a in enumerate(alpha) if a)
        super().__init__(spec, alpha[self.lead :])
        self.n_max = n_max
        (term,) = [j for j, aj in enumerate(spec.a) if aj]
        self.weight = spec.a[term]
        seq = spec.exponent_seq
        self.d = d = seq.order
        self.rev = seq.coeffs[::-1]  # c_d, ..., c_1
        # factors[1] stands for every factor: its term adds the unit vector of e_i
        self.factors.append([(1, 0), (self.weight, 1)])
        self.options.append({})
        exps = [seq.term(spec.offset + term + i) for i in range(1, n_max + d + 1)]  # e_1, e_2, ...
        self.basis = [tuple(exps[i : i + d]) for i in range(n_max + 1)]
        self.bounds = [self.slack[0]]  # S_i: the slack with factors 1..i unread
        for e in exps[:n_max]:
            self.bounds.append(self.bounds[-1] + e)
        self.start = tuple((0,) * d + (-j,) for j in self.offsets)
        self.masks: dict[tuple, int] = {}
        self.alive: dict[tuple, int] = {}

    def _pair_mask(self, g: tuple) -> int:
        """Bit i set when the rows g apart can still end equal at level i."""
        mask = self.masks.get(g)
        if mask is None:
            mask, const = 0, g[-1]
            for i, (row, bound) in enumerate(zip(self.basis, self.bounds)):
                if abs(sum(map(mul, g, row)) + const) <= bound:
                    mask |= 1 << i
            self.masks[g] = mask
        return mask

    def _expand(self, state: tuple, window: int) -> dict[tuple, object]:
        """Weighted successors of ``state`` one level down that are alive at
        a level of ``window``; their alive masks go to ``self.alive``."""
        d, rev, masks = self.d, self.rev, self.masks
        rebased = []
        for row in state:
            top = row[d - 1]
            rebased.append((top * rev[0],) + tuple(row[p - 1] + top * rev[p] for p in range(1, d)) + row[d:])
        unit = self._pair_mask((1,) + (0,) * d)
        partial = [((), (), 1, -1)]  # (rows, distinct rows, weight, AND of pair masks)
        pos = 0
        for size in self.sizes:
            stop = pos + size
            while pos < stop:
                kept = rebased[pos]
                run = pos + 1
                while run < stop and state[run] == state[pos]:
                    run += 1
                taken = (kept[0] + 1,) + kept[1:]
                grown = []
                for added, weight in self._spread_run(1, run - pos):
                    rows = tuple(taken if e else kept for e in added)
                    fresh = tuple(dict.fromkeys(rows))
                    first = unit if len(fresh) == 2 else -1
                    for prev, seen, w, mask in partial:
                        mask &= first
                        for u in fresh:
                            for p in seen:
                                g = tuple(map(sub, u, p))
                                mask &= masks[g] if g in masks else self._pair_mask(g)
                        if mask & window:
                            grown.append((prev + rows, seen + fresh, w * weight, mask))
                partial = grown
                pos = run
        out: dict[tuple, object] = {}
        for rows, _, w, mask in partial:
            ordered = _group_sort(rows, self.sizes)
            origin = ordered[0]
            key = tuple(tuple(map(sub, row, origin)) for row in ordered)
            out[key] = out[key] + w if key in out else w
            self.alive[key] = mask
        return out

    def _start_mask(self) -> int:
        """The levels where the start state is alive: all pairs of its rows."""
        mask = -1
        for q, row in enumerate(self.start):
            for p in self.start[:q]:
                mask &= self._pair_mask(tuple(map(sub, row, p)))
        return mask

    def _low_terms(self) -> list:
        """Per n, the terms with -lead <= k < 0 that stripping the leading zero
        offsets adds: prod_j c_n(k' + j)^alpha_j over k' < lead, read from
        the product truncated to degree lead + top - 1."""
        if not self.lead:
            return [0] * (self.n_max + 1)
        prefactor = self.spec.prefactor
        width = self.lead + self.top
        low = [1] + [0] * (width - 1) if prefactor is None else [prefactor.coeff(k) for k in range(width)]
        groups = list(zip(dict.fromkeys(self.offsets), self.sizes))
        out = []
        for n in range(self.n_max + 1):
            if n:
                e = self.basis[n - 1][0]
                for k in range(width - 1, e - 1, -1):
                    low[k] = low[k] + self.weight * low[k - e]
            total = 0
            for k in range(self.lead):
                term = 1
                for j, size in groups:
                    term = term * low[k + j] ** size
                total = total + term
            out.append(total)
        return out

    def series(self) -> list:
        """[v(0), ..., v(n_max)]: build the automaton breadth-first, then
        fill the tables level by level, keeping two at a time."""
        n_max = self.n_max
        start = self.start
        self.alive[start] = self._start_mask()
        depth = {start: 0}
        edges: dict[tuple, dict] = {}
        frontier = [start]
        t = 0
        while frontier:
            self._charge(len(frontier), t)
            found = []
            for state in frontier:
                # the levels where the state is alive and reachable, one below
                window = (self.alive[state] & ((2 << (n_max - t)) - 1)) >> 1
                edges[state] = succ = self._expand(state, window) if window else {}
                for nxt in succ:
                    if nxt not in depth:
                        depth[nxt] = t + 1
                        found.append(nxt)
            frontier = found
            t += 1
        out = []
        below: dict[tuple, object] = {}
        base = self.basis[0]
        for i, low in enumerate(self._low_terms()):
            bit = 1 << i
            table = dict.fromkeys(depth, 0)
            for state, t in depth.items():
                if t <= n_max - i and self.alive[state] & bit:
                    if i:
                        table[state] = sum(w * below[nxt] for nxt, w in edges[state].items())
                    else:  # the leaf: the rows as ints read the prefactor
                        table[state] = self._leaf([sum(map(mul, row, base)) + row[-1] for row in state])
            out.append(table[start] - low)
            below = table
        return out


def corr_walk_series(spec: ProductSpec, alpha: tuple[int, ...], n_max: int) -> list:
    """[v(0), ..., v(n_max)] for the window exponents ``alpha``, exactly.

    Runs the basis walk where ``basis_walk_applies`` and the level walk
    elsewhere.  Raises ``ResourceLimitError`` with ``limit_n`` = the first n
    (for the basis walk, the first breadth-first depth) whose states would
    push the stored count over the ``RGF_MAX_MEM_MB`` cap; every n below it
    runs.
    """
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    alpha = tuple(alpha)
    if basis_walk_applies(spec):
        return _BasisWalk(spec, alpha, n_max).series()
    walk = _Walk(spec, alpha)
    return [walk.value(n) for n in range(n_max + 1)]

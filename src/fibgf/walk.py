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
sorted tuple of row sums minus the offset, taken relative to the least of them
over all rows; a run of m equal rows spreads over a factor's terms with
multinomial weights.  A row of offset 0 ends with k = its sum >= 0; when the
first active offset is positive, the state instead carries min(least row
value, 0), so that k >= 0 can be checked once every factor is read.

The completion weight of a state depends only on the state and the number of
factors still unread, never on n, so one table per factor count is shared by
the whole series: v(n) is the completion weight of the start state with n
factors unread, and each state is expanded once for all n.
"""

from __future__ import annotations

from math import factorial

from .config import max_mem_bytes
from .errors import ResourceLimitError
from .polynomials import ProductSpec

# Estimated bytes per stored state (key tuple, table entry, value, successor
# map): tracemalloc measured 130-700 on integer power sums up to depth 200.
STATE_BYTES = 400


def _compositions(m: int, parts: int):
    """All tuples of ``parts`` nonnegative ints summing to m (none for parts = 0)."""
    if parts < 2:
        if parts:
            yield (m,)
        return
    for first in range(m, -1, -1):
        for rest in _compositions(m - first, parts - 1):
            yield (first,) + rest


class _Walk:
    def __init__(self, spec: ProductSpec, alpha: tuple[int, ...]):
        self.spec = spec
        active = [j for j, a in enumerate(alpha) if a]
        top = active[-1]
        self.sizes = [alpha[j] for j in active]
        self.track_min = active[0] > 0
        start = tuple(top - j for j in active for _ in range(alpha[j]))
        self.start = start + (-top,) if self.track_min else start
        if spec.prefactor is None:
            terms = [(1, 0)]
        else:
            terms = [(c, e) for e, c in spec.prefactor.items()]
        self.factors = [terms]  # factor 0 is the prefactor
        self.slack = [terms[-1][1] - terms[0][1] if terms else 0]
        self.options: list[dict[int, list]] = [{}]
        self.tables: list[dict[tuple, object]] = [{}]
        self.stored = 0

    def _add_factor(self) -> None:
        terms = [(1, 0)] + self.spec.factor_terms(len(self.factors))
        self.factors.append(terms)
        self.slack.append(self.slack[-1] + terms[-1][1] - terms[0][1])
        self.options.append({})
        self.tables.append({})

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

    def _successors(self, state: tuple, i: int) -> dict[tuple, object]:
        """Weighted states after reading factor i, pruned by the slack below it."""
        limit = self.slack[i - 1] if i else 0
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
            key: tuple = ()
            pos = 0
            for size in self.sizes:
                key += tuple(sorted(x - lo for x in vals[pos : pos + size]))
                pos += size
            if self.track_min:
                least = min(state[-1] + lo, 0)
                if not i and least:
                    continue  # the common k would be negative
                key += (least,)
            out[key] = out[key] + w if key in out else w
        return out

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
            self.stored += len(need)
            if self.stored * STATE_BYTES > max_mem_bytes():
                raise ResourceLimitError(
                    f"difference walk needs {self.stored} states at n = {n}, over the RGF_MAX_MEM_MB cap",
                    limit_n=n,
                )
            level = {state: self._successors(state, i) for state in need}
            pending.append((i, level))
            if not i:
                break
            below = self.tables[i - 1]
            need = {s for succ in level.values() for s in succ if s not in below}
            i -= 1
        for i, level in reversed(pending):
            table = self.tables[i]
            if not i:  # every successor of the prefactor is an accepted tuple
                table.update((state, sum(succ.values())) for state, succ in level.items())
                continue
            below = self.tables[i - 1]
            for state, succ in level.items():
                table[state] = sum(w * below[nxt] for nxt, w in succ.items())
        return self.tables[n][self.start]


def corr_walk_series(spec: ProductSpec, alpha: tuple[int, ...], n_max: int) -> list:
    """[v(0), ..., v(n_max)] for the window exponents ``alpha``, exactly.

    Raises ``ResourceLimitError`` with ``limit_n`` = the first n whose states
    would push the stored count over the ``RGF_MAX_MEM_MB`` cap.
    """
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    walk = _Walk(spec, tuple(alpha))
    return [walk.value(n) for n in range(n_max + 1)]

"""Monoids of equal-weight binary-word tuples under concatenation.

An element is an r-tuple of 0/1 rows of one length n whose weighted sums
sum_i a_i F^{(k)}_{i+k-1} agree across rows.  For r = 2 the monoid is freely
generated by an explicit two-parameter family, shown without building an
element.  Lemma (``generator_lemma_failure``): every generator balances at
every shift and none has a proper prefix that does, so a concatenation of
generators is an element whose balanced cuts are its piece boundaries, and
generator sequences map into elements injectively.  Count: the elements of
length n number sum_j c_n(j)^2 (the difference walk's square sum), as many
as the sequences, [x^n] 1/(1 - G) (``transfer_series``), so the map is a
bijection.  ``free_factorize`` recovers the unique factorization.
``word_classes`` and ``move_connectivity`` expose the rewriting side:
baa <-> abb on letter words and 001 <-> 110 on weight vectors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .errors import InvariantError, ResourceLimitError
from .guess import RationalFunc
from .polynomials import TPoly
from .sequences import kbonacci, phi_power, phi_power_reduce


@lru_cache(maxsize=None)
def _weights(k: int, n: int) -> tuple[int, ...]:
    seq = kbonacci(k)
    return tuple(seq.term(i + k - 1) for i in range(1, n + 1))


@dataclass(frozen=True)
class MonoidWord:
    """An r-tuple of equal-length binary rows with equal weighted sums."""

    rows: tuple[tuple[int, ...], ...]
    k: int

    @property
    def length(self) -> int:
        return len(self.rows[0])

    @property
    def ones_count(self) -> int:
        return sum(sum(row) for row in self.rows)

    def weight(self) -> int:
        w = _weights(self.k, self.length)
        sums = {sum(a * wi for a, wi in zip(row, w)) for row in self.rows}
        if len(sums) != 1:
            raise InvariantError("rows have unequal weights", detail=self.rows)
        return sums.pop()

    def to_json_obj(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


def _generator_rows(k: int, stars: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    top: list[int] = [1] * k
    bottom: list[int] = [0] * k
    for s in stars:
        top.append(s)
        bottom.append(s)
        top.extend([1] * (k - 1))
        bottom.extend([0] * (k - 1))
    top.append(0)
    bottom.append(1)
    return tuple(top), tuple(bottom)


def generators(k: int, max_len: int) -> list[MonoidWord]:
    """The free generators of the r = 2 monoid up to the given length.

    Two length-1 generators, plus for each j >= 0 with (j+1)k+1 <= max_len
    the 2 * 2^j generators of length (j+1)k+1 (both row orders, all star
    columns).
    """
    if k < 2:
        raise ValueError("need k >= 2")
    out = []
    if max_len >= 1:
        out.append(MonoidWord(((0,), (0,)), k))
        out.append(MonoidWord(((1,), (1,)), k))
    j = 0
    while (j + 1) * k + 1 <= max_len:
        for mask in range(1 << j):
            stars = tuple((mask >> m) & 1 for m in range(j))
            top, bottom = _generator_rows(k, stars)
            out.append(MonoidWord((top, bottom), k))
            out.append(MonoidWord((bottom, top), k))
        j += 1
    return out


def is_generator(word: MonoidWord) -> bool:
    """Membership in the generator family: a pair of length 1 with equal
    rows, or a pair of length (j+1)k+1 that is ``_generator_rows`` of its own
    star columns (positions k, 2k, ..., jk, equal in both rows) in either
    row order."""
    if len(word.rows) != 2:
        return False
    k, length = word.k, word.length
    if length == 1:
        return word.rows[0] == word.rows[1]
    blocks, rem = divmod(length - 1, k)
    if rem or blocks < 1:
        return False
    pair = _generator_rows(k, word.rows[0][k : k * blocks : k])
    return word.rows in (pair, pair[::-1])


def generator_census_series(k: int, max_len: int) -> list:
    """[G_1, ..., G_max_len]: per length, the sum of t^{ones} over generators,
    one ``TPoly`` of the generators counted by ones, 0 where there is none."""
    counts = [[0] * (2 * length + 1) for length in range(max_len + 1)]  # [length][ones]
    for g in generators(k, max_len):
        counts[g.length][g.ones_count] += 1
    return [TPoly(row) if any(row) else 0 for row in counts[1:]]


def closed_form_census_series(k: int, max_len: int) -> list:
    """The same census from the closed formula:
    (1+t^2) x + 2 sum_j t^{j(k-1)+k+1} (1+t^2)^j x^{jk+k+1}."""
    t = TPoly.t()
    out: list = [0] * (max_len + 1)
    if max_len >= 1:
        out[1] = 1 + t * t
    j = 0
    while j * k + k + 1 <= max_len:
        out[j * k + k + 1] = 2 * (t ** (j * (k - 1) + k + 1)) * ((1 + t * t) ** j)
        j += 1
    return out[1:]


def generator_lemma_failure(k: int, max_len: int) -> tuple[MonoidWord, str] | None:
    """The first generator of ``generators(k, max_len)`` that breaks the
    free-generation lemma, with the reason, or None.  With d_j = top_j -
    bottom_j, a generator must (a) balance: D(s) = sum_j d_j w_{s+j} = 0 for
    s < k, hence at every shift, as D obeys the weights' k-term recurrence;
    (b) have no balanced proper prefix: off the last column d has one sign
    and d_0 != 0, so with positive weights no proper prefix balances at any
    shift; (c) be listed once.
    """
    seen = set()
    for g in generators(k, max_len):
        diff = [a - b for a, b in zip(*g.rows)]
        w = _weights(k, g.length + k - 1)
        if any(sum(d * wi for d, wi in zip(diff, w[s:])) for s in range(k)):
            return g, "unbalanced"
        head = diff[:-1]
        if head and (head[0] == 0 or any(d * head[0] < 0 for d in head)):
            return g, "balanced proper prefix"
        if g.rows in seen:
            return g, "repeated generator"
        seen.add(g.rows)
    return None


def balanced_cut_positions(word: MonoidWord) -> list[int]:
    """Positions p (1 <= p <= n) where the length-p prefix has equal row weights."""
    w = _weights(word.k, word.length)
    prefix_sums = [accumulate(bit * wp for bit, wp in zip(row, w)) for row in word.rows]
    return [p for p, sums in enumerate(zip(*prefix_sums), 1) if len(set(sums)) == 1]


def free_factorize(word: MonoidWord) -> list[MonoidWord]:
    """The unique factorization into generators: the pieces between the
    balanced cuts.

    Lemma (``generator_lemma_failure``): the balanced cuts of a concatenation
    of generators are exactly its piece boundaries, so no word has two
    factorizations.  Count: the elements of length n, sum_j c_n(j)^2, are as
    many as the generator sequences, [x^n] 1/(1 - G(x)) (``check_freegen``),
    so every element has one.  Raises InvariantError unless the word is
    balanced and every piece is a generator.
    """
    cuts = balanced_cut_positions(word)
    if word.length and cuts[-1:] != [word.length]:
        raise InvariantError("word is not weight-balanced", detail=word.rows)
    pieces = [MonoidWord(tuple(row[a:b] for row in word.rows), word.k) for a, b in zip([0] + cuts, cuts)]
    for piece in pieces:
        if not is_generator(piece):
            raise InvariantError("segment between balanced cuts is not a generator", detail=piece.rows)
    return pieces


def transfer_series(k: int, t, n_max: int) -> list:
    """Expand 1/(1 - G(x)) where G comes from the generator census.

    ``t`` may be 1 (plain counts), any int, or a TPoly for symbolic weights.
    """
    census = generator_census_series(k, n_max)
    if isinstance(t, int):
        census = [c.evaluate(t) if isinstance(c, TPoly) else c for c in census]
    return RationalFunc([1], [1] + [-g for g in census]).series(n_max + 1)


# -- letter-word rewriting -----------------------------------------------------

def word_classes(n: int, cap: int = 14) -> list[int]:
    """Sorted multiset of class sizes of baa <-> abb rewriting on {a,b}^n.

    Words are encoded as n-bit integers with bit p = 1 for the letter b at
    position p (reading left to right), so the windows b a a and a b b at
    positions p, p+1, p+2 read 001 and 110 from bit p, and XOR with 7 << p
    rewrites either one into the other.  The classes are found by label
    propagation on arrays: every word starts labelled by itself; a round
    gives each word the smallest label among itself and its rewrites, and
    stops if no label fell; else it replaces labels by their labels' labels
    until that changes nothing.

    That is exact.  A label is always a word of the same class, as the
    rewrites stay in the class, and labels only fall, so the rounds stop.
    At the stop each word's label is at most those of its rewrites; a
    rewrite is an involution, so the labels of a rewrite pair are equal and
    the label is one word per class.  The class sizes are the label counts.
    """
    if n > cap:
        raise ResourceLimitError(f"word classes capped at n = {cap}", limit_n=n)
    import numpy as np

    words = np.arange(1 << n)
    pairs = []  # per window position: the words with a window there, and their rewrites
    for p in range(n - 2):
        window = (words >> p) & 7
        with_window = words[(window == 1) | (window == 6)]
        pairs.append((with_window, with_window ^ (7 << p)))
    labels = words.copy()
    while True:
        before = labels.copy()
        for with_window, rewritten in pairs:
            labels[with_window] = np.minimum(labels[with_window], labels[rewritten])
        if np.array_equal(labels, before):
            break
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
    sizes = np.bincount(labels)
    return np.sort(sizes[sizes > 0]).tolist()


def _move_targets(bits: tuple[int, ...]) -> list[tuple[int, ...]]:
    out = []
    for p in range(len(bits) - 2):
        window = bits[p : p + 3]
        if window == (0, 0, 1):
            out.append(bits[:p] + (1, 1, 0) + bits[p + 3 :])
        elif window == (1, 1, 0):
            out.append(bits[:p] + (0, 0, 1) + bits[p + 3 :])
    return out


def move_connectivity(alpha, beta, weight_mode: str = "fibonacci"):
    """A sequence of 001 <-> 110 moves from alpha to beta, or None.

    Both arguments are 0/1 vectors.  In "fibonacci" mode position i carries
    weight F_{i+2}; in "phi_powers" mode it carries phi^i.  Unequal weights
    raise ValueError; for equal weights the rewriting lemma promises a path.
    """
    alpha = tuple(int(b) for b in alpha)
    beta = tuple(int(b) for b in beta)
    if any(b not in (0, 1) for b in alpha + beta):
        raise ValueError("vectors must be 0/1")
    fib = kbonacci(2)
    if weight_mode == "fibonacci":
        total = sum(b * fib.term(i + 2) for i, b in enumerate(alpha))
        other = sum(b * fib.term(i + 2) for i, b in enumerate(beta))
        if total != other:
            raise ValueError("weight sums differ")
        length = 3
        while fib.term(length + 2) <= total:
            length += 1
    elif weight_mode == "phi_powers":
        total = phi_power_reduce(alpha)
        other = phi_power_reduce(beta)
        if total != other:
            raise ValueError("weight sums differ")
        length = 3
        while (total - phi_power(length)).sign() >= 0:
            length += 1
    else:
        raise ValueError("weight_mode must be 'fibonacci' or 'phi_powers'")
    length = max(length, len(alpha), len(beta)) + 2
    start = alpha + (0,) * (length - len(alpha))
    goal = beta + (0,) * (length - len(beta))
    if start == goal:
        return []
    seen = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in _move_targets(cur):
            if nxt not in seen:
                seen[nxt] = cur
                if nxt == goal:
                    path = [nxt]
                    while seen[path[-1]] is not None:
                        path.append(seen[path[-1]])
                    return path[::-1][1:]  # states after each move; start omitted
                queue.append(nxt)
    return None

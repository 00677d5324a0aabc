"""Exponent sequences, Zeckendorf representations, and exact Z[phi] arithmetic.

Everything here is exact integer arithmetic.  ``RecurrentSeq`` produces terms
of a constant-coefficient linear recurrence (1-based, memoized), with presets
for the k-bonacci family and the doubling sequence.  ``GoldenInt`` is the ring
Z[phi] with phi = (1+sqrt(5))/2, ordered exactly by the real embedding.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import total_ordering
from math import isqrt


@dataclass(frozen=True)
class RecurrentSeq:
    """An integer sequence f_1, f_2, ... defined by a linear recurrence.

    ``coeffs`` = (c_1, ..., c_d) means f_{i+1} = c_1 f_i + ... + c_d f_{i-d+1}
    for i >= d, and ``init`` = (f_1, ..., f_d).  Terms are memoized in a list
    that only grows; it takes no lock, as the package grows no sequence from
    two threads.
    """

    coeffs: tuple[int, ...]
    init: tuple[int, ...]
    _memo: list[int] = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        if len(self.coeffs) != len(self.init) or not self.coeffs:
            raise ValueError("recurrence needs matching nonempty coeffs and init")
        self._memo.extend(self.init)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def term(self, i: int) -> int:
        """Exact i-th term, 1-based.  Raises ValueError for i < 1."""
        if i < 1:
            raise ValueError(f"sequence index must be >= 1, got {i}")
        memo = self._memo
        while len(memo) < i:
            memo.append(sum(c * memo[-1 - j] for j, c in enumerate(self.coeffs)))
        return memo[i - 1]

    def terms(self, n: int) -> list[int]:
        """The first n terms as a list."""
        self.term(max(n, 1))
        return self._memo[:n]

    def to_json(self) -> str:
        """Serialize as {"coeffs": [...], "init": [...]} with decimal strings."""
        return json.dumps(
            {"coeffs": [str(c) for c in self.coeffs], "init": [str(v) for v in self.init]}
        )

    @classmethod
    def from_json(cls, text: str) -> RecurrentSeq:
        data = json.loads(text)
        return cls(
            coeffs=tuple(int(c) for c in data["coeffs"]),
            init=tuple(int(v) for v in data["init"]),
        )


def kbonacci(k: int) -> RecurrentSeq:
    """The k-bonacci sequence: k seed ones, then each term sums the previous k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return RecurrentSeq(coeffs=(1,) * k, init=(1,) * k)


def doubling() -> RecurrentSeq:
    """1, 2, 4, 8, ...: the exponent sequence of the Stern product."""
    return RecurrentSeq(coeffs=(2,), init=(1,))


FIBONACCI = kbonacci(2)


def fibonacci(i: int) -> int:
    """F_i with F_1 = F_2 = 1."""
    return FIBONACCI.term(i)


def zeckendorf(n: int) -> list[int]:
    """Indices i_1 < i_2 < ... (all >= 2, no two consecutive) with sum F_{i_j} = n.

    The summand 1 is always represented as F_2.  Greedy on the largest
    Fibonacci number <= n; the result is the unique such representation.
    What is left after taking F_i is below F_{i-1}, so the search for the
    next summand goes down from i - 2: one pass over the indices.
    """
    if n < 0:
        raise ValueError("zeckendorf is defined for nonnegative integers")
    fib = FIBONACCI._memo  # fib[i - 1] = F_i
    while fib[-1] <= n:
        FIBONACCI.term(len(fib) + 1)
    i = bisect_right(fib, n)  # F_i <= n < F_{i+1}, and i >= 2 once n >= 1
    indices: list[int] = []
    remaining = n
    while remaining > 0:
        if fib[i - 1] <= remaining:
            indices.append(i)
            remaining -= fib[i - 1]
            i -= 2
        else:
            i -= 1
    indices.reverse()
    return indices


def prec_compare(m: int, n: int, sentinel_parity: str = "odd") -> int:
    """Compare m, n under the Zeckendorf-index order; returns -1, 0, or +1.

    Both representations are scanned in parallel for the first differing
    index pair (i, j); then:

      * i even, j odd          -> m before n
      * both even              -> smaller index first
      * both odd               -> larger index first

    An exhausted representation contributes a sentinel index.  With
    ``sentinel_parity="odd"`` (default) the sentinel is odd and compares as
    larger than every real index, which makes "n before 0 iff the smallest
    Zeckendorf index of n is even" come out true.  ``sentinel_parity="even"``
    uses the literal F_0 = 0 sentinel (even, index 0) instead.
    """
    km, kn = prec_key(zeckendorf(m), sentinel_parity), prec_key(zeckendorf(n), sentinel_parity)
    return (km > kn) - (km < kn)


def prec_key(rep: list[int], sentinel_parity: str = "odd") -> tuple[int, ...]:
    """A sort key on Zeckendorf representations for ``prec_compare``'s order,
    so that a caller ordering many labels expands each label once.

    Each index gives a pair, (0, i) for even i and (2, -i) for odd i: even
    indices come first in ascending order, odd ones last in descending order.
    The sentinel gives (0, 0) when even (index 0, before every even index)
    and (1, 0) when odd (beyond every index: after the even ones, before the
    odd ones).  Tuples compare pair by pair, so the first differing index
    pair, or an index against the sentinel, decides.
    """
    if sentinel_parity not in ("odd", "even"):
        raise ValueError("sentinel_parity must be 'odd' or 'even'")
    key = [part for i in rep for part in ((0, i) if i % 2 == 0 else (2, -i))]
    return (*key, *((0, 0) if sentinel_parity == "even" else (1, 0)))


@total_ordering
class GoldenInt:
    """An element a + b*phi of Z[phi], phi = (1+sqrt(5))/2, phi^2 = phi + 1.

    Ordered exactly by the real value using only integer arithmetic.
    Immutable and hashable.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, *_):
        raise AttributeError("GoldenInt is immutable")

    def __repr__(self) -> str:
        return f"GoldenInt({self.a}, {self.b})"

    def __str__(self) -> str:
        return f"{self.a}{self.b:+}φ"

    @classmethod
    def _coerce(cls, x) -> "GoldenInt | None":
        if isinstance(x, GoldenInt):
            return x
        if isinstance(x, int):
            return cls(x, 0)
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GoldenInt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return GoldenInt(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GoldenInt(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # (a + b phi)(c + d phi) = ac + bd + (ad + bc + bd) phi
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.a, self.b, o.a, o.b
        return GoldenInt(a * c + b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def sign(self) -> int:
        """Sign of the real value a + b*phi, computed with integers only.

        2*(a + b*phi) = (2a + b) + b*sqrt(5), so the sign is decided by
        comparing (2a + b)^2 against 5 b^2 with the right case split.
        """
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        s = 2 * a + b
        if b > 0:
            if s >= 0:
                return +1
            return +1 if 5 * b * b > s * s else -1  # s < 0: b*sqrt5 vs -s
        if s <= 0:
            return -1
        return -1 if 5 * b * b > s * s else +1

    def __lt__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0


def phi_power(i: int) -> GoldenInt:
    """phi^i as an element of Z[phi]: phi^i = F_{i-1} + F_i * phi (F_0 = 0)."""
    if i < 0:
        raise ValueError("only nonnegative powers are supported")
    if i == 0:
        return GoldenInt(1, 0)
    return GoldenInt(fibonacci(i - 1) if i >= 2 else 0, fibonacci(i))


def phi_power_reduce(bits) -> GoldenInt:
    """Exact value of sum a_i phi^i for a 0/1 vector over phi^0..phi^N."""
    total = GoldenInt(0, 0)
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        if bit:
            total = total + phi_power(i)
    return total


def floor_times_phi(i: int) -> int:
    """floor(i * phi) for i >= 0, exactly: floor((i + isqrt(5 i^2)) / 2)."""
    if i < 0:
        raise ValueError("i must be >= 0")
    return (i + isqrt(5 * i * i)) // 2

"""Exact dense polynomial engine in x with coefficients in Z or Z[t].

``TPoly`` is a plain integer polynomial in the weight variable t; coefficient
"scalars" throughout the package are either Python ints (the degree-0 case,
kept as ints for speed) or ``TPoly`` values, which interoperate under +, -, *.

``CoeffPoly`` is a polynomial in x over those scalars, stored as a dense
list.  ``ProductSpec`` describes products of the shape

    P(x) * prod_{i=1}^{n} (1 + a_1 x^{f_{i+off}} + ... + a_h x^{f_{i+off+h-1}})

and ``ProductSpec.factor_terms`` gives each factor's terms in the one normal
form every engine reads.  ``partial_products`` expands the product by
shifted adds and yields each partial product as it grows; it is the
small-depth oracle of the walk, the carry automaton and the residue stream.
``convolve`` is the one dense product of two coefficient sequences.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, repeat
from math import isqrt
from operator import add, mul, not_, sub

from .config import PYOBJ_BYTES_PER_BIG_COEFF, PYOBJ_BYTES_PER_COEFF, Meter
from .errors import InvariantError
from .sequences import GoldenInt, RecurrentSeq, fibonacci, phi_power


# the largest int64: an int64 array holds only values proved to stay within it
INT64_MAX = 2**63 - 1


def convolve(a, b) -> list:
    """The dense product of two ascending coefficient sequences over any
    scalar ring; zero coefficients are skipped."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                if v:
                    out[i + j] += u * v
    return out


class TPoly:
    """Dense integer polynomial in t, ascending coefficients, immutable."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "c", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("TPoly is immutable")

    @classmethod
    def t(cls) -> TPoly:
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.c) - 1  # -1 for the zero polynomial

    def __bool__(self) -> bool:
        return bool(self.c)

    @classmethod
    def _coerce(cls, x) -> "TPoly | None":
        if isinstance(x, TPoly):
            return x
        if isinstance(x, int):
            return cls((x,))
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, TPoly):
            return self.c == other.c
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.c == o.c

    def __hash__(self) -> int:
        # a constant (and zero) equals its int, so it hashes like that int
        return hash(self.c) if len(self.c) > 1 else hash(self.c[0] if self.c else 0)

    def __add__(self, other):
        if isinstance(other, int):
            if not other:
                return self
            a = self.c
            return TPoly((a[0] + other,) + a[1:]) if a else _tpoly((other,))
        if not isinstance(other, TPoly):
            return NotImplemented
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        low = tuple(map(add, a, b))
        # the top coefficients of the longer operand stay nonzero; equal lengths may cancel
        return _tpoly(low + a[len(b):]) if len(a) > len(b) else TPoly(low)

    __radd__ = __add__

    def __neg__(self):
        return TPoly(tuple(-v for v in self.c))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a = self.c
        if isinstance(other, int):
            if not other or not a:
                return _tpoly(())
            return self if other == 1 else _tpoly(tuple(other * v for v in a))
        if not isinstance(other, TPoly):
            return NotImplemented
        b = other.c
        if not a or not b:
            return _tpoly(())
        if not any(a[:-1]):
            a, b = b, a
        if not any(b[:-1]):  # b is one term u t^k: shift and scale a
            u = b[-1]
            return _tpoly((0,) * (len(b) - 1) + (a if u == 1 else tuple(u * v for v in a)))
        return TPoly(convolve(a, b))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined for TPoly")
        result = TPoly((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def evaluate(self, v: int) -> int:
        acc = 0
        for coef in reversed(self.c):
            acc = acc * v + coef
        return acc

    def __sizeof__(self) -> int:
        # the coefficient tuple and its ints, so sys.getsizeof sees the whole value
        return object.__sizeof__(self) + sys.getsizeof(self.c) + sum(map(sys.getsizeof, self.c))

    def __repr__(self) -> str:
        return f"TPoly({list(self.c)})"

    def __str__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for i, v in enumerate(self.c):
            if v == 0:
                continue
            if i == 0:
                parts.append(str(v))
            else:
                mono = "t" if i == 1 else f"t^{i}"
                parts.append(mono if v == 1 else ("-" + mono if v == -1 else f"{v}*{mono}"))
        return " + ".join(parts).replace("+ -", "- ")


def _tpoly(c: tuple) -> TPoly:
    """A TPoly around a tuple that already has no trailing zero."""
    p = object.__new__(TPoly)
    object.__setattr__(p, "c", c)
    return p


def scalar_to_tcoeffs(v) -> list[int]:
    """Scalar as an ascending t-coefficient list (for serialization)."""
    return [v] if isinstance(v, int) else list(v.c) or [0]


def scalar_to_json(v):
    """A scalar as JSON: a TPoly as the strings of its t-coefficients, an
    int or a Fraction as its string."""
    return [str(c) for c in scalar_to_tcoeffs(v)] if isinstance(v, TPoly) else str(v)


def scalar_from_json(raw):
    """The scalar of ``scalar_to_json`` or of a ``CoeffPoly`` coefficient
    list: a list of one int is that int, a longer one a TPoly."""
    if isinstance(raw, list):
        ints = [int(v) for v in raw]
        return ints[0] if len(ints) == 1 else TPoly(ints)
    return Fraction(raw) if "/" in str(raw) else int(raw)


class CoeffPoly:
    """Polynomial in x over int/TPoly scalars, stored dense.

    ``base`` is the exponent of the first stored coefficient; the list holds
    the coefficients of x^base .. x^degree contiguously, with no zero at
    either end.  The zero polynomial has an empty list.  A scalar is zero
    exactly when it is falsy (``TPoly.__bool__`` is exact).
    """

    __slots__ = ("base", "_list")

    def __init__(self, coeffs=None, base: int = 0):
        cs = list(coeffs if coeffs is not None else [])
        while cs and not cs[-1]:
            cs.pop()
        lead = 0
        while lead < len(cs) and not cs[lead]:
            lead += 1
        self.base = base + lead
        self._list = cs[lead:]

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return self.base + len(self._list) - 1 if self._list else -1

    def coeff(self, k: int):
        """Coefficient of x^k (absolute exponent); 0 outside the support."""
        idx = k - self.base
        if 0 <= idx < len(self._list):
            return self._list[idx]
        return 0

    def items(self):
        """(exponent, coefficient) pairs of nonzero terms, ascending."""
        base = self.base
        for i, c in enumerate(self._list):
            if c:
                yield base + i, c

    def nonzero_count(self) -> int:
        return sum(1 for c in self._list if c)

    def coefficient_sequence(self) -> list:
        """The nonzero coefficients in exponent order."""
        return [c for c in self._list if c]

    def dense_coefficients(self) -> list:
        """All coefficients of x^0..x^degree as a list (materializes zeros)."""
        return [0] * self.base + self._list if self._list else []

    def specialize(self, t_value: int) -> CoeffPoly:
        """Replace TPoly scalars by their value at an integer t."""
        vals = [c if isinstance(c, int) else c.evaluate(t_value) for c in self._list]
        return CoeffPoly(vals, base=self.base)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        # both are normalised; a zero polynomial's base means nothing
        return self._list == other._list and (self.base == other.base or not self._list)

    def __repr__(self) -> str:
        return f"CoeffPoly(base={self.base}, degree={self.degree})"

    def to_json_dict(self) -> dict:
        return {
            "base": self.base,
            "coeffs": [[str(v) for v in scalar_to_tcoeffs(c)] for c in self._list],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> CoeffPoly:
        return cls(map(scalar_from_json, data["coeffs"]), base=int(data.get("base", 0)))


@dataclass(frozen=True)
class ProductSpec:
    """Description of a product P(x) * prod (1 + sum_j a_j x^{f_{i+offset+j-1}}).

    ``a`` has length ``h``; entries are ints or TPoly (so t-weights are
    expressible).  ``offset`` shifts the exponent sequence: factor i draws
    exponents f_{i+offset}, ..., f_{i+offset+h-1}.
    """

    exponent_seq: RecurrentSeq
    n: int
    h: int = 1
    a: tuple = (1,)
    offset: int = 0
    prefactor: CoeffPoly | None = None

    def __post_init__(self):
        if self.h < 1 or len(self.a) != self.h:
            raise ValueError("need h >= 1 and len(a) == h")
        if self.n < 0:
            raise ValueError("need n >= 0")

    def factor_terms(self, i: int) -> list[tuple]:
        """Factor i (1-based) without its 1: one (coefficient, exponent) per
        exponent, ascending, with the coefficients of equal exponents summed
        and zero sums dropped.  A factor whose terms all cancel is []."""
        by_exp: dict[int, object] = {}
        for j, aj in enumerate(self.a):
            if not aj:
                continue
            e = self.exponent_seq.term(i + self.offset + j)
            if e < 1:
                raise ValueError(f"factor {i}: exponent {e} at index {i + self.offset + j} must be >= 1")
            by_exp[e] = by_exp.get(e, 0) + aj
        return [(c, e) for e, c in sorted(by_exp.items()) if c]

    def prefactor_coefficients(self) -> list:
        """P's coefficients of x^0..x^degree: [1] with no prefactor, [] for P = 0."""
        return [1] if self.prefactor is None else self.prefactor.dense_coefficients()

    def factors(self):
        """Yield (terms, length) for i = 0..n: the ``factor_terms`` of factor
        i ([] at i = 0, the prefactor alone) and the dense length of partial
        i (1 at i = 0 for P = 0); each factor adds its top exponent."""
        length = max(len(self.prefactor_coefficients()), 1)
        yield [], length
        for i in range(1, self.n + 1):
            terms = self.factor_terms(i)
            length += terms[-1][1] if terms else 0
            yield terms, length

    def partial_lengths(self):
        """Yield the dense length of partial i = 0..n, as ``factors`` does."""
        for _, length in self.factors():
            yield length

    def degree_bound(self) -> int:
        *_, length = self.partial_lengths()
        return length - 1


# entries per slice add in ``_multiply_dense``: a slice assignment holds one
# block's new entries besides the row (hnfn's rows hold ints of 400 bits)
_ADD_BLOCK = 1024


def _multiply_dense(coeffs: list, terms: list[tuple]) -> list:
    """``coeffs`` times 1 + sum aj x^e: each term adds ``coeffs`` shifted by
    e and scaled by aj as slice adds, one per block of at most
    ``_ADD_BLOCK`` nonzero entries.  A zero coefficient adds nothing, so an
    int entry stays an int when a term or a coefficient is a TPoly."""
    shift = terms[-1][1] if terms else 0
    out = list(coeffs) + [0] * shift
    n = len(coeffs)
    cuts = [-1, n] if all(coeffs) else [-1, *compress(count(), map(not_, coeffs)), n]
    for aj, e in terms:
        unit = isinstance(aj, int) and aj == 1
        for zero, end in zip(cuts, cuts[1:]):
            for lo in range(zero + 1, end, _ADD_BLOCK):
                hi = min(lo + _ADD_BLOCK, end)
                src = coeffs[lo:hi] if unit else map(mul, repeat(aj), coeffs[lo:hi])
                out[lo + e : hi + e] = map(add, out[lo + e : hi + e], src)
    return out


def product_block(prev, terms: list[tuple], lo: int, hi: int):
    """Entries lo..hi-1 of ``prev`` times 1 + sum aj x^e (every e >= 1), as
    a new numpy array in ``prev``'s dtype (which must hold the sums), 0 past
    the product's end.  The numpy product step of the residue stream and of
    the triangle-row and frontier-row checks; ``_multiply_dense`` is its
    oracle.  Each term adds its slice of ``prev``, clipped at 0 and at
    ``prev``'s end, so only entries below ``hi`` are read: blocks written
    back over ``prev`` from the top down read nothing already rewritten.
    Where the block is still 0 a term is assigned instead, since adding 0
    to a Python int makes a new one.
    """
    import numpy as np

    out = np.zeros(hi - lo, prev.dtype)
    head = prev[lo:hi]
    top = head.shape[0]  # out is 0 from here on
    out[:top] = head
    for aj, e in terms:
        s_lo, s_hi = max(lo - e, 0), min(hi - e, prev.shape[0])
        if aj and s_lo < s_hi:
            src = prev[s_lo:s_hi] if aj == 1 else aj * prev[s_lo:s_hi]
            start, stop = s_lo + e - lo, s_hi + e - lo
            cut = min(max(top, start), stop)
            out[start:cut] += src[: cut - start]
            out[cut:stop] = src[cut - start :]
            top = max(top, stop)
    return out


def _partial(dense: list) -> CoeffPoly:
    """A CoeffPoly on a dense row from x^0, sharing the row when it has no
    zero at either end: ``_multiply_dense`` reads a row and never changes
    it, so a partial product needs no copy of its own."""
    if not (dense and dense[0] and dense[-1]):
        return CoeffPoly(dense)
    poly = object.__new__(CoeffPoly)
    poly.base, poly._list = 0, dense
    return poly


def partial_products(spec: ProductSpec):
    """Yield the partial product after factor i for i = 0..n (i = 0 is the
    prefactor alone), each from the one before.

    Step i holds the dense lists of partials i - 1 and i, at
    ``PYOBJ_BYTES_PER_COEFF`` a coefficient (``PYOBJ_BYTES_PER_BIG_COEFF``
    for big ints or TPolys: a weight not 0 or +-1).  Raises
    ResourceLimitError on the first ``next``, before any work, with
    ``limit_n`` = the first i whose step passes the RGF_MAX_MEM_MB cap.
    """
    small = all(isinstance(aj, int) and -1 <= aj <= 1 for aj in spec.a)
    coeff_bytes = PYOBJ_BYTES_PER_COEFF if small else PYOBJ_BYTES_PER_BIG_COEFF
    factors = list(spec.factors())
    lengths = [0] + [length for _, length in factors]
    meter = Meter("dense product")
    for i in range(spec.n + 1):
        meter.charge(coeff_bytes * (lengths[i + 1] - (lengths[i - 1] if i else 0)), i)
    acc = spec.prefactor_coefficients()
    yield _partial(acc)
    for terms, _ in factors[1:]:
        acc = _multiply_dense(acc, terms)
        yield _partial(acc)


def build_product(spec: ProductSpec) -> CoeffPoly:
    """Expand the product exactly: the last of ``partial_products``."""
    for poly in partial_products(spec):
        pass
    return poly


def fibonacci_product_spec(n: int, t=1) -> ProductSpec:
    """prod_{i=1}^n (1 + t x^{F_{i+1}}), the Fibonacci binomial product."""
    from .sequences import kbonacci

    return ProductSpec(exponent_seq=kbonacci(2), n=n, h=1, a=(t,), offset=1)


def kbonacci_product_spec(k: int, n: int, t=1) -> ProductSpec:
    """prod_{i=1}^n (1 + t x^{F^{(k)}_{i+k-1}})."""
    from .sequences import kbonacci

    return ProductSpec(exponent_seq=kbonacci(k), n=n, h=1, a=(t,), offset=k - 1)


def stern_product_spec(n: int) -> ProductSpec:
    """prod_{i=0}^{n-1} (1 + x^{2^i} + x^{2^{i+1}}), the Stern product."""
    from .sequences import doubling

    return ProductSpec(exponent_seq=doubling(), n=n, h=2, a=(1, 1), offset=0)


@dataclass(frozen=True, init=False, eq=False)
class GoldenSeries:
    """A finite series sum c_i x^{e_i} with exponents e_i = a_i + b_i phi in
    Z[phi], ascending.

    Kept as three 1-D numpy arrays, ``columns`` already in exponent order
    or else built from ``terms`` (Python ints, dtype object); ``terms`` builds
    the (GoldenInt, coefficient) pairs each time it is read, and two series
    are equal when their terms are.
    """

    a: object  # the exponents' rational parts
    b: object  # the exponents' phi parts
    coeffs: object

    def __init__(self, terms=(), columns=None):
        import numpy as np

        if columns is None:
            rows = [(e.a, e.b, c) for e, c in terms]
            columns = [np.array(column, dtype=object) for column in list(zip(*rows)) or [(), (), ()]]
        for name, column in zip(("a", "b", "coeffs"), columns):
            object.__setattr__(self, name, column)

    @property
    def terms(self) -> tuple:
        """((GoldenInt, int), ...) in exponent order."""
        return tuple(zip(map(GoldenInt, self.a.tolist(), self.b.tolist()), self.coeffs.tolist()))

    def __eq__(self, other) -> bool:
        return self.terms == other.terms if isinstance(other, GoldenSeries) else NotImplemented

    def coefficient_sequence(self) -> list[int]:
        return self.coeffs.tolist()

    def __len__(self) -> int:
        return self.coeffs.shape[0]


# What a golden step holds per term it charges, at its tracemalloc peak: the
# columns of both copies, the sort's order and the merged columns (103 on
# int64 columns; PYOBJ_BYTES_PER_BIG_COEFF on object ones, 205 at n = 18).
GOLDEN_TERM_BYTES = 104


def golden_partials(n_max: int):
    """Yield the expansions of prod_{i=0}^{n-1} (1 + x^{phi^i}) for
    n = 0..n_max, each from the one before, with exact Z[phi] exponents.

    Each exponent a + b phi is kept as the int pair (a, b), b >= 0, and
    ordered by the int key floor(4 (a + b phi)) = 4a + 2b + isqrt(20 b^2),
    since 4 b phi = 2b + sqrt(20 b^2).  The key orders the exponents
    exactly, because two distinct exponents e < e' of a partial differ by
    more than 1/4.  Both are sums of distinct phi^i, i >= 0, so
    d = e' - e = sum eps_i phi^i with each eps_i in {-1, 0, 1}.  Its
    conjugate d* = sum eps_i psi^i, psi = -1/phi, has
    |d*| < sum_i phi^(-i) = phi^2.  Written d = p + q phi, d has the norm
    d d* = p^2 + pq - q^2, a nonzero integer since d != 0, so
    d >= 1 / |d*| > phi^(-2) > 1/4 and floor(4e') >= floor(4e + 1) >
    floor(4e).  A step shifts a copy of every pair by phi^i, takes a stable
    argsort of both copies' keys and adds the coefficients of equal keys
    with ``add.reduceat``; isqrt(20 b^2) comes from an int table indexed by
    b, grown after each step's charge to the b that step reaches.  Partial
    n's b are sums of distinct F_i, i < n, so below F_{n+1}, its a at most
    F_n, its keys below 12 F_{n+1} and its coefficients at most 2^n: a,
    keys and coefficients are int64 when those bounds at n_max fit it, else
    object; b is the table's index.  Partial n has F_{n+3} - 1 terms, as
    many as the Fibonacci product; the step to it charges GOLDEN_TERM_BYTES
    (``PYOBJ_BYTES_PER_BIG_COEFF`` on object columns) for each of the
    F_{n+1} terms it adds, with ``limit_n`` = n.
    """
    import numpy as np

    if n_max < 0:
        raise ValueError("n must be >= 0")
    dtype = np.int64 if max(2**n_max, 12 * fibonacci(n_max + 1)) <= INT64_MAX else object
    term_bytes = GOLDEN_TERM_BYTES if dtype is np.int64 else PYOBJ_BYTES_PER_BIG_COEFF
    meter = Meter("golden partials")
    meter.charge(term_bytes, 0)
    a, keys, coeffs, roots = np.zeros(1, dtype), np.zeros(1, dtype), np.ones(1, dtype), np.zeros(1, dtype)
    b = np.zeros(1, np.intp)
    yield GoldenSeries(columns=(a, b, coeffs))
    for i in range(n_max):
        meter.charge(term_bytes * fibonacci(i + 2), i + 1)
        grown = [isqrt(20 * k * k) for k in range(len(roots), fibonacci(i + 2))]
        roots = np.concatenate((roots, np.array(grown, dtype)))
        shift = phi_power(i)
        a2, b2 = a + shift.a, b + shift.b
        all_keys = np.concatenate((keys, 4 * a2 + 2 * b2 + roots[b2]))
        order = np.argsort(all_keys, kind="stable")
        all_keys = all_keys[order]
        # equal keys come in pairs, a term and the shifted copy of an equal exponent
        starts = np.flatnonzero(np.concatenate(([True], all_keys[1:] != all_keys[:-1])))
        coeffs = np.add.reduceat(np.concatenate((coeffs, coeffs))[order], starts)
        first = order[starts]
        a, b, keys = np.concatenate((a, a2))[first], np.concatenate((b, b2))[first], all_keys[starts]
        yield GoldenSeries(columns=(a, b, coeffs))


def golden_series(n: int) -> GoldenSeries:
    """Expand prod_{i=0}^{n-1} (1 + x^{phi^i}) with exact Z[phi] exponents."""
    for series in golden_partials(n):
        pass
    return series


@dataclass(frozen=True)
class Run:
    """A maximal block of unit-step exponents inside a golden series."""

    start: GoldenInt
    length: int
    coeffs: tuple


@dataclass(frozen=True)
class RunDecomposition:
    runs: tuple

    @property
    def count(self) -> int:
        return len(self.runs)

    def lengths(self) -> list[int]:
        return [r.length for r in self.runs]


def _run_starts(series: GoldenSeries) -> list[int]:
    """The index of each maximal run's first term, then the number of terms.
    A step from one term to the next is a unit step when a rises by 1 and b
    stays."""
    import numpy as np

    a, b = series.a, series.b
    unit = (a[1:] - a[:-1] == 1) & (b[1:] == b[:-1])
    return [0, *(np.flatnonzero(~unit) + 1).tolist(), len(a)] if len(a) else [0]


def run_lengths(series: GoldenSeries) -> list[int]:
    """The lengths of the maximal runs of unit-step exponents, read off the
    int pairs.  A run whose length is not 2 or 3 raises ``InvariantError``
    with its first exponent as detail.  The exponents are taken to increase,
    as ``golden_partials`` makes them; ``run_decomposition`` checks that too.
    """
    starts = _run_starts(series)
    lengths = list(map(sub, starts[1:], starts))
    if lengths and not 2 <= min(lengths) <= max(lengths) <= 3:
        j = next(j for j, length in enumerate(lengths) if length not in (2, 3))
        s = starts[j]
        raise InvariantError(f"run of length {lengths[j]}", detail=GoldenInt(int(series.a[s]), int(series.b[s])))
    return lengths


def run_decomposition(series: GoldenSeries) -> RunDecomposition:
    """Group consecutive unit-step terms into maximal runs.

    Every run must have length 2 or 3, and exponents must be strictly
    increasing with non-unit gaps between runs (maximality); anything else
    raises ``InvariantError``.  Note the between-run gap can be smaller than
    1 (already for two factors it is phi - 1), it just cannot equal 1.
    """
    a, b, coeffs = series.a.tolist(), series.b.tolist(), series.coeffs.tolist()
    starts = _run_starts(series)
    for s in starts[1:-1]:
        if GoldenInt(a[s] - a[s - 1], b[s] - b[s - 1]).sign() <= 0:
            raise InvariantError("exponents not strictly increasing", detail=GoldenInt(a[s], b[s]))
    lengths = run_lengths(series)
    return RunDecomposition(
        tuple(Run(GoldenInt(a[s], b[s]), length, tuple(coeffs[s : s + length])) for s, length in zip(starts, lengths))
    )

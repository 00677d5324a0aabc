"""Exact rational generating-function fitting and expansion.

``guess_rational`` finds the smallest-denominator rational function whose
power series matches an integer (or rational) sequence, by one
fraction-free Berlekamp-Massey pass over the integers whose degree bound
counts only the terms before the withheld trailing ones.  No floating point.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .polynomials import TPoly, convolve, scalar_from_json, scalar_to_json


def _strip(seq) -> tuple:
    cs = list(seq)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


class RationalFunc:
    """num/den with ascending coefficients over int, Fraction, or TPoly."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num = _strip(num)
        den = _strip(den)
        if not den:
            raise ValueError("denominator must be nonzero")
        self.num = num
        self.den = den

    def __repr__(self) -> str:
        return f"RationalFunc(num={list(self.num)}, den={list(self.den)})"

    @property
    def den_degree(self) -> int:
        return len(self.den) - 1

    def series(self, n_terms: int) -> list:
        """First n_terms power-series coefficients, exactly.

        Zero denominator terms are skipped, so a term that only a zero term
        times a TPoly made a constant TPoly is the equal int, with the same
        hash and str."""
        d0 = self.den[0]
        is_unit = d0 == 1 or d0 == -1
        if not d0:
            raise ValueError("denominator constant term must be invertible")
        terms = [(j, dj) for j, dj in enumerate(self.den) if j and dj]
        out: list = []
        for k in range(n_terms):
            acc = self.num[k] if k < len(self.num) else 0
            for j, dj in terms:
                if j > k:
                    break
                acc = acc - dj * out[k - j]
            if is_unit:
                out.append(acc if d0 == 1 else -acc)
            else:
                if isinstance(acc, TPoly) or isinstance(d0, TPoly):
                    raise ValueError("cannot divide TPoly coefficients by a non-unit")
                out.append(Fraction(acc, 1) / Fraction(d0, 1))
        return out

    def same_function(self, other: "RationalFunc") -> bool:
        """True iff num1*den2 == num2*den1 (equality as rational functions)."""
        return convolve(self.num, other.den) == convolve(other.num, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return self.same_function(other)

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.num + self.den)

    def integer_pair(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Primitive integer (num, den) with den constant term > 0.

        Only defined for numeric (int/Fraction) coefficients.
        """
        coeffs = [Fraction(c) for c in self.num + self.den]
        if not coeffs:
            return (), tuple(int(c) for c in self.den)
        scale = lcm(*(c.denominator for c in coeffs))
        nums = [int(c * scale) for c in coeffs]
        g = gcd(*nums) or 1
        nums = [v // g for v in nums]
        num = tuple(nums[: len(self.num)])
        den = tuple(nums[len(self.num):])
        lead = next((c for c in den if c != 0), 1)
        if lead < 0:
            num = tuple(-v for v in num)
            den = tuple(-v for v in den)
        return num, den

    def specialize_t(self, t_value: int) -> "RationalFunc":
        def sp(c):
            return c.evaluate(t_value) if isinstance(c, TPoly) else c

        return RationalFunc([sp(c) for c in self.num], [sp(c) for c in self.den])

    def to_json_dict(self) -> dict:
        return {"num": list(map(scalar_to_json, self.num)), "den": list(map(scalar_to_json, self.den))}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "RationalFunc":
        return cls(list(map(scalar_from_json, data["num"])), list(map(scalar_from_json, data["den"])))


def _berlekamp_massey(u: list[int], l_max: int):
    """Shortest linear recurrence of ``u`` over Q (Massey 1969), or None,
    fraction-free over Z in the style of Bareiss (Math. Comp. 22, 1968).

    Returns ``(c, L)``: ``c[0] != 0``, ``deg c <= L`` and
    ``sum_j c[j] * u[i - j] == 0`` for every ``L <= i < len(u)``, with L as
    small as possible.  Stops with None as soon as L exceeds ``l_max``.

    Massey's pass over Q updates c_Q <- c_Q - (delta_Q / last_Q) x^shift b_Q
    with c_Q(0) = 1.  By induction c = lam c_Q, b = mu b_Q and last =
    mu last_Q for nonzero lam, mu (b and last come from one step's c), so
    delta = lam delta_Q and last c - delta x^shift b is last lam times the
    new c_Q; dividing by the content keeps a nonzero multiple.  So every
    zero test, length change and the ``l_max`` stop agree with the pass
    over Q, and c / c[0] is its c_Q.
    """
    c, b = [1], [1]
    length, shift, last = 0, 1, 1
    for i in range(len(u)):
        delta = sum(map(mul, c, u[i::-1]))  # deg c <= length <= i
        if delta == 0:
            shift += 1
            continue
        prev = c
        c = [last * x for x in c] + [0] * max(0, shift + len(b) - len(c))
        for j, bj in enumerate(b, shift):
            c[j] -= delta * bj
        while c[-1] == 0:
            c.pop()
        content = gcd(*c)
        c = [x // content for x in c]
        if 2 * length <= i:
            length = i + 1 - length
            if length > l_max:
                return None
            b, last, shift = prev, delta, 1
        else:
            shift += 1
    return c, length


def guess_rational(seq, den_max: int, num_extra: int = 0, holdout: int = 6):
    """Smallest-denominator rational fit of ``seq``, or None.

    A denominator of degree <= d with a numerator of degree <= d + num_extra
    reproduces every term exactly when it is a linear recurrence of length d
    on ``seq[num_extra + 1:]``, so one Berlekamp-Massey pass over that tail
    finds the smallest one.  The fit is accepted only when its degree is at
    most ``den_max`` and the terms before the final ``holdout`` determine it
    (2d <= M and d <= M - 2, where M = len(seq) - num_extra - holdout); the
    pass reads the held-out terms too, so a held-out term that needs a longer
    recurrence than that bound returns None.  With ``holdout >= 1`` the fit
    is unique.  With ``holdout = 0`` and 2d + num_extra = len(seq) it is not:
    another fit of the same degrees may reproduce every term too.

    The fit is returned as BM leaves it: it needs neither a series check nor
    a gcd.  Write e = num_extra, u' = seq[e + 1:] and (c, L) for the
    connection polynomial, scaled to c(0) = 1, and length that BM returns.

    It reproduces every term.  BM's invariant: after reading u'_0..u'_i,
    (c, L) generates all of them, so sum_j c_j u'_(i-j) = 0 for every
    L <= i; and BM reads all of u', holdout included.  The numerator
    (c * seq)[:L + e + 1] matches the first L + e + 1 terms by construction;
    past them the series follows c's recurrence, and so, by the invariant,
    does ``seq``.

    It is reduced.  num = c * seq[:e + 1] + x^(e+1) P' with
    P' = (c * u') mod x^L, and c(0) = 1, so gcd(num, c) = gcd(P', c).  A
    common factor g with g(0) = 1 would make (c/g, L - deg g) a shorter
    recurrence generating u', against BM's minimal L.
    """
    if den_max < 0 or holdout < 0 or num_extra < 0:
        raise ValueError("den_max, num_extra, holdout must be nonnegative")
    values = [Fraction(v) for v in seq]
    n_terms = len(values)
    if n_terms < 2 + num_extra + holdout:
        raise ValueError(
            f"need at least {2 + num_extra + holdout} terms, got {n_terms}"
        )
    scale = lcm(*(v.denominator for v in values))  # the fit of scale * seq has the same den
    ints = [v.numerator * (scale // v.denominator) for v in values]
    m = n_terms - num_extra - holdout
    found = _berlekamp_massey(ints[num_extra + 1:], min(den_max, m // 2, m - 2))
    if found is None:
        return None
    den, length = found
    num_len = length + num_extra + 1
    num = convolve(den, ints[:num_len])[:num_len]
    lead, scale = den[0], scale * den[0]
    if all(c % lead == 0 for c in den) and all(c % scale == 0 for c in num):
        return RationalFunc([c // scale for c in num], [c // lead for c in den])
    return RationalFunc([Fraction(c, scale) for c in num], [Fraction(c, lead) for c in den])


def check_drx_pattern(fits: list[tuple[int, RationalFunc]], r: int) -> dict:
    """Structural check of the k-uniform denominator pattern on fitted forms.

    For each (k, f): the denominator support must lie in {0,1} union
    {jk, jk+1 : 1 <= j <= m}; the numerator must consist of the x^{jk} terms
    of the denominator; the coefficient vector (a_0..a_{2m+1}) must not
    depend on k; and the largest nonzero index must be odd.  Violations are
    reported as evidence, not raised.
    """
    if len(fits) < 1:
        raise ValueError("need at least one fitted form")
    report = {"r": r, "k_values": [k for k, _ in fits], "violations": [], "a": None, "m": None}
    a_by_k = {}
    for k, rf in fits:
        num, den = rf.integer_pair()
        den_deg = len(den) - 1
        if k < 2:
            report["violations"].append(f"k={k}: need k >= 2")
            continue
        m = max(1, (den_deg - 1 + k - 1) // k)
        allowed = {0, 1} | {j * k for j in range(1, m + 1)} | {j * k + 1 for j in range(1, m + 1)}
        support = {e for e, c in enumerate(den) if c != 0}
        if not support <= allowed:
            report["violations"].append(f"k={k}: denominator support {sorted(support - allowed)} outside pattern")
            continue
        a = [0] * (2 * m + 2)
        a[0] = den[0]
        a[1] = den[1] if len(den) > 1 else 0
        for j in range(1, m + 1):
            a[2 * j] = den[j * k] if j * k < len(den) else 0
            a[2 * j + 1] = den[j * k + 1] if j * k + 1 < len(den) else 0
        expected_num = [0] * (m * k + 1)
        expected_num[0] = a[0]
        for j in range(1, m + 1):
            expected_num[j * k] = a[2 * j]
        if tuple(_strip(expected_num)) != tuple(num):
            report["violations"].append(f"k={k}: numerator is not the x^(jk) part of the denominator")
        last = max((i for i, v in enumerate(a) if v != 0), default=0)
        if last % 2 == 0:
            report["violations"].append(f"k={k}: largest nonzero coefficient index {last} is even")
        a_by_k[k] = tuple(a)
    vectors = set(a_by_k.values())
    if len(vectors) > 1:
        report["violations"].append(f"coefficient vectors differ across k: {sorted(a_by_k.items())}")
    if vectors:
        a = sorted(a_by_k.items())[0][1]
        report["a"] = list(a)
        report["m"] = (len(a) - 2) // 2
    report["status"] = "pass" if not report["violations"] else "violated"
    return report

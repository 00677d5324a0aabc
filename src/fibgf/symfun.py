"""Truncated symmetric functions for the flag structure of the planar posets.

Expansions are stored as partition -> Fraction maps up to a degree cap.
Basis changes go through the power-sum to monomial table, whose entries
count placements of parts into slots, so every conversion is exact; the tests
check the table against the expansion of p_lambda in n variables.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial


def partitions_of(n: int, max_part: int | None = None):
    """All partitions of n as weakly decreasing tuples."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def z_of(partition: tuple[int, ...]) -> int:
    """prod_i i^{m_i} m_i! over part multiplicities."""
    z = 1
    mult: dict[int, int] = {}
    for part in partition:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        z *= part**m * factorial(m)
    return z


@lru_cache(maxsize=None)
def _placements(parts: tuple[int, ...], slots: tuple[int, ...]) -> int:
    """The ways to put each part into a slot so that every slot's parts sum
    to its size, for parts and slots of equal total.  Relabelling the slots
    keeps the count, so the slots are kept sorted and without zeros."""
    if not parts:
        return 1
    first, rest = parts[0], parts[1:]
    total = 0
    for k, size in enumerate(slots):
        if size >= first:
            left = slots[:k] + (size - first,) + slots[k + 1 :]
            total += _placements(rest, tuple(sorted(filter(None, left), reverse=True)))
    return total


@lru_cache(maxsize=None)
def power_to_monomial(n: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """For each partition lambda of n: the m-basis coefficients of p_lambda.

    p_lambda = prod_j (x_1^{lambda_j} + x_2^{lambda_j} + ...), so the
    coefficient of m_mu, read off the monomial x^mu, counts the ways to send
    each part lambda_j to a variable k with the parts sent to k summing to
    mu_k.
    """
    table: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for lam in partitions_of(n):
        counts = {mu: _placements(lam, mu) for mu in partitions_of(n)}
        table[lam] = {mu: c for mu, c in counts.items() if c}
    return table


class SymExpansion:
    """A symmetric function truncated to degree <= cap, in one named basis."""

    def __init__(self, basis: str, cap: int, coeffs: dict):
        if basis not in ("monomial", "powersum", "forgotten"):
            raise ValueError("basis must be monomial, powersum, or forgotten")
        self.basis = basis
        self.cap = cap
        self.coeffs = {lam: Fraction(c) for lam, c in coeffs.items() if c != 0}
        if any(sum(lam) > cap for lam in self.coeffs):
            raise ValueError("coefficient above the degree cap")

    def coeff(self, lam: tuple[int, ...]) -> Fraction:
        return self.coeffs.get(tuple(lam), Fraction(0))

    def degree_slice(self, n: int) -> dict:
        return {lam: c for lam, c in self.coeffs.items() if sum(lam) == n}

    def __repr__(self):
        return f"SymExpansion({self.basis}, cap={self.cap}, {len(self.coeffs)} terms)"


def monomial_to_powersum(exp: SymExpansion) -> SymExpansion:
    """Exact basis change m -> p, degree by degree."""
    if exp.basis != "monomial":
        raise ValueError("expected a monomial expansion")
    out: dict = {}
    for n in range(exp.cap + 1):
        # p_lam has m_mu terms only for mu = lam or coarser, which come first
        # in partitions_of order: back-substitute from the finest partition
        lams = list(partitions_of(n))
        table = power_to_monomial(n)
        rest = {mu: exp.coeff(mu) for mu in lams}
        solved = {}
        for lam in reversed(lams):
            c = rest[lam] / table[lam][lam]
            solved[lam] = c
            for mu, t in table[lam].items():
                rest[mu] -= c * t
        if any(rest.values()):
            raise ArithmeticError("power-sum transition matrix is not triangular")
        out.update((lam, solved[lam]) for lam in lams if solved[lam])
    return SymExpansion("powersum", exp.cap, out)


def powersum_to_monomial(exp: SymExpansion) -> SymExpansion:
    if exp.basis != "powersum":
        raise ValueError("expected a powersum expansion")
    out: dict = {}
    for n in range(exp.cap + 1):
        table = power_to_monomial(n)
        for lam, c in exp.degree_slice(n).items():
            for mu, t in table[lam].items():
                out[mu] = out.get(mu, Fraction(0)) + c * t
    return SymExpansion("monomial", exp.cap, out)


def omega_powersum(exp: SymExpansion) -> SymExpansion:
    """The standard involution: p_lambda -> (-1)^{|lambda| - len(lambda)} p_lambda."""
    if exp.basis != "powersum":
        raise ValueError("expected a powersum expansion")
    out = {lam: c * (-1) ** (sum(lam) - len(lam)) for lam, c in exp.coeffs.items()}
    return SymExpansion("powersum", exp.cap, out)


def forgotten_coefficients(exp_monomial: SymExpansion) -> dict:
    """fo-basis coefficients of E = m-basis coefficients of omega(E)."""
    p = monomial_to_powersum(exp_monomial)
    return powersum_to_monomial(omega_powersum(p)).coeffs


# -- the planar-poset instances -------------------------------------------------

def _q_sequence(i: int, b: int, n_max: int, seed0: int) -> list[int]:
    """u_0 = seed0, u_n = i^n for 0 < n < b, then u_n = i u_{n-1} - (i-1) u_{n-b}."""
    u = [seed0]
    for n in range(1, n_max + 1):
        if n < b:
            u.append(i**n)
        else:
            u.append(i * u[n - 1] - (i - 1) * u[n - b])
    return u


def rank_sizes(i: int, b: int, n_max: int) -> list[int]:
    """q_n for the i-cover 2b-gon poset: q_n = i q_{n-1} - (i-1) q_{n-b}."""
    return _q_sequence(i, b, n_max, 1)


def tilde_q(i: int, b: int, n: int, convention: str = "powersum") -> int:
    """Power sums of the roots of 1 - i x + (i-1) x^b (same recurrence as q_n).

    convention "powersum" (default) seeds the 0-index with b, giving exactly
    sum_h alpha_h^n; convention "unit-seed" uses 1 there instead.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    seed0 = {"powersum": b, "unit-seed": 1}[convention]
    return _q_sequence(i, b, n, seed0)[n]


def newton_power_sums(i: int, b: int, n_max: int) -> list[int]:
    """Independent oracle: power sums via Newton's identities on
    Q(x) = 1 - i x + (i-1) x^b."""
    c = [0] * (b + 1)
    c[0] = 1
    c[1] = -i
    c[b] += i - 1
    s = [b]
    for n in range(1, n_max + 1):
        acc = -n * c[n] if n <= b else 0
        for j in range(1, min(n, b) + 1):
            if j < n:
                acc -= c[j] * s[n - j]
        s.append(acc)
    return s


def ep_monomial(i: int, b: int, cap: int) -> SymExpansion:
    """The flag symmetric function in the monomial basis:
    coefficient of m_lambda is prod_j q_{lambda_j}."""
    q = rank_sizes(i, b, cap)
    coeffs = {}
    for n in range(cap + 1):
        for lam in partitions_of(n):
            prod = 1
            for part in lam:
                prod *= q[part]
            coeffs[lam] = prod
    return SymExpansion("monomial", cap, coeffs)


def verify_powersum_expansion(i: int, b: int, cap: int, convention: str = "powersum") -> dict:
    """Check the p-basis coefficients equal z_lambda^{-1} prod tilde_q(lambda_j)."""
    exp = monomial_to_powersum(ep_monomial(i, b, cap))
    mismatches = []
    for n in range(cap + 1):
        for lam in partitions_of(n):
            prod = 1
            for part in lam:
                prod *= tilde_q(i, b, part, convention)
            want = Fraction(prod, z_of(lam))
            got = exp.coeff(lam)
            if got != want:
                mismatches.append({"lambda": lam, "got": str(got), "want": str(want)})
    return {
        "status": "pass" if not mismatches else "fail",
        "i": i,
        "b": b,
        "cap": cap,
        "convention": convention,
        "mismatches": mismatches[:5],
    }


def verify_forgotten_expansion(i: int, b: int, cap: int) -> dict:
    """Check the fo-basis support is {b^j 1^{n-jb}} with coefficients
    (-1)^{jb} (i-1)^j i^{n-jb}."""
    fo = forgotten_coefficients(ep_monomial(i, b, cap))
    mismatches = []
    for n in range(cap + 1):
        for lam in partitions_of(n):
            j = sum(1 for part in lam if part == b)
            shape_ok = all(part in (1, b) for part in lam) and j * b + (len(lam) - j) == n
            if b == 1:
                shape_ok = all(part == 1 for part in lam)
            want = Fraction((-1) ** (j * b) * (i - 1) ** j * i ** (n - j * b)) if shape_ok else Fraction(0)
            got = fo.get(lam, Fraction(0))
            if got != want:
                mismatches.append({"lambda": lam, "got": str(got), "want": str(want)})
    return {
        "status": "pass" if not mismatches else "fail",
        "i": i,
        "b": b,
        "cap": cap,
        "mismatches": mismatches[:5],
    }

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibgf.sequences import (
    FIBONACCI,
    GoldenInt,
    RecurrentSeq,
    doubling,
    fibonacci,
    floor_times_phi,
    kbonacci,
    phi_power,
    phi_power_reduce,
    prec_compare,
    prec_key,
    zeckendorf,
)


def test_kbonacci_seeds_and_terms():
    assert [kbonacci(2).term(i) for i in range(1, 6)] == [1, 1, 2, 3, 5]
    assert kbonacci(3).term(4) == 3
    assert kbonacci(2).term(10) == 55
    assert [kbonacci(3).term(i) for i in range(1, 8)] == [1, 1, 1, 3, 5, 9, 17]
    assert [kbonacci(4).term(i) for i in range(1, 4)] == [1, 1, 1]


def test_recurrence_satisfied_exactly():
    for k in (2, 3, 5):
        seq = kbonacci(k)
        terms = seq.terms(40)
        for i in range(k, 40):
            assert terms[i] == sum(terms[i - j] for j in range(1, k + 1))


def test_term_index_errors():
    with pytest.raises(ValueError):
        FIBONACCI.term(0)
    with pytest.raises(ValueError):
        FIBONACCI.term(-3)


def test_doubling():
    assert doubling().terms(6) == [1, 2, 4, 8, 16, 32]


def test_recurrence_json_roundtrip():
    seq = RecurrentSeq(coeffs=(1, 0, 1), init=(1, 1, 1))
    clone = RecurrentSeq.from_json(seq.to_json())
    assert clone.coeffs == seq.coeffs and clone.init == seq.init
    assert clone.terms(10) == seq.terms(10)


def test_zeckendorf_examples():
    assert zeckendorf(0) == []
    assert zeckendorf(1) == [2]
    assert zeckendorf(11) == [4, 6]  # 3 + 8


def test_zeckendorf_roundtrip_and_gaps():
    for n in range(0, 10_001):
        idx = zeckendorf(n)
        assert sum(fibonacci(i) for i in idx) == n
        assert all(i >= 2 for i in idx)
        assert all(b - a >= 2 for a, b in zip(idx, idx[1:]))


def test_prec_examples():
    assert prec_compare(1, 0) == -1
    assert prec_compare(2, 0) == +1
    assert prec_compare(7, 7) == 0
    assert prec_compare(1, 2) == -1


def test_prec_literal_sentinel_contradicts_worked_example():
    # under the literal even/index-0 sentinel the "1 before 0" example flips
    assert prec_compare(1, 0, sentinel_parity="even") == +1


def test_prec_total_order():
    span = range(0, 2001)
    for n in span:
        assert prec_compare(n, n) == 0
    rng = random.Random(20260809)
    pairs = [(rng.randrange(2001), rng.randrange(2001)) for _ in range(4000)]
    for m, n in pairs:
        c = prec_compare(m, n)
        assert c == -prec_compare(n, m)
        assert (c == 0) == (m == n)
    triples = [(rng.randrange(201), rng.randrange(201), rng.randrange(201)) for _ in range(4000)]
    for a, b, c in triples:
        if prec_compare(a, b) == -1 and prec_compare(b, c) == -1:
            assert prec_compare(a, c) == -1


def prec_compare_reps(zm: list[int], zn: list[int], sentinel_parity: str = "odd") -> int:
    """The pairwise comparison ``prec_key`` replaced, as its reference: scan
    both representations for the first differing index pair."""
    if zm == zn:
        return 0
    if sentinel_parity == "odd":
        big = 2 * (max(zm + zn) if (zm or zn) else 0) + 3  # odd, beyond every index
    else:
        big = 0
    for k in range(max(len(zm), len(zn))):
        i = zm[k] if k < len(zm) else big
        j = zn[k] if k < len(zn) else big
        if i == j:
            continue
        i_even, j_even = i % 2 == 0, j % 2 == 0
        if i_even and not j_even:
            return -1
        if j_even and not i_even:
            return +1
        if i_even:  # both even: smaller index first
            return -1 if i < j else +1
        return +1 if i < j else -1  # both odd: larger index first
    return 0


def test_prec_key_rejects_an_unknown_sentinel():
    with pytest.raises(ValueError, match="sentinel_parity"):
        prec_compare(1, 2, sentinel_parity="zero")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.sampled_from(("even", "odd")))
def test_prec_key_orders_as_prec_compare(m, n, parity):
    # the key's tuple order is the pairwise comparison, prefixes and sentinels included
    for zm, zn in ((zeckendorf(m), zeckendorf(n)), (zeckendorf(m), zeckendorf(m)[:-1])):
        km, kn = prec_key(zm, parity), prec_key(zn, parity)
        assert (km > kn) - (km < kn) == prec_compare_reps(zm, zn, sentinel_parity=parity)


def test_golden_ring_laws():
    phi = GoldenInt(0, 1)
    assert phi * phi == GoldenInt(1, 1)
    assert phi * phi * phi == GoldenInt(1, 2)
    a = GoldenInt(3, -2)
    b = GoldenInt(-1, 5)
    assert (a + b) - b == a
    assert a * b == b * a
    assert a * (b + GoldenInt(1, 1)) == a * b + a * GoldenInt(1, 1)


def test_golden_sign_examples():
    assert GoldenInt(0, 0).sign() == 0
    assert GoldenInt(-1, 1).sign() == +1
    assert GoldenInt(2, -1).sign() == +1  # 2 - phi > 0
    assert GoldenInt(1, -1).sign() == -1  # 1 - phi < 0


def _sign_oracle(a: int, b: int) -> int:
    # interval arithmetic with rational bounds on sqrt(5), width 1e-40
    scale = 10**40
    lo = Fraction(isqrt(5 * scale * scale), scale)
    hi = lo + Fraction(1, scale)
    low = Fraction(2 * a + b) + b * (lo if b > 0 else hi)
    high = Fraction(2 * a + b) + b * (hi if b > 0 else lo)
    if low > 0:
        return 1
    if high < 0:
        return -1
    return 0


def test_golden_sign_against_interval_oracle():
    rng = random.Random(5)
    for _ in range(3000):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        assert GoldenInt(a, b).sign() == _sign_oracle(a, b), (a, b)


def test_golden_total_order_matches_sign():
    rng = random.Random(11)
    vals = [GoldenInt(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(60)]
    ordered = sorted(vals)
    for u, v in zip(ordered, ordered[1:]):
        assert (v - u).sign() >= 0


def test_phi_power_reduce():
    assert phi_power_reduce([]) == GoldenInt(0, 0)
    assert phi_power_reduce([0, 0, 1]) == GoldenInt(1, 1)
    assert phi_power_reduce([0, 0, 0, 1]) == GoldenInt(1, 2)
    # phi^i = F_{i-1} + F_i phi
    for i in range(2, 20):
        assert phi_power(i) == GoldenInt(fibonacci(i - 1), fibonacci(i))


def test_floor_times_phi():
    phi = (1 + 5**0.5) / 2
    for i in range(0, 2000):
        assert floor_times_phi(i) == int(i * phi) or abs(i * phi - round(i * phi)) < 1e-6
    # exact spot checks
    assert [floor_times_phi(i) for i in range(1, 8)] == [1, 3, 4, 6, 8, 9, 11]

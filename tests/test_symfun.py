from fractions import Fraction

import pytest

from fibgf.symfun import (
    SymExpansion,
    ep_monomial,
    forgotten_coefficients,
    monomial_to_powersum,
    newton_power_sums,
    omega_powersum,
    partitions_of,
    power_to_monomial,
    powersum_to_monomial,
    rank_sizes,
    tilde_q,
    verify_forgotten_expansion,
    verify_powersum_expansion,
    z_of,
)


def ep_from_rank_product(i: int, b: int, cap: int) -> SymExpansion:
    """Oracle: expand prod_{m=1}^{cap} Phi(x_m) truncated to degree cap."""
    q = rank_sizes(i, b, cap)
    n_vars = max(cap, 1)
    poly = {(0,) * n_vars: Fraction(1)}
    for v in range(n_vars):
        grown: dict = {}
        for e, c in poly.items():  # x_v does not occur yet: multiply by sum_d q_d x_v^d
            for d in range(cap + 1 - sum(e)):
                f = e[:v] + (d,) + e[v + 1 :]
                grown[f] = grown.get(f, 0) + c * q[d]
        poly = {e: c for e, c in grown.items() if c != 0}
    coeffs = {}
    for n in range(cap + 1):
        for lam in partitions_of(n):
            rep = tuple(list(lam) + [0] * (n_vars - len(lam)))
            c = poly.get(rep, 0)
            if c:
                coeffs[lam] = c
    return SymExpansion("monomial", cap, coeffs)


def _dict_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def power_to_monomial_by_expansion(n: int) -> dict:
    """Oracle: p_lambda expanded in n variables, the coefficient of m_mu read
    off the monomial with sorted exponents."""
    n_vars = max(n, 1)
    table = {}
    for lam in partitions_of(n):
        poly = {(0,) * n_vars: 1}
        for part in lam:
            poly = _dict_mul(poly, {(0,) * i + (part,) + (0,) * (n_vars - i - 1): 1 for i in range(n_vars)})
        coeffs = {}
        for mu in partitions_of(n):
            c = poly.get(tuple(mu) + (0,) * (n_vars - len(mu)), 0)
            if c:
                coeffs[mu] = c
        table[lam] = coeffs
    return table


def test_power_to_monomial_counts_match_the_expansion():
    for n in range(8):
        assert power_to_monomial(n) == power_to_monomial_by_expansion(n), n


def format_terms(exp: SymExpansion) -> str:
    """The expansion's terms as text, by degree."""
    sym = {"monomial": "m", "powersum": "p", "forgotten": "fo"}[exp.basis]
    parts = [f"{exp.coeffs[lam]} * {sym}_{list(lam)}" for lam in sorted(exp.coeffs, key=lambda t: (sum(t), t))]
    return " + ".join(parts) if parts else "0"


def test_partitions():
    assert list(partitions_of(0)) == [()]
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(list(partitions_of(8))) == 22


def test_z():
    assert z_of(()) == 1
    assert z_of((3,)) == 3
    assert z_of((2, 2)) == 8
    assert z_of((3, 1, 1)) == 6


def test_tilde_q_examples():
    assert [tilde_q(2, 3, n) for n in range(1, 7)] == [2, 4, 5, 8, 12, 19]
    assert tilde_q(2, 3, 2) == 4  # i^(b-1)
    assert all(tilde_q(2, 2, n) == 2 for n in range(1, 12))
    assert tilde_q(2, 3, 3) == 2**3 - 3  # i^b - b(i-1)


def test_tilde_q_against_newton():
    for i, b in ((2, 2), (2, 3), (3, 2), (3, 3)):
        assert [tilde_q(i, b, n) for n in range(13)] == newton_power_sums(i, b, 12)


def test_tilde_q_conventions_differ_at_b():
    assert tilde_q(2, 3, 3, convention="powersum") == 5
    assert tilde_q(2, 3, 3, convention="unit-seed") == 7


def test_rank_sizes():
    assert rank_sizes(2, 3, 6) == [1, 2, 4, 7, 12, 20, 33]
    assert rank_sizes(2, 2, 5) == [1, 2, 3, 4, 5, 6]
    assert rank_sizes(3, 2, 5) == [1, 3, 7, 15, 31, 63]


def test_ep_monomial_examples():
    e = ep_monomial(2, 3, 4)
    assert e.coeff(()) == 1
    assert e.coeff((1,)) == 2
    assert e.coeff((2, 1)) == 8
    # multiplicativity across parts
    q = rank_sizes(2, 3, 4)
    for lam, c in e.coeffs.items():
        prod = 1
        for part in lam:
            prod *= q[part]
        assert c == prod


def test_ep_matches_rank_product_oracle():
    for i, b in ((2, 2), (2, 3), (3, 2)):
        assert ep_monomial(i, b, 6).coeffs == ep_from_rank_product(i, b, 6).coeffs


def test_basis_roundtrip_and_involution():
    m = ep_monomial(2, 3, 6)
    p = monomial_to_powersum(m)
    assert powersum_to_monomial(p).coeffs == m.coeffs
    assert omega_powersum(omega_powersum(p)).coeffs == p.coeffs


def test_powersum_coefficients_at_degree_8():
    # the degree-8 p-coefficients of E_P for (i, b) = (2, 3), pinned
    want = {
        (8,): "6", (7, 1): "60/7", (6, 2): "19/3", (6, 1, 1): "19/3", (5, 3): "4",
        (5, 2, 1): "48/5", (5, 1, 1, 1): "16/5", (4, 4): "2", (4, 3, 1): "20/3",
        (4, 2, 2): "4", (4, 2, 1, 1): "8", (4, 1, 1, 1, 1): "4/3", (3, 3, 2): "25/9",
        (3, 3, 1, 1): "25/9", (3, 2, 2, 1): "20/3", (3, 2, 1, 1, 1): "40/9",
        (3, 1, 1, 1, 1, 1): "4/9", (2, 2, 2, 2): "2/3", (2, 2, 2, 1, 1): "8/3",
        (2, 2, 1, 1, 1, 1): "4/3", (2, 1, 1, 1, 1, 1, 1): "8/45", (1,) * 8: "2/315",
    }
    m = ep_monomial(2, 3, 8)
    p = monomial_to_powersum(m)
    assert p.degree_slice(8) == {lam: Fraction(c) for lam, c in want.items()}
    assert powersum_to_monomial(p).coeffs == m.coeffs


def test_degree_one_powersum_coefficient_is_cover_count():
    for i, b in ((2, 3), (3, 2), (4, 3)):
        p = monomial_to_powersum(ep_monomial(i, b, 3))
        assert p.coeff((1,)) == i  # m_1 = p_1


def test_powersum_expansion():
    for i, b in ((2, 2), (2, 3), (3, 2)):
        assert verify_powersum_expansion(i, b, 6)["status"] == "pass"
        assert verify_powersum_expansion(i, b, 6, convention="unit-seed")["status"] == "fail"


def test_forgotten_expansion():
    for i, b in ((2, 2), (2, 3), (3, 2)):
        assert verify_forgotten_expansion(i, b, 6)["status"] == "pass"


def test_forgotten_values():
    fo = forgotten_coefficients(ep_monomial(2, 3, 6))
    assert fo[(3, 1, 1)] == -4  # (-1)^3 (i-1) i^2 at (i,b) = (2,3)
    assert fo[(1, 1, 1, 1)] == 16  # i^n at j = 0
    assert fo.get((2, 2), Fraction(0)) == 0  # not of shape b^j 1^*


def test_symexpansion_formatting():
    e = SymExpansion("monomial", 2, {(): 1, (1,): Fraction(3, 2)})
    assert "m_[1]" in format_terms(e)
    with pytest.raises(ValueError):
        SymExpansion("bogus", 2, {})
    with pytest.raises(ValueError):
        SymExpansion("monomial", 1, {(2,): 1})

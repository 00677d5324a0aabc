import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibgf.catalog import CATALOG_NAMES, MULTI_INDEX_ALPHAS, closed_form
from fibgf.guess import (
    RationalFunc,
    _strip,
    check_drx_pattern,
    guess_rational,
)
from fibgf.monoid import generator_census_series
from fibgf.polynomials import (
    ProductSpec,
    TPoly,
    convolve,
    fibonacci_product_spec,
    kbonacci_product_spec,
    stern_product_spec,
)
from fibgf.sequences import RecurrentSeq
from fibgf.stats import CorrSpec, corr_series


def check_even_part(rf: RationalFunc) -> bool:
    """Oracle: whether the numerator equals the even part of the denominator."""
    if not rf.is_integral():
        num, den = rf.integer_pair()
    else:
        num, den = rf.num, rf.den
    even = _strip([c if k % 2 == 0 else 0 for k, c in enumerate(den)])
    return tuple(num) == tuple(even)


def catalan(n):
    out = [1]
    for i in range(n - 1):
        out.append(out[-1] * 2 * (2 * i + 1) // (i + 2))
    return out


def test_series_expand_examples():
    assert closed_form("thm1").series(6) == [1, 2, 4, 10, 24, 60]
    assert RationalFunc([1], [1, -1]).series(3) == [1, 1, 1]
    with pytest.raises(ValueError):
        RationalFunc([1], [0, 1]).series(3)


def _dense_series(rf: RationalFunc, n_terms: int) -> list:
    """The dense recurrence ``RationalFunc.series`` replaced, as its
    reference: every denominator term, zeros included."""
    d0, out = rf.den[0], []
    for k in range(n_terms):
        acc = rf.num[k] if k < len(rf.num) else 0
        for j in range(1, min(k, rf.den_degree) + 1):
            acc = acc - rf.den[j] * out[k - j]
        out.append(acc if d0 == 1 else -acc if d0 == -1 else Fraction(acc, 1) / Fraction(d0, 1))
    return out


T = TPoly.t()
ZEROS = st.sampled_from([0, TPoly()])
INTS = st.integers(-3, 3)
TPOLYS = st.lists(st.integers(-2, 2), max_size=3).map(TPoly)


@st.composite
def series_forms(draw):
    # int forms with d0 in {1, -1, 2, -3}; TPoly forms with a unit d0; zero
    # inner denominator terms, as int or TPoly, drawn often
    symbolic = draw(st.booleans())
    coeffs = st.one_of(INTS, TPOLYS) if symbolic else INTS
    d0 = draw(st.sampled_from((1, -1) if symbolic else (1, -1, 2, -3)))
    inner = draw(st.lists(st.one_of(ZEROS if symbolic else st.just(0), coeffs), max_size=7))
    return RationalFunc(draw(st.lists(coeffs, max_size=5)), [d0, *inner])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rf=series_forms(), n_terms=st.integers(0, 14))
def test_sparse_series_matches_the_dense_recurrence(rf, n_terms):
    got, want = rf.series(n_terms), _dense_series(rf, n_terms)
    assert got == want
    for a, b in zip(got, want):
        if type(a) is not type(b):
            # only a constant TPoly, made through a zero term, becomes its int
            assert isinstance(a, int) and isinstance(b, TPoly) and b.degree <= 0
            assert (hash(a), str(a)) == (hash(b), str(b))


def test_sparse_series_keeps_every_type_its_callers_see():
    # a constant TPoly that the dense recurrence made only through a zero term
    # is now the equal int, with the same hash and str
    rf = RationalFunc([T, 1], [1, 0, T])
    got, dense = rf.series(3), _dense_series(rf, 3)
    assert got == dense and type(dense[1]) is TPoly and type(got[1]) is int
    # no caller expands such a form: the symbolic forms the checks and scans
    # expand and the census series of transfer_series keep every type; int
    # forms give ints either way
    forms = [closed_form("thm1t", t="sym")]
    forms += [closed_form(name, k=k, t="sym") for name in ("vk2n", "conj-v3k", "conj-v3k-fitted") for k in (2, 3, 4, 5)]
    forms += [RationalFunc([1], [1] + [-g for g in generator_census_series(k, 16)]) for k in (2, 3, 4, 5)]
    for rf in forms:
        got, dense = rf.series(17), _dense_series(rf, 17)
        assert got == dense and list(map(type, got)) == list(map(type, dense)), rf


def test_guess_examples():
    v = corr_series(fibonacci_product_spec(0), CorrSpec((2,)), 20)
    got = guess_rational(v, den_max=8, holdout=6)
    assert got is not None and got.integer_pair() == ((1, 0, -2), (1, -2, -2, 2))
    ones = [1] * 12
    got = guess_rational(ones, den_max=3, holdout=4)
    assert got.integer_pair() == ((1,), (1, -1))
    assert guess_rational(catalan(12), den_max=3, holdout=6) is None


def test_guess_minimality():
    v = corr_series(fibonacci_product_spec(0), CorrSpec((2,)), 25)
    assert guess_rational(v, den_max=2, holdout=6) is None
    got = guess_rational(v, den_max=10, holdout=6)
    assert got.den_degree == 3


def test_guess_insufficient_terms():
    with pytest.raises(ValueError):
        guess_rational([1, 2], den_max=1, holdout=6)


def test_guess_zero_sequence():
    got = guess_rational([0] * 12, den_max=2, holdout=4)
    assert got is not None
    assert got.series(5) == [0, 0, 0, 0, 0]


def test_guess_caps_denominator_search_by_data():
    # 41 terms with den_max 20: only degrees up to 17 are data-supported; the
    # answer is still an honest none when nothing supported fits
    rng = random.Random(1)
    noise = [rng.randint(1, 10**6) for _ in range(41)]
    assert guess_rational(noise, den_max=20, holdout=6) is None


def test_guess_roundtrip_random_rationals():
    for num_extra in (0, 1, 2):
        rng = random.Random(9)
        for _ in range(25):
            d = rng.randint(0, 4)
            e = rng.randint(0, d + num_extra)
            den = [1] + [rng.randint(-3, 3) for _ in range(d)]
            num = [rng.randint(-3, 3) for _ in range(e + 1)]
            if not any(num):
                num = [1]
            rf = RationalFunc(num, den)
            seq = rf.series(2 * (d + 1) + 8 + num_extra)
            got = guess_rational(seq, den_max=d + 1, num_extra=num_extra, holdout=6)
            assert got is not None, (num_extra, rf)
            assert got.same_function(rf), (num_extra, rf)


def test_guess_recovers_degree_40_denominator():
    rng = random.Random(40)
    den = [1] + [rng.randint(-3, 3) for _ in range(39)] + [rng.choice((-2, -1, 1, 2))]
    num = [rng.randint(-3, 3) for _ in range(40)]
    rf = RationalFunc(num, den)
    got = guess_rational(rf.series(100), 45)
    assert got is not None and got.same_function(rf)


def test_guess_needs_one_prefix_equation_per_degree():
    # 1/(1 - 2x) with num_extra 2: degree 1 leaves its first recurrence
    # equation (n = 4) in the prefix only when the holdout is at most 5
    seq = [2**n for n in range(10)]
    assert guess_rational(seq, den_max=2, num_extra=2, holdout=6) is None
    got = guess_rational(seq, den_max=2, num_extra=2, holdout=5)
    assert got.integer_pair() == ((1,), (1, -2))


def test_guess_scale_equivariance():
    v = corr_series(fibonacci_product_spec(0), CorrSpec((2,)), 18)
    base = guess_rational(v, den_max=6, holdout=6)
    scaled = guess_rational([7 * x for x in v], den_max=6, holdout=6)
    bn, bd = base.integer_pair()
    sn, sd = scaled.integer_pair()
    assert sd == bd
    assert sn == tuple(7 * x for x in bn)


def test_rational_func_is_unhashable():
    # equality is cross-multiplication, which no hash of the coefficients can follow
    a, b = RationalFunc([1], [1, -1]), RationalFunc([1, 1], [1, 0, -1])
    assert a == b
    for rf in (a, b):
        with pytest.raises(TypeError):
            hash(rf)


def _euclid_gcd_degree(a, b) -> int:
    """Degree of gcd(a, b) over Q, by Euclid on Fraction coefficient lists."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while a and not a[-1]:
        a.pop()
    while b and not b[-1]:
        b.pop()
    while b:
        while len(a) >= len(b):
            f, shift = a[-1] / b[-1], len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= f * c
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


@st.composite
def fit_inputs(draw):
    """A rational series, sometimes with noise added, and fit parameters."""
    d = draw(st.integers(0, 5))
    den = [1] + draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    if d:
        den[d] = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    num = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=d + 3))
    num[0] = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    n_terms = draw(st.integers(2 * d + 4, 30))
    seq = RationalFunc(num, den).series(n_terms)
    for _ in range(draw(st.integers(0, 2))):
        seq[draw(st.integers(0, n_terms - 1))] += draw(st.integers(-5, 5))
    num_extra = draw(st.integers(0, 3))
    holdout = draw(st.integers(0, 4))
    den_max = max(0, d + draw(st.integers(-1, 3)))
    return seq, den_max, num_extra, holdout


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(fit_inputs())
def test_guess_fit_reproduces_every_term_and_is_reduced(args):
    seq, den_max, num_extra, holdout = args
    if len(seq) < 2 + num_extra + holdout:
        return
    got = guess_rational(seq, den_max=den_max, num_extra=num_extra, holdout=holdout)
    if got is None:
        return
    assert got.den[0] == 1 and got.den_degree <= den_max
    assert got.series(len(seq)) == seq
    assert _euclid_gcd_degree(got.num, got.den) <= 0


def _fraction_berlekamp_massey(u: list[Fraction], l_max: int):
    """The oracle: Massey's pass over Q, c[0] = 1, or None past ``l_max``."""
    c, b = [Fraction(1)], [Fraction(1)]
    length, shift, last = 0, 1, Fraction(1)
    for i, v in enumerate(u):
        delta = v + sum(c[j] * u[i - j] for j in range(1, len(c)))
        if delta == 0:
            shift += 1
            continue
        prev = c
        c = c + [Fraction(0)] * max(0, shift + len(b) - len(c))
        f = delta / last
        for j, bj in enumerate(b):
            c[shift + j] -= f * bj
        while c[-1] == 0:
            c.pop()
        if 2 * length <= i:
            length = i + 1 - length
            if length > l_max:
                return None
            b, last, shift = prev, delta, 1
        else:
            shift += 1
    return c, length


def _fraction_guess(seq, den_max: int, num_extra: int = 0, holdout: int = 6):
    """The oracle: ``guess_rational`` by the pass over Q."""
    values = [Fraction(v) for v in seq]
    m = len(values) - num_extra - holdout
    found = _fraction_berlekamp_massey(values[num_extra + 1:], min(den_max, m // 2, m - 2))
    if found is None:
        return None
    den, length = found
    num_len = length + num_extra + 1
    num = convolve(den, values[:num_len])[:num_len]
    if all(c.denominator == 1 for c in (*num, *den)):
        return RationalFunc([int(c) for c in num], [int(c) for c in den])
    return RationalFunc([Fraction(c) for c in num], den)


@st.composite
def oracle_inputs(draw):
    """Rational series with noise, or short sparse integer sequences, some
    divided through by small denominators; fit parameters down to a zero
    holdout and a den_max below the fit."""
    if draw(st.booleans()):
        seq, den_max, num_extra, holdout = draw(fit_inputs())
    else:
        seq = draw(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, 5)), min_size=2, max_size=30))
        den_max = draw(st.integers(0, 16))
        num_extra = draw(st.integers(0, 3))
        holdout = draw(st.integers(0, 3))
    if draw(st.booleans()):
        seq = [Fraction(v, draw(st.integers(1, 6))) for v in seq]
    return seq, den_max, num_extra, holdout


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(oracle_inputs())
def test_guess_matches_fraction_oracle(args):
    seq, den_max, num_extra, holdout = args
    if len(seq) < 2 + num_extra + holdout:
        return
    got = guess_rational(seq, den_max=den_max, num_extra=num_extra, holdout=holdout)
    want = _fraction_guess(seq, den_max=den_max, num_extra=num_extra, holdout=holdout)
    if want is None:
        assert got is None
        return
    assert (got.num, got.den) == (want.num, want.den)
    assert [type(c) for c in got.num + got.den] == [type(c) for c in want.num + want.den]


def test_criterion_17_control_fits_order_81():
    # (0,1,1) square sums are rational, of order 81; 201 walked terms pin it
    seq = RecurrentSeq(coeffs=(0, 1, 1), init=(1, 1, 1))
    data = corr_series(ProductSpec(exponent_seq=seq, n=0, h=1, a=(1,), offset=2), CorrSpec((2,)), 200)
    got = guess_rational(data, den_max=100, holdout=6)
    assert got is not None and got.den_degree == 81
    assert got.series(len(data)) == data


def test_even_part():
    assert check_even_part(closed_form("J3"))
    assert check_even_part(closed_form("J5"))
    assert check_even_part(closed_form("thm1"))
    # degenerate: even part of 1 - x is 1, which equals the numerator
    assert check_even_part(RationalFunc([1], [1, -1]))
    assert not check_even_part(RationalFunc([1, 1], [1, -1, -1, 1]))
    assert not check_even_part(closed_form("Jalpha", alpha=(1, 1)))


def test_drx_pattern_on_square_sum_forms():
    forms = [(k, closed_form("vk2n", k=k, t=1)) for k in (2, 3, 4, 5)]
    rep = check_drx_pattern(forms, r=2)
    assert rep["status"] == "pass"
    assert rep["m"] == 1
    assert rep["a"] == [1, -2, -2, 2]


def test_drx_pattern_on_fourth_power_forms():
    forms = [(k, closed_form("J4k", k=k)) for k in (2, 3, 4)]
    rep = check_drx_pattern(forms, r=4)
    assert rep["status"] == "pass"
    assert rep["m"] == 2
    assert rep["a"] == [1, -2, -7, 0, -2, 2]


def test_drx_pattern_negative_control():
    good = closed_form("J4k", k=3)
    # perturb one denominator coefficient off the k-support
    den = list(good.den)
    den[2] = den[2] + 1
    bad = RationalFunc(list(good.num), den)
    rep = check_drx_pattern([(3, bad)], r=4)
    assert rep["status"] == "violated"
    assert rep["violations"]


def test_rational_func_json_roundtrip():
    rf = closed_form("thm1t", t="sym")
    clone = RationalFunc.from_json_dict(json.loads(rf.to_json()))
    assert clone.same_function(rf)
    rf2 = closed_form("J6")
    assert RationalFunc.from_json_dict(rf2.to_json_dict()).same_function(rf2)


def test_catalog_theorem_entries_match_pipelines():
    assert closed_form("stern-u2").series(15) == corr_series(stern_product_spec(0), CorrSpec((2,)), 14)
    for k in (2, 3):
        for tval in (1, -1, 2):
            data = corr_series(kbonacci_product_spec(k, 0, t=tval), CorrSpec((2,)), 10)
            assert closed_form("vk2n", k=k, t=tval).series(11) == data


# the parameters each catalog family documents; a name not listed takes none
CATALOG_PARAMS = {
    "thm1t": [{}, {"t": 1}, {"t": -1}],
    "vk2n": [{"k": k, "t": t} for k in (2, 3, 4) for t in (1, "sym")],
    "conj-v3k": [{"k": k, "t": t} for k in (2, 3, 4) for t in (1, "sym")],
    "conj-v3k-fitted": [{"k": k, "t": t} for k in (2, 3, 4) for t in (1, "sym")],
    "Jalpha": [{"alpha": alpha} for alpha in MULTI_INDEX_ALPHAS],
    **{f"J{r}k": [{"k": k} for k in (2, 3, 4)] for r in (4, 5, 6, 7)},
    "H": [{"m": m, "a": a} for m in (2, 3, 4) for a in range(m)],
    "Hk21": [{"k": k} for k in (2, 3, 4)],
    "phi": [{"i": i, "b": b} for i in (2, 3) for b in (2, 3)],
}


def test_catalog_names_build_with_their_parameters():
    assert CATALOG_NAMES == (
        "thm1", "stern-u2", "thm1t", "vk2n", "conj-v3k", "conj-v3k-fitted", "v2m1", "w-example",
        "J3", "J4", "J5", "J6", "J7", "Jalpha", "J4k", "J5k", "J6k", "J7k",
        "H", "Hk21", "H31k2", "H31k3", "phi",
    )
    assert set(CATALOG_PARAMS) <= set(CATALOG_NAMES)
    for name in CATALOG_NAMES:
        for params in CATALOG_PARAMS.get(name, [{}]):
            rf = closed_form(name, **params)
            assert isinstance(rf, RationalFunc) and rf.den[0] == 1, (name, params)
    assert closed_form("J4k", k=3).integer_pair() == ((1, 0, 0, -7, 0, 0, -2), (1, -2, 0, -7, 0, 0, -2, 2))
    assert closed_form("Jalpha", alpha=(1, 1)).integer_pair() == ((0, 1, 1), (1, -2, -2, 2))
    assert closed_form("H", m=3, a=1).integer_pair() == (
        (1, -2, 4, -6, 8, -10, 8, -6),
        (1, -4, 8, -12, 16, -20, 19, -12, 4),
    )
    with pytest.raises(ValueError, match="unknown closed form"):
        closed_form("J8")


def test_catalog_names_built_from_families_keep_their_forms():
    # J3, J4..J7, thm1t and H31k2 are built from their families; these are
    # the literal forms the catalog listed for them
    assert closed_form("J3").integer_pair() == ((1, 0, -4), (1, -2, -4, 2))
    assert closed_form("J4").integer_pair() == ((1, 0, -7, 0, -2), (1, -2, -7, 0, -2, 2))
    assert closed_form("J5").integer_pair() == ((1, 0, -11, 0, -20), (1, -2, -11, -8, -20, 10))
    assert closed_form("J6").integer_pair() == ((1, 0, -17, 0, -88, 0, -4), (1, -2, -17, -28, -88, 26, -4, 4))
    assert closed_form("J7").integer_pair() == ((1, 0, -26, 0, -311, 0, -84), (1, -2, -26, -74, -311, 34, -84, 42))
    assert closed_form("H31k2").integer_pair() == (
        (1, -2, 4, -6, 8, -10, 8, -6),
        (1, -4, 8, -12, 16, -20, 19, -12, 4),
    )
    # thm1t is symbolic in t: pinned at t = 1 and t = 2, and by its JSON
    assert closed_form("thm1t", t=1).integer_pair() == ((1, 0, -2), (1, -2, -2, 2))
    assert closed_form("thm1t", t=2).integer_pair() == ((1, 0, -10), (1, -5, -10, 34))
    assert closed_form("thm1t").to_json_dict() == {
        "num": ["1", "0", ["0", "-1", "0", "-1"]],
        "den": ["1", ["-1", "0", "-1"], ["0", "-1", "0", "-1"], ["0", "1", "0", "0", "0", "1"]],
    }


def test_catalog_phi_forms():
    assert closed_form("phi", i=2, b=3).integer_pair() == ((1,), (1, -2, 0, 1))
    assert closed_form("phi", i=2, b=2).series(6) == [1, 2, 3, 4, 5, 6]
    assert closed_form("phi", i=3, b=2).series(5) == [1, 3, 7, 15, 31]


def test_vk2n_reduces_to_cubic_at_unit_weight():
    assert closed_form("vk2n", k=2, t=1).same_function(closed_form("thm1"))


def test_catalog_identities_across_families():
    # the odd-count table at (2,1), the alternating-sign squared sum, and the
    # k = 2 instance of the congruence family are one and the same function
    h21 = closed_form("H", m=2, a=1)
    assert h21.same_function(closed_form("v2m1"))
    assert h21.same_function(closed_form("Hk21", k=2))
    # the printed 3,1 congruence form factors into the m = 3 table entry
    assert closed_form("H31k2").same_function(closed_form("H", m=3, a=1))


def test_fraction_coefficients_accepted():
    rf = RationalFunc([Fraction(1, 2)], [1, Fraction(-1, 2)])
    assert rf.series(3) == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    assert rf.integer_pair() == ((1,), (2, -1))


def test_multi_index_catalog_consistency():
    # every stored multi-index alpha has a form that expands to its data
    for alpha in MULTI_INDEX_ALPHAS:
        data = corr_series(fibonacci_product_spec(0), CorrSpec(alpha), 16)
        assert closed_form("Jalpha", alpha=alpha).series(17) == data, alpha

from dataclasses import replace
from itertools import product as iproduct
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibgf.polynomials
from fibgf.errors import InvariantError, ResourceLimitError
from fibgf.polynomials import (
    CoeffPoly,
    GoldenSeries,
    ProductSpec,
    TPoly,
    build_product,
    fibonacci_product_spec,
    golden_partials,
    golden_series,
    kbonacci_product_spec,
    partial_products,
    _run_starts,
    run_decomposition,
    run_lengths,
    stern_product_spec,
)
from fibgf.sequences import GoldenInt, RecurrentSeq, fibonacci, kbonacci, phi_power


def test_tpoly_ring_ops():
    t = TPoly.t()
    assert (1 + t) * (1 - t) == TPoly((1, 0, -1))
    assert (t + t * t) ** 2 == TPoly((0, 0, 1, 2, 1))
    assert t - t == TPoly()
    assert not (t - t)
    assert (2 * t).evaluate(5) == 10
    assert TPoly((1, 2, 3)).evaluate(-1) == 2
    assert str(1 + 2 * t) == "1 + 2*t"


def test_constant_tpoly_hashes_like_its_int():
    for c in (-1, 0, 1, 7, 2**70):
        assert TPoly((c,)) == c and hash(TPoly((c,))) == hash(c)
        assert TPoly((c,)) in {c} and c in {TPoly((c,))}
    assert hash(TPoly()) == hash(0) and TPoly() in {0}
    assert TPoly((1, 1)) not in {1, 2}


def _convolve(a: tuple, b: tuple) -> tuple:
    """The generic product of two ascending coefficient tuples, untrimmed."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return tuple(out)


def _trimmed(c) -> tuple:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


_coeffs = st.lists(st.integers(-5, 5), max_size=5)
# an int, a one-term TPoly u t^k (zero included), or a general TPoly
_operands = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda u, k: TPoly((0,) * k + (u,)), st.integers(-3, 3), st.integers(0, 3)),
    _coeffs.map(TPoly),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_coeffs, _operands, st.integers(-3, 3))
def test_tpoly_fast_paths_match_the_generic_convolution(coeffs, other, v):
    p = TPoly(coeffs)
    o = other.c if isinstance(other, TPoly) else _trimmed((other,))
    for got in (p * other, other * p):
        assert isinstance(got, TPoly)
        assert got.c == _trimmed(_convolve(p.c, o))
        assert got.evaluate(v) == p.evaluate(v) * (other if isinstance(other, int) else other.evaluate(v))
    width = max(len(p.c), len(o))
    padded = [c + (0,) * (width - len(c)) for c in (p.c, o)]
    for got in (p + other, other + p):
        assert isinstance(got, TPoly)
        assert got.c == _trimmed(x + y for x, y in zip(*padded))
        assert got.evaluate(v) == p.evaluate(v) + (other if isinstance(other, int) else other.evaluate(v))


def test_coeffpoly_equality_and_dense_coefficients():
    t = TPoly.t()
    assert CoeffPoly([]) == CoeffPoly([], base=3) == CoeffPoly([0, 0], base=2) == CoeffPoly([TPoly()])
    assert CoeffPoly([]).dense_coefficients() == CoeffPoly([0], base=4).dense_coefficients() == []
    assert CoeffPoly([1, 2]) != CoeffPoly([1, 2], base=1)
    assert CoeffPoly([0, 1, 2]) == CoeffPoly([1, 2], base=1)
    assert CoeffPoly([1, 2], base=1) != CoeffPoly([])
    assert CoeffPoly([0, 0, t, 0, 1], base=1).dense_coefficients() == [0, 0, 0, t, 0, 1]
    assert CoeffPoly([3, TPoly((0,)), 5]) == CoeffPoly([3, 0, 5])
    assert CoeffPoly([3, TPoly((4,))]) == CoeffPoly([3, 4])
    dense = CoeffPoly([1, 2], base=2).dense_coefficients()
    dense.append(7)  # a copy: the polynomial is unchanged
    assert CoeffPoly([1, 2], base=2).dense_coefficients() == [0, 0, 1, 2]


def test_build_product_examples():
    assert build_product(fibonacci_product_spec(0)).dense_coefficients() == [1]
    assert build_product(fibonacci_product_spec(1)).dense_coefficients() == [1, 1]
    assert build_product(fibonacci_product_spec(3)).dense_coefficients() == [1, 1, 1, 2, 1, 1, 1]
    assert build_product(fibonacci_product_spec(4)).dense_coefficients() == [1, 1, 1, 2, 1, 2, 2, 1, 2, 1, 1, 1]
    assert build_product(fibonacci_product_spec(3, t=-1)).dense_coefficients() == [1, -1, -1, 0, 1, 1, -1]


def _multiply_dense_by_coefficient(coeffs: list, terms: list) -> list:
    """The per-coefficient loop ``_multiply_dense`` replaced, as its reference."""
    shift = terms[-1][1] if terms else 0
    out = list(coeffs) + [0] * shift
    for aj, e in terms:
        for idx, c in enumerate(coeffs, e):
            if c:
                out[idx] = out[idx] + (c if isinstance(aj, int) and aj == 1 else aj * c)
    return out


# a coefficient: an int (zero included), a zero TPoly, or a TPoly with a t-term
_scalars = st.one_of(
    st.integers(-3, 3),
    st.just(TPoly()),
    st.builds(lambda u, v: TPoly((u, v)), st.integers(-2, 2), st.integers(-2, 2).filter(bool)),
)
# a factor's terms: ascending distinct exponents, weights 1, other ints or t-weights
_weights = st.one_of(st.just(1), st.integers(-3, 3).filter(bool), st.sampled_from([TPoly((0, 2)), TPoly((1, -1))]))
_terms = st.lists(
    st.tuples(_weights, st.integers(1, 9)),
    max_size=3,
    unique_by=lambda term: term[1],
).map(lambda terms: sorted(terms, key=lambda term: term[1]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_scalars, max_size=14), _terms)
def test_multiply_dense_matches_the_per_coefficient_loop(coeffs, terms):
    import fibgf.polynomials

    want = _multiply_dense_by_coefficient(coeffs, terms)
    block = fibgf.polynomials._ADD_BLOCK
    try:
        for size in (1, 2, 5, block):  # blocks that end inside, at and past the nonzero stretches
            fibgf.polynomials._ADD_BLOCK = size
            got = fibgf.polynomials._multiply_dense(coeffs, terms)
            assert got == want
            # a zero coefficient adds nothing, so no int entry turns into a TPoly
            assert list(map(type, got)) == list(map(type, want))
    finally:
        fibgf.polynomials._ADD_BLOCK = block


@st.composite
def _kernel_cases(draw):
    """A row, a factor's terms and the row's dtype, as the kernel's callers
    take them: int64 rows, uint8 rows of residues mod m (2..7) with weights
    mod m, and object rows of big ints with big, unit and t-weights; some
    weights are 0, and exponents reach past the row."""
    kind = draw(st.sampled_from(("int64", "uint8", "object")))
    if kind == "int64":
        entries, weights = st.integers(-10**6, 10**6), st.integers(-3, 3)
    elif kind == "uint8":
        m = draw(st.integers(2, 7))
        entries = weights = st.integers(0, m - 1)
    else:
        entries = st.integers(-(2**100), 2**100)
        weights = st.one_of(st.integers(-(2**70), 2**70), st.sampled_from((0, 1, TPoly.t())))
    size = draw(st.integers(0, 300))
    row = draw(st.lists(entries, min_size=size, max_size=size))
    exps = sorted(draw(st.lists(st.integers(1, 400), min_size=1, max_size=4, unique=True)))
    terms = [(draw(weights), e) for e in exps]
    end = len(row) + exps[-1]
    cuts = sorted(draw(st.lists(st.integers(0, end + 5), min_size=1, max_size=6)))
    return row, terms, kind, [0, *cuts, end + 5]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_kernel_cases())
def test_product_block_matches_multiply_dense(case):
    # every block of the split is the dense product's entries there, in the
    # row's dtype and 0 past its end, and reads the row below its top only
    import numpy as np

    row, terms, kind, cuts = case
    prev = np.array(row, dtype=kind)
    want = fibgf.polynomials._multiply_dense(row, terms)
    want += [0] * (cuts[-1] - len(want))
    for lo, hi in zip(cuts, cuts[1:]):
        block = fibgf.polynomials.product_block(prev, terms, lo, hi)
        assert block.dtype == prev.dtype and block.tolist() == want[lo:hi], (lo, hi)
        poisoned = prev.copy()
        poisoned[hi:] = 5
        assert fibgf.polynomials.product_block(poisoned, terms, lo, hi).tolist() == want[lo:hi], (lo, hi)


def test_weighted_product_small():
    t = TPoly.t()
    p = build_product(fibonacci_product_spec(2, t=t))
    assert p.dense_coefficients() == [1, t, t, t * t]


def test_degree_formula():
    for n in range(0, 16):
        assert build_product(fibonacci_product_spec(n)).degree == fibonacci(n + 3) - 2


def test_streaming_partials_match_prefix_builds():
    partials = dict(enumerate(partial_products(fibonacci_product_spec(7))))
    assert set(partials) == set(range(8))
    for i in range(8):
        assert partials[i] == build_product(fibonacci_product_spec(i))


def test_nonpositive_exponent_rejected():
    seq = RecurrentSeq(coeffs=(1,), init=(0,))
    spec = ProductSpec(exponent_seq=seq, n=1, h=1, a=(1,))
    with pytest.raises(ValueError):
        build_product(spec)


def test_doubling_ratio_products_have_unit_coefficients():
    # f_{i+1} >= 2 f_i forces all nonzero coefficients to be 1
    for coeffs, init in (((2,), (1,)), ((3,), (1,))):
        seq = RecurrentSeq(coeffs=coeffs, init=init)
        spec = ProductSpec(exponent_seq=seq, n=10, h=1, a=(1,))
        p = build_product(spec)
        assert all(c == 1 for c in p.coefficient_sequence())
        assert p.nonzero_count() == 2**10


def test_factor_terms_normal_form():
    # F_1 = F_2 = 1: factor 1 reads one exponent twice
    summed = ProductSpec(exponent_seq=kbonacci(2), n=2, h=2, a=(1, 1))
    assert summed.factor_terms(1) == [(2, 1)]
    assert summed.factor_terms(2) == [(1, 1), (1, 2)]
    cancelled = ProductSpec(exponent_seq=kbonacci(2), n=2, h=2, a=(1, -1))
    assert cancelled.factor_terms(1) == []
    assert cancelled.factor_terms(2) == [(1, 1), (-1, 2)]
    # the cancelled factor is 1 and adds nothing to the degree
    assert cancelled.degree_bound() == 2 == build_product(cancelled).degree
    assert replace(cancelled, n=1).degree_bound() == 0
    assert list(cancelled.partial_lengths()) == [1, 1, 3]
    descending = ProductSpec(exponent_seq=RecurrentSeq(coeffs=(1, 0), init=(3, 1)), n=1, h=2, a=(TPoly.t(), 2))
    assert descending.factor_terms(1) == [(2, 1), (TPoly.t(), 3)]


def test_gappy_product_matches_subset_sums():
    seq = RecurrentSeq(coeffs=(3,), init=(1,))
    spec = ProductSpec(exponent_seq=seq, n=6, h=1, a=(1,))
    p = build_product(spec)
    # brute force expansion
    exps = [seq.term(i) for i in range(1, 7)]
    sums = {}
    for mask in iproduct((0, 1), repeat=6):
        s = sum(e for e, b in zip(exps, mask) if b)
        sums[s] = sums.get(s, 0) + 1
    assert dict(p.items()) == sums


def test_memory_guard(monkeypatch):
    monkeypatch.setenv("RGF_MAX_MEM_MB", "1")
    with pytest.raises(ResourceLimitError) as err:
        build_product(fibonacci_product_spec(25))
    assert err.value.limit_n is not None


def test_partial_products_raise_before_the_first_factor(monkeypatch):
    # partials n - 1 and n at 32 bytes a coefficient: partials 19 and 20 pass 1 MB,
    # so limit_n is 20 at every n >= 20, and n = 19 runs
    monkeypatch.setenv("RGF_MAX_MEM_MB", "1")
    factors = []
    multiply = fibgf.polynomials._multiply_dense
    monkeypatch.setattr(fibgf.polynomials, "_multiply_dense", lambda coeffs, terms: factors.append(terms))
    for n in (20, 25):
        partials = partial_products(fibonacci_product_spec(n))
        with pytest.raises(ResourceLimitError) as err:
            next(partials)
        assert err.value.limit_n == 20
    assert factors == []
    monkeypatch.setattr(fibgf.polynomials, "_multiply_dense", multiply)
    assert build_product(fibonacci_product_spec(19)).degree == fibonacci(22) - 2
    # weights other than 0 and +-1 make big coefficients, charged at 208 bytes each
    with pytest.raises(ResourceLimitError) as err:
        build_product(fibonacci_product_spec(19, t=TPoly.t()))
    assert err.value.limit_n == 16


def test_poly_json_roundtrip():
    t = TPoly.t()
    p = build_product(fibonacci_product_spec(4, t=t))
    data = p.to_json_dict()
    assert data["base"] == 0
    assert data["coeffs"][0] == ["1"]
    clone = CoeffPoly.from_json_dict(data)
    assert clone == p
    q = build_product(fibonacci_product_spec(5))
    assert CoeffPoly.from_json_dict(q.to_json_dict()) == q


def test_prefactor_and_offset():
    pref = CoeffPoly([0, 1])  # P(x) = x
    spec = ProductSpec(exponent_seq=RecurrentSeq((1, 1), (1, 1)), n=2, h=1, a=(1,), offset=1, prefactor=pref)
    p = build_product(spec)
    assert p.base == 1
    assert p.dense_coefficients() == [0, 1, 1, 1, 1]  # x(1+x)(1+x^2)
    # the dense rows start at x^0, so the prefactor's zero counts in every length
    assert list(spec.partial_lengths()) == [len(q.dense_coefficients()) for q in partial_products(spec)] == [2, 3, 5]


def test_prefactor_coefficients():
    # the one reading of the prefactor every engine takes: none is 1, a zero
    # CoeffPoly is P = 0 (partial 0 still one entry long), a TPoly one is dense from x^0
    spec = fibonacci_product_spec(3)
    assert spec.prefactor_coefficients() == [1]
    zero = replace(spec, prefactor=CoeffPoly([0]))
    assert zero.prefactor_coefficients() == []
    assert list(zero.partial_lengths()) == list(spec.partial_lengths()) == [1, 2, 4, 7]
    t = TPoly.t()
    symbolic = replace(spec, prefactor=CoeffPoly([0, t, 0, 2]))
    assert symbolic.prefactor_coefficients() == [0, t, 0, 2]
    assert list(symbolic.partial_lengths()) == [4, 5, 7, 10]


def test_golden_series_examples():
    g1 = golden_series(1)
    assert g1.coefficient_sequence() == [1, 1]
    g5 = golden_series(5)
    assert g5.coefficient_sequence() == [1, 1, 1, 2, 1, 2, 2, 1, 3, 2, 2, 3, 1, 2, 2, 1, 2, 1, 1, 1]
    assert len(g5) == 20 == fibonacci(8) - 1


def test_golden_matches_product_coefficients():
    for n in range(0, 17):
        assert golden_series(n).coefficient_sequence() == build_product(
            fibonacci_product_spec(n)
        ).coefficient_sequence()


def test_check_golden_reports_the_first_wrong_partial(monkeypatch):
    # each golden partial is compared with the product partial of the same n as the product grows,
    # and the first failing n stops the product
    import fibgf.checks

    real = fibgf.checks.golden_partials
    factors = []
    multiply = fibgf.polynomials._multiply_dense

    def counted(coeffs, terms):
        factors.append(terms)
        return multiply(coeffs, terms)

    def perturbed(n_max):
        for n, series in enumerate(real(n_max)):
            if n == 5:
                (e, c), *rest = series.terms
                series = GoldenSeries(((e, c + 1), *rest))
            yield series

    monkeypatch.setattr(fibgf.checks, "golden_partials", perturbed)
    monkeypatch.setattr(fibgf.polynomials, "_multiply_dense", counted)
    rep = fibgf.checks.run_check("verify", "golden", nmax=16)
    assert (rep.status, rep.details) == ("fail", {"n": 5})
    assert len(factors) == 5
    assert fibgf.checks.run_check("verify", "golden", nmax=4).status == "pass"


def test_check_runs_reports_a_run_of_another_length(monkeypatch):
    # run_lengths raises on a run not of length 2 or 3, and run_check reports it
    import fibgf.checks

    four = GoldenSeries((GoldenInt(k, 0), 1) for k in range(4))

    def partials(n_max):
        yield GoldenSeries(())
        yield four

    monkeypatch.setattr(fibgf.checks, "golden_partials", partials)
    rep = fibgf.checks.run_check("verify", "runs", nmax=1)
    assert (rep.status, rep.details) == ("fail", {"error": "run of length 4", "detail": str(GoldenInt(0, 0))})


def test_golden_partials_match_golden_series():
    partials = list(golden_partials(12))
    assert len(partials) == 13
    for n, series in enumerate(partials):
        assert series == golden_series(n)
    with pytest.raises(ValueError):
        next(golden_partials(-1))


def _golden_partials_by_sign(n_max: int):
    """The merge ``golden_partials`` replaced, as its reference: two sorted
    lists of (GoldenInt, coefficient) merged by the sign of each difference."""
    terms = [(GoldenInt(0, 0), 1)]
    yield terms
    for i in range(n_max):
        shift = phi_power(i)
        shifted = [(e + shift, c) for e, c in terms]
        merged, p, q = [], 0, 0
        while p < len(terms) and q < len(shifted):
            (ea, ca), (eb, cb) = terms[p], shifted[q]
            d = (ea - eb).sign()
            if d < 0:
                merged.append((ea, ca))
                p += 1
            elif d > 0:
                merged.append((eb, cb))
                q += 1
            else:
                merged.append((ea, ca + cb))
                p += 1
                q += 1
        terms = merged + terms[p:] + shifted[q:]
        yield terms


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 14))
def test_golden_partials_match_the_sign_merge(n_max):
    got = list(golden_partials(n_max))
    want = list(_golden_partials_by_sign(n_max))
    assert len(got) == len(want) == n_max + 1
    for series, terms in zip(got, want):
        assert series.terms == tuple(terms)
        assert series == GoldenSeries(terms)


def test_golden_partials_switch_to_python_ints(monkeypatch):
    # columns that might pass int64 are held as Python ints: the same series
    # and run lengths with a bound that forces it
    want = list(golden_partials(12))
    monkeypatch.setattr(fibgf.polynomials, "INT64_MAX", 1)
    got = list(golden_partials(12))
    assert all(series.a.dtype == series.coeffs.dtype == object for series in got)
    assert got == want
    assert [run_lengths(series) for series in got[1:]] == [run_lengths(series) for series in want[1:]]


def _run_lengths_by_steps(series: GoldenSeries) -> list[int]:
    """The run lengths one term at a time, as the reference of ``run_lengths``."""
    lengths: list[int] = []
    for k, (a, b) in enumerate(zip(series.a.tolist(), series.b.tolist())):
        if k and (a - prev[0], b - prev[1]) == (1, 0):
            lengths[-1] += 1
        else:
            lengths.append(1)
        prev = (a, b)
    return lengths


def test_run_lengths_match_the_term_steps():
    partials = golden_partials(14)
    assert _run_lengths_by_steps(next(partials)) == [1]  # n = 0: a lone term, which run_lengths refuses
    for n, series in enumerate(partials, 1):
        assert run_lengths(series) == _run_lengths_by_steps(series), n
    assert _run_starts(GoldenSeries(())) == [0]


def test_golden_keys_separate_the_closest_exponents():
    # golden_partials proves that distinct exponents differ by more than
    # phi^-2 > 1/4; the closest neighbours are phi - 1 apart, and the keys
    # floor(4 e) = 4a + 2b + isqrt(20 b^2) rise at every step
    phi_squared = GoldenInt(1, 1)
    for n in range(2, 15):
        series = golden_series(n)
        exps = [e for e, _ in series.terms]
        closest = min(f - e for e, f in zip(exps, exps[1:]))
        assert closest == GoldenInt(-1, 1), n
        assert (closest * phi_squared - 1).sign() > 0, n
        keys = [4 * a + 2 * b + isqrt(20 * b * b) for a, b in zip(series.a, series.b)]
        assert all(k < k2 for k, k2 in zip(keys, keys[1:])), n


def test_run_decomposition_examples():
    rd5 = run_decomposition(golden_series(5))
    assert rd5.lengths() == [2, 3, 2, 3, 3, 2, 3, 2]
    assert rd5.count == 8 == fibonacci(6)
    rd1 = run_decomposition(golden_series(1))
    assert rd1.count == 1 and rd1.lengths() == [2]


def test_run_lengths_always_2_or_3():
    for n in range(1, 15):
        rd = run_decomposition(golden_series(n))
        assert set(rd.lengths()) <= {2, 3}
        assert rd.count == fibonacci(n + 1)
        assert run_lengths(golden_series(n)) == rd.lengths()


def test_run_decomposition_rejects_bad_series():
    from fibgf.polynomials import GoldenSeries
    from fibgf.sequences import GoldenInt

    bad = GoldenSeries(((GoldenInt(0, 0), 1), (GoldenInt(1, 0), 1), (GoldenInt(2, 0), 1), (GoldenInt(3, 0), 1)))
    with pytest.raises(InvariantError):
        run_decomposition(bad)  # a run of length 4
    # an exponent that repeats or falls raises, also when its rational part rises by 1
    for e1 in (GoldenInt(1, 0), GoldenInt(0, 0), GoldenInt(1, -1), GoldenInt(2, -1)):
        series = GoldenSeries(((GoldenInt(0, 0), 1), (GoldenInt(1, 0), 1), (e1, 1), (e1 + 1, 1)))
        with pytest.raises(InvariantError, match="not strictly increasing"):
            run_decomposition(series)


def test_exercise_note_truth():
    """The cross-seed invariance holds for the increasing seeds; the (2,1)
    seed (Lucas numbers) is a genuine counterexample from n = 4 on."""
    def rows(seed, nmax):
        seq = RecurrentSeq(coeffs=(1, 1), init=seed)
        spec = ProductSpec(exponent_seq=seq, n=nmax, h=1, a=(1,))
        return [p.coefficient_sequence() for p in partial_products(spec)]

    nmax = 14
    reference = rows((1, 2), nmax)
    for seed in ((2, 3), (3, 5), (1, 4)):
        assert rows(seed, nmax) == reference, seed
    lucas = rows((2, 1), nmax)
    assert lucas[:4] == reference[:4]
    assert lucas[4] == [1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1]
    assert reference[4] == [1, 1, 1, 2, 1, 2, 2, 1, 2, 1, 1, 1]
    assert all(lucas[n] != reference[n] for n in range(4, nmax + 1))


def test_kbonacci_products():
    p = build_product(kbonacci_product_spec(3, 4))
    # exponents F^(3)_{i+2}: 1, 3, 5, 9
    assert p.degree == 1 + 3 + 5 + 9
    s = build_product(stern_product_spec(2))
    assert s.dense_coefficients() == [1, 1, 2, 1, 2, 1, 1]


def test_golden_partials_are_charged_until_the_cap(monkeypatch):
    # GOLDEN_TERM_BYTES a term: partial 18, with F_21 - 1 = 10945 terms, passes 1 MB
    monkeypatch.setenv("RGF_MAX_MEM_MB", "1")
    with pytest.raises(ResourceLimitError) as err:
        for _ in golden_partials(24):
            pass
    assert err.value.limit_n == 18
    assert len(golden_series(17)) == fibonacci(20) - 1


def test_golden_partials_grow_their_isqrt_table_with_the_steps(monkeypatch):
    # a deep n_max costs nothing before the cap stops it: the table holds
    # only the b of the partials built, below F_18 when step 18 raises
    monkeypatch.setenv("RGF_MAX_MEM_MB", "1")
    calls = []
    monkeypatch.setattr(fibgf.polynomials, "isqrt", lambda v: calls.append(v) or isqrt(v))
    with pytest.raises(ResourceLimitError) as err:
        for _ in golden_partials(40):
            pass
    assert err.value.limit_n == 18
    assert len(calls) == fibonacci(18) - 1

"""The difference walk against the expanded product, on random small specs."""

import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibgf.checks
import fibgf.walk
from fibgf.catalog import closed_form
from fibgf.errors import ResourceLimitError
from fibgf.guess import series_expand
from fibgf.polynomials import (
    CoeffPoly,
    ProductSpec,
    TPoly,
    build_product,
    fibonacci_product_spec,
    kbonacci_product_spec,
    stern_product_spec,
)
from fibgf.sequences import RecurrentSeq, kbonacci
from fibgf.stats import CorrSpec, corr_series
from fibgf.walk import BASIS_STATE_BYTES, _BasisWalk, _Walk, basis_walk_applies

T = TPoly.t()


@st.composite
def specs(draw, symbolic=True):
    order = draw(st.integers(1, 2))
    # the last coefficient >= 1 keeps every term >= 1; (0, 1) gives a periodic,
    # non-monotone sequence, so the walk does not read largest exponent first
    coeffs = tuple(draw(st.lists(st.integers(0, 2), min_size=order - 1, max_size=order - 1)))
    seq = RecurrentSeq(
        coeffs=coeffs + (draw(st.integers(1, 2)),),
        init=tuple(draw(st.lists(st.integers(1, 3), min_size=order, max_size=order))),
    )
    h = draw(st.integers(1, 3))
    a = tuple(draw(st.lists(st.integers(-3, 3), min_size=h, max_size=h)))
    if symbolic and draw(st.booleans()):
        # Z[t] weights: a_j t^(j+1), so the t-degree tells the terms apart
        a = tuple(aj * T ** (j + 1) for j, aj in enumerate(a))
    prefactor = None
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4))
        prefactor = CoeffPoly(coeffs, base=draw(st.integers(0, 2)))
    return ProductSpec(exponent_seq=seq, n=0, h=h, a=a, offset=draw(st.integers(0, 2)), prefactor=prefactor)


@st.composite
def _basis_candidates(draw):
    order = draw(st.integers(1, 3))
    if order == 1:
        coeffs = (draw(st.integers(2, 3)),)
    else:  # Brauer's condition: c_1 >= ... >= c_d >= 1
        coeffs = tuple(sorted(draw(st.lists(st.integers(1, 2), min_size=order, max_size=order)), reverse=True))
    seq = RecurrentSeq(coeffs=coeffs, init=tuple(draw(st.lists(st.integers(1, 5), min_size=order, max_size=order))))
    h = draw(st.integers(1, 3))
    a = [0] * h
    j = draw(st.integers(0, h - 1))
    a[j] = draw(st.sampled_from([1, -1, 2, -3]))
    if draw(st.booleans()):
        a[j] = a[j] * T ** draw(st.integers(1, 2))
    prefactor = None
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4))
        prefactor = CoeffPoly(coeffs, base=draw(st.integers(0, 2)))
    return ProductSpec(exponent_seq=seq, n=0, h=h, a=tuple(a), offset=draw(st.integers(0, 5)), prefactor=prefactor)


# specs the basis walk takes: Brauer recurrences, one term per factor, and
# exponents that rise from the first factor on
basis_specs = _basis_candidates().filter(basis_walk_applies)

# up to three offsets, a leading zero offset included, at most four rows
alphas = st.lists(st.integers(0, 2), min_size=1, max_size=3).filter(lambda a: 0 < sum(a) <= 4).map(tuple)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spec=specs(), alpha=alphas, n_max=st.integers(0, 5))
def test_walk_matches_pure_engine(spec, alpha, n_max):
    want = corr_series(spec, CorrSpec(alpha), n_max, engine="pure")
    assert corr_series(spec, CorrSpec(alpha), n_max) == want


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spec=basis_specs, alpha=alphas, n_max=st.integers(0, 6))
def test_basis_walk_matches_pure_engine(spec, alpha, n_max):
    want = corr_series(spec, CorrSpec(alpha), n_max, engine="pure")
    assert fibgf.walk.corr_walk_series(spec, alpha, n_max) == want


def _level_series(spec, alpha, n_max):
    walk = _Walk(spec, alpha)
    return [walk.value(n) for n in range(n_max + 1)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spec=basis_specs, alpha=alphas, n_max=st.integers(7, 20))
def test_basis_walk_matches_level_walk(spec, alpha, n_max):
    assert _BasisWalk(spec, alpha, n_max).series() == _level_series(spec, alpha, n_max)


def _unpruned_series(spec, alpha, n_max):
    big = 1 << 64
    if basis_walk_applies(spec):
        walk = _BasisWalk(spec, alpha, n_max)
        # a slack no pair difference reaches: every state is alive at every level
        walk.bounds = [big] * len(walk.bounds)
        return walk.series()
    walk = _Walk(spec, alpha)
    while len(walk.factors) <= n_max:
        walk._add_factor()
    # a slack no spread reaches: only the final all-equal test remains
    walk.slack = [big] * len(walk.slack)
    return [walk.value(n) for n in range(n_max + 1)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=specs(), alpha=alphas, n_max=st.integers(0, 3))
def test_pruning_drops_no_tuple(spec, alpha, n_max):
    assert corr_series(spec, CorrSpec(alpha), n_max) == _unpruned_series(spec, alpha, n_max)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=basis_specs, alpha=alphas, n_max=st.integers(0, 3))
def test_basis_pruning_drops_no_tuple(spec, alpha, n_max):
    assert corr_series(spec, CorrSpec(alpha), n_max) == _unpruned_series(spec, alpha, n_max)


def test_basis_walk_routing():
    # the presets, the depth probe and conj-hpn's prefactor instance take the basis walk
    hpn_prefactor = ProductSpec(exponent_seq=kbonacci(2), n=0, offset=1, prefactor=CoeffPoly([1, 1]))
    basis = [kbonacci_product_spec(k, 0, t=t) for k in (2, 3, 4, 5) for t in (1, T)]
    basis += [fibonacci_product_spec(0, t=-1), hpn_prefactor]
    # runs of equal exponents, non-Brauer recurrences, and factors of two terms take the level walk
    controls = [RecurrentSeq(c, (1,) * len(c)) for c in ((1, 0, 1), (0, 1, 1), (0, 1), (1,), (1, 2))]
    level = [ProductSpec(exponent_seq=seq, n=0, offset=2 if seq.order == 3 else 0) for seq in controls]
    level += [ProductSpec(exponent_seq=kbonacci(k), n=0) for k in (2, 3, 4, 5)]
    level += [
        stern_product_spec(0),
        ProductSpec(exponent_seq=kbonacci(2), n=0, h=3, a=(0, 1, 1)),
        ProductSpec(exponent_seq=kbonacci(2), n=0, h=2, a=(1, 1)),
    ]
    assert [basis_walk_applies(spec) for spec in basis] == [True] * len(basis)
    assert [basis_walk_applies(spec) for spec in level] == [False] * len(level)
    calls = []
    real = _BasisWalk.series

    def counted(walk):
        calls.append(walk.spec)
        return real(walk)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_BasisWalk, "series", counted)
        for spec in basis + level:
            corr_series(spec, CorrSpec((2,)), 4)
    assert calls == basis


def test_basis_walk_cap_names_limiting_n(monkeypatch):
    # a wide prefactor keeps hundreds of states alive: the breadth-first
    # build passes the cap at a depth, and every n below it runs
    spec = replace(fibonacci_product_spec(0), prefactor=CoeffPoly([1] * 8))
    assert basis_walk_applies(spec)
    monkeypatch.setenv("RGF_MAX_MEM_MB", "1")
    with pytest.raises(ResourceLimitError) as err:
        corr_series(spec, CorrSpec((4,)), 30)
    assert err.value.limit_n is not None
    reach = err.value.limit_n - 1
    assert 0 < reach < 30
    assert corr_series(spec, CorrSpec((4,)), reach) == corr_series(spec, CorrSpec((4,)), reach, engine="pure")


def test_basis_states_are_charged_by_size():
    # wide prefactors keep hundreds of states alive; with six rows or
    # symbolic weights, what the automaton, its pair masks and its two
    # tables hold stays under the charge (tracemalloc read 1,900-3,000
    # bytes a state on these)
    cases = (
        (replace(fibonacci_product_spec(0), prefactor=CoeffPoly([1] * 5)), (6,), 12),
        (replace(fibonacci_product_spec(0, t=T), prefactor=CoeffPoly([1] * 8)), (4,), 8),
    )
    for spec, alpha, n_max in cases:
        tracemalloc.start()
        try:
            walk = _BasisWalk(spec, alpha, n_max)
            walk.series()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert walk.stored > 100, alpha
        assert peak < walk.stored * BASIS_STATE_BYTES, (alpha, peak, walk.stored)


def test_deep_square_sums_match_closed_forms():
    # far beyond what a dense product reaches: v_2^(k)(n) to n = 120
    for k in (2, 3, 4):
        want = series_expand(closed_form("vk2n", k=k, t=1), 121)
        assert corr_series(kbonacci_product_spec(k, 0), CorrSpec((2,)), 120) == want


def test_leading_zero_offsets_keep_k_nonnegative():
    # v(n) for alpha = (0, 1) is the coefficient sum without c(0)
    spec = kbonacci_product_spec(2, 0)
    assert corr_series(spec, CorrSpec((0, 1)), 6) == [2**n - 1 for n in range(7)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=specs(symbolic=False), n_max=st.integers(0, 6))
def test_fourth_power_sum_equals_square_sum_iff_unit_coefficients(spec, n_max):
    # c^4 - c^2 = c^2 (c^2 - 1) >= 0, zero exactly at c in {0, +-1}: zhao's test
    v2 = corr_series(spec, CorrSpec((2,)), n_max)
    v4 = corr_series(spec, CorrSpec((4,)), n_max)
    units = []
    build_product(replace(spec, n=n_max), callback=lambda n, p: units.append(set(p.dense_coefficients()) <= {-1, 0, 1}))
    assert [a == b for a, b in zip(v2, v4)] == units


def test_zhao_reports_the_first_product_with_another_coefficient(monkeypatch):
    real = fibgf.checks.corr_series

    def perturbed(spec, alpha, n_max, **kwargs):
        series = real(spec, alpha, n_max, **kwargs)
        if alpha == CorrSpec((4,)):
            series[7] += 1
        return series

    monkeypatch.setattr(fibgf.checks, "corr_series", perturbed)
    rep = fibgf.checks.run_check("verify", "zhao", nmax=10)
    assert (rep.status, rep.details) == ("fail", {"n": 7, "coefficients": "outside {0,+-1}"})

"""The difference walk against the expanded product, on random small specs."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

import fibgf.checks
from fibgf.catalog import closed_form
from fibgf.guess import series_expand
from fibgf.polynomials import CoeffPoly, ProductSpec, TPoly, build_product, kbonacci_product_spec
from fibgf.sequences import RecurrentSeq
from fibgf.stats import CorrSpec, corr_series
from fibgf.walk import _Walk

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


# up to three offsets, a leading zero offset included, at most four rows
alphas = st.lists(st.integers(0, 2), min_size=1, max_size=3).filter(lambda a: 0 < sum(a) <= 4).map(tuple)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spec=specs(), alpha=alphas, n_max=st.integers(0, 5))
def test_walk_matches_pure_engine(spec, alpha, n_max):
    want = corr_series(spec, CorrSpec(alpha), n_max, engine="pure")
    assert corr_series(spec, CorrSpec(alpha), n_max) == want


def _unpruned_series(spec, alpha, n_max):
    walk = _Walk(spec, alpha)
    while len(walk.factors) <= n_max:
        walk._add_factor()
    # a slack no spread reaches: only the final all-equal test remains
    big = 1 << 64
    walk.slack = [big] * len(walk.slack)
    return [walk.value(n) for n in range(n_max + 1)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=specs(), alpha=alphas, n_max=st.integers(0, 3))
def test_pruning_drops_no_tuple(spec, alpha, n_max):
    assert corr_series(spec, CorrSpec(alpha), n_max) == _unpruned_series(spec, alpha, n_max)


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

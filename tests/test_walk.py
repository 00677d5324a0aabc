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
from fibgf.polynomials import (
    CoeffPoly,
    ProductSpec,
    TPoly,
    fibonacci_product_spec,
    kbonacci_product_spec,
    partial_products,
    stern_product_spec,
)
from fibgf.sequences import RecurrentSeq, kbonacci
from fibgf.stats import CorrSpec, corr_series
from fibgf.walk import _BasisWalk, _HandOff, _LevelWalk, basis_walk_applies
from oracle import pure_corr_series

T = TPoly.t()


class NoHandOff(_BasisWalk):
    """The basis walk with its hand-off off: it keeps vector states to the end."""

    def _hand_off(self, used):
        pass


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
def pisot_specs(draw):
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


@st.composite
def window_specs(draw):
    # windows over Fibonacci, the Pisot (2, 1), the periodic (0, 1), (1, 2)
    # with a second root of modulus 1, and the constant (1,); seeds of equal
    # terms give runs of equal exponents
    coeffs = draw(st.sampled_from([(1, 1), (2, 1), (0, 1), (1, 2), (1,)]))
    init = tuple(draw(st.lists(st.integers(1, 3), min_size=len(coeffs), max_size=len(coeffs))))
    h = draw(st.integers(2, 3))
    a = tuple(draw(st.lists(st.integers(-3, 3), min_size=h, max_size=h)))
    if draw(st.booleans()):
        a = tuple(aj * T ** (j + 1) for j, aj in enumerate(a))
    prefactor = None
    if draw(st.booleans()):
        prefactor = CoeffPoly(draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4)), base=draw(st.integers(0, 2)))
    return ProductSpec(
        exponent_seq=RecurrentSeq(coeffs, init), n=0, h=h, a=a, offset=draw(st.integers(0, 2)), prefactor=prefactor
    )


# up to three offsets, a leading zero offset included, at most four rows
alphas = st.lists(st.integers(0, 2), min_size=1, max_size=3).filter(lambda a: 0 < sum(a) <= 4).map(tuple)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spec=specs(), alpha=alphas, n_max=st.integers(0, 5))
def test_walk_matches_pure_engine(spec, alpha, n_max):
    want = pure_corr_series(spec, CorrSpec(alpha), n_max)
    assert corr_series(spec, CorrSpec(alpha), n_max) == want


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spec=pisot_specs(), alpha=alphas, n_max=st.integers(0, 6))
def test_basis_walk_matches_pure_engine(spec, alpha, n_max):
    # single terms over Brauer recurrences of order up to 3, offsets up to 5;
    # the basis walk also where the spec hands off
    want = pure_corr_series(spec, CorrSpec(alpha), n_max)
    assert fibgf.walk.corr_walk_series(spec, alpha, n_max) == want
    assert _walk_series(NoHandOff, spec, alpha, n_max) == want


def _walk_series(walk, spec, alpha, n_max):
    """What ``corr_walk_series`` returns, from the given walk class."""
    lead = next(j for j, a in enumerate(alpha) if a)
    series = walk(spec, alpha[lead:], n_max).series()
    return [v - low for v, low in zip(series, fibgf.walk._low_terms(spec, alpha, n_max))]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=window_specs(), alpha=alphas.filter(lambda a: sum(a) <= 3), n_max=st.integers(6, 9))
def test_basis_walk_matches_level_walk(spec, alpha, n_max):
    # the basis walk is exact on every spec, even where it would hand off, but
    # without a contracting second root its vector states outnumber the level
    # walk's int states: at most three rows keep the automaton small
    want = _walk_series(_LevelWalk, spec, alpha, n_max)
    assert _walk_series(NoHandOff, spec, alpha, n_max) == want


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spec=pisot_specs(), alpha=alphas, n_max=st.integers(7, 20))
def test_pisot_basis_walk_matches_level_walk(spec, alpha, n_max):
    # single terms over Brauer recurrences, offsets up to 5, up to four rows,
    # deep; the basis walk also where the spec hands off
    assert basis_walk_applies(spec)
    want = _walk_series(_LevelWalk, spec, alpha, n_max)
    assert corr_series(spec, CorrSpec(alpha), n_max) == want
    assert _walk_series(NoHandOff, spec, alpha, n_max) == want


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=specs(), alpha=alphas, n_max=st.integers(1, 6), data=st.data())
def test_level_walk_values_out_of_order(spec, alpha, n_max, data):
    # v(n) descending, or shuffled, reads the states that earlier calls put in
    # the level tables; a second pass finds every start state there, so it
    # stores nothing more
    alpha = alpha[next(j for j, a in enumerate(alpha) if a) :]
    want = _LevelWalk(spec, alpha, n_max).series()
    shuffled = data.draw(st.permutations(range(n_max + 1)))
    for order in (range(n_max, -1, -1), shuffled):
        walk = _LevelWalk(spec, alpha, n_max)
        assert [walk.value(n) for n in order] == [want[n] for n in order]
        stored = walk.meter.used
        assert walk.series() == want
        assert walk.meter.used == stored


def test_basis_walk_routing():
    # Brauer recurrences start the basis walk: the presets, the depth probe,
    # k-bonacci at offset 0, Stern, the windows and a prefactor instance; at
    # depth 12 it finishes all but k-bonacci at offset 0 for k >= 3, whose
    # equal first exponents hand the spec off to the level walk
    hpn_prefactor = ProductSpec(exponent_seq=kbonacci(2), n=0, offset=1, prefactor=CoeffPoly([1, 1]))
    basis = [kbonacci_product_spec(k, 0, t=t) for k in (2, 3, 4, 5) for t in (1, T)]
    basis += [fibonacci_product_spec(0, t=-1), hpn_prefactor, stern_product_spec(0)]
    basis += [ProductSpec(exponent_seq=kbonacci(2), n=0)]
    basis += [ProductSpec(exponent_seq=kbonacci(2), n=0, h=h, a=(0, 1, 1)[3 - h :]) for h in (2, 3)]
    handed = [ProductSpec(exponent_seq=kbonacci(k), n=0) for k in (3, 4, 5)]
    # the others take the level walk: periodic, constant and other non-Pisot
    # recurrences, and Pisot ones outside Brauer's condition
    controls = [RecurrentSeq(c, (1,) * len(c)) for c in ((1, 0, 1), (0, 1, 1), (0, 1), (1,), (1, 2), (0, 2))]
    level = [ProductSpec(exponent_seq=seq, n=0, offset=2 if seq.order == 3 else 0) for seq in controls]
    level += [ProductSpec(exponent_seq=RecurrentSeq((1, 0, 0, 1), (1, 1, 1, 1)), n=0, h=2, a=(1, 1))]
    assert [basis_walk_applies(spec) for spec in basis + handed] == [True] * len(basis + handed)
    assert [basis_walk_applies(spec) for spec in level] == [False] * len(level)
    finished = []

    def spy(walk_class):
        real = walk_class.series

        def series(walk):
            out = real(walk)
            finished.append((walk_class, walk.spec))
            return out

        return series

    with pytest.MonkeyPatch.context() as patch:
        for walk_class in (_BasisWalk, _LevelWalk):
            patch.setattr(walk_class, "series", spy(walk_class))
        for spec in basis + handed + level:
            corr_series(spec, CorrSpec((2,)), 12)
    assert finished == [(_BasisWalk, spec) for spec in basis] + [(_LevelWalk, spec) for spec in handed + level]


def test_equal_exponents_hand_off_to_level_walk():
    # k = 5 at offset 0 opens with five factors (1 + x): the basis walk meets
    # a new state used at fewer than five levels and hands the spec off
    spec = ProductSpec(exponent_seq=kbonacci(5), n=0)
    with pytest.raises(_HandOff):
        _BasisWalk(spec, (7,), 20).series()
    want = pure_corr_series(spec, CorrSpec((7,)), 20)
    assert _level_walk_run([(spec, (7,), 20)]) == ([want], [spec])


def _level_walk_run(cases):
    """The series of ``cases`` (spec, alpha, n_max), and the specs among them
    whose series ran the level walk."""
    calls = []
    real = _LevelWalk.series

    def series(walk):
        calls.append(walk.spec)
        return real(walk)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_LevelWalk, "series", series)
        values = [corr_series(spec, CorrSpec(alpha), n_max) for spec, alpha, n_max in cases]
    return values, calls


def test_workload_specs_stay_on_basis_walk():
    # what the checks, the scans and the depth probe walk never hands off
    cases = [(kbonacci_product_spec(k, 0, t=t), (r,), 28) for k in (2, 3, 4) for r in range(2, 8) for t in (1, T)]
    cases += [
        (stern_product_spec(0), (2,), 18),
        (ProductSpec(exponent_seq=kbonacci(2), n=0, h=3, a=(0, 1, 1)), (2,), 36),
        (ProductSpec(exponent_seq=kbonacci(2), n=0, h=2, a=(1, 1)), (2,), 30),
        (ProductSpec(exponent_seq=kbonacci(2), n=0, offset=1, prefactor=CoeffPoly([1, 1])), (2,), 30),
        (fibonacci_product_spec(0, t=-1), (2,), 25),
        (kbonacci_product_spec(4, 0), (2,), 200),
    ]
    assert _level_walk_run(cases)[1] == []


def test_found_specs_hand_off_and_match_level_walk():
    # wide prefactors, a tetranacci window and k = 5 at offset 0: many vector
    # states share one int state per level, so the level walk finishes them
    cases = [
        (ProductSpec(exponent_seq=kbonacci(4), n=0, h=2, a=(1, 1), offset=3), (4,), 8),
        (replace(fibonacci_product_spec(0), prefactor=CoeffPoly([1] * 12)), (2, 0, 2), 8),
        (ProductSpec(exponent_seq=kbonacci(5), n=0), (7,), 8),
        (replace(kbonacci_product_spec(3, 0), prefactor=CoeffPoly([1] * 12)), (4,), 8),
    ]
    for spec, alpha, n_max in cases:
        assert basis_walk_applies(spec)
        with pytest.raises(_HandOff):
            _BasisWalk(spec, alpha[next(j for j, a in enumerate(alpha) if a) :], n_max).series()
    values, calls = _level_walk_run(cases)
    assert calls == [spec for spec, _, _ in cases]
    assert values == [pure_corr_series(spec, CorrSpec(alpha), n_max) for spec, alpha, n_max in cases]


def test_named_specs_match_level_walk():
    # the windows and offsets the program now walks in the basis, at the
    # depths it walks them (the criterion-17 controls are not Brauer and keep
    # the level walk)
    cases = [
        (stern_product_spec(0), 18),
        (ProductSpec(exponent_seq=kbonacci(2), n=0, h=3, a=(0, 1, 1)), 36),
        (ProductSpec(exponent_seq=kbonacci(2), n=0, h=2, a=(1, 1)), 30),
    ]
    cases += [(ProductSpec(exponent_seq=kbonacci(k), n=0), 28) for k in (2, 3, 4, 5)]
    for spec, n_max in cases:
        assert corr_series(spec, CorrSpec((2,)), n_max) == _walk_series(_LevelWalk, spec, (2,), n_max), spec
    # f_1 = f_2: the first factor's terms cancel, the others differ in sign
    cancelling = ProductSpec(exponent_seq=kbonacci(2), n=0, h=2, a=(1, -1))
    want = pure_corr_series(cancelling, CorrSpec((2,)), 14)
    assert corr_series(cancelling, CorrSpec((2,)), 14) == want


def _unpruned_series(spec, alpha, n_max):
    # unpruned, every state is alive everywhere, so the new states of the last
    # depths would always hand off
    class Unpruned(NoHandOff):
        def __init__(self, *args):
            super().__init__(*args)
            # a slack no pair difference reaches: every state is alive at every level
            self.slack = [1 << 64] * len(self.slack)

    return _walk_series(Unpruned, spec, alpha, n_max)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=specs(), alpha=alphas, n_max=st.integers(0, 3))
def test_pruning_drops_no_tuple(spec, alpha, n_max):
    assert corr_series(spec, CorrSpec(alpha), n_max) == _unpruned_series(spec, alpha, n_max)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=pisot_specs(), alpha=alphas, n_max=st.integers(0, 3))
def test_basis_pruning_drops_no_tuple(spec, alpha, n_max):
    assert corr_series(spec, CorrSpec(alpha), n_max) == _unpruned_series(spec, alpha, n_max)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spec=st.one_of(specs(), pisot_specs(), window_specs()), n_max=st.integers(0, 12))
def test_basis_walk_bounds_match_factor_terms(spec, n_max):
    # both walks read one slack, from each factor's largest exponent once
    # factor_terms sums equal exponents and drops zero sums
    walk = _BasisWalk(spec, (2,), n_max)
    want = [walk.ends[1] - walk.ends[0]]
    for i in range(1, n_max + 1):
        want.append(want[-1] + max((e for _, e in spec.factor_terms(i)), default=0))
    assert walk.slack == want
    assert _LevelWalk(spec, (2,), n_max).slack == want


def test_basis_walk_rejects_exponents_below_one():
    # as factor_terms does: Fibonacci from (0, 1), and from (2, -1) whose second term is -1
    for init, message in (((0, 1), "factor 1: exponent 0 at index 1"), ((2, -1), "factor 2: exponent -1 at index 2")):
        spec = ProductSpec(exponent_seq=RecurrentSeq((1, 1), init), n=0)
        with pytest.raises(ValueError, match=message):
            _BasisWalk(spec, (2,), 6)


def test_level_walk_rejects_exponents_below_one():
    # f_{i+1} = f_{i-1} is not Brauer, so only the level walk runs; from (0, 1)
    # factor 1 reads exponent 0, at any depth that reaches it
    spec = ProductSpec(exponent_seq=RecurrentSeq((0, 1), (0, 1)), n=0)
    assert not basis_walk_applies(spec)
    for n_max in (1, 6):
        with pytest.raises(ValueError, match="factor 1: exponent 0 at index 1 must be >= 1"):
            corr_series(spec, CorrSpec((2,)), n_max)


def test_basis_walk_cap_names_limiting_n(monkeypatch):
    # a wide prefactor keeps hundreds of states alive: the breadth-first
    # build passes the cap at a depth, and every n below it runs
    spec = replace(fibonacci_product_spec(0), prefactor=CoeffPoly([1] * 8))
    assert basis_walk_applies(spec)
    monkeypatch.setenv("RGF_MAX_MEM_MB", "1")
    with pytest.raises(ResourceLimitError) as err:
        _walk_series(NoHandOff, spec, (4,), 30)
    assert err.value.limit_n is not None
    reach = err.value.limit_n - 1
    assert 0 < reach < 30
    assert _walk_series(NoHandOff, spec, (4,), reach) == pure_corr_series(spec, CorrSpec((4,)), reach)
    # the spec hands off, and the level walk fits the cap
    assert corr_series(spec, CorrSpec((4,)), 30) == _walk_series(_LevelWalk, spec, (4,), 30)
    # on the public path: the Z[t] seventh powers of the depth probe's spec
    probe = kbonacci_product_spec(4, 0, t=T)
    with pytest.raises(ResourceLimitError) as err:
        corr_series(probe, CorrSpec((7,)), 200)
    assert err.value.limit_n == 35  # the level tables pass the cap, not the build
    reach = err.value.limit_n - 1
    assert corr_series(probe, CorrSpec((7,)), reach)[:9] == pure_corr_series(probe, CorrSpec((7,)), 8)


def test_basis_walk_charges_are_pinned():
    # the depth probe and the r = 7 power sums at k = 4 store exactly these
    # recorded estimates, so any change to the charges shows here
    for alpha, n_max, stored in (((2,), 200, 25012), ((7,), 34, 140452)):
        walk = _BasisWalk(kbonacci_product_spec(4, 0), alpha, n_max)
        walk.series()
        assert walk.meter.used == stored, alpha


def test_basis_states_are_charged_by_size():
    # wide prefactors keep hundreds of states alive (they would hand off, so
    # they run without it); with six rows, symbolic weights or a three-term
    # window over Z[t] (101 states, 1,403 links, weights and table values
    # that grow with the depth), what the automaton, its pair masks and its
    # two tables hold stays under the charge per state and per successor
    # link plus twice the size of the weights and table values
    window = ProductSpec(exponent_seq=kbonacci(2), n=0, h=3, a=(T, T, T))
    cases = (
        (NoHandOff, replace(fibonacci_product_spec(0), prefactor=CoeffPoly([1] * 5)), (6,), 12),
        (NoHandOff, replace(fibonacci_product_spec(0, t=T), prefactor=CoeffPoly([1] * 8)), (4,), 8),
        (_BasisWalk, window, (3,), 14),
    )
    for walk_class, spec, alpha, n_max in cases:
        tracemalloc.start()
        try:
            walk = walk_class(spec, alpha, n_max)
            walk.series()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(walk.alive) > 100, alpha
        assert peak < walk.meter.used, (alpha, peak, walk.meter.used)


def test_deep_square_sums_match_closed_forms():
    # far beyond what a dense product reaches: v_2^(k)(n) to n = 120
    for k in (2, 3, 4):
        want = closed_form("vk2n", k=k, t=1).series(121)
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
    units = [set(p.dense_coefficients()) <= {-1, 0, 1} for p in partial_products(replace(spec, n=n_max))]
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

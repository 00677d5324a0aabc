import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibgf.carry
import fibgf.stream
from fibgf.carry import carry_residue_series
from fibgf.catalog import closed_form
from fibgf.errors import ResourceLimitError
from fibgf.polynomials import (
    CoeffPoly,
    ProductSpec,
    TPoly,
    build_product,
    fibonacci_product_spec,
    kbonacci_product_spec,
    stern_product_spec,
)
from fibgf.sequences import RecurrentSeq, fibonacci
from fibgf.stats import CorrSpec, corr_series, corr_sum, residue_series
from oracle import pure_corr_series, pure_residue_series


def _fresh_python(code: str) -> int:
    """Exit status of ``code`` run in a fresh interpreter that imports this fibgf."""
    src = str(Path(fibgf.stream.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code], env=env).returncode


def test_import_leaves_numpy_unloaded():
    # stats and poset import the numpy stream on first use, so set-up stays light
    assert _fresh_python("import sys, fibgf; sys.exit('numpy' in sys.modules)") == 0


def test_corr_spec_validation():
    with pytest.raises(ValueError):
        CorrSpec(())
    with pytest.raises(ValueError):
        CorrSpec((0, 0))
    with pytest.raises(ValueError):
        CorrSpec((1, -1))


def test_corr_sum_examples():
    assert corr_sum(build_product(fibonacci_product_spec(3)), CorrSpec((2,))) == 10
    assert corr_sum(build_product(fibonacci_product_spec(1)), CorrSpec((1, 1))) == 1
    assert corr_sum(build_product(fibonacci_product_spec(0)), CorrSpec((2,))) == 1
    assert corr_sum(build_product(fibonacci_product_spec(4)), CorrSpec((2,))) == 24


def test_corr_series_examples():
    assert corr_series(fibonacci_product_spec(0), CorrSpec((2,)), 5) == [1, 2, 4, 10, 24, 60]
    assert corr_series(stern_product_spec(0), CorrSpec((2,)), 2) == [1, 3, 13]
    spec = fibonacci_product_spec(0)
    assert corr_series(spec, CorrSpec((2,)), 0) == [1]


def test_alpha_one_equals_value_at_one():
    # sum of coefficients equals prod (1 + sum a_j) for 0/1-weight products
    for n in range(0, 10):
        p = build_product(fibonacci_product_spec(n))
        assert corr_sum(p, CorrSpec((1,))) == 2**n
    for n in range(0, 7):
        p = build_product(stern_product_spec(n))
        assert corr_sum(p, CorrSpec((1,))) == 3**n


def test_palindromic_alpha_reversal_invariance():
    rng = random.Random(3)
    p = build_product(fibonacci_product_spec(8))
    rev = CoeffPoly(p.dense_coefficients()[::-1])
    for alpha in ((2,), (1, 1), (1, 2, 1), (2, 0, 2), (3,)):
        spec = CorrSpec(alpha)
        assert corr_sum(p, spec) == corr_sum(rev, spec), alpha
    # non-palindromic alphas may differ; no assertion


def test_window_beyond_degree_is_zero():
    p = build_product(fibonacci_product_spec(0))  # just 1
    assert corr_sum(p, CorrSpec((1, 1))) == 0  # c(0) * c(1) = 0


def test_engines_agree():
    specs = [
        fibonacci_product_spec(0),
        fibonacci_product_spec(0, t=-1),
        stern_product_spec(0),
        kbonacci_product_spec(3, 0),
        ProductSpec(exponent_seq=RecurrentSeq((1, 1), (1, 1)), n=0, h=3, a=(0, 1, 1)),
        ProductSpec(exponent_seq=RecurrentSeq((1, 1), (1, 1)), n=0, h=1, a=(1,), offset=1,
                    prefactor=CoeffPoly([1, 1])),
        # |a_j| > 1 and a negative a_j: multinomial weights beyond +-1
        ProductSpec(exponent_seq=RecurrentSeq((1, 1), (1, 1)), n=0, h=2, a=(2, -3)),
    ]
    alphas = [(2,), (3,), (7,), (1, 1), (2, 1), (1, 0, 1), (2, 2)]
    for spec in specs:
        for alpha in alphas:
            a = CorrSpec(alpha)
            assert pure_corr_series(spec, a, 9) == corr_series(spec, a, 9)


def test_walk_agrees_on_mixed_alphas():
    alphas = [(2,), (1, 1), (3,), (1, 0, 2), (5,)]
    specs = [
        fibonacci_product_spec(0),
        ProductSpec(exponent_seq=RecurrentSeq((1, 1), (1, 1)), n=0, h=2, a=(2, -3)),
    ]
    for spec in specs:
        for alpha in alphas:
            assert corr_series(spec, CorrSpec(alpha), 10) == pure_corr_series(spec, CorrSpec(alpha), 10)


def test_walk_agrees_with_large_values():
    # the three-term window product's coefficients grow fast
    spec = ProductSpec(exponent_seq=RecurrentSeq((1, 1), (1, 1)), n=0, h=3, a=(0, 1, 1))
    pure = pure_corr_series(spec, CorrSpec((1, 1)), 12)
    assert corr_series(spec, CorrSpec((1, 1)), 12) == pure


def test_residue_count_examples():
    # (1 + x)(1 + x^2) has four odd coefficients; the empty product one
    rows = pure_residue_series(fibonacci_product_spec(0), 2, 2)
    assert rows[2] == [0, 4]
    assert rows[0] == [0, 1]
    assert residue_series(fibonacci_product_spec(0), 2, 2) == rows
    with pytest.raises(ValueError):
        residue_series(fibonacci_product_spec(0), 1, 2)
    with pytest.raises(ValueError):
        residue_series(fibonacci_product_spec(0, t=TPoly.t()), 2, 2)


def test_residue_series_row_sum_identity():
    for m in (2, 3, 4):
        rows = residue_series(fibonacci_product_spec(0), m, 25)
        assert sum(rows[0]) == 1
        for n in range(1, 26):
            assert sum(rows[n]) == fibonacci(n + 3) - 1


def test_odd_counts_equal_alternating_nonzero_counts():
    # coefficients of the weight -1 product are the mod-2 reductions of the
    # plain product, so h(2,1) equals the count of nonzero alternating-sign
    # coefficients, which equals its squared sum
    odd = [row[1] for row in residue_series(fibonacci_product_spec(0), 2, 20)]
    v2m1 = corr_series(fibonacci_product_spec(0, t=-1), CorrSpec((2,)), 20)
    assert odd == v2m1


def test_residue_engines_agree():
    spec = fibonacci_product_spec(0)
    for m in (2, 3, 4, 129, 256, 1000):
        assert pure_residue_series(spec, m, 14) == residue_series(spec, m, 14), m
    # negative coefficients reduce correctly mod m
    spec = fibonacci_product_spec(0, t=-1)
    assert pure_residue_series(spec, 3, 12) == residue_series(spec, 3, 12)
    # a_2 = 2 vanishes mod 2 on the largest exponent, which still pads the length
    spec = ProductSpec(exponent_seq=RecurrentSeq((1, 1), (1, 1)), n=0, h=2, a=(1, 2))
    assert pure_residue_series(spec, 2, 12) == residue_series(spec, 2, 12)
    # -3x + 3x cancels over Z, so the factor is 1 and the degree does not grow
    spec = ProductSpec(exponent_seq=RecurrentSeq((1,), (1,)), n=0, h=2, a=(-3, 3))
    assert residue_series(spec, 3, 4) == pure_residue_series(spec, 3, 4) == [[0, 1, 0]] * 5
    # a_1 = -1 is 65536 mod 65537, so the sums need uint64 arrays; past m = 2^32 they overflow it
    spec = fibonacci_product_spec(0, t=-1)
    assert pure_residue_series(spec, 65537, 10) == residue_series(spec, 65537, 10)
    with pytest.raises(ValueError, match="past uint64"):
        residue_series(spec, 2**32 + 1, 0)
    # a zero prefactor gives all-zero rows
    spec = ProductSpec(exponent_seq=RecurrentSeq((1, 1), (1, 1)), n=0, prefactor=CoeffPoly([0]))
    assert residue_series(spec, 3, 6) == pure_residue_series(spec, 3, 6) == [[0, 0, 0]] * 7
    # a symbolic weight is rejected with one message
    with pytest.raises(ValueError, match="^residue counts need integer coefficients; specialize t first$"):
        residue_series(fibonacci_product_spec(0, t=TPoly.t()), 2, 4)


@st.composite
def residue_specs(draw, max_m=5):
    """An integer spec and a modulus m whose coefficient on the largest
    exponent is a nonzero multiple of m."""
    m = draw(st.integers(2, max_m))
    order = draw(st.integers(1, 2))
    # c_1 >= 1, the other c_j >= 0 and a sorted init: a nondecreasing sequence,
    # so the last of the terms f_i..f_{i+h-1} is the largest
    seq = RecurrentSeq(
        coeffs=(draw(st.integers(1, 2)),)
        + tuple(draw(st.lists(st.integers(0, 2), min_size=order - 1, max_size=order - 1))),
        init=tuple(sorted(draw(st.lists(st.integers(1, 3), min_size=order, max_size=order)))),
    )
    h = draw(st.integers(1, 3))
    a = tuple(draw(st.lists(st.integers(-3, 3), min_size=h - 1, max_size=h - 1)))
    a += (m * draw(st.sampled_from((-2, -1, 1, 2))),)
    prefactor = None
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4).filter(any))
        prefactor = CoeffPoly(coeffs, base=draw(st.integers(0, 2)))
    spec = ProductSpec(exponent_seq=seq, n=0, h=h, a=a, offset=draw(st.integers(0, 2)), prefactor=prefactor)
    return spec, m


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=residue_specs(), n_max=st.integers(0, 7))
def test_residue_engines_agree_with_vanishing_top_coefficient(case, n_max):
    spec, m = case
    pure = pure_residue_series(spec, m, n_max)
    # blocks shorter than, equal to and longer than the exponents, so that
    # multi-term factors read from the block they write
    for chunk in (fibgf.stream.CHUNK, 1, 2, 3, 7):
        with patch.object(fibgf.stream, "CHUNK", chunk):
            assert fibgf.stream.residue_series_fast(spec, m, n_max) == pure, chunk


@st.composite
def carry_specs(draw):
    """residue_specs' space for m up to 7, with any top coefficient (0
    included) and with factors whose equal exponents cancel over Z."""
    spec, m = draw(residue_specs(max_m=7))
    if draw(st.booleans()):
        spec = replace(spec, a=spec.a[:-1] + (draw(st.integers(-3, 3)),))
    if draw(st.booleans()):
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        seq = RecurrentSeq((1,), (draw(st.integers(1, 3)),))
        spec = replace(spec, exponent_seq=seq, h=3, a=(c, draw(st.integers(-2, 2)), -c))
    return spec, m


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=carry_specs(), n_max=st.integers(0, 9))
def test_carry_automaton_matches_pure_engine(case, n_max):
    spec, m = case
    assert carry_residue_series(spec, m, n_max) == pure_residue_series(spec, m, n_max)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=carry_specs(), n_max=st.integers(1, 8), data=st.data())
def test_carry_rows_out_of_order(case, n_max, data):
    # rows descending, or shuffled, read the states that earlier rows put in
    # the tables; a second pass finds every start state there, so it stores
    # and spends nothing more
    spec, m = case
    want = carry_residue_series(spec, m, n_max)
    shuffled = data.draw(st.permutations(range(n_max + 1)))
    for order in (range(n_max, -1, -1), shuffled):
        automaton = fibgf.carry._Carry(replace(spec, n=n_max), m, None)
        assert [automaton.row(n) for n in order] == [want[n] for n in order]
        stored, work = automaton.meter.used, automaton.work
        assert [automaton.row(n) for n in range(n_max + 1)] == want
        assert (automaton.meter.used, automaton.work) == (stored, work)


def test_carry_automaton_matches_pure_engine_on_presets():
    specs = (
        fibonacci_product_spec(0),
        fibonacci_product_spec(0, t=-1),
        fibonacci_product_spec(0, t=2),
        kbonacci_product_spec(3, 0),
        stern_product_spec(0),
    )
    for spec in specs:
        for m in (2, 3, 4, 7):
            assert carry_residue_series(spec, m, 14) == pure_residue_series(spec, m, 14), (spec, m)
    # a zero prefactor gives all-zero rows, though the factors still have digits
    zero = replace(fibonacci_product_spec(0), prefactor=CoeffPoly([0]))
    assert carry_residue_series(zero, 3, 6) == [[0, 0, 0]] * 7


def test_residue_series_reaches_catalog_forms_at_depth_100():
    # the stream would need about 10^21 coefficients here
    depth = 100
    for k in (2, 3, 4):
        data = [row[1] for row in residue_series(kbonacci_product_spec(k, 0), 2, depth)]
        assert data == closed_form("Hk21", k=k).series(depth + 1), k
    for k, name in ((2, "H31k2"), (3, "H31k3")):
        data = [row[1] for row in residue_series(kbonacci_product_spec(k, 0), 3, depth)]
        assert data == closed_form(name).series(depth + 1), name
    for m in (2, 3, 4):
        rows = residue_series(fibonacci_product_spec(0), m, depth)
        for a in range(m):
            assert [row[a] for row in rows] == closed_form("H", m=m, a=a).series(depth + 1), (m, a)


def test_slow_recurrence_hands_off_to_stream():
    # f_{i+1} = f_i + f_{i-3}: the carries outgrow the stream's coefficient
    # count, so the stream counts the series
    spec = ProductSpec(exponent_seq=RecurrentSeq((1, 0, 0, 1), (1, 1, 1, 1)), n=0)
    with patch.object(fibgf.stream, "residue_series_fast", wraps=fibgf.stream.residue_series_fast) as fast:
        rows = residue_series(spec, 2, 20)
    assert fast.call_count == 1
    assert rows == pure_residue_series(spec, 2, 20)


def test_carry_states_are_charged_by_size():
    # many carries per state (f_{i+1} = f_i + f_{i-3} mod 2), or many classes
    # per state (a prefactor of degree 100 mod 1000, where the tables hold
    # about 2,300 bytes a state): the estimate covers what the tables hold
    slow = ProductSpec(exponent_seq=RecurrentSeq((1, 0, 0, 1), (1, 1, 1, 1)), n=0)
    long = replace(fibonacci_product_spec(0), prefactor=CoeffPoly(list(range(1, 102))))
    for spec, m, n_max in ((slow, 2, 20), (long, 1000, 10)):
        tracemalloc.start()
        try:
            automaton = fibgf.carry._Carry(replace(spec, n=n_max), m, None)
            for n in range(n_max + 1):
                automaton.row(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < automaton.meter.used, (m, peak, automaton.meter.used)


def test_carry_charges_are_pinned(monkeypatch):
    # conj-h-k's five series spend and store exactly these recorded amounts,
    # so any change to the charges shows here
    pins = {(2, 2, 22): (1621, 193500), (3, 2, 22): (2272, 250850), (4, 2, 22): (2719, 297600),
            (2, 3, 30): (6070, 647100), (3, 3, 30): (8751, 829400)}
    for (k, m, n_max), pin in pins.items():
        spec = replace(kbonacci_product_spec(k, 0), n=n_max)
        automaton = fibgf.carry._Carry(spec, m, None)
        for n in range(n_max + 1):
            automaton.row(n)
        assert (automaton.work, automaton.meter.used) == pin, (k, m)
    # in a fresh interpreter, as the command line runs, the automaton passes
    # the cap at n = 21, after the stream (19)
    monkeypatch.setenv("RGF_MAX_MEM_MB", "1")
    code = (
        "from fibgf.errors import ResourceLimitError\n"
        "from fibgf.polynomials import kbonacci_product_spec\n"
        "from fibgf.stats import residue_series\n"
        "try:\n"
        "    residue_series(kbonacci_product_spec(4, 0), 5, 200)\n"
        "except ResourceLimitError as err:\n"
        "    raise SystemExit(err.limit_n != 21)\n"
        "raise SystemExit(1)\n"
    )
    assert _fresh_python(code) == 0


def test_stream_budget_is_the_same_with_numpy_loaded():
    # the budget reads the series alone: numpy's import is charged in a fresh
    # interpreter, as the command line runs, and after numpy is loaded
    sizes = (0, 249, 1000, 10**6, 9_227_431)
    want = [(60_000 + c // 250) // 4 for c in sizes]
    code = (
        "import sys\n"
        "from fibgf.carry import stream_budget\n"
        f"fresh = [stream_budget(c) for c in {sizes!r}]\n"
        "assert 'numpy' not in sys.modules\n"
        "import numpy\n"
        f"sys.exit(fresh != {want!r} or [stream_budget(c) for c in {sizes!r}] != fresh)"
    )
    assert _fresh_python(code) == 0
    import numpy  # noqa: F401

    assert [fibgf.carry.stream_budget(c) for c in sizes] == want


def test_kbonacci_residues_never_call_stream():
    # in a fresh interpreter, as the command line runs, numpy's import is
    # charged to the stream and every preset stays on the automaton
    code = (
        "import sys\n"
        "from unittest.mock import patch\n"
        "import fibgf.stream\n"
        "from fibgf.polynomials import kbonacci_product_spec\n"
        "from fibgf.stats import residue_series\n"
        "fail = AssertionError('the stream was called')\n"
        "with patch.object(fibgf.stream, 'residue_series_fast', side_effect=fail):\n"
        "    for k in (2, 3, 4):\n"
        "        for m in (2, 3):\n"
        "            for n_max in (12, 22, 30):\n"
        "                residue_series(kbonacci_product_spec(k, 0), m, n_max)\n"
        "sys.exit('numpy' in sys.modules)\n"
    )
    assert _fresh_python(code) == 0


def test_kbonacci_residues_hand_off_with_numpy_loaded():
    # in one process that has numpy loaded, as the benchmark worker runs the
    # scans, the budget still charges numpy's import, so no preset hands off:
    # the series that went to the stream when the budget read sys.modules
    # (every n = 12 row and k = 2, n = 22) now come from the automaton
    import numpy  # noqa: F401

    fast = fibgf.stream.residue_series_fast
    rows, handed_off = {}, []
    for k in (2, 3, 4):
        for m in (2, 3):
            for n_max in (12, 22, 30):
                with patch.object(fibgf.stream, "residue_series_fast", side_effect=fast) as spy:
                    rows[k, m, n_max] = residue_series(kbonacci_product_spec(k, 0), m, n_max)
                if spy.called:
                    handed_off.append((k, m, n_max))
    assert handed_off == []
    for k, m, n_max in rows:
        if n_max == 12 or (k, n_max) == (2, 22):
            assert rows[k, m, n_max] == pure_residue_series(kbonacci_product_spec(k, 0), m, n_max), (k, m, n_max)


def test_kbonacci_residues_leave_numpy_unloaded():
    code = (
        "import sys\n"
        "from fibgf.polynomials import kbonacci_product_spec\n"
        "from fibgf.stats import residue_series\n"
        "residue_series(kbonacci_product_spec(3, 0), 3, 30)\n"
        "sys.exit('numpy' in sys.modules)"
    )
    assert _fresh_python(code) == 0


def test_residue_counts_span_chunks(monkeypatch):
    spec = kbonacci_product_spec(3, 0)
    pure = pure_residue_series(spec, 3, 12)
    monkeypatch.setattr(fibgf.stream, "CHUNK", 7)
    assert fibgf.stream.residue_series_fast(spec, 3, 12) == pure


def test_residue_stream_holds_one_array(monkeypatch):
    # one byte per coefficient of the last product plus a few block
    # temporaries; a fresh array per factor would hold about twice the data
    monkeypatch.setattr(fibgf.stream, "CHUNK", 1 << 16)
    spec = kbonacci_product_spec(3, 0)
    length = replace(spec, n=26).degree_bound() + 1
    tracemalloc.start()
    try:
        fibgf.stream.residue_series_fast(spec, 3, 26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < length + 16 * fibgf.stream.CHUNK, (peak, length)


def test_memory_guard_names_limiting_n(monkeypatch):
    # exponents 1, 1, 1, ...: the product is (1 + x)^n and the walk's states
    # grow without bound
    spec = ProductSpec(exponent_seq=RecurrentSeq((1,), (1,)), n=0)
    monkeypatch.setenv("RGF_MAX_MEM_MB", "1")
    with pytest.raises(ResourceLimitError) as err:
        corr_series(spec, CorrSpec((3,)), 80)
    assert err.value.limit_n is not None
    reach = err.value.limit_n - 1
    assert 0 < reach < 80
    assert corr_series(spec, CorrSpec((3,)), reach) == pure_corr_series(spec, CorrSpec((3,)), reach)


def test_symbolic_series_walk_matches_pure():
    t = TPoly.t()
    spec = fibonacci_product_spec(0, t=t)
    vals = corr_series(spec, CorrSpec((2,)), 4)
    assert vals[2] == TPoly((1, 0, 2, 0, 1))  # 1 + 2t^2 + t^4
    assert vals == pure_corr_series(spec, CorrSpec((2,)), 4)


def test_residue_rows_are_charged(monkeypatch):
    # both engines return n_max + 1 rows of m counts: at m = 10^6 one row
    # passes 1 MB, so neither runs; at m = 10^4 the rows and states pass it
    # later, and the n before the merged limit_n runs
    monkeypatch.setenv("RGF_MAX_MEM_MB", "1")
    spec = fibonacci_product_spec(0)
    assert fibgf.stream.stream_plan(spec, 10**6, 3).limit == 0
    for run in (fibgf.stream.residue_series_fast, fibgf.carry.carry_residue_series, residue_series):
        with pytest.raises(ResourceLimitError) as err:
            run(spec, 10**6, 3)
        assert err.value.limit_n == 0, run
    with pytest.raises(ResourceLimitError) as err:
        residue_series(spec, 10**4, 40)
    limit = err.value.limit_n
    assert 0 < limit < 40
    assert residue_series(spec, 10**4, limit - 1) == pure_residue_series(spec, 10**4, limit - 1)

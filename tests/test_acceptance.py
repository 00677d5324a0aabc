"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact; every comparison is equality.  Criteria with a
stated wall-clock budget assert it.  Criterion 18 is a known honest failure:
its seed list contains the Lucas start (2,1), which is a genuine
counterexample to the cross-seed invariance it asserts (see the test docstring
for the exhaustively verified divergence).
"""

import time

from fibgf.catalog import MULTI_INDEX_ALPHAS, closed_form
from fibgf.checks import kbonacci_power_sums, run_check
from fibgf.guess import guess_rational
from fibgf.polynomials import ProductSpec, fibonacci_product_spec
from fibgf.poset import (
    frontier_poset,
    label_sequence_checks,
    sigma_labels,
    upho_check,
)
from fibgf.sequences import RecurrentSeq, fibonacci
from fibgf.stats import CorrSpec, corr_series, residue_series
from fibgf.triangle import a_vector, triangle_rows

from test_guess import check_even_part


def criterion(number, label, budget_s=None):
    """Decorator: time the body, print one pass/fail line, assert the budget."""

    def wrap(fn):
        def run():
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                elapsed = time.monotonic() - start
                print(f"criterion {number:02d} [{label}]: FAIL ({elapsed:.1f}s)")
                raise
            elapsed = time.monotonic() - start
            print(f"criterion {number:02d} [{label}]: pass ({elapsed:.1f}s)")
            if budget_s is not None:
                assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"

        run.__name__ = fn.__name__
        return run

    return wrap


@criterion(1, "squared-sum series and exact refit", 30)
def test_criterion_01_squared_sums():
    rep = run_check("verify", "thm1", nmax=25, den_max=10, holdout=6)
    assert rep.status == "pass", rep.details
    # the check refits to the catalog's pair; pin that pair literally
    assert closed_form("thm1").integer_pair() == ((1, 0, -2), (1, -2, -2, 2))


@criterion(2, "doubling-window baseline", 10)
def test_criterion_02_stern_baseline():
    rep = run_check("verify", "stern-u2", nmax=18, den_max=5, holdout=6)
    assert rep.status == "pass", rep.details


@criterion(3, "triangle rows equal product coefficients, symbolic", 60)
def test_criterion_03_rows_equal_products():
    rep = run_check("verify", "hnfn", nmax=20)
    assert rep.status == "pass", rep.details


@criterion(4, "mark-correlation matrix pipeline", 30)
def test_criterion_04_matrix_pipeline():
    rep = run_check("verify", "m-recurrence", nmax=20)
    assert rep.status == "pass" and rep.details["first_valid_index"] == 1, rep.details
    assert rep.details["square_sum_identity"]
    # q2: the mark matrix's characteristic polynomial is the expected one
    assert run_check("verify", "q2").status == "pass"
    v2 = corr_series(fibonacci_product_spec(0), CorrSpec((2,)), 6)
    for row, want in zip(triangle_rows(6, 1), v2[1:]):
        a = a_vector(row)
        assert a[0] + a[1] + a[2] == want


@criterion(5, "three-way weighted square sums, k = 2..5", 120)
def test_criterion_05_three_way_symbolic():
    rep = run_check("verify", "vk2n", ks=(2, 3, 4, 5), nmax=16)
    assert rep.status == "pass", rep.details
    rep2 = run_check("verify", "transfer", ks=(2, 3, 4, 5), nmax=16)
    assert rep2.status == "pass", rep2.details
    assert closed_form("vk2n", k=2, t=1).same_function(closed_form("thm1"))


@criterion(6, "free generation and element counts", 120)
def test_criterion_06_free_generation():
    rep = run_check("verify", "freegen", ks=(2, 3), nmax=12)
    assert rep.status == "pass", rep.details
    counts = rep.details["counts"]
    for k in (2, 3):
        assert counts[k] == closed_form("vk2n", k=k, t=1).series(13)


@criterion(7, "empirical single- and multi-index tables", 120)
def test_criterion_07_empirical_tables():
    series = kbonacci_power_sums(2, (3, 4, 5, 6, 7), 28)
    fitted_forms = {}
    for r in (3, 4, 5, 6, 7):
        cf = closed_form(f"J{r}")
        assert series[r] == cf.series(29), r
        fitted = guess_rational(series[r], den_max=8, holdout=6)
        assert fitted is not None and fitted.integer_pair() == cf.integer_pair(), r
        assert check_even_part(fitted), r
        fitted_forms[r] = fitted
    for alpha in MULTI_INDEX_ALPHAS:
        data = corr_series(fibonacci_product_spec(0), CorrSpec(alpha), 22)
        cf = closed_form("Jalpha", alpha=alpha)
        assert data == cf.series(23), alpha
        fitted = guess_rational(data, den_max=8, holdout=6)
        assert fitted is not None and fitted.integer_pair() == cf.integer_pair(), alpha


@criterion(8, "conjecture scans at depth 28", 180)
def test_criterion_08_conjecture_scans():
    rep = run_check("scan", "conj-v3k", ks=(2, 3, 4), terms=28)
    assert rep.status == "pass", rep.details
    assert rep.details["mode"] == "pass-at-depth"
    rep2 = run_check("scan", "conj-jrkx", ks=(2, 3, 4), rs=(4, 5, 6, 7), terms=28)
    assert rep2.status == "pass", rep2.details
    rep3 = run_check("scan", "conj-drx", kmax=4, terms=28)
    assert rep3.status == "pass", rep3.details
    for r, pattern in rep3.details["pattern"].items():
        assert pattern["status"] == "pass", (r, pattern)


@criterion(9, "alternating-sign product values and matching series")
def test_criterion_09_alternating_signs():
    # zhao: v4 = v2 (every coefficient in {0, +-1}) and v2 = the v2m1 series
    rep = run_check("verify", "zhao", nmax=25)
    assert rep.status == "pass", rep.details
    assert rep.details == {"nmax": 25, "value_set": [-1, 1]}


@criterion(10, "congruence tables")
def test_criterion_10_congruence_tables():
    for m in (2, 3, 4):
        counts = residue_series(fibonacci_product_spec(0), m, 36)
        for a in range(m):
            data = [row[a] for row in counts]
            cf = closed_form("H", m=m, a=a)
            assert data == cf.series(37), (m, a)
            fitted = guess_rational(data, den_max=14, holdout=6)
            assert fitted is not None and fitted.same_function(cf), (m, a)
        if m == 3:
            data31 = [row[1] for row in counts]
            fitted = guess_rational(data31, den_max=12, holdout=6)
            assert fitted is not None and fitted.same_function(closed_form("H31k2"))
    # Hk21 for k = 2..4 at depth 22, H31k2 and H31k3 at depth 30
    rep = run_check("scan", "conj-h-k")
    assert rep.status == "pass", rep.details
    assert rep.details["mode"] == "pass-at-depth"
    hk21 = {k: {"m": 2, "a": 1, "depth": 22} for k in (2, 3, 4)}
    assert rep.details["evidence"] == {**hk21, "2:3,1": {"depth": 30}, "3:3,1": {"depth": 30}}


@criterion(11, "three-term window example at depth 36")
def test_criterion_11_window_example():
    # conj-hpn leads with the window example: series and exact refit at depth 36
    rep = run_check("scan", "conj-hpn", depth=36)
    assert rep.status == "pass", rep.details
    assert rep.details["w_depth"] == 36
    assert rep.details["w_form"] == closed_form("w-example").to_json_dict()


@criterion(12, "poset suite", 60)
def test_criterion_12_poset_suite():
    poset = frontier_poset(2, 3, 18)
    sizes = poset.rank_sizes()
    for n in range(0, 19):
        assert sizes[n] == (fibonacci(n + 3) - 1 if n else 1)
    rep = run_check("verify", "flag-beta")
    assert rep.status == "pass", rep.details
    assert rep.details["beta_12"] == -1
    res = sigma_labels(poset, 13)
    for n in range(1, 14):
        assert sorted(res["sequences"][n]) == list(range(fibonacci(n + 3) - 1))
    checks = label_sequence_checks(res["sequences"], 13)
    assert checks["status"] == "pass"
    assert checks["subsequence_direction_pairs"]
    # the label order agrees with the Zeckendorf-index order under the odd
    # sentinel convention (reading ranks right to left)
    assert ("odd", "reversed") in [tuple(t) for t in checks["order_consistent"]]
    assert upho_check(poset, depth=4, max_rank=2)["status"] == "pass"


@criterion(13, "golden series and run structure")
def test_criterion_13_runs_and_golden():
    rep = run_check("verify", "golden", nmax=16)
    assert rep.status == "pass", rep.details
    rep2 = run_check("verify", "runs", nmax=18)
    assert rep2.status == "pass", rep2.details


@criterion(14, "planar cover-automaton suite")
def test_criterion_14_frontier_suite():
    # phi-rgf: rank sizes of P_{ib} for (2,2), (2,3), (3,2), (3,3) against the
    # phi closed form, and the rows of (3,2) and (2,3) against their products
    rep = run_check("verify", "phi-rgf", nmax=14)
    assert rep.status == "pass", rep.details


@criterion(15, "flag symmetric-function expansions", 60)
def test_criterion_15_symmetric_functions():
    # both checks cover the pairs (2, 2), (2, 3) and (3, 2)
    for name in ("ep-powersum", "ep-forgotten"):
        rep = run_check("verify", name, cap=6)
        assert rep.status == "pass", (name, rep.details)
    experiment = run_check("verify", "ep-powersum", cap=4).details["seed_experiment"]
    # the seed-convention experiment: the literal unit seed must fail
    assert sorted(experiment) == ["2,2", "2,3", "3,2"], experiment
    assert all(v["powersum_seed"] == "pass" and v["unit_seed"] == "fail" for v in experiment.values()), experiment


@criterion(16, "rewrite classes and power sums")
def test_criterion_16_word_classes():
    rep = run_check("verify", "wordclasses", nmax=13)
    assert rep.status == "pass", rep.details


@criterion(17, "negative controls: no fit up to den_max 20")
def test_criterion_17_negative_controls():
    for coeffs in ((1, 0, 1), (0, 1, 1)):
        seq = RecurrentSeq(coeffs=coeffs, init=(1, 1, 1))
        spec = ProductSpec(exponent_seq=seq, n=0, h=1, a=(1,), offset=2)
        data = corr_series(spec, CorrSpec((2,)), 40)
        assert len(data) == 41
        assert guess_rational(data, den_max=20, holdout=6) is None, coeffs
    catalan = [1]
    for i in range(11):
        catalan.append(catalan[-1] * 2 * (2 * i + 1) // (i + 2))
    assert guess_rational(catalan, den_max=3, holdout=6) is None


@criterion(18, "cross-seed invariance (known spec defect: seed (2,1))")
def test_criterion_18_cross_seed_invariance():
    """As stated this criterion is unattainable: the (2,1) seed gives the
    Lucas numbers 2,1,3,4,7,..., and its product's nonzero coefficient
    sequence diverges from the other seeds at n = 4 — already
    (1+x^2)(1+x)(1+x^3)(1+x^4) has coefficients (1,1,1,2,2,2,2,2,1,1,1)
    against (1,1,1,2,1,2,2,1,2,1,1,1) for the seeds with f1 < f2 (verified
    independently by exhaustive subset-sum enumeration).  The test asserts
    the criterion faithfully and is expected to fail."""
    rep = run_check("verify", "exercise-note", nmax=14)
    assert rep.status == "pass", (
        f"{rep.details}: the (2,1) Lucas start is a genuine counterexample to the cross-seed claim"
    )

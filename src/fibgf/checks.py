"""Named verification checks and conjecture scans with uniform reports.

Every check runs a cross-verification at a configurable depth and returns a
``CheckReport``.  Theorem-backed checks report pass/fail; conjecture scans
report evidence ("pass" at the scanned depth, "inconclusive" when a fit does
not exist) and fail only on an actual counterexample.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import combinations

from .catalog import closed_form
from .errors import InvariantError
from .guess import RationalFunc, check_drx_pattern, guess_rational
from .monoid import (
    closed_form_census_series,
    generator_census_series,
    generator_lemma_failure,
    transfer_series,
    word_classes,
)
from .polynomials import (
    CoeffPoly,
    ProductSpec,
    TPoly,
    fibonacci_product_spec,
    golden_partials,
    kbonacci_product_spec,
    partial_products,
    run_lengths,
    stern_product_spec,
)
from .poset import (
    flag_alpha_dp,
    flag_alpha_product,
    flag_vectors,
    frontier_grow,
    frontier_poset,
    label_sequence_checks,
    sigma_labels,
    upho_check,
)
from .sequences import RecurrentSeq, fibonacci, floor_times_phi, kbonacci
from .stats import CorrSpec, corr_series, residue_series
from .symfun import newton_power_sums, tilde_q, verify_forgotten_expansion, verify_powersum_expansion
from .triangle import (
    expected_charpoly,
    mark_matrix_charpoly,
    verify_m_recurrence,
    verify_rows_match_product,
)


@dataclass
class CheckReport:
    check: str
    params: dict
    status: str  # pass | fail | inconclusive | error (a raise in `verify all`)
    details: dict = field(default_factory=dict)
    elapsed_ms: int = 0

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "status": self.status,
            "details": self.details,
            "elapsed_ms": self.elapsed_ms,
        }


def _first_mismatch(a, b):
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return {"n": i, "got": str(x), "want": str(y)}
    if len(a) != len(b):
        return {"n": min(len(a), len(b)), "got": "missing", "want": "missing"}
    return None


# -- power-sum data (shared by the scans and fit suites) ------------------------

def kbonacci_power_sums(k: int, rs: tuple[int, ...], n_max: int) -> dict[int, list[int]]:
    """v_r^{(k)}(n, 1) for n = 0..n_max, one difference walk per r."""
    spec = kbonacci_product_spec(k, 0, t=1)
    return {r: corr_series(spec, CorrSpec((r,)), n_max) for r in rs}


def _fit_failure(data: list, cf: RationalFunc, den_max: int, holdout: int) -> dict | None:
    """Failure details unless ``data`` is the series of the catalog form
    ``cf`` and ``guess_rational`` recovers that form from it; else None."""
    expected = cf.series(len(data))
    if data != expected:
        return {"mismatch": _first_mismatch(data, expected)}
    fitted = guess_rational(data, den_max=den_max, holdout=holdout)
    if fitted is None or fitted.integer_pair() != cf.integer_pair():
        return {"fitted": None if fitted is None else fitted.to_json_dict()}
    return None


# -- verify checks -------------------------------------------------------------

def check_thm1(nmax: int = 25, den_max: int = 10, holdout: int = 6):
    data = corr_series(fibonacci_product_spec(0), CorrSpec((2,)), nmax)
    cf = closed_form("thm1")
    failure = _fit_failure(data, cf, den_max, holdout)
    if failure:
        return "fail", failure
    return "pass", {"terms": nmax + 1, "form": cf.to_json_dict()}


def check_stern_u2(nmax: int = 18, den_max: int = 5, holdout: int = 6):
    data = corr_series(stern_product_spec(0), CorrSpec((2,)), nmax)
    failure = _fit_failure(data, closed_form("stern-u2"), den_max, holdout)
    if failure:
        return "fail", failure
    return "pass", {"terms": nmax + 1}


def check_thm1t(nmax: int = 14):
    t = TPoly.t()
    data = corr_series(fibonacci_product_spec(0, t=t), CorrSpec((2,)), nmax)
    expected = closed_form("thm1t", t="sym").series(nmax + 1)
    if data != expected:
        return "fail", {"mismatch": _first_mismatch(data, expected)}
    return "pass", {"terms": nmax + 1, "symbolic": True}


def check_vk2n(ks: tuple[int, ...] = (2, 3, 4, 5), nmax: int = 16):
    t = TPoly.t()
    for k in ks:
        data = corr_series(kbonacci_product_spec(k, 0, t=t), CorrSpec((2,)), nmax)
        expected = closed_form("vk2n", k=k, t="sym").series(nmax + 1)
        if data != expected:
            return "fail", {"k": k, "mismatch": _first_mismatch(data, expected)}
    if not closed_form("vk2n", k=2, t=1).same_function(closed_form("thm1")):
        return "fail", {"reduction": "k=2, t=1 does not reduce to the cubic form"}
    return "pass", {"ks": list(ks), "terms": nmax + 1, "symbolic": True}


def check_transfer(ks: tuple[int, ...] = (2, 3, 4, 5), nmax: int = 16):
    t = TPoly.t()
    for k in ks:
        census = transfer_series(k, t, nmax)
        product = corr_series(kbonacci_product_spec(k, 0, t=t), CorrSpec((2,)), nmax)
        closed = closed_form("vk2n", k=k, t="sym").series(nmax + 1)
        if census != product or census != closed:
            return "fail", {
                "k": k,
                "census_vs_product": _first_mismatch(census, product),
                "census_vs_closed": _first_mismatch(census, closed),
            }
        if generator_census_series(k, min(nmax, 13)) != closed_form_census_series(k, min(nmax, 13)):
            return "fail", {"k": k, "census": "generator census differs from its closed form"}
    return "pass", {"ks": list(ks), "terms": nmax + 1, "three_way": True}


def check_hnfn(nmax: int = 20):
    """Rows 1..nmax equal the partial products, for symbolic t.

    ``verify_rows_match_product`` checks each row n against row n - 1 times
    1 + t x^{F_{n+1}}, from the empty product, so by induction the rows are
    the products.  It runs on ints at T = 2^(nmax+1), which decides each
    comparison exactly, and so at every t, t = 1 included.  The rows are
    built by a polynomial map in t, so the int rows are the symbolic rows at
    T.  A row-n entry is a sum of at most two row-(n-1) entries times powers
    of t, so, from row 1 = (1, t), each of its t-coefficients lies in
    [0, 2^(n-1)].  An entry of row n - 1 times 1 + t x^F is one row-(n-1)
    entry plus t times another, so its t-coefficients lie in
    [0, 2 * 2^(n-2)] too.  Both sides of the comparison at row n are
    polynomials in t with coefficients in [0, 2^(n-1)], within [0, T), and
    two such polynomials that agree at T agree as polynomials: their values
    at T are base-T numerals.
    """
    verify_rows_match_product(nmax, t=2 ** (nmax + 1))
    return "pass", {"rows": nmax, "symbolic": True}


def check_m_recurrence(nmax: int = 20):
    report = verify_m_recurrence(nmax)
    return report["status"], report


def check_q2():
    got = mark_matrix_charpoly()
    want = expected_charpoly()
    if got != want:
        return "fail", {"got": list(got.c), "want": list(want.c)}
    sums_ok = verify_m_recurrence(6)["square_sum_identity"]
    return ("pass" if sums_ok else "fail"), {"charpoly": list(got.c)}


def check_sigma_labels(nmax: int = 13):
    poset = frontier_poset(2, 3, nmax)
    res = sigma_labels(poset, nmax)
    seq = label_sequence_checks(res["sequences"], nmax)
    status = "pass" if seq["status"] == "pass" else "fail"
    return status, {
        "convention": res["convention"],
        "conventions_passing": res["conventions_passing"],
        "subsequence_direction_pairs": seq["subsequence_direction_pairs"],
        "order_consistent": [list(t) for t in seq["order_consistent"]],
        "nmax": nmax,
    }


def check_flag_beta(depth: int = 6):
    poset = frontier_poset(2, 3, depth)
    fv = flag_vectors(poset, (1, 2))
    if fv["beta"] != -1 or fv["alpha_dp"] != 4:
        return "fail", fv
    for size in range(0, depth + 1):
        for S in combinations(range(1, depth + 1), size):
            if flag_alpha_dp(poset, S) != flag_alpha_product(poset, S):
                return "fail", {"S": list(S), **flag_vectors(poset, S)}
    return "pass", {"beta_12": -1, "alpha_12": 4, "subsets_checked": f"all S in 1..{depth}"}


def check_runs(nmax: int = 18):
    """The n-th golden partial has F_{n+1} maximal unit-step runs, whose
    lengths read the same both ways and, over the first half, are
    1 + floor(i phi) - floor((i-1) phi).  A run not of length 2 or 3 raises
    ``InvariantError`` in ``run_lengths``."""
    partials = golden_partials(nmax)
    next(partials)  # n = 0 has no run
    floors = [floor_times_phi(i) for i in range((fibonacci(nmax + 1) + 1) // 2 + 1)]
    formula = [1 + f - g for f, g in zip(floors[1:], floors)]
    for n, series in enumerate(partials, 1):
        lengths = run_lengths(series)
        count = len(lengths)
        if count != fibonacci(n + 1):
            return "fail", {"n": n, "count": count, "want": fibonacci(n + 1)}
        if lengths != lengths[::-1]:
            return "fail", {"n": n, "palindrome": False}
        half = (count + 1) // 2
        if lengths[:half] != formula[:half]:
            i = next(i for i, (got, want) in enumerate(zip(lengths, formula), 1) if got != want)
            return "fail", {"n": n, "i": i, "got": lengths[i - 1], "want": formula[i - 1]}
    return "pass", {"nmax": nmax, "run_count": "F_{n+1}", "formula": "1+floor(i*phi)-floor((i-1)*phi)"}


def check_golden(nmax: int = 16):
    """Each Z[phi] partial of ``golden_partials`` has the coefficients of the
    Fibonacci partial product of the same n, compared as the product grows;
    the first failing n stops both."""
    pairs = zip(partial_products(fibonacci_product_spec(nmax)), golden_partials(nmax))
    for n, (product, series) in enumerate(pairs):
        gs = series.coefficient_sequence()
        if gs != product.coefficient_sequence():
            return "fail", {"n": n}
        if len(gs) != fibonacci(n + 3) - 1:
            return "fail", {"n": n, "nonzero_count": len(gs)}
    return "pass", {"nmax": nmax}


def _first_factor_mismatch(spec: ProductSpec, i: int, r: list[int]) -> int | None:
    """The first j whose factor of ``spec`` is not 1 + x^{r_j} + ... + x^{(i-1) r_j}."""
    for j, rj in enumerate(r, 1):
        if spec.factor_terms(j) != [(1, s * rj) for s in range(1, i)]:
            return j
    return None


def check_phi_rgf(pairs=((2, 2), (2, 3), (3, 2), (3, 3)), nmax: int = 14):
    """Rank sizes against the phi closed form, and the chain-count rows of
    P_{3,2} and P_{2,3} against the Stern and Fibonacci products.

    ``frontier_grow`` verifies that row n is prod_{j<=n} (1 + x^{r_j} + ... +
    x^{(i-1) r_j}).  Z[x] has no zero divisors, so the rows equal a product
    of such factors up to every n <= nmax exactly when the factors agree one
    by one, and the first j whose factor differs is the first row that does:
    at (3, 2) the rows are the Stern products iff r_j = 2^(j-1), at (2, 3)
    the Fibonacci products iff r_j = F_{j+1}.  No product is expanded.
    """
    products = {
        (3, 2): (stern_product_spec(0), {"rows": "differ from the doubling product"}),
        (2, 3): (fibonacci_product_spec(0), {}),
    }
    details = {}
    for i, b in pairs:
        grown = frontier_grow(i, b, nmax)
        expected_q = closed_form("phi", i=i, b=b).series(nmax + 1)
        if grown["q"] != expected_q:
            return "fail", {"pair": [i, b], "q": grown["q"], "want": expected_q}
        details[f"{i},{b}"] = {"q": grown["q"][: min(8, nmax + 1)], "r": grown["r"][:6]}
        if (i, b) in products:
            spec, note = products[i, b]
            n = _first_factor_mismatch(spec, i, grown["r"])
            if n is not None:
                return "fail", {"pair": [i, b], "n": n, **note}
    return "pass", details


def check_upho(depth: int = 4, pairs=((2, 2), (2, 3), (3, 2), (3, 3))):
    results = {}
    reports: dict[tuple[int, int], dict] = {}
    # the triangle poset is P_{2,3}: it is built and checked once for both names
    for name, pair in (("triangle", (2, 3)), *((f"P({i},{b})", (i, b)) for i, b in pairs)):
        if pair not in reports:
            reports[pair] = upho_check(frontier_poset(*pair, depth + 2), depth=depth, max_rank=2)
        if reports[pair]["status"] != "pass":
            return "fail", {"poset": name, **reports[pair]}
        results[name] = "pass"
    return "pass", {"depth": depth, **results}


def check_ep_powersum(pairs=((2, 2), (2, 3), (3, 2)), cap: int = 6):
    experiment = {}
    for i, b in pairs:
        good = verify_powersum_expansion(i, b, cap, convention="powersum")
        literal = verify_powersum_expansion(i, b, cap, convention="unit-seed")
        experiment[f"{i},{b}"] = {
            "powersum_seed": good["status"],
            "unit_seed": literal["status"],
        }
        if good["status"] != "pass":
            return "fail", good
        oracle = newton_power_sums(i, b, 12)
        if [tilde_q(i, b, n) for n in range(13)] != oracle:
            return "fail", {"pair": [i, b], "newton": "disagrees"}
    return "pass", {"cap": cap, "seed_experiment": experiment}


def check_ep_forgotten(pairs=((2, 2), (2, 3), (3, 2)), cap: int = 6):
    for i, b in pairs:
        rep = verify_forgotten_expansion(i, b, cap)
        if rep["status"] != "pass":
            return "fail", rep
    return "pass", {"cap": cap, "pairs": [list(p) for p in pairs]}


def check_freegen(ks: tuple[int, ...] = (2, 3), nmax: int = 12):
    counts = {}
    for k in ks:
        # the lemma: concatenating generators maps sequences into elements injectively
        broken = generator_lemma_failure(k, nmax)
        if broken:
            generator, reason = broken
            return "fail", {"k": k, "generator": generator.to_json_obj(), "reason": reason}
        # the elements of length n are the pairs of rows of equal weight
        elements = corr_series(kbonacci_product_spec(k, 0), CorrSpec((2,)), nmax)
        expected = closed_form("vk2n", k=k, t=1).series(nmax + 1)
        # as many generator sequences as elements make the injection a bijection
        sequences = transfer_series(k, 1, nmax)
        for n, count in enumerate(elements):
            if count != expected[n]:
                return "fail", {"k": k, "n": n, "count": count, "want": expected[n]}
            if count != sequences[n]:
                return "fail", {"k": k, "n": n, "count": count, "sequences": sequences[n]}
        counts[k] = elements
    return "pass", {"ks": list(ks), "nmax": nmax, "counts": counts}


def check_zhao(nmax: int = 25):
    """The alternating-sign products prod_{i=1}^n (1 - x^{F_{i+1}}) have
    every coefficient in {0, +-1}, and their squared sums v2 follow v2m1.

    No product is expanded.  For an integer c, c^4 - c^2 = c^2 (c^2 - 1) >= 0
    with equality exactly when c is 0 or +-1, so v4(n) = v2(n) holds exactly
    when every coefficient of the n-th product lies in {0, +-1}; the first n
    with v4(n) != v2(n) is the first product with another coefficient.  Where
    the sums agree, v2(n) also counts the nonzero coefficients.
    """
    spec = fibonacci_product_spec(0, t=-1)
    v2 = corr_series(spec, CorrSpec((2,)), nmax)
    v4 = corr_series(spec, CorrSpec((4,)), nmax)
    for n, (s2, s4) in enumerate(zip(v2, v4)):
        if s2 != s4:
            return "fail", {"n": n, "coefficients": "outside {0,+-1}"}
    want = closed_form("v2m1").series(nmax + 1)
    if v2 != want:
        return "fail", {"v2": _first_mismatch(v2, want)}
    return "pass", {"nmax": nmax, "value_set": [-1, 1]}


def check_v2m1(nmax: int = 25, den_max: int = 8, holdout: int = 6):
    data = corr_series(fibonacci_product_spec(0, t=-1), CorrSpec((2,)), nmax)
    failure = _fit_failure(data, closed_form("v2m1"), den_max, holdout)
    if failure:
        return "fail", failure
    return "pass", {"terms": nmax + 1}


def check_wordclasses(nmax: int = 13):
    products = partial_products(fibonacci_product_spec(nmax))
    next(products)  # the empty product has no word classes
    sizes = []
    for n, product in enumerate(products, 1):
        classes = word_classes(n)
        if classes != sorted(product.coefficient_sequence()):
            return "fail", {"n": n}
        sizes.append(classes)
    for r in (1, 2, 3):
        vr = corr_series(fibonacci_product_spec(0), CorrSpec((r,)), nmax)
        power = [sum(s**r for s in classes) for classes in sizes]
        if power != vr[1:]:
            return "fail", {"r": r, "mismatch": _first_mismatch(power, vr[1:])}
    return "pass", {"nmax": nmax, "power_sums": [1, 2, 3]}


EXERCISE_SEEDS = ((1, 2), (2, 1), (2, 3), (3, 5), (1, 4))


def check_exercise_note(nmax: int = 14, seeds=EXERCISE_SEEDS):
    reference: list[list[int]] | None = None
    for seed in seeds:
        seq = RecurrentSeq(coeffs=(1, 1), init=tuple(seed))
        spec = ProductSpec(exponent_seq=seq, n=nmax, h=1, a=(1,), offset=0)
        rows = [p.coefficient_sequence() for p in partial_products(spec)]
        if reference is None:
            reference = rows
        elif rows != reference:
            for n, (a, b) in enumerate(zip(rows, reference)):
                if a != b:
                    return "fail", {"seed": list(seed), "n": n}
    return "pass", {"seeds": [list(s) for s in seeds], "nmax": nmax}


# -- conjecture scans -----------------------------------------------------------

def _check_ks(ks: tuple[int, ...]) -> None:
    """The k-bonacci conjectures are stated for k >= 2: ValueError before any work."""
    if min(ks, default=2) < 2:
        raise ValueError(f"need k >= 2, got {min(ks)}")


def scan_conj_v3k(ks: tuple[int, ...] = (2, 3, 4), terms: int = 28, sym_depth: int = 10):
    """Cube-sum scan: series agreement at t = 1, plus symbolic evidence.

    The symbolic comparison distinguishes the printed family from the
    data-fitted k-uniform family (the printed one is its k = 4 instance);
    both results are reported, and the status reflects the t = 1 series
    claim at the scanned depth.
    """
    _check_ks(ks)
    evidence = {}
    t = TPoly.t()
    for k in ks:
        data = kbonacci_power_sums(k, (3,), terms)[3]
        expected = closed_form("conj-v3k", k=k, t=1).series(terms + 1)
        if data != expected:
            return "fail", {"k": k, "t": 1, "mismatch": _first_mismatch(data, expected)}
        sd = min(sym_depth, 12 if k <= 3 else 10)
        sym = corr_series(kbonacci_product_spec(k, 0, t=t), CorrSpec((3,)), sd)
        printed = closed_form("conj-v3k", k=k, t="sym").series(sd + 1)
        fitted = closed_form("conj-v3k-fitted", k=k, t="sym").series(sd + 1)
        printed_miss = None if sym == printed else _first_mismatch(sym, printed)
        if sym != fitted:
            return "fail", {"k": k, "t": "sym", "mismatch": _first_mismatch(sym, fitted)}
        evidence[k] = {
            "t1_depth": terms,
            "symbolic_depth": sd,
            "printed_symbolic": "verified" if printed_miss is None else {"refuted_at": printed_miss},
            "fitted_symbolic": "verified",
        }
    return "pass", {
        "mode": "pass-at-depth",
        "evidence": evidence,
        "note": "printed t-powers match the data only at k = 4 (s = t^(k-1) there equals t^3); "
        "the fitted family with s = t^(k-1) matches at every scanned k, and all instances "
        "coincide at t = 1",
    }


def scan_conj_jrkx(ks: tuple[int, ...] = (2, 3, 4), rs: tuple[int, ...] = (4, 5, 6, 7), terms: int = 28):
    _check_ks(ks)
    evidence = {}
    for k in ks:
        series = kbonacci_power_sums(k, tuple(rs), terms)
        for r in rs:
            expected = closed_form(f"J{r}k", k=k).series(terms + 1)
            if series[r] != expected:
                return "fail", {"k": k, "r": r, "mismatch": _first_mismatch(series[r], expected)}
        evidence[k] = {"rs": list(rs), "depth": terms}
    return "pass", {"mode": "pass-at-depth", "evidence": evidence}


def scan_conj_drx(rs: tuple[int, ...] = (2, 3, 4, 5, 6, 7), kmax: int = 4, terms: int = 28):
    if kmax < 2:
        raise ValueError(f"need kmax >= 2, got {kmax}")
    blocks = {2: 1, 3: 2, 4: 2, 5: 2, 6: 3, 7: 3}
    if not set(rs) <= blocks.keys():
        raise ValueError(f"conj-drx covers r = 2..7, got r = {sorted(set(rs) - blocks.keys())}")
    holdout = 6
    fitted: dict[int, list[tuple[int, RationalFunc]]] = {r: [] for r in rs}
    for k in range(2, kmax + 1):
        for r in rs:
            den_max = blocks[r] * k + 2
            # a fit of degree den_max needs 2 den_max terms before the holdout
            depth = max(terms, 2 * den_max + holdout)
            fit = guess_rational(kbonacci_power_sums(k, (r,), depth)[r], den_max=den_max, holdout=holdout)
            if fit is None:
                return "inconclusive", {"k": k, "r": r, "fit": None}
            fitted[r].append((k, fit))
    reports = {r: check_drx_pattern(fitted[r], r) for r in rs}
    status = "pass" if all(rep["status"] == "pass" for rep in reports.values()) else "inconclusive"
    return status, {"mode": "pass-at-depth", "pattern": reports}


def scan_conj_h_k(ks: tuple[int, ...] = (2, 3, 4), depth: int = 22, depth31: int = 30):
    _check_ks(ks)
    evidence = {}
    for k in ks:
        counts = residue_series(kbonacci_product_spec(k, 0), 2, depth)
        data = [row[1] for row in counts]
        cf = closed_form("Hk21", k=k)
        if data != cf.series(depth + 1):
            return "fail", {"k": k, "m": 2, "a": 1, "mismatch": _first_mismatch(data, cf.series(depth + 1))}
        fitted = guess_rational(data, den_max=k + 3, holdout=6)
        if fitted is None:
            return "inconclusive", {"k": k, "fit": None}
        if fitted.integer_pair() != cf.integer_pair():
            return "fail", {"k": k, "fitted": fitted.to_json_dict()}
        evidence[k] = {"m": 2, "a": 1, "depth": depth}
    for k, name, dep in ((2, "H31k2", depth31), (3, "H31k3", depth31)):
        if k not in ks:
            continue
        counts = residue_series(kbonacci_product_spec(k, 0), 3, dep)
        data = [row[1] for row in counts]
        cf = closed_form(name)
        if data != cf.series(dep + 1):
            return "fail", {"k": k, "m": 3, "a": 1, "mismatch": _first_mismatch(data, cf.series(dep + 1))}
        fitted = guess_rational(data, den_max=12, holdout=6)
        if fitted is None:
            return "inconclusive", {"k": k, "m": 3, "fit": None}
        if fitted.integer_pair() != cf.integer_pair():
            return "fail", {"k": k, "m": 3, "fitted": fitted.to_json_dict()}
        evidence[f"{k}:3,1"] = {"depth": dep}
    return "pass", {"mode": "pass-at-depth", "evidence": evidence}


def scan_conj_hpn(depth: int = 36, den_max: int = 10, holdout: int = 6):
    """Rationality scan for generalized-product instances, led by the printed
    three-term window example."""
    wspec = ProductSpec(exponent_seq=kbonacci(2), n=0, h=3, a=(0, 1, 1), offset=0)
    data = corr_series(wspec, CorrSpec((2,)), depth)
    cf = closed_form("w-example")
    if data != cf.series(depth + 1):
        return "fail", {"instance": "w", "mismatch": _first_mismatch(data, cf.series(depth + 1))}
    fitted = guess_rational(data, den_max=den_max, holdout=holdout)
    if fitted is None:
        return "inconclusive", {"instance": "w", "fit": None}
    if fitted.integer_pair() != cf.integer_pair():
        return "fail", {"instance": "w", "fitted": fitted.to_json_dict()}
    extra = {}
    # two further instances: a two-term window product and a prefactor case
    two_term = ProductSpec(exponent_seq=kbonacci(2), n=0, h=2, a=(1, 1), offset=0)
    seq2 = corr_series(two_term, CorrSpec((2,)), 30)
    fit2 = guess_rational(seq2, den_max=10, holdout=holdout)
    if fit2 is None:
        return "inconclusive", {"instance": "h2", "fit": None}
    extra["two_term_window"] = fit2.to_json_dict()
    pref = ProductSpec(exponent_seq=kbonacci(2), n=0, h=1, a=(1,), offset=1, prefactor=CoeffPoly([1, 1]))
    seq3 = corr_series(pref, CorrSpec((2,)), 30)
    fit3 = guess_rational(seq3, den_max=10, holdout=holdout)
    if fit3 is None:
        return "inconclusive", {"instance": "prefactor", "fit": None}
    extra["prefactor_1_plus_x"] = fit3.to_json_dict()
    return "pass", {"mode": "pass-at-depth", "w_depth": depth, "w_form": cf.to_json_dict(), **extra}


VERIFY_CHECKS = {
    "thm1": check_thm1,
    "thm1t": check_thm1t,
    "vk2n": check_vk2n,
    "hnfn": check_hnfn,
    "m-recurrence": check_m_recurrence,
    "q2": check_q2,
    "sigma-labels": check_sigma_labels,
    "flag-beta": check_flag_beta,
    "runs": check_runs,
    "golden": check_golden,
    "phi-rgf": check_phi_rgf,
    "upho": check_upho,
    "ep-powersum": check_ep_powersum,
    "ep-forgotten": check_ep_forgotten,
    "freegen": check_freegen,
    "transfer": check_transfer,
    "zhao": check_zhao,
    "v2m1": check_v2m1,
    "wordclasses": check_wordclasses,
    "stern-u2": check_stern_u2,
    "exercise-note": check_exercise_note,
}

# The verify checks that run on numpy: ``fibgf verify`` loads it before timing one
NUMPY_CHECKS = frozenset(
    {"flag-beta", "golden", "hnfn", "m-recurrence", "phi-rgf", "q2", "runs", "sigma-labels", "upho", "wordclasses"}
)

SCAN_CHECKS = {
    "conj-v3k": scan_conj_v3k,
    "conj-jrkx": scan_conj_jrkx,
    "conj-drx": scan_conj_drx,
    "conj-h-k": scan_conj_h_k,
    "conj-hpn": scan_conj_hpn,
}


def run_check(kind: str, name: str, **params) -> CheckReport:
    """Run one check; a broken invariant is a ``fail`` carrying its detail."""
    registry = VERIFY_CHECKS if kind == "verify" else SCAN_CHECKS
    if name not in registry:
        raise KeyError(f"unknown {kind} check {name!r}")
    if params.get("nmax", 0) < 0:
        raise ValueError(f"need nmax >= 0, got {params['nmax']}")
    start = time.monotonic()
    try:
        status, details = registry[name](**params)
    except InvariantError as err:
        # the detail may be any datum (a GoldenInt exponent, rows, ...): keep it JSON-safe
        status, details = "fail", {"error": str(err), "detail": json.loads(json.dumps(err.detail, default=str))}
    elapsed = int((time.monotonic() - start) * 1000)
    return CheckReport(check=name, params=params, status=status, details=details, elapsed_ms=elapsed)

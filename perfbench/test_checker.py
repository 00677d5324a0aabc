"""Tests of the benchmark's own checker.  Run: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import sys

import oracle
import run

HERE = os.path.dirname(os.path.abspath(__file__))


def _good_verify_reports() -> list[dict]:
    details = {
        "thm1": {"form": {"num": ["1", "0", "-2"], "den": ["1", "-2", "-2", "2"]}},
        "freegen": {"counts": {str(k): oracle.expand(*oracle.square_sum_pair(k), 13) for k in (2, 3)}},
        "phi-rgf": {f"{i},{b}": {"q": oracle.expand(*oracle.rank_pair(i, b), 8)}
                    for i, b in ((2, 2), (2, 3), (3, 2), (3, 3))},
        "exercise-note": {"seed": [2, 1], "n": 4},
    }
    return [{"check": name, "status": status, "details": details.get(name, {})}
            for name, status in oracle.VERIFY_STATUS.items()]


def _outcomes(by_name: dict[str, list[str]]) -> list[dict]:
    return [{"name": name, "problems": problems} for name, problems in by_name.items()]


def test_expected_outcomes_pass_including_the_lucas_counterexample():
    checked = oracle.check_verify_all(oracle.VERIFY_ALL_EXIT, _good_verify_reports())
    assert run.tally(_outcomes(checked)) == (len(oracle.VERIFY_STATUS), 0)
    assert oracle.VERIFY_STATUS["exercise-note"] == "fail"
    series = oracle.expand(*oracle.DEPTH_PROBE_PAIR, 27)
    assert oracle.check_depth_probe(26, series) == []


def test_corrupted_value_and_wrong_status_count_as_failed():
    series = oracle.expand(*oracle.DEPTH_PROBE_PAIR, 27)
    series[13] += 1
    reports = _good_verify_reports()
    for rep in reports:
        if rep["check"] == "golden":
            rep["status"] = "fail"
    checked = oracle.check_verify_all(oracle.VERIFY_ALL_EXIT, reports)
    outcomes = _outcomes(checked) + [{"name": "depth probe", "problems": oracle.check_depth_probe(26, series)}]
    assert run.tally(outcomes) == (len(oracle.VERIFY_STATUS) + 1, 2)
    assert [o["name"] for o in outcomes if o["problems"]] == ["golden", "depth probe"]


def test_wrong_fit_and_wrong_data_are_caught():
    hpn = {"check": "conj-hpn", "status": "pass", "details": {
        "w_form": {"num": [str(v) for v in oracle.W_EXAMPLE[0]], "den": [str(v) for v in oracle.W_EXAMPLE[1]]},
        "two_term_window": {"num": ["1"], "den": ["1", "-1"]},
        "prefactor_1_plus_x": {"num": ["4", "4", "-4"], "den": ["2", "-4", "-4", "4"]},  # scaled: same function
    }}
    problems = oracle.check_scan("conj-hpn", 0, hpn)
    assert len(problems) == 1 and "two_term_window" in problems[0]
    reports = _good_verify_reports()
    reports[[r["check"] for r in reports].index("freegen")]["details"]["counts"]["3"][7] -= 1
    assert oracle.check_verify_all(1, reports)["freegen"]
    assert oracle.check_verify_all(0, _good_verify_reports())["verify-all"]


# -- the oracle's pairs against brute-force products, plain ints only -------------

def _recurrence(init: list[int], order: int, count: int) -> list[int]:
    seq = list(init)
    while len(seq) < count:
        seq.append(sum(seq[-order:]))
    return seq


def _expand_product(factors: list[dict[int, int]], prefactor: dict[int, int] | None = None) -> list[int]:
    poly = dict(prefactor or {0: 1})
    for factor in factors:
        out: dict[int, int] = {}
        for e, c in poly.items():
            for fe, fc in factor.items():
                out[e + fe] = out.get(e + fe, 0) + c * fc
        poly = out
    return list(poly.values())


def _square_sums(factor_of, n_terms: int, prefactor=None) -> list[int]:
    return [sum(c * c for c in _expand_product([factor_of(i) for i in range(1, n + 1)], prefactor))
            for n in range(n_terms)]


def test_square_sum_pairs_match_brute_force():
    for k in (2, 3, 4):
        f = _recurrence([1] * k, k, 40)  # f[0] is F^(k)_1

        def factor(i, k=k, f=f):
            return {0: 1, f[i + k - 2]: 1}

        assert oracle.expand(*oracle.square_sum_pair(k), 13) == _square_sums(factor, 13)


def test_generalized_product_pairs_match_brute_force():
    fib = _recurrence([1, 1], 2, 40)  # fib[0] = F_1

    def window(exps):
        out = {0: 1}
        for e in exps:
            out[e] = out.get(e, 0) + 1
        return out

    cases = [
        (oracle.W_EXAMPLE, lambda i: window([fib[i], fib[i + 1]]), None),
        (oracle.TWO_TERM_WINDOW, lambda i: window([fib[i - 1], fib[i]]), None),
        (oracle.PREFACTOR_1_PLUS_X, lambda i: window([fib[i]]), {0: 1, 1: 1}),
    ]
    for pair, factor, prefactor in cases:
        assert oracle.expand(*pair, 12) == _square_sums(factor, 12, prefactor)


def test_benchmark_json_lists_every_printed_metric():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in run.per_layer_catalog()
    ]


def test_tracer_skips_missing_names_and_leaves_results_unchanged(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(HERE, "..", "src"))
    import fibgf
    import fibgf.stream
    import tracer

    saved = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("fibgf")}
    try:
        del fibgf.stream.residue_series_fast  # as if a refactor folded it away
        trace = tracer.Tracer("test")
        tracer.install(trace)
        assert trace.unobserved == ["fibgf.stream.residue_series_fast"]
        spec = fibgf.kbonacci_product_spec(oracle.DEPTH_PROBE_K, 0)
        values = fibgf.corr_series(spec, fibgf.CorrSpec((2,)), 14, engine="fast")
        assert values == oracle.expand(*oracle.DEPTH_PROBE_PAIR, 15)
        assert trace.counts["stream.build.steps"] == 14
        assert trace.counts["stats.engine.fast"] == 1
    finally:
        for name, attrs in saved.items():
            vars(sys.modules[name]).clear()
            vars(sys.modules[name]).update(attrs)

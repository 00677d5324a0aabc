"""Expectations the benchmark holds itself, and the checker that applies them.

Nothing here imports ``fibgf``: every closed form is kept as a plain integer
(num, den) pair and expanded with Python ints, so a defect in the program's
own catalog or expansion code cannot hide a wrong answer.  ``test_checker.py``
checks these pairs against brute-force product expansions.

A check returns a list of problems; an operation with any problem counts as
failed.
"""

from __future__ import annotations


def expand(num, den, n_terms: int) -> list[int]:
    """First ``n_terms`` power-series coefficients of num/den, den[0] == 1."""
    if den[0] != 1:
        raise ValueError("denominator must start with 1")
    out: list[int] = []
    for n in range(n_terms):
        acc = num[n] if n < len(num) else 0
        for j in range(1, min(n, len(den) - 1) + 1):
            acc -= den[j] * out[n - j]
        out.append(acc)
    return out


def square_sum_pair(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """sum_j c_j^2 of prod_i (1 + x^{F^(k)_{i+k-1}}), as a function of n."""
    num = (1,) + (0,) * (k - 1) + (-2,)
    den = (1, -2) + (0,) * (k - 2) + (-2, 2)
    return num, den


def rank_pair(i: int, b: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rank sizes of the poset P(i, b): 1 / (1 - i x + (i - 1) x^b)."""
    den = [1, -i] + [0] * (b - 1)
    den[b] += i - 1
    return (1,), tuple(den)


# conj-hpn: the three generalized products it fits (Fibonacci exponents)
W_EXAMPLE = ((1, -4, -5, 24, 4, -34, 2, 10, -4), (1, -7, 1, 47, -32, -84, 50, 34, -18))
TWO_TERM_WINDOW = ((1, -2, -11, 18, 28, -32, -20, 12), W_EXAMPLE[1])
PREFACTOR_1_PLUS_X = ((2, 2, -2), (1, -2, -2, 2))

# k = 4 square sums, the depth_reach series
DEPTH_PROBE_K = 4
DEPTH_PROBE_PAIR = square_sum_pair(DEPTH_PROBE_K)

SCAN_NAMES = ("conj-v3k", "conj-jrkx", "conj-drx", "conj-h-k", "conj-hpn")
SCAN_EXIT = 0

VERIFY_STATUS = {
    "ep-forgotten": "pass",
    "ep-powersum": "pass",
    # the honest Lucas counterexample: seed (2, 1) gives other rows
    "exercise-note": "fail",
    "flag-beta": "pass",
    "freegen": "pass",
    "golden": "pass",
    "hnfn": "pass",
    "m-recurrence": "pass",
    "phi-rgf": "pass",
    "q2": "pass",
    "runs": "pass",
    "sigma-labels": "pass",
    "stern-u2": "pass",
    "thm1": "pass",
    "thm1t": "pass",
    "transfer": "pass",
    "upho": "pass",
    "v2m1": "pass",
    "vk2n": "pass",
    "wordclasses": "pass",
    "zhao": "pass",
}
# exercise-note fails, so `verify all` exits with "check failed"
VERIFY_ALL_EXIT = 1


def _form(obj) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    try:
        return tuple(int(v) for v in obj["num"]), tuple(int(v) for v in obj["den"])
    except (KeyError, TypeError, ValueError):
        return None


def _same_function(got, want) -> bool:
    """num1*den2 == num2*den1, so a scaled or unreduced form still matches."""
    if got is None or not _trim(got[1]):
        return False
    return _trim(_mul(got[0], want[1])) == _trim(_mul(want[0], got[1]))


def _mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _trim(seq) -> list[int]:
    out = list(seq)
    while out and out[-1] == 0:
        out.pop()
    return out


def check_series(values, pair, label: str) -> list[str]:
    """Every term of ``values`` against the expansion of ``pair``."""
    want = expand(pair[0], pair[1], len(values))
    for n, (got, exp) in enumerate(zip(values, want)):
        if got != exp:
            return [f"{label}: term {n} is {got}, expected {exp}"]
    return []


def check_status(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: status {got!r}, expected {want!r}"]


def check_scan(name: str, exit_code: int, report: dict | None) -> list[str]:
    """One `fibgf scan NAME --json` call at user defaults."""
    if report is None:
        return [f"{name}: no JSON report"]
    problems = check_status(name, report.get("status"), "pass")
    if exit_code != SCAN_EXIT:
        problems.append(f"{name}: exit code {exit_code}, expected {SCAN_EXIT}")
    if report.get("check") != name:
        problems.append(f"{name}: report is for {report.get('check')!r}")
    details = report.get("details") or {}
    if name == "conj-hpn":
        for key, pair in (
            ("w_form", W_EXAMPLE),
            ("two_term_window", TWO_TERM_WINDOW),
            ("prefactor_1_plus_x", PREFACTOR_1_PLUS_X),
        ):
            if not _same_function(_form(details.get(key) or {}), pair):
                problems.append(f"{name}: {key} is {details.get(key)!r}, expected {pair}")
    elif name in ("conj-v3k", "conj-jrkx", "conj-h-k"):
        evidence = details.get("evidence") or {}
        for k in ("2", "3", "4"):
            if k not in evidence:
                problems.append(f"{name}: no evidence for k = {k}")
    elif name == "conj-drx":
        pattern = details.get("pattern") or {}
        for r in ("2", "3", "4", "5", "6", "7"):
            if (pattern.get(r) or {}).get("status") != "pass":
                problems.append(f"{name}: pattern for r = {r} is not 'pass'")
    return problems


def check_verify_all(exit_code: int, reports: list[dict]) -> dict[str, list[str]]:
    """`fibgf verify all --json`: one entry per expected check."""
    by_name = {rep.get("check"): rep for rep in reports}
    out: dict[str, list[str]] = {}
    for name, want in VERIFY_STATUS.items():
        rep = by_name.get(name)
        if rep is None:
            out[name] = [f"{name}: no report"]
            continue
        problems = check_status(name, rep.get("status"), want)
        problems += _verify_details(name, rep.get("details") or {})
        out[name] = problems
    extra = sorted(set(by_name) - set(VERIFY_STATUS), key=str)
    if extra:
        out["verify-all"] = [f"unexpected reports {extra}"]
    if exit_code != VERIFY_ALL_EXIT:
        out.setdefault("verify-all", []).append(
            f"exit code {exit_code}, expected {VERIFY_ALL_EXIT}"
        )
    return out


def _verify_details(name: str, details: dict) -> list[str]:
    if name == "thm1":
        if not _same_function(_form(details.get("form") or {}), square_sum_pair(2)):
            return [f"thm1: form is {details.get('form')!r}"]
    if name == "freegen":
        counts = details.get("counts") or {}
        problems = []
        for k in (2, 3):
            got = counts.get(str(k), counts.get(k))
            if not isinstance(got, list) or len(got) != 13:
                problems.append(f"freegen: counts for k = {k} are {got!r}")
                continue
            problems += check_series(got, square_sum_pair(k), f"freegen k={k}")
        return problems
    if name == "phi-rgf":
        problems = []
        for i, b in ((2, 2), (2, 3), (3, 2), (3, 3)):
            got = (details.get(f"{i},{b}") or {}).get("q")
            if not isinstance(got, list) or not got:
                problems.append(f"phi-rgf: no rank counts for ({i},{b})")
                continue
            problems += check_series(got, rank_pair(i, b), f"phi-rgf ({i},{b})")
        return problems
    if name == "exercise-note":
        if details.get("seed") != [2, 1]:
            return [f"exercise-note: counterexample seed is {details.get('seed')!r}, expected [2, 1]"]
    return []


def check_depth_probe(reach: int, values) -> list[str]:
    """The k = 4 square-sum series at the depth the memory cap allowed."""
    if len(values) != reach + 1:
        return [f"depth probe: {len(values)} terms, expected {reach + 1}"]
    return check_series(values, DEPTH_PROBE_PAIR, f"depth probe k={DEPTH_PROBE_K}")

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import fibgf.checks
import fibgf.cli
from fibgf.carry import stream_budget
from fibgf.cli import main
from fibgf.config import Meter
from fibgf.errors import InvariantError, ResourceLimitError
from fibgf.polynomials import CoeffPoly, ProductSpec, build_product, fibonacci_product_spec, kbonacci_product_spec
from fibgf.sequences import GoldenInt, RecurrentSeq
from fibgf.stats import CorrSpec, corr_series, residue_series
from fibgf.stream import stream_plan
from fibgf.triangle import format_row, triangle_rows
from oracle import pure_residue_series


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_vsum_matches_library(capsys):
    code, out, _ = run_cli(capsys, "vsum", "--seq", "fib", "--alpha", "2", "--nmax", "5")
    assert code == 0
    assert json.loads(out) == ["1", "2", "4", "10", "24", "60"]
    lib = corr_series(fibonacci_product_spec(0), CorrSpec((2,)), 5)
    assert [int(v) for v in json.loads(out)] == lib


def test_vsum_symbolic(capsys):
    code, out, _ = run_cli(capsys, "vsum", "--seq", "fib", "--alpha", "2", "--nmax", "2", "--t", "symbolic")
    assert code == 0
    data = json.loads(out)
    assert data[2] == ["1", "0", "2", "0", "1"]  # 1 + 2t^2 + t^4


def test_congruence(capsys):
    code, out, _ = run_cli(capsys, "congruence", "--m", "2", "--a", "1", "--nmax", "2")
    assert code == 0
    assert json.loads(out) == ["1", "2", "4"]
    # a modulus past the byte range, at a depth whose product has 344,731 coefficients
    code, out, _ = run_cli(capsys, "congruence", "--seq", "kbonacci:3", "--m", "200", "--a", "1", "--nmax", "20")
    assert code == 0
    counts = [int(v) for v in json.loads(out)]
    assert len(counts) == 21
    pure = pure_residue_series(kbonacci_product_spec(3, 0), 200, 12)
    assert counts[:13] == [row[1] for row in pure]


def test_congruence_rejects_class_outside_modulus(capsys):
    for argv in (("--m", "2", "--a", "5"), ("--m", "3", "--a", "-4")):
        code, out, err = run_cli(capsys, "congruence", *argv, "--nmax", "2")
        assert code == 2, argv
        assert out == "" and err.startswith("error:"), argv


def test_product_dump_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "product", "--seq", "fib", "--nmax", "4")
    assert code == 0
    data = json.loads(out)
    assert data["base"] == 0
    clone = CoeffPoly.from_json_dict(data)
    assert clone == build_product(fibonacci_product_spec(4))


def test_triangle_show_matches_library(capsys):
    code, out, _ = run_cli(capsys, "triangle", "show", "--rows", "4")
    assert code == 0
    assert out.strip().splitlines() == [format_row(r) for r in triangle_rows(4, 1)]
    assert out == "1 1\n1 1 • 1 1\n1 1 • 1 2 1 • 1 1\n1 1 • 1 2 1 • 2 2 • 1 2 1 • 1 1\n"
    code, out, _ = run_cli(capsys, "triangle", "show", "--rows", "3", "--symbolic")
    assert code == 0
    assert out == "1 t\n1 t • t t^2\n1 t • t t + t^2 t^2 • t^2 t^3\n"


def test_triangle_dot(capsys):
    code, out, _ = run_cli(capsys, "triangle", "dot", "--rows", "3")
    assert code == 0
    assert out.startswith("digraph")


def test_triangle_zero_and_negative_rows(capsys):
    code, out, _ = run_cli(capsys, "triangle", "show", "--rows", "0")
    assert code == 0 and out == ""
    for action in ("dot", "show"):
        code, out, err = run_cli(capsys, "triangle", action, "--rows", "-2")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "n_max >= 0" in err


def test_verify_hnfn_at_zero_rows(capsys):
    code, out, _ = run_cli(capsys, "verify", "hnfn", "--nmax", "0", "--json")
    assert code == 0
    assert json.loads(out)["details"] == {"rows": 0, "symbolic": True}


def test_guess_roundtrip(tmp_path, capsys):
    series = corr_series(fibonacci_product_spec(0), CorrSpec((2,)), 25)
    path = tmp_path / "seq.json"
    path.write_text(json.dumps([str(v) for v in series]))
    code, out, _ = run_cli(capsys, "guess", str(path), "--den-max", "10")
    assert code == 0
    data = json.loads(out)
    assert data == {"num": ["1", "0", "-2"], "den": ["1", "-2", "-2", "2"]}


def test_guess_reads_stdin(monkeypatch, capsys):
    import io

    series = corr_series(fibonacci_product_spec(0), CorrSpec((2,)), 20)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(series)))
    code, out, _ = run_cli(capsys, "guess", "--den-max", "8")
    assert code == 0
    assert json.loads(out)["den"] == ["1", "-2", "-2", "2"]


def test_verify_all_json_lines(capsys):
    for name in ("q2", "upho"):
        code, out, _ = run_cli(capsys, "verify", name, "--json")
        assert code == 0
        assert json.loads(out)["status"] == "pass"


def test_verify_all_runs_checks_in_sorted_order(monkeypatch, capsys):
    def raises():
        raise ResourceLimitError("over the cap", limit_n=7)

    registry = {
        "zz-fails": lambda: ("fail", {"why": "by design"}),
        "mm-raises": raises,
        "aa-passes": lambda: ("pass", {}),
    }
    monkeypatch.setattr(fibgf.checks, "VERIFY_CHECKS", registry)
    monkeypatch.setattr(fibgf.cli, "VERIFY_CHECKS", registry)
    code, out, _ = run_cli(capsys, "verify", "all", "--json")
    assert code == 1
    reports = [json.loads(line) for line in out.splitlines()]
    assert [(r["check"], r["status"]) for r in reports] == [
        ("aa-passes", "pass"),
        ("mm-raises", "error"),
        ("zz-fails", "fail"),
    ]
    assert reports[1]["details"] == {"error": "ResourceLimitError: over the cap"}


def _run_python(code: str) -> int:
    src = str(Path(fibgf.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code], env=env).returncode


def _numpy_loaded_at_first_check(name: str) -> int:
    code = (
        "import sys, fibgf.cli\n"
        "def first_check(kind, name, **params):\n"
        "    sys.exit(0 if 'numpy' in sys.modules else 1)\n"
        "fibgf.cli.run_check = first_check\n"
        f"fibgf.cli.main(['verify', {name!r}, '--json'])\n"
        "sys.exit(2)\n"
    )
    return _run_python(code)


def test_verify_all_loads_numpy_before_its_first_check():
    # numpy's import (about 150 ms) would otherwise land in the elapsed_ms of
    # the first check that needs it, in a fresh `fibgf verify all`
    assert _numpy_loaded_at_first_check("all") == 0


@pytest.mark.parametrize("name", ["runs", "hnfn", "wordclasses"])
def test_verify_one_numpy_check_loads_numpy_before_it(name):
    # as in `verify all`: a fresh `fibgf verify runs` times no numpy import
    assert _numpy_loaded_at_first_check(name) == 0


def test_checks_outside_numpy_checks_load_no_numpy():
    # a check that starts to use numpy belongs in NUMPY_CHECKS, or its
    # elapsed_ms carries the import in a fresh `fibgf verify <check>`
    others = sorted(set(fibgf.checks.VERIFY_CHECKS) - fibgf.checks.NUMPY_CHECKS)
    code = (
        "import sys\n"
        "from fibgf.checks import run_check\n"
        f"for name in {others!r}:\n"
        "    run_check('verify', name)\n"
        "    if 'numpy' in sys.modules:\n"
        "        sys.exit(name)\n"
    )
    assert _run_python(code) == 0


def test_invariant_error_is_a_fail_report(monkeypatch, capsys):
    def broken():
        raise InvariantError("run of length 4", detail=GoldenInt(1, 2))

    monkeypatch.setitem(fibgf.checks.VERIFY_CHECKS, "runs", broken)
    code, out, _ = run_cli(capsys, "verify", "runs", "--json")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1
    rep = json.loads(lines[0])
    assert rep["status"] == "fail"
    assert rep["details"] == {"error": "run of length 4", "detail": str(GoldenInt(1, 2))}


def test_resource_cap_exit_code(monkeypatch, capsys, tmp_path):
    # exponents 1, 1, 1, ...: the difference walk's states grow without bound
    seq = tmp_path / "ones.json"
    seq.write_text('{"coeffs": [1], "init": [1]}')
    monkeypatch.setenv("RGF_MAX_MEM_MB", "1")
    code, out, err = run_cli(capsys, "vsum", "--seq", f"custom:{seq}", "--alpha", "3", "--nmax", "80")
    assert code == 4
    assert out == ""
    assert err.startswith("error:") and "limit_n = " in err


@pytest.mark.parametrize("raw", ["abc", "-5", "0"])
def test_malformed_cap_is_a_usage_error(raw, monkeypatch, capsys):
    # no command runs under a cap it cannot read, not even one check of verify all
    monkeypatch.setenv("RGF_MAX_MEM_MB", raw)
    for argv in (("vsum", "--seq", "fib", "--alpha", "2", "--nmax", "3"), ("verify", "all", "--json")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == f"error: RGF_MAX_MEM_MB must be a positive integer of megabytes, got {raw!r}\n"


def test_residue_cap_exit_code(tmp_path, monkeypatch, capsys):
    # f_{i+1} = f_i + f_{i-3} grows too slowly for the carries to stay few, so
    # both the carry automaton and the stream reach the cap
    seq = tmp_path / "slow.json"
    seq.write_text('{"coeffs": [1, 0, 0, 1], "init": [1, 1, 1, 1]}')
    monkeypatch.setenv("RGF_MAX_MEM_MB", "1")
    code, out, err = run_cli(capsys, "congruence", "--seq", f"custom:{seq}", "--m", "2", "--a", "1", "--nmax", "40")
    assert code == 4
    assert out == ""
    assert err.startswith("error:") and "limit_n = " in err
    # limit_n is the first factor count neither engine reaches; one fewer runs under the cap
    limit = int(err.rsplit("limit_n = ", 1)[1].rstrip(")\n"))
    spec = ProductSpec(exponent_seq=RecurrentSeq((1, 0, 0, 1), (1, 1, 1, 1)), n=0)
    with pytest.raises(ResourceLimitError) as raised:
        residue_series(spec, 2, limit)
    assert raised.value.limit_n == limit
    counts = residue_series(spec, 2, limit - 1)
    monkeypatch.delenv("RGF_MAX_MEM_MB")  # the pure oracle charges 32 bytes a coefficient
    assert counts == pure_residue_series(spec, 2, limit - 1)


def test_residue_past_stream_cap_stops_at_carry_budget(monkeypatch, capsys):
    # at m = 1000 the Fibonacci product's carries keep growing; where the
    # stream passes the cap, the automaton stops at its work budget, which is
    # sized by the deepest series the stream holds, long before the cap
    monkeypatch.setenv("RGF_MAX_MEM_MB", "16")
    code, out, err = run_cli(capsys, "congruence", "--m", "1000", "--a", "1", "--nmax", "45")
    assert code == 4
    assert out == ""
    limit = int(err.rsplit("limit_n = ", 1)[1].rstrip(")\n"))
    spec = fibonacci_product_spec(0)
    plan = stream_plan(replace(spec, n=45), 1000, 45)
    assert limit == plan.limit
    with pytest.raises(ResourceLimitError) as raised:
        residue_series(spec, 1000, 45)
    budget = stream_budget(sum(plan.lengths[:limit]))
    assert f"passed its budget of {budget} carry updates" in str(raised.value.__cause__)


def test_guess_no_fit_exit_code(tmp_path, capsys):
    catalan = [1]
    for i in range(11):
        catalan.append(catalan[-1] * 2 * (2 * i + 1) // (i + 2))
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(catalan))
    code, out, _ = run_cli(capsys, "guess", str(path), "--den-max", "3")
    assert code == 3
    assert json.loads(out) is None


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "vsum", "--seq", "nosuch", "--alpha", "2", "--nmax", "3")
    assert code == 2
    assert "error" in err


def test_unknown_verify_name(capsys):
    code, _, err = run_cli(capsys, "verify", "nosuch")
    assert code == 2


def test_verify_pass_and_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "q2")
    assert code == 0
    assert out.startswith("q2: pass")
    code, out, _ = run_cli(capsys, "verify", "flag-beta", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["check"] == "flag-beta" and rep["status"] == "pass"
    assert "elapsed_ms" in rep


def test_verify_rejects_an_nmax_the_check_cannot_take(capsys):
    for name in ("freegen", "runs", "golden", "m-recurrence"):
        code, out, err = run_cli(capsys, "verify", name, "--nmax", "-2")
        assert code == 2 and out == ""
        assert err == "error: need --nmax >= 0, got -2\n"
    for name, taken in (
        ("upho", "depth, pairs"),
        ("flag-beta", "depth"),
        ("q2", "none"),
        ("ep-powersum", "pairs, cap"),
        ("ep-forgotten", "pairs, cap"),
    ):
        code, out, err = run_cli(capsys, "verify", name, "--nmax", "3")
        assert code == 2 and out == ""
        assert err == f"error: verify {name} takes no --nmax; its parameters: {taken}\n"


def test_verify_all_refuses_nmax(capsys):
    code, out, err = run_cli(capsys, "verify", "all", "--nmax", "-5", "--json")
    assert code == 2 and out == ""
    assert err == "error: verify all takes no --nmax; every check runs at its own defaults\n"


def test_run_check_refuses_a_negative_nmax():
    for name in ("runs", "golden", "freegen"):
        with pytest.raises(ValueError, match="need nmax >= 0, got -2"):
            fibgf.checks.run_check("verify", name, nmax=-2)


def test_verify_exercise_note_reports_counterexample(capsys):
    code, out, _ = run_cli(capsys, "verify", "exercise-note", "--json")
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "fail"
    assert rep["details"]["seed"] == [2, 1]


def test_scan_smoke(capsys):
    code, out, _ = run_cli(capsys, "scan", "conj-v3k", "--k", "2", "--terms", "12", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "pass"
    assert rep["details"]["mode"] == "pass-at-depth"


def test_scan_conj_drx_fits_every_cell(capsys):
    code, out, _ = run_cli(capsys, "scan", "conj-drx", "--r", "7", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "pass" and "fitted_grid" not in rep["details"]
    assert rep["details"]["pattern"]["7"]["k_values"] == [2, 3, 4]
    code, out, err = run_cli(capsys, "scan", "conj-drx", "--kmax", "1", "--json")
    assert code == 2 and out == ""
    assert err == "error: need kmax >= 2, got 1\n"
    code, out, err = run_cli(capsys, "scan", "conj-drx", "--r", "8", "--json")
    assert code == 2 and out == ""
    assert err == "error: conj-drx covers r = 2..7, got r = [8]\n"


def test_custom_sequence_spec(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"coeffs": ["1", "1"], "init": ["1", "2"]}))
    code, out, _ = run_cli(capsys, "vsum", "--seq", f"custom:{path}", "--alpha", "2", "--nmax", "4")
    assert code == 0
    vals = [int(v) for v in json.loads(out)]
    assert vals[0] == 1 and all(v > 0 for v in vals)


def test_scan_refuses_flags_it_cannot_take(capsys):
    for argv, flag, taken in (
        (("conj-hpn", "--k", "3", "--r", "9", "--kmax", "5"), "k", "depth, den_max, holdout"),
        (("conj-drx", "--k", "3"), "k", "rs, kmax, terms"),
        (("conj-v3k", "--r", "4"), "r", "ks, terms, sym_depth"),
        (("conj-jrkx", "--kmax", "3"), "kmax", "ks, rs, terms"),
        (("conj-h-k", "--r", "3"), "r", "ks, depth, depth31"),
    ):
        code, out, err = run_cli(capsys, "scan", *argv)
        assert code == 2 and out == "", argv
        assert err == f"error: scan {argv[0]} takes no --{flag}; its parameters: {taken}\n"


def test_scan_maps_each_flag_to_its_parameter(monkeypatch, capsys):
    seen = {}

    def record(kind, name, **params):
        seen[name] = params
        return fibgf.checks.CheckReport(check=name, params=params, status="pass")

    monkeypatch.setattr(fibgf.cli, "run_check", record)
    for argv in (
        ("conj-v3k", "--k", "3", "--terms", "12"),
        ("conj-jrkx", "--k", "2", "--r", "5", "--terms", "14"),
        ("conj-drx", "--r", "6", "--kmax", "3", "--terms", "20"),
        ("conj-h-k", "--k", "3", "--terms", "12"),
        ("conj-hpn", "--terms", "30"),
    ):
        assert run_cli(capsys, "scan", *argv)[0] == 0
    assert seen == {
        "conj-v3k": {"ks": (3,), "terms": 12},
        "conj-jrkx": {"ks": (2,), "rs": (5,), "terms": 14},
        "conj-drx": {"rs": (6,), "kmax": 3, "terms": 20},
        "conj-h-k": {"ks": (3,), "depth": 12},
        "conj-hpn": {"depth": 30},
    }


def test_scan_refuses_k_below_2(capsys):
    # the conjectures are stated for k >= 2; conj-jrkx at k = 1 would walk for about a minute
    for name in ("conj-v3k", "conj-jrkx", "conj-h-k"):
        code, out, err = run_cli(capsys, "scan", name, "--k", "1")
        assert code == 2 and out == "", name
        assert err == "error: need k >= 2, got 1\n"


def test_meter_names_its_structure_and_the_first_failing_n(monkeypatch):
    monkeypatch.setenv("RGF_MAX_MEM_MB", "1")
    meter = Meter("widget rows")
    meter.charge(1 << 20, 3)
    meter.charge(-5, 4)
    with pytest.raises(ResourceLimitError) as err:
        meter.charge(6, 5)
    assert err.value.limit_n == 5
    assert str(err.value) == "widget rows needs 1048577 bytes at n = 5, over the RGF_MAX_MEM_MB cap"


@pytest.mark.parametrize(
    "argv",
    [
        ("triangle", "show", "--rows", "24"),
        ("verify", "m-recurrence", "--nmax", "24"),
        ("verify", "runs", "--nmax", "24"),
        ("product", "--seq", "fib", "--nmax", "24"),
        ("verify", "hnfn", "--nmax", "24"),
    ],
)
def test_rows_and_partials_stop_at_the_cap(argv, monkeypatch, capsys):
    # triangle rows, golden partials and product partials are charged per n,
    # so past 1 MB each exits 4, and limit_n - 1 runs
    monkeypatch.setenv("RGF_MAX_MEM_MB", "1")
    code, _, err = run_cli(capsys, *argv)
    assert code == 4 and err.startswith("error:"), argv
    limit = int(err.rsplit("limit_n = ", 1)[1].rstrip(")\n"))
    assert 0 < limit <= 24
    code, _, err = run_cli(capsys, *argv[:-1], str(limit - 1))
    assert code == 0 and err == "", argv


def test_residue_rows_stop_at_the_cap(monkeypatch, capsys):
    # one row of 10^6 classes passes 1 MB, in either engine
    monkeypatch.setenv("RGF_MAX_MEM_MB", "1")
    code, out, err = run_cli(capsys, "congruence", "--m", "1000000", "--a", "1", "--nmax", "3")
    assert code == 4 and out == ""
    assert err.endswith("(limit_n = 0)\n")

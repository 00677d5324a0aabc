"""Command-line surface: compute, guess, verify, and scan.

Every subcommand is a thin adapter over the library; outputs are JSON (and
plain triangle/DOT text where noted).  Exit codes: 0 ok/pass, 1 check
failed, 2 usage error, 3 no rational fit found, 4 resource cap hit.

``verify all`` runs its checks on every usable CPU: it writes one byte per
check index into a claim pipe, forks one worker per usable CPU past the
first, and runs one claim loop in every process.  Workers send their
reports back pickled, each over its own pipe; a check whose worker dies
reports ``error`` with the worker's exit status.  The reports are printed
in name order once all have run, and each ``elapsed_ms`` is the check's own
run inside the process that ran it.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from dataclasses import replace
from functools import cache

from .checks import NUMPY_CHECKS, SCAN_CHECKS, VERIFY_CHECKS, CheckReport, run_check
from .config import max_mem_bytes
from .errors import ResourceLimitError
from .guess import guess_rational
from .polynomials import (
    ProductSpec,
    TPoly,
    build_product,
    fibonacci_product_spec,
    kbonacci_product_spec,
    scalar_to_json,
    stern_product_spec,
)
from .sequences import RecurrentSeq
from .stats import CorrSpec, corr_series, residue_series
from .triangle import format_row, triangle_rows
from .poset import frontier_poset

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NO_FIT = 3
EXIT_RESOURCE = 4


def _parse_t(raw: str):
    if raw == "symbolic":
        return TPoly.t()
    return int(raw)


def _resolve_spec(args) -> ProductSpec:
    t = _parse_t(getattr(args, "t", "1") or "1")
    name = args.seq
    if name == "fib":
        return fibonacci_product_spec(0, t=t)
    if name.startswith("kbonacci:"):
        return kbonacci_product_spec(int(name.split(":", 1)[1]), 0, t=t)
    if name == "stern":
        if not (isinstance(t, int) and t == 1):
            raise ValueError("--t is not supported for the stern spec")
        return stern_product_spec(0)
    if name.startswith("custom:"):
        path = name.split(":", 1)[1]
        with open(path, "r", encoding="utf-8") as handle:
            seq = RecurrentSeq.from_json(handle.read())
        raw = [int(v) for v in (args.factor_coeffs or "1").split(",")]
        if isinstance(t, int) and t == 1:
            coeffs = tuple(raw)
        else:
            coeffs = tuple(v * t for v in raw)
        return ProductSpec(exponent_seq=seq, n=0, h=len(coeffs), a=coeffs, offset=args.offset)
    raise ValueError(f"unknown --seq {name!r}")


def cmd_vsum(args) -> int:
    spec = _resolve_spec(args)
    alpha = CorrSpec(tuple(int(v) for v in args.alpha.split(",")))
    values = corr_series(spec, alpha, args.nmax)
    print(json.dumps(list(map(scalar_to_json, values))))
    return EXIT_OK


def cmd_congruence(args) -> int:
    if not 0 <= args.a < args.m:
        raise ValueError(f"need 0 <= a < m, got a = {args.a}, m = {args.m}")
    spec = _resolve_spec(args)
    counts = residue_series(spec, args.m, args.nmax)
    print(json.dumps([str(row[args.a]) for row in counts]))
    return EXIT_OK


def cmd_product(args) -> int:
    spec = _resolve_spec(args)
    poly = build_product(replace(spec, n=args.nmax))
    print(poly.to_json())
    return EXIT_OK


def cmd_triangle(args) -> int:
    t = TPoly.t() if args.symbolic else _parse_t(args.t or "1")
    if args.action == "dot":
        print(frontier_poset(2, 3, args.rows).to_dot())
        return EXIT_OK
    for row in triangle_rows(args.rows, t=t):
        print(format_row(row))
    return EXIT_OK


def cmd_guess(args) -> int:
    if args.input and args.input != "-":
        with open(args.input, "r", encoding="utf-8") as handle:
            raw = handle.read()
    else:
        raw = sys.stdin.read()
    seq = [int(v) for v in json.loads(raw)]
    fitted = guess_rational(seq, den_max=args.den_max, num_extra=args.num_extra, holdout=args.holdout)
    if fitted is None:
        print(json.dumps(None))
        return EXIT_NO_FIT
    num, den = fitted.integer_pair()
    print(json.dumps({"num": [str(v) for v in num], "den": [str(v) for v in den]}))
    return EXIT_OK


def _report_line(rep) -> str:
    return f"{rep.check}: {rep.status} ({rep.elapsed_ms} ms)"


def _emit_report(rep, as_json: bool) -> None:
    if as_json:
        print(json.dumps(rep.to_json_dict()))
    else:
        print(_report_line(rep))


def _params(label: str, check, flags: dict) -> dict:
    """``check``'s parameters from flag -> (parameter, value), one value of a
    tuple parameter as its one entry; ValueError for a parameter it lacks."""
    taken = inspect.signature(check).parameters
    params = {}
    for flag, (param, value) in flags.items():
        if value is None:
            continue
        if param not in taken:
            raise ValueError(f"{label} takes no --{flag}; its parameters: {', '.join(taken) or 'none'}")
        params[param] = (value,) if isinstance(taken[param].default, tuple) else value
    return params


def _run_or_error(name: str) -> CheckReport:
    """One check of ``verify all``; a check that raises reports ``error``."""
    start = time.monotonic()
    try:
        return run_check("verify", name)
    except Exception as err:
        elapsed = int((time.monotonic() - start) * 1000)
        details = {"error": f"{type(err).__name__}: {err}"}
        return CheckReport(check=name, params={}, status="error", details=details, elapsed_ms=elapsed)


def _claim_checks(claims: int, names: list[str], send) -> None:
    """The loop of every process of ``verify all``: claim one check index,
    one byte, from the pipe ``claims`` until it is empty, run that check and
    ``send`` its report."""
    while claim := os.read(claims, 1):
        send(_run_or_error(names[claim[0]]))


def _worker(claims: int, names: list[str], sink: int, inherited: list[int]) -> None:
    """The body of a forked process of ``verify all``: it closes the pipe
    ends of ``inherited``, runs the claim loop and writes each report to
    ``sink``, pickled after its 8-byte length."""
    import pickle

    for fd in inherited:
        os.close(fd)
    with os.fdopen(sink, "wb") as out:

        def send(rep: CheckReport) -> None:
            blob = pickle.dumps(rep)
            out.write(len(blob).to_bytes(8, "big") + blob)
            out.flush()  # whole, before a later check can end the process

        _claim_checks(claims, names, send)


def _read_reports(stream: int) -> list[CheckReport]:
    """The reports a worker wrote to its result pipe, read to EOF; one cut
    short by the worker's end is dropped."""
    import pickle

    reports = []
    with os.fdopen(stream, "rb") as src:
        while size := int.from_bytes(src.read(8), "big"):
            blob = src.read(size)
            if len(blob) < size:
                break
            reports.append(pickle.loads(blob))
    return reports


def _lost_report(name: str, died: list[int]) -> CheckReport:
    """The ``error`` report of a check claimed by a worker that sent no report
    for it: one of the workers with the nonzero exit codes ``died``."""
    ends = [f"was killed by signal {-code}" if code < 0 else f"exited with status {code}" for code in died]
    details = {"error": "the worker running this check " + " or ".join(ends)}
    return CheckReport(check=name, params={}, status="error", details=details)


def _verify_all(as_json: bool) -> int:
    """Run every check, in this process and in one forked worker per further
    usable CPU, all claiming checks from one pipe; print the reports in name
    order once all have run."""
    names = sorted(VERIFY_CHECKS)
    claims, fill = os.pipe()
    os.write(fill, bytes(range(len(names))))  # one byte per check: the registry holds fewer than 256
    os.close(fill)
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") else 1
    streams: dict[int, int] = {}  # worker pid -> read end of its result pipe, until read
    pids: list[int] = []
    reports: list[CheckReport] = []
    try:
        for _ in range(min(usable, len(names)) - 1):
            stream, sink = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the ones forked so far claim every check
                os.close(stream)
                os.close(sink)
                break
            if pid == 0:  # the worker leaves only here, so no exception, atexit hook or stdout buffer escapes it
                status = 1
                try:
                    _worker(claims, names, sink, [stream, *streams.values()])
                    status = 0
                finally:
                    os._exit(status)
            os.close(sink)
            pids.append(pid)
            streams[pid] = stream
        _claim_checks(claims, names, reports.append)
        for pid in pids:
            reports += _read_reports(streams.pop(pid))
    except BaseException:
        from signal import SIGKILL

        for pid in pids:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for fd in [claims, *streams.values()]:
            os.close(fd)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    by_name = {rep.check: rep for rep in reports}
    died = [code for code in map(os.waitstatus_to_exitcode, statuses) if code]
    failed = False
    for name in names:
        rep = by_name.get(name) or _lost_report(name, died)
        _emit_report(rep, as_json)
        failed = failed or rep.status in ("fail", "error")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_verify(args) -> int:
    if NUMPY_CHECKS.intersection(VERIFY_CHECKS if args.name == "all" else [args.name]):
        import numpy  # noqa: F401  (loaded here, so that no check's elapsed_ms carries its import)
    if args.name == "all":
        if args.nmax is not None:
            raise ValueError("verify all takes no --nmax; every check runs at its own defaults")
        return _verify_all(args.json)
    if args.name not in VERIFY_CHECKS:
        raise KeyError(f"unknown check {args.name!r}; known: {', '.join(sorted(VERIFY_CHECKS))}")
    if args.nmax is not None and args.nmax < 0:
        raise ValueError(f"need --nmax >= 0, got {args.nmax}")
    params = _params(f"verify {args.name}", VERIFY_CHECKS[args.name], {"nmax": ("nmax", args.nmax)})
    rep = run_check("verify", args.name, **params)
    _emit_report(rep, args.json)
    return EXIT_OK if rep.status == "pass" else EXIT_CHECK_FAILED


def cmd_scan(args) -> int:
    if args.name not in SCAN_CHECKS:
        raise KeyError(f"unknown scan {args.name!r}; known: {', '.join(sorted(SCAN_CHECKS))}")
    scan = SCAN_CHECKS[args.name]
    terms = "terms" if "terms" in inspect.signature(scan).parameters else "depth"
    flags = {"k": ("ks", args.k), "r": ("rs", args.r), "kmax": ("kmax", args.kmax), "terms": (terms, args.terms)}
    rep = run_check("scan", args.name, **_params(f"scan {args.name}", scan, flags))
    _emit_report(rep, args.json)
    return EXIT_OK if rep.status in ("pass", "inconclusive") else EXIT_CHECK_FAILED


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``fibgf`` parser, built once per process and reused by every ``main``."""
    parser = argparse.ArgumentParser(
        prog="fibgf",
        description="Exact coefficient statistics of recurrence-exponent products, "
        "grouped triangles/posets, and rational generating-function tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(p):
        p.add_argument("--seq", default="fib", help="fib | kbonacci:K | stern | custom:FILE")
        p.add_argument("--t", default="1", help="integer weight or 'symbolic'")
        p.add_argument("--offset", type=int, default=0, help="exponent index offset for custom specs")
        p.add_argument("--factor-coeffs", default=None, help="CSV window coefficients for custom specs")

    p_vsum = sub.add_parser("vsum", help="correlation power sums along the product")
    add_spec_flags(p_vsum)
    p_vsum.add_argument("--alpha", required=True, help="CSV window exponents, e.g. 2 or 1,0,1")
    p_vsum.add_argument("--nmax", type=int, required=True)
    p_vsum.set_defaults(func=cmd_vsum)

    p_cong = sub.add_parser("congruence", help="counts of coefficients in a residue class")
    add_spec_flags(p_cong)
    p_cong.add_argument("--m", type=int, required=True)
    p_cong.add_argument("--a", type=int, required=True)
    p_cong.add_argument("--nmax", type=int, required=True)
    p_cong.set_defaults(func=cmd_congruence)

    p_prod = sub.add_parser("product", help="dump the expanded product as JSON")
    add_spec_flags(p_prod)
    p_prod.add_argument("--nmax", type=int, required=True)
    p_prod.set_defaults(func=cmd_product)

    p_tri = sub.add_parser("triangle", help="print triangle rows or export the poset")
    p_tri.add_argument("action", choices=("show", "dot"))
    p_tri.add_argument("--rows", type=int, required=True)
    p_tri.add_argument("--t", default="1")
    p_tri.add_argument("--symbolic", action="store_true")
    p_tri.set_defaults(func=cmd_triangle)

    p_guess = sub.add_parser("guess", help="fit a rational generating function to a JSON sequence")
    p_guess.add_argument("input", nargs="?", default="-", help="file of JSON integers, or - for stdin")
    p_guess.add_argument("--den-max", type=int, default=10, dest="den_max")
    p_guess.add_argument("--num-extra", type=int, default=0, dest="num_extra")
    p_guess.add_argument("--holdout", type=int, default=6)
    p_guess.set_defaults(func=cmd_guess)

    p_verify = sub.add_parser("verify", help="run a named cross-verification (or 'all')")
    p_verify.add_argument("name")
    p_verify.add_argument("--nmax", type=int, default=None)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="run a conjecture scan (evidence, never proof)")
    p_scan.add_argument("name")
    p_scan.add_argument("--k", type=int, default=None)
    p_scan.add_argument("--kmax", type=int, default=None)
    p_scan.add_argument("--r", type=int, default=None)
    p_scan.add_argument("--terms", type=int, default=None)
    p_scan.add_argument("--json", action="store_true")
    p_scan.set_defaults(func=cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        max_mem_bytes()  # a malformed cap is a usage error of every command
        return args.func(args)
    except ResourceLimitError as err:
        print(f"error: {err} (limit_n = {err.limit_n})", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, KeyError, TypeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

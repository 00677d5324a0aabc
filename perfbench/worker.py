"""One fresh interpreter running one pass of a benchmark operation.

Started by ``run.py``; not meant to be run by hand.  The worker imports
numpy and fibgf, prints ``ready`` (the parent times set-up up to that line),
runs its operations through the program's public surface, checks every
output against ``oracle``, and prints one JSON line with the results.

    --op setup        import only, for extra set-up samples
    --op scans        `fibgf scan NAME --json` for each name in --order
    --op verify-all   `fibgf verify all --json`
    --op depth-probe  the k = 4 square-sum series under RGF_MAX_MEM_MB
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from dataclasses import replace

import numpy  # noqa: F401  (part of set-up: the stream engine imports it)
import fibgf
import fibgf.cli

import oracle
import tracer as tracing

# the probe stops here even when no memory cap is hit
DEPTH_CEILING = 200


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fibgf.cli.main(argv)
    return code, buf.getvalue()


def _reports(text: str) -> list[dict]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("{"):
            out.append(json.loads(line))
    return out


def _timed(fn):
    """Run ``fn`` and return (seconds, value); an exception is returned as
    the value, and the caller counts it against every outcome of the call."""
    start = time.perf_counter()
    try:
        value = fn()
    except Exception as err:  # an operation that raises counts as failed
        value = err
    return time.perf_counter() - start, value


def _raised(label: str, err: Exception) -> list[str]:
    return [f"{label}: raised {type(err).__name__}: {err}"]


def op_scans(order: list[str]) -> tuple[float, list[dict], dict]:
    wall, outcomes = 0.0, []
    for name in order:
        seconds, value = _timed(lambda name=name: _cli(["scan", name, "--json"]))
        wall += seconds
        if isinstance(value, Exception):
            problems = _raised(name, value)
        else:
            reports = _reports(value[1])
            problems = oracle.check_scan(name, value[0], reports[0] if reports else None)
        outcomes.append({"name": f"scan {name}", "seconds": seconds, "problems": problems})
    return wall, outcomes, {}


def op_verify_all() -> tuple[float, list[dict], dict]:
    """One call; each of its check reports is one outcome."""
    seconds, value = _timed(lambda: _cli(["verify", "all", "--json"]))
    if isinstance(value, Exception):
        by_check = {name: _raised("verify all", value) for name in oracle.VERIFY_STATUS}
    else:
        by_check = oracle.check_verify_all(value[0], _reports(value[1]))
    outcomes = [{"name": f"verify {name}", "problems": problems} for name, problems in by_check.items()]
    return seconds, outcomes, {}


def op_depth_probe() -> tuple[float, list[dict], dict]:
    spec = fibgf.kbonacci_product_spec(oracle.DEPTH_PROBE_K, 0)
    alpha = fibgf.CorrSpec((2,))

    def probe():
        try:
            return DEPTH_CEILING, fibgf.corr_series(spec, alpha, DEPTH_CEILING)
        except fibgf.ResourceLimitError as err:
            # the cap ends the probe; it is not a failure
            if err.limit_n is None:
                raise
            reach = err.limit_n - 1
            return reach, fibgf.corr_series(spec, alpha, reach)

    seconds, value = _timed(probe)
    extra = {}
    if isinstance(value, Exception):
        problems = _raised("depth probe", value)
    else:
        reach, values = value
        problems = oracle.check_depth_probe(reach, values)
        length = replace(spec, n=reach).degree_bound() + 1
        extra = {"depth_reach": reach, "largest_array_bytes": length * tracing.INT64_BYTES}
    return seconds, [{"name": "depth probe", "seconds": seconds, "problems": problems}], extra


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--op", required=True, choices=("setup", "scans", "verify-all", "depth-probe"))
    parser.add_argument("--order", default="")
    parser.add_argument("--trace-out", default="")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()
    print("ready", flush=True)
    if args.op == "setup":
        return 0

    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer(args.run_id)
        tracing.install(tracer)

    cpu0 = time.process_time()
    if args.op == "scans":
        wall, outcomes, extra = op_scans([name for name in args.order.split(",") if name])
    elif args.op == "verify-all":
        wall, outcomes, extra = op_verify_all()
    else:
        wall, outcomes, extra = op_depth_probe()
    result = {
        "wall_s": wall,
        "outcomes": outcomes,
        **extra,
        "cpu_s": time.process_time() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.dump(args.trace_out)
        result["trace"] = {
            "busy_ns": dict(tracer.busy_ns),
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
            "maxima": dict(tracer.maxima),
            "checks": tracer.checks,
            "unobserved": tracer.unobserved,
            "notes": tracer.notes,
        }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The fibgf benchmark: end-to-end and per-layer numbers for two workloads.

    python3 perfbench/run.py --workload scan-suite --seed 1 --seconds 60 --trace 0

Run it from the root of a source tree (it puts ``src`` on PYTHONPATH; there
is nothing to build).  Workloads, closed loop, one client:

  scan-suite  the five conjecture scans at their user defaults, each as
              `fibgf scan NAME --json`, in an order drawn from --seed, then
              the depth probe: the k = 4 square-sum series under
              RGF_MAX_MEM_MB=1024.  Carries the numpy stream.
  verify-all  `fibgf verify all --json` as users run it (the program's own
              thread pool, --jobs unpinned).  Carries the pure CoeffPoly/TPoly
              engine, monoid, poset, symfun and triangle.  The seed is unused.

A pass is one fresh interpreter per call (scans, probe), so every cache
starts cold, as it does for a CLI user.  Passes repeat while the next one is
predicted to end within --seconds; there is always at least one.  Every
output is checked against expectations the benchmark holds itself
(``oracle.py``); a wrong value, an unexpected status or a raise is a failed
outcome.

--trace 0 prints the end-to-end metrics: wall_s (median pass, timed calls
only), setup_s (median time from process start until `import fibgf` is done,
over several fresh interpreters), peak_rss_mb (median pass peak) and
depth_reach (largest n the probe completes under the cap; verify-all runs
the probe once outside its timed section so that every workload reports it).
failed_frac is printed on its own line: it is 0 when all is well, so it
rides in the result's `attempted` and `failed` counts rather than as a
bounded metric.

--trace 1 runs one pass with wrappers around the program's public functions
(``tracer.py``) and prints the per-layer metrics, with trace.overhead_s
against the median untraced wall of earlier runs in this tree (or of an
untraced pass in the same run when there are none).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Full results, a machine record and span dumps go to
``.perfbench_out/``.  ``python3 -m pytest perfbench`` tests the checker.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"
WORKLOADS = ("scan-suite", "verify-all")
SETUP_SAMPLES = 7
PROBE_MEM_MB = 1024
# a run must end within 180 s, whatever its workers do
RUN_DEADLINE_S = 170
CHECK_NAMES = tuple(sorted(oracle.VERIFY_STATUS)) + oracle.SCAN_NAMES

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("depth_reach", "count"))


def tally(outcomes: list[dict]) -> tuple[int, int]:
    """(attempted, failed): an outcome with any problem is a failed one."""
    return len(outcomes), sum(1 for o in outcomes if o["problems"])


class WorkerFailed(RuntimeError):
    pass


def spawn(root: str, env: dict, argv: list[str], timeout: float) -> tuple[float, dict]:
    """Run one worker, killed after ``timeout`` s; returns (set-up seconds, its result)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *argv], cwd=root, env=env,
        stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise WorkerFailed(f"worker {' '.join(argv)} exited with code {code}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else {})


class Run:
    def __init__(self, root: str, workload: str, seed: int, seconds: int, started: float):
        self.root = root
        self.started = started
        self.workload = workload
        self.seconds = seconds
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("RGF_MAX_MEM_MB", None)
        self.probe_env = dict(self.env, RGF_MAX_MEM_MB=str(PROBE_MEM_MB))
        self.order = list(oracle.SCAN_NAMES)
        random.Random(seed).shuffle(self.order)
        self.run_id = f"{workload}-seed{seed}-{os.getpid()}"
        self.setup_samples: list[float] = []
        self.outcomes: list[dict] = []
        self.depth: dict = {}

    def worker(self, argv: list[str], trace_out: str = "", probe: bool = False) -> dict:
        if trace_out:
            argv = argv + ["--trace-out", trace_out, "--run-id", self.run_id]
        try:
            timeout = max(self.started + RUN_DEADLINE_S - time.perf_counter(), 1.0)
            setup_s, result = spawn(self.root, self.probe_env if probe else self.env, argv, timeout)
        except WorkerFailed as err:
            self.outcomes.append({"name": argv[1], "problems": [str(err)]})
            return {}
        self.setup_samples.append(setup_s)
        self.outcomes.extend(result.get("outcomes", []))
        return result

    def depth_probe(self, trace_out: str = "") -> dict:
        result = self.worker(["--op", "depth-probe"], trace_out, probe=True)
        if "depth_reach" in result:
            self.depth = result
        return result

    def one_pass(self, trace_out: str = "") -> dict:
        """Run the workload once; returns wall, peak memory, CPU and traces."""
        if self.workload == "scan-suite":
            parts = [
                self.worker(["--op", "scans", "--order", ",".join(self.order)], trace_out),
                self.depth_probe(trace_out + ".probe" if trace_out else ""),
            ]
        else:
            parts = [self.worker(["--op", "verify-all"], trace_out)]
        return {
            "wall_s": sum(p.get("wall_s", 0.0) for p in parts),
            "cpu_s": sum(p.get("cpu_s", 0.0) for p in parts),
            "peak_rss_mb": max(p.get("peak_rss_mb", 0.0) for p in parts),
            "traces": [p["trace"] for p in parts if "trace" in p],
        }

    def passes(self) -> list[dict]:
        out, longest = [], 0.0
        while True:
            begin = time.perf_counter()
            out.append(self.one_pass())
            longest = max(longest, time.perf_counter() - begin)
            if time.perf_counter() - self.started + longest > min(self.seconds, RUN_DEADLINE_S):
                return out

    def setup(self) -> None:
        for _ in range(SETUP_SAMPLES):
            self.worker(["--op", "setup"])


# -- per-layer metrics --------------------------------------------------------------

def merge_traces(traces: list[dict]) -> dict:
    merged = {"busy_ns": {}, "calls": {}, "counts": {}, "maxima": {}, "checks": {},
              "unobserved": [], "notes": []}
    for tr in traces:
        for key in ("busy_ns", "calls", "counts"):
            for name, value in tr[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for name, value in tr["maxima"].items():
            merged["maxima"][name] = max(merged["maxima"].get(name, 0), value)
        merged["checks"].update(tr["checks"])
        for key in ("unobserved", "notes"):
            merged[key] += [v for v in tr[key] if v not in merged[key]]
    return merged


def per_layer_catalog() -> list[tuple[str, str, object]]:
    """(metric, unit, getter on (merged trace, run figures)), in print order."""
    def busy(layer):
        return lambda t, r: t["busy_ns"].get(layer, 0) / 1e9

    def calls(layer):
        return lambda t, r: t["calls"].get(layer, 0)

    def count(name):
        return lambda t, r: t["counts"].get(name, 0)

    def high(name):
        return lambda t, r: t["maxima"].get(name, 0)

    def check(name, field):
        return lambda t, r: t["checks"].get(name, {}).get(field, 0.0)

    def fit_ratio(t, r):
        attempted = t["calls"].get("guess", 0)
        return t["counts"].get("guess.fits_found", 0) / attempted if attempted else 0.0

    cat = [
        ("stream.build.steps", "count", count("stream.build.steps")),
        ("stream.build.busy_s", "s", busy("stream.build")),
        ("stream.build.coeffs", "count", count("stream.build.coeffs")),
        ("stream.build.max_len", "count", high("stream.build.max_len")),
        ("stream.build.max_abs", "count", high("stream.build.max_abs")),
        ("stream.build.bytes_computed", "bytes", count("stream.build.bytes_computed")),
        ("stream.reduce.hist.steps", "count", count("stream.reduce.hist.steps")),
        ("stream.reduce.hist.busy_s", "s", busy("stream.reduce.hist")),
        ("stream.reduce.crt.steps", "count", count("stream.reduce.crt.steps")),
        ("stream.reduce.crt.busy_s", "s", busy("stream.reduce.crt")),
        ("stream.residue.calls", "count", calls("stream.residue")),
        ("stream.residue.busy_s", "s", busy("stream.residue")),
        ("stream.residue.bytes_computed", "bytes", count("stream.residue.bytes_computed")),
        ("stats.corr_series.calls", "count", calls("stats.corr_series")),
        ("stats.engine.fast", "count", count("stats.engine.fast")),
        ("stats.engine.pure", "count", count("stats.engine.pure")),
        ("stats.corr_sum.busy_s", "s", busy("stats.corr_sum")),
        ("stats.residue_series.busy_s", "s", busy("stats.residue_series")),
        ("polynomials.build_product.busy_s", "s", busy("polynomials.build_product")),
        ("polynomials.build_product.calls", "count", calls("polynomials.build_product")),
        ("guess.calls", "count", calls("guess")),
        ("guess.busy_s", "s", busy("guess")),
        ("guess.fits_found", "count", count("guess.fits_found")),
        ("guess.fit_ratio", "ratio", fit_ratio),
        ("guess.den_degree_max", "count", high("guess.den_degree_max")),
        ("guess.terms_in", "count", count("guess.terms_in")),
        ("monoid.enumerate.busy_s", "s", busy("monoid.enumerate")),
        ("monoid.enumerate.elements", "count", count("monoid.enumerate.elements")),
        ("monoid.factorization.calls", "count", calls("monoid.factorization")),
        ("monoid.factorization.busy_s", "s", busy("monoid.factorization")),
        ("monoid.transfer.busy_s", "s", busy("monoid.transfer")),
        ("poset.frontier.busy_s", "s", busy("poset.frontier")),
        ("poset.build.busy_s", "s", busy("poset.build")),
        ("symfun.busy_s", "s", busy("symfun")),
        ("triangle.busy_s", "s", busy("triangle")),
        ("catalog.series_expand.busy_s", "s", busy("catalog.series_expand")),
    ]
    for name in CHECK_NAMES:
        for field in ("wall_s", "cpu_s", "wait_s"):
            cat.append((f"checks.{name}.{field}", "s", check(name, field)))
    cat += [
        ("checks.powersum_cache.builds", "count", count("checks.powersum_cache.builds")),
        ("checks.powersum_cache.hits", "count", count("checks.powersum_cache.hits")),
        ("run.cpu_s", "s", lambda t, r: r["cpu_s"]),
        ("run.cpu_util", "ratio", lambda t, r: r["cpu_s"] / r["wall_s"] if r["wall_s"] else 0.0),
        ("trace.overhead_s", "s", lambda t, r: r["wall_s"] - r["untraced_wall_s"]),
        ("trace.hooks_unobserved", "count", lambda t, r: len(t["unobserved"])),
    ]
    return cat


# -- machine record ------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def _l3_bytes() -> int:
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        if _read(f"{base}/{index}/level").strip() == "3":
            size = _read(f"{base}/{index}/size").strip().upper()
            scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
            return int(size.rstrip("KM") or 0) * scale
    return 0


def _git_commit(root: str) -> str:
    head = _read(os.path.join(root, ".git", "HEAD")).strip()
    if head.startswith("ref: "):
        return _read(os.path.join(root, ".git", head[5:])).strip() or "unknown"
    return head or "unknown (not a git checkout)"


def machine_record(root: str, largest_array_bytes: int, source: str) -> dict:
    cpu_model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor() or "unknown")
    mem_kb = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    l3 = _l3_bytes()
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model,
        "l3_bytes": l3,
        "ram_bytes": mem_kb * 1024,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(root),
        "largest_stream_array_bytes": largest_array_bytes,
        "largest_stream_array_source": source,
        "largest_stream_array_over_l3": largest_array_bytes / l3 if l3 else None,
    }


# -- the run ---------------------------------------------------------------------------

def _walls_path(root: str) -> str:
    return os.path.join(root, OUT_DIR, "untraced-walls.json")


def _load_walls(root: str) -> dict:
    try:
        return json.loads(_read(_walls_path(root)) or "{}")
    except ValueError:
        return {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fibgf", "__init__.py")):
        print("error: run from the root of a fibgf source tree (src/fibgf not found)", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)

    started = time.perf_counter()
    run = Run(root, args.workload, args.seed, args.seconds, started)
    run.setup()
    if args.trace:
        trace_out = os.path.join(root, OUT_DIR, f"spans-{run.run_id}.json")
        traced = run.one_pass(trace_out)
        walls = _load_walls(root).get(args.workload) or []
        time_left = started + RUN_DEADLINE_S - time.perf_counter()
        if not walls and time_left > 1.5 * traced["wall_s"] + 10:
            walls = [run.one_pass()["wall_s"]]
        figures = dict(traced, untraced_wall_s=statistics.median(walls) if walls else traced["wall_s"])
        trace = merge_traces(traced["traces"])
        metrics = {name: {"value": get(trace, figures), "unit": unit}
                   for name, unit, get in per_layer_catalog()}
        largest = trace["maxima"].get("stream.build.max_len", 0) * 8  # int64
        source = "traced stream build"
        notes = trace["notes"] + [f"not observed: {name}" for name in trace["unobserved"]]
        if not walls:
            notes.append("no untraced reference wall: trace.overhead_s reads 0")
    else:
        passes = run.passes()
        if args.workload == "verify-all":
            run.depth_probe()  # outside the timed section, for depth_reach only
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(run.setup_samples),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "depth_reach": run.depth.get("depth_reach", 0),
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        walls = _load_walls(root)
        walls.setdefault(args.workload, []).extend(p["wall_s"] for p in passes)
        with open(_walls_path(root), "w", encoding="utf-8") as handle:
            json.dump(walls, handle)
        largest = run.depth.get("largest_array_bytes", 0)
        source = "depth probe"
        notes = [f"passes: {len(passes)}"]

    attempted, failed = tally(run.outcomes)
    machine = machine_record(root, largest, source)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "loop": "closed, 1 client, one fresh process per call",
        "machine": machine, "notes": notes, "metrics": metrics,
        "problems": [p for o in run.outcomes for p in o["problems"]],
        "outcomes": run.outcomes,
        "elapsed_s": time.perf_counter() - started,
    }
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    with open(os.path.join(root, OUT_DIR, f"result-{stamp}.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)

    print("machine " + json.dumps(machine))
    for note in notes:
        print(f"note: {note}")
    for problem in summary["problems"]:
        print(f"FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(f"failed_frac {failed / attempted if attempted else 1.0} ({failed} of {attempted} outcomes)")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

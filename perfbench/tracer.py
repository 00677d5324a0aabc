"""Spans and counters around the program's layers, installed from outside.

``install(tracer)`` rebinds public functions of ``fibgf`` modules to timing
wrappers: on the module that defines the name and on every ``fibgf`` module
that imported it.  A name that no longer exists is reported as not observed
and skipped, so the trace keeps working when the program is refactored.

Each span records its name, wall start and end, parent span and run id, and
the thread CPU time it used.  A layer's ``busy_s`` is its self time on the
thread CPU clock: span CPU time minus the CPU time of its child spans.  The
CPU clock keeps self times honest when `verify all` runs checks on a thread
pool, where wall time would also count the time a thread waits for the
interpreter lock.  Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

INT64_BYTES = 8

# (module, attribute, layer, keep one span per call).  High-rate leaf calls
# keep only their totals: per-call spans would swamp the dump.
HOOKS = [
    ("fibgf.stream", "residue_series_fast", "stream.residue", True),
    ("fibgf.stats", "corr_series", "stats.corr_series", True),
    ("fibgf.stats", "corr_sum", "stats.corr_sum", False),
    ("fibgf.stats", "residue_series", "stats.residue_series", True),
    ("fibgf.polynomials", "build_product", "polynomials.build_product", True),
    ("fibgf.guess", "guess_rational", "guess", True),
    ("fibgf.guess", "series_expand", "catalog.series_expand", True),
    ("fibgf.monoid", "enumerate_elements", "monoid.enumerate", True),
    ("fibgf.monoid", "factorization_count", "monoid.factorization", False),
    ("fibgf.monoid", "free_factorize", "monoid.factorization", False),
    ("fibgf.monoid", "transfer_series", "monoid.transfer", True),
    ("fibgf.poset", "frontier_grow", "poset.frontier", True),
    ("fibgf.poset", "build_poset", "poset.build", True),
    ("fibgf.symfun", "verify_powersum_expansion", "symfun", True),
    ("fibgf.symfun", "verify_forgotten_expansion", "symfun", True),
    ("fibgf.symfun", "newton_power_sums", "symfun", True),
    ("fibgf.symfun", "tilde_q", "symfun", False),
    ("fibgf.triangle", "verify_rows_match_product", "triangle", True),
    ("fibgf.triangle", "verify_m_recurrence", "triangle", True),
    ("fibgf.triangle", "mark_matrix_charpoly", "triangle", True),
    ("fibgf.triangle", "expected_charpoly", "triangle", True),
    ("fibgf.checks", "kbonacci_power_sums", "checks.powersum_cache", True),
]
STREAM_HOOK = ("fibgf.stream", "stream_product")
RUN_CHECK_HOOK = ("fibgf.checks", "run_check")
# Not hooked: TPoly.__mul__.  A counting wrapper slowed the vk2n check from
# 8.6 s to 10.7 s (1.18M calls, 2-vCPU Xeon VM), which would distort every
# self time around it.
DROPPED = ["polynomials.tpoly_mul.calls: counting each TPoly multiplication costs about 25% of the pure engine's time"]


class _Frame:
    __slots__ = ("span_id", "name", "wall0", "cpu0", "child_cpu", "saw_stream")

    def __init__(self, span_id, name):
        self.span_id = span_id
        self.name = name
        self.wall0 = time.perf_counter_ns()
        self.cpu0 = time.thread_time_ns()
        self.child_cpu = 0
        self.saw_stream = False


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.checks: dict[str, dict[str, float]] = {}
        self.unobserved: list[str] = []
        self.notes: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> _Frame:
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        frame = _Frame(span_id, name)
        self._stack().append(frame)
        return frame

    def leave(self, frame: _Frame, layer: str, keep_span: bool) -> int:
        """Close ``frame``; returns its inclusive thread CPU time in ns."""
        cpu = time.thread_time_ns() - frame.cpu0
        wall1 = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        elif frame in stack:
            stack.remove(frame)
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_cpu += cpu
            parent.saw_stream = parent.saw_stream or frame.saw_stream
        with self._lock:
            self.busy_ns[layer] += cpu - frame.child_cpu
            self.calls[layer] += 1
            if keep_span:
                self.spans.append((
                    frame.span_id, frame.name, frame.wall0, wall1,
                    parent.span_id if parent else None, threading.get_ident(), cpu,
                ))
        return cpu

    def mark_stream(self) -> None:
        for frame in self._stack():
            frame.saw_stream = True

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def high(self, name: str, value: int) -> None:
        with self._lock:
            if value > self.maxima[name]:
                self.maxima[name] = value

    def note(self, text: str) -> None:
        with self._lock:
            if text not in self.notes:
                self.notes.append(text)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "run_id": self.run_id,
                "fields": ["id", "name", "start_ns", "end_ns", "parent", "thread", "cpu_ns"],
                "spans": self.spans,
            }, handle)


# -- wrappers ---------------------------------------------------------------------

def _wrap_call(tracer: Tracer, fn, layer: str, keep_span: bool, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(frame, layer, keep_span)
        if after is not None:
            try:
                after(frame, args, kwargs, result)
            except Exception as err:  # a changed signature must not break the program
                tracer.note(f"{layer}: counters skipped ({type(err).__name__}: {err})")
        return result

    return wrapper


def _after_corr_series(tracer):
    def after(frame, args, kwargs, result):
        tracer.count("stats.engine.fast" if frame.saw_stream else "stats.engine.pure")
    return after


def _after_guess(tracer):
    def after(frame, args, kwargs, result):
        seq = args[0] if args else kwargs.get("seq", ())
        tracer.count("guess.terms_in", len(seq))
        if result is not None:
            tracer.count("guess.fits_found")
            tracer.high("guess.den_degree_max", len(result.den) - 1)
    return after


def _after_enumerate(tracer):
    def after(frame, args, kwargs, result):
        tracer.count("monoid.enumerate.elements", len(result))
    return after


def _after_powersums(tracer):
    def after(frame, args, kwargs, result):
        tracer.count("checks.powersum_cache.builds" if frame.saw_stream else "checks.powersum_cache.hits")
    return after


def _residue_bytes(spec, m: int, n_max: int) -> int:
    """uint8 bytes read and written by the residue shift-adds and mod pass."""
    length, total = 1, 0
    for i in range(1, n_max + 1):
        terms = spec.factor_terms(i)
        new_len = length + max((e for _, e in terms), default=0)
        total += 3 * length * sum(1 for aj, _ in terms if aj % m) + 2 * new_len
        length = new_len
    return total


def _wrap_residue(tracer: Tracer, fn):
    def count_bytes(frame, args, kwargs, result):
        tracer.count("stream.residue.bytes_computed", _residue_bytes(*args[:3]))

    timed = _wrap_call(tracer, fn, "stream.residue", True, count_bytes)

    @functools.wraps(fn)
    def residue_series_fast(*args, **kwargs):
        tracer.mark_stream()
        return timed(*args, **kwargs)

    return residue_series_fast


def _wrap_stream(tracer: Tracer, fn, hist_cap: int):
    """Time each factor step as stream.build and the consumer's work on the
    yielded array as stream.reduce.hist or stream.reduce.crt, chosen from the
    yielded abs_max and the public HIST_SPAN_CAP as the consumer chooses.
    Steps of another shape are passed through, timed as stream.reduce only."""

    @functools.wraps(fn)
    def stream_product(*args, **kwargs):
        tracer.mark_stream()
        gen = fn(*args, **kwargs)
        prev_len = 0
        try:
            while True:
                frame = tracer.enter("stream.build")
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.leave(frame, "stream.build", True)
                layer = "stream.reduce"
                try:
                    i, arr, abs_max = item
                    length = int(arr.shape[0])
                    if i > 0:
                        terms = args[0].factor_terms(i)
                        shift_adds = sum(3 if abs(aj) == 1 else 5 for aj, _ in terms)
                        tracer.count("stream.build.steps")
                        tracer.count("stream.build.coeffs", length)
                        tracer.count("stream.build.bytes_computed", INT64_BYTES * prev_len * shift_adds)
                    tracer.high("stream.build.max_len", length)
                    tracer.high("stream.build.max_abs", abs_max)
                    prev_len = length
                    layer += ".hist" if 2 * abs_max + 1 <= hist_cap else ".crt"
                    tracer.count(f"{layer}.steps")
                except (TypeError, ValueError, AttributeError, IndexError) as err:
                    tracer.note(f"stream step not classified ({type(err).__name__}: {err})")
                frame = tracer.enter(layer)
                try:
                    yield item
                finally:
                    tracer.leave(frame, layer, True)
        finally:
            gen.close()

    return stream_product


def _wrap_run_check(tracer: Tracer, fn):
    """Wall and thread CPU time of each check, measured in the thread that
    runs it, so the time a pooled check waits for the interpreter lock shows
    as wall minus CPU."""

    @functools.wraps(fn)
    def run_check(*args, **kwargs):
        name = args[1] if len(args) > 1 else kwargs.get("name", "unknown")
        frame = tracer.enter(f"checks.{name}")
        try:
            return fn(*args, **kwargs)
        finally:
            wall = (time.perf_counter_ns() - frame.wall0) / 1e9
            cpu = tracer.leave(frame, "checks", True) / 1e9
            with tracer._lock:
                tracer.checks[name] = {"wall_s": wall, "cpu_s": cpu, "wait_s": max(wall - cpu, 0.0)}

    return run_check


# -- installation -----------------------------------------------------------------

def _rebind(original, replacement) -> None:
    """Point every fibgf module global bound to ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "fibgf" or mod_name.startswith("fibgf.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _lookup(mod_name: str, attr: str):
    module = sys.modules.get(mod_name)
    return None if module is None else getattr(module, attr, None)


def install(tracer: Tracer) -> None:
    # some modules (the stream) are imported lazily by the program
    modules = {hook[0] for hook in HOOKS} | {STREAM_HOOK[0], RUN_CHECK_HOOK[0], "fibgf.cli"}
    for mod_name in sorted(modules):
        try:
            importlib.import_module(mod_name)
        except ImportError:
            pass  # its hooks are reported as not observed below

    after = {
        "stats.corr_series": _after_corr_series(tracer),
        "guess": _after_guess(tracer),
        "monoid.enumerate": _after_enumerate(tracer),
        "checks.powersum_cache": _after_powersums(tracer),
    }
    for mod_name, attr, layer, keep_span in HOOKS:
        fn = _lookup(mod_name, attr)
        if not callable(fn):
            tracer.unobserved.append(f"{mod_name}.{attr}")
            continue
        if layer == "stream.residue":
            wrapper = _wrap_residue(tracer, fn)
        else:
            wrapper = _wrap_call(tracer, fn, layer, keep_span, after.get(layer))
        _rebind(fn, wrapper)

    stream_fn = _lookup(*STREAM_HOOK)
    hist_cap = _lookup(STREAM_HOOK[0], "HIST_SPAN_CAP")
    if callable(stream_fn) and isinstance(hist_cap, int):
        _rebind(stream_fn, _wrap_stream(tracer, stream_fn, hist_cap))
    else:
        tracer.unobserved.append(".".join(STREAM_HOOK))

    run_check = _lookup(*RUN_CHECK_HOOK)
    if callable(run_check):
        _rebind(run_check, _wrap_run_check(tracer, run_check))
    else:
        tracer.unobserved.append(".".join(RUN_CHECK_HOOK))

    tracer.notes += [f"dropped {item}" for item in DROPPED]

"""In-memory span tracer for the benchmark's traced runs.

Every layer is timed from outside: :meth:`Tracer.install` replaces each
public entry point listed in :data:`ENTRY_POINTS` with a wrapper that
records a span (layer, name, thread, start, end, self time, op id). The
wrapper is installed on every module attribute that holds the original
function, because callers look the name up where they imported it (for
example ``repro.runtime.taskgraph.lower_source``), and on the class for
methods.

A span's self time is its duration minus the time of the spans nested
inside it on the same thread. Spans carry the id of the benchmark op that
caused them (:meth:`Tracer.op`), so per-op counts can be summed over a
fixed prefix of ops and stay exact however fast the program runs.

Spans stay in memory; :func:`write_chrome_trace` writes them as Chrome
trace-event JSON (opens in chrome://tracing or Perfetto) at the end.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: (module, attribute or Class.method, layer). The layer names are the
#: prefixes of the per-layer metrics in BENCHMARK.json.
ENTRY_POINTS: list[tuple[str, str, str]] = [
    ("repro.frontend.lowering", "lower_source", "frontend"),
    ("repro.frontend.parser", "parse_source", "frontend"),
    ("repro.core.synth", "synthesize", "core"),
    ("repro.core.synth", "synth_process", "core"),
    ("repro.core.synth", "assemble_image", "core"),
    ("repro.hls.compiler", "compile_process", "hls"),
    ("repro.hls.codegen", "generate_rtl", "hls"),
    ("repro.platform.resources", "estimate_image", "platform"),
    ("repro.platform.timing", "estimate_fmax", "platform"),
    ("repro.platform.report", "point_summary", "platform"),
    ("repro.lab.cache", "SynthesisCache.get", "lab.cache"),
    ("repro.lab.cache", "SynthesisCache.get_process", "lab.cache"),
    ("repro.lab.cache", "SynthesisCache.put", "lab.cache"),
    ("repro.lab.cache", "SynthesisCache.put_process", "lab.cache"),
    ("repro.lab.cache", "SynthesisCache.get_or_fill", "lab.cache"),
    ("repro.lab.cache", "SynthesisCache.get_or_fill_process", "lab.cache"),
    ("repro.lab.incremental", "synthesize_incremental", "lab.incremental"),
    ("repro.lab.store", "ResultStore.open_run", "lab.store"),
    ("repro.lab.store", "RunHandle.append", "lab.store"),
    ("repro.lab.store", "RunHandle.write_manifest", "lab.store"),
    ("repro.lab.store", "RunHandle.records", "lab.store"),
    ("repro.lab.store", "RunHandle.completed_ids", "lab.store"),
    ("repro.simc", "make_process_exec", "simc"),
    ("repro.runtime.hwexec", "execute", "runtime.execute"),
    ("repro.runtime.swsim", "software_sim", "runtime.swsim"),
    ("repro.faults.campaign", "generate_scenarios", "faults"),
    ("repro.faults.campaign", "classify_outcome", "faults"),
    ("repro.serve.jobs", "job_fingerprint", "serve.accept"),
    ("repro.serve.jobs", "run_job", "serve.exec"),
]

#: daemon entry points that are the root span of their own op, numbered
#: here because a job's fingerprint costs a full parse to compute
DAEMON_ROOTS = {"job_fingerprint": "daemon-accept",
                "run_job": "daemon-job"}

#: the root span of one benchmark op
OP_LAYER = "op"


def _count_result(tracer: "Tracer", name: str, args, kwargs, result) -> None:
    """Counts taken where the work happens, keyed by the current op."""
    bump = tracer.bump
    if name == "execute":
        bump("runtime.cycles", result.cycles)
    elif name == "get_or_fill":
        kind = kwargs.get("kind", args[5] if len(args) > 5 else "point")
        scope = "proc" if kind == "process" else "app"
        bump(f"lab.{scope}_{'misses' if result[1] else 'hits'}")
    elif name == "synthesize_incremental":
        bump("lab.resyntheses", result[1]["resyntheses"])
    elif name == "classify_outcome":
        bump(f"faults.verdicts.{result[0]}")


class Tracer:
    """Span recorder; one per process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[object, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: per-thread list of (event name, time) stamped on serve replies
        self._events = threading.local()

    # ---- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op(self):
        return getattr(self._local, "op", None)

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            self.counts[self.current_op()][name] += by

    def _enter(self, layer: str, name: str, op=None) -> list:
        if op is not None:
            self._local.op = op
        frame = [layer, name, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        t1 = time.perf_counter()
        stack = self._stack()
        stack.pop()
        layer, name, t0, child = frame
        dur = t1 - t0
        parent = stack[-1][0] if stack else None
        if stack:
            stack[-1][3] += dur
        span = (layer, name, threading.get_ident(), t0, t1, dur - child,
                parent, self.current_op())
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def op(self, op_id):
        """The root span of one benchmark op."""
        frame = self._enter(OP_LAYER, "op", op=op_id)
        try:
            yield
        finally:
            self._exit(frame)
            self._local.op = None

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        root = DAEMON_ROOTS.get(name)
        numbers = itertools.count()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            prev_op = tracer.current_op()
            frame = tracer._enter(
                layer, name,
                op=f"{root}-{next(numbers)}" if root is not None else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            _count_result(tracer, name, args, kwargs, result)
            if root is not None:
                tracer._local.op = prev_op
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    # ---- serve reply stamps ----------------------------------------------

    def take_events(self) -> list[tuple[str, float]]:
        events = getattr(self._events, "items", [])
        self._events.items = []
        return events

    def _stamp_decode(self, fn):
        tracer = self

        @functools.wraps(fn)
        def decode_line(line):
            event = fn(line)
            items = getattr(tracer._events, "items", None)
            if items is None:
                items = tracer._events.items = []
            items.append((event.get("event"), time.perf_counter()))
            return event

        return decode_line

    # ---- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point on every name callers look it up by."""
        for modname, attr, layer in ENTRY_POINTS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(layer, meth, original))
                continue
            original = getattr(module, attr)
            self._patch_everywhere(original, self._wrap(layer, attr, original))
        from repro.serve import protocol

        self._patch_everywhere(protocol.decode_line,
                               self._stamp_decode(protocol.decode_line))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper) -> None:
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # ---- export ----------------------------------------------------------

    def dump(self) -> dict:
        """JSON-able spans and counts (crosses the process boundary)."""
        return {
            "spans": [list(s) for s in self.spans],
            "counts": {str(op): dict(c) for op, c in self.counts.items()},
        }


def layer_table(spans: list) -> dict[str, dict[str, float]]:
    """Per-layer self time, inclusive time and call count.

    ``calls`` counts entries into the layer from outside it, so a nested
    ``parse_source`` under ``lower_source`` is not a second frontend call.
    """
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
    for layer, _name, _tid, t0, t1, self_s, parent, _op in spans:
        row = table[layer]
        row["self_s"] += self_s
        if parent != layer:
            row["total_s"] += t1 - t0
            row["calls"] += 1
    return dict(table)


def render_table(table: dict[str, dict[str, float]], wall_s: float) -> str:
    lines = [f"{'layer':<18}{'self_s':>10}{'share':>8}{'total_s':>10}"
             f"{'calls':>8}"]
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = row["self_s"] / wall_s if wall_s > 0 else 0.0
        lines.append(f"{layer:<18}{row['self_s']:>10.4f}{share:>8.1%}"
                     f"{row['total_s']:>10.4f}{int(row['calls']):>8}")
    return "\n".join(lines)


def write_chrome_trace(path, spans_by_pid: dict[int, list]) -> None:
    """Chrome trace-event JSON: one complete ("X") event per span.

    ``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, so spans from the
    benchmark process and the serve daemon share one time base.
    """
    origin = min((s[3] for spans in spans_by_pid.values() for s in spans),
                 default=0.0)
    events = []
    for pid, spans in spans_by_pid.items():
        for layer, name, tid, t0, t1, self_s, _parent, op in spans:
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": pid,
                "tid": tid, "ts": round((t0 - origin) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3),
                "args": {"op": op, "self_us": round(self_s * 1e6, 3)},
            })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)

"""Perf-bench harness for the compiled-simulation backend.

Benches the interpreted simulators against their :mod:`repro.simc`
specializations on the paper's three workloads (loopback chain, edge
detector, Triple-DES) plus a standalone arithmetic RTL kernel, asserting
bit-identity between the legs before trusting any timing. Emits a JSON
document (``BENCH_sim.json``) whose entries carry *speedup ratios* — a
machine-independent quantity — so a committed baseline can gate CI
without caring how fast the runner is.

Entry points:

* :func:`run_bench` — run the suite, return the JSON-serializable dict;
* :func:`compare_bench` — diff a current run against a baseline, listing
  entries whose speedup regressed by more than ``threshold``;
* ``repro bench`` (:mod:`repro.cli`) — the command-line wrapper CI runs.
"""

from __future__ import annotations

import math
import time
from typing import Callable

from repro.errors import ReproError

#: bump when the JSON layout changes incompatibly
BENCH_SCHEMA = 1

#: relative speedup loss (vs baseline) that counts as a regression
DEFAULT_THRESHOLD = 0.30


class BenchMismatchError(ReproError):
    """The interpreted and compiled legs of a bench disagreed."""

    code_prefix = "RPR-M"


def _time_best(fn: Callable[[], object], repeats: int) -> tuple[float, object]:
    """Best-of-``repeats`` wall time; returns (seconds, last result)."""
    best = math.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _hw_signature(res) -> tuple:
    """The observable outcome of an :func:`repro.runtime.hwexec.execute`
    run — every :class:`~repro.runtime.hwexec.HwResult` field a backend
    or harness-loop swap must preserve. Only which backend ran differs
    legitimately: the ``backend`` tag of ``process_stats`` and the
    fallback ``backend_diagnostics`` are left out."""
    return (
        res.completed,
        res.reason,
        res.cycles,
        {k: list(v) for k, v in sorted(res.outputs.items())},
        list(res.stderr),
        sorted((name, site.ordinal, site.expr_text)
               for name, site in res.failures),
        repr(res.aborted_by),
        res.first_failure_cycle,
        list(res.quarantined),
        [str(t) for t in res.traces],
        repr(res.watchdog),
        {name: {k: v for k, v in st.items() if k != "backend"}
         for name, st in sorted(res.process_stats.items())},
        list(res.fault_events),
    )


def _bench_hwexec(name: str, build_app, repeats: int) -> dict:
    """Bench one application end-to-end through ``execute()``.

    Synthesis and codegen are paid once up front (a warm-up run per
    backend), so the timed region measures simulation, not compilation —
    the quantity the compiled backend actually changes.
    """
    from repro.core.synth import synthesize
    from repro.runtime.hwexec import execute

    image = synthesize(build_app(), assertions="optimized")

    def run(backend: str):
        return execute(image, sim_backend=backend)

    sig = {}
    for backend in ("interp", "compiled"):
        res = run(backend)  # warm-up: codegen memo + import costs
        if backend == "compiled" and res.backend_diagnostics:
            raise BenchMismatchError(
                f"{name}: compiled leg silently fell back to the "
                f"interpreter: {res.backend_diagnostics}", code="RPR-M001")
        sig[backend] = _hw_signature(res)
    if sig["interp"] != sig["compiled"]:
        raise BenchMismatchError(
            f"{name}: interp/compiled execute() results differ:\n"
            f"  interp:   {sig['interp']}\n"
            f"  compiled: {sig['compiled']}", code="RPR-M002")

    interp_s, res = _time_best(lambda: run("interp"), repeats)
    compiled_s, _ = _time_best(lambda: run("compiled"), repeats)
    return {
        "name": name,
        "kind": "hwexec",
        "cycles": res.cycles,
        "interp_s": round(interp_s, 6),
        "compiled_s": round(compiled_s, 6),
        "speedup": round(interp_s / compiled_s, 3),
    }


def _bench_batched(name: str, build_app, n_lanes: int,
                   repeats: int) -> dict:
    """Bench the multi-seed shape batching exists for: N independent runs
    of one image (a campaign's scenarios at one level, a difftest seed
    range, a sweep's replication points).

    ``interp_s`` times the interpreter loop — N scalar ``execute()``
    calls, the pre-batching campaign inner loop — against one
    ``execute_batch`` call advancing all N lanes through the generated
    structure-of-arrays tick functions (``compiled_s``), with the scalar
    *compiled* loop recorded alongside (``scalar_compiled_s``) so the
    dispatch-amortization win is visible separately from the
    compiled-vs-interp win. Lane results are equality-checked against
    the scalar run before any timing is trusted.
    """
    from repro.core.synth import synthesize
    from repro.runtime.hwexec import LaneSpec, execute, execute_batch

    image = synthesize(build_app(), assertions="optimized")

    def scalar_loop(backend: str):
        return [execute(image, sim_backend=backend)
                for _ in range(n_lanes)]

    def batched():
        return execute_batch(image,
                             [LaneSpec() for _ in range(n_lanes)])

    ref = _hw_signature(execute(image, sim_backend="interp"))
    lanes = batched()  # warm-up: batched codegen memo
    for i, res in enumerate(lanes):
        for st in res.process_stats.values():
            if st["backend"] != "batched":
                raise BenchMismatchError(
                    f"{name}: lane {i} silently fell back to the "
                    f"{st['backend']} backend: "
                    f"{res.backend_diagnostics}", code="RPR-M004")
        if _hw_signature(res) != ref:
            raise BenchMismatchError(
                f"{name}: batched lane {i} differs from the scalar "
                f"interpreter run:\n  interp:  {ref}\n"
                f"  batched: {_hw_signature(res)}", code="RPR-M005")

    interp_s, res = _time_best(lambda: scalar_loop("interp"), repeats)
    scalar_compiled_s, _ = _time_best(lambda: scalar_loop("compiled"),
                                      repeats)
    compiled_s, _ = _time_best(batched, repeats)
    return {
        "name": name,
        "kind": "batch",
        "lanes": n_lanes,
        "cycles": sum(r.cycles for r in res),
        "interp_s": round(interp_s, 6),
        "scalar_compiled_s": round(scalar_compiled_s, 6),
        "compiled_s": round(compiled_s, 6),
        "speedup": round(interp_s / compiled_s, 3),
        "batch_speedup": round(scalar_compiled_s / compiled_s, 3),
    }


_RTL_KERNEL = """
void k(co_stream input, co_stream output) {
  uint32 x; uint32 acc; int32 s;
  acc = 0;
  while (co_stream_read(input, &x)) {
    s = (int32)x - 1000;
    acc = acc + ((s < 0) ? (uint32)(-s) : (uint32)s);
    acc = (acc * 7) ^ (acc >> 3);
    co_stream_write(output, (x * 13 + acc) & 65535);
  }
  co_stream_write(output, acc);
  co_stream_close(output);
}
"""


_PASS_THROUGH = """
void q(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) {
    co_stream_write(output, x);
  }
  co_stream_close(output);
}
"""


def _pass_through_app(data: list[int]):
    """One process copying its input to its output: all board link."""
    from repro.runtime.taskgraph import Application

    app = Application("feedbench")
    app.add_c_process(_PASS_THROUGH, name="q", filename="feedbench.c")
    app.feed("in", "q.input", data=data)
    app.sink("out", "q.output")
    return app


def _bench_rtl(name: str, data: list[int], repeats: int) -> dict:
    """Bench the raw RTL simulators on a standalone sequential module.

    The module is synthesized without assertions so both simulators bind
    exactly two stream ports — this isolates the RtlSim tick loop itself
    (the hwexec benches above cover the full mixed fabric).
    """
    from repro import simc
    from repro.core.synth import synthesize
    from repro.hls.cyclemodel import Channel
    from repro.runtime.taskgraph import Application

    app = Application("rtlbench")
    app.add_c_process(_RTL_KERNEL, name="k", filename="rtlbench.c")
    app.feed("in", "k.input", data=data)
    app.sink("out", "k.output")
    cp = synthesize(app, assertions="none").compiled["k"]

    def run(backend: str):
        cin = Channel("i", depth=len(data) + 2)
        cout = Channel("o", unbounded=True)
        for v in data:
            cin.push(v)
        cin.close()
        sim = simc.make_rtl_sim(
            cp.rtl, {"input": cin, "output": cout},
            backend=backend, strict=True)
        sim.run(max_cycles=10_000_000)
        return (sim.cycles, sim.stalled, sim.taps, list(cout.queue),
                cout.closed)

    if run("interp") != run("compiled"):
        raise BenchMismatchError(
            f"{name}: interp/compiled RTL simulation differs",
            code="RPR-M003")

    interp_s, res = _time_best(lambda: run("interp"), repeats)
    compiled_s, _ = _time_best(lambda: run("compiled"), repeats)
    return {
        "name": name,
        "kind": "rtl",
        "cycles": res[0],
        "interp_s": round(interp_s, 6),
        "compiled_s": round(compiled_s, 6),
        "speedup": round(interp_s / compiled_s, 3),
    }


def _suite(quick: bool) -> list[tuple[str, Callable[[], dict], int]]:
    # quick mode trades timing stability (fewer repeats), NOT workload
    # size — the speedup ratios stay comparable to a full-mode baseline,
    # which is what lets CI's --quick run gate against the committed
    # BENCH_sim.json.
    from repro.apps.edge_detect import build_edge_app
    from repro.apps.loopback import build_loopback
    from repro.apps.tripledes import build_tdes_app

    repeats = 1 if quick else 3
    loop_data = list(range(1, 513))
    edge_wh = (32, 16)
    text = b"Now is the time for all good men to come to the aid!"
    rtl_data = [i * 17 % 4096 for i in range(4000)]
    # long enough that a feeder costing O(n) per word would dominate
    feed_data = [(i * 2654435761) % (1 << 32) for i in range(65_536)]

    return [
        ("loopback3",
         lambda: _bench_hwexec(
             "loopback3", lambda: build_loopback(3, data=loop_data),
             repeats),
         repeats),
        ("edge_detect",
         lambda: _bench_hwexec(
             "edge_detect",
             lambda: build_edge_app(width=edge_wh[0], height=edge_wh[1]),
             repeats),
         repeats),
        ("tripledes",
         lambda: _bench_hwexec(
             "tripledes", lambda: build_tdes_app(text), repeats),
         repeats),
        ("feed64k",
         lambda: _bench_hwexec(
             "feed64k", lambda: _pass_through_app(feed_data), repeats),
         repeats),
        ("rtl_kernel",
         lambda: _bench_rtl("rtl_kernel", rtl_data, repeats),
         repeats),
        ("loopback_batch",
         lambda: _bench_batched(
             "loopback_batch",
             lambda: build_loopback(3, data=list(range(1, 129))),
             16, repeats),
         repeats),
    ]


def run_bench(quick: bool = False) -> dict:
    """Run the full perf-bench suite; every entry is equality-checked
    between backends before its timing is recorded."""
    entries = [fn() for _, fn, _ in _suite(quick)]
    speedups = [e["speedup"] for e in entries]
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    return {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "entries": entries,
        "geomean_speedup": round(geomean, 3),
    }


def render_bench(doc: dict) -> str:
    """Human-readable table for a :func:`run_bench` document."""
    lines = [
        "SIMULATION BACKEND BENCH (interp vs compiled)"
        + ("  [quick]" if doc.get("quick") else ""),
        f"{'name':<14} {'kind':<7} {'cycles':>9} "
        f"{'interp_s':>10} {'compiled_s':>11} {'speedup':>8}",
    ]
    for e in doc["entries"]:
        lines.append(
            f"{e['name']:<14} {e['kind']:<7} {e['cycles']:>9} "
            f"{e['interp_s']:>10.4f} {e['compiled_s']:>11.4f} "
            f"{e['speedup']:>7.2f}x")
    lines.append(f"geomean speedup: {doc['geomean_speedup']:.2f}x")
    return "\n".join(lines)


def compare_bench(current: dict, baseline: dict,
                  threshold: float = DEFAULT_THRESHOLD,
                  notes: list[str] | None = None) -> list[str]:
    """Return regression messages (empty list = pass).

    An entry regresses when its speedup dropped more than ``threshold``
    (relative) below the baseline's, or disappeared from the run. An
    entry the baseline lacks — the normal state right after a new bench
    lands — is NOT a failure: it is recorded only, with an explanatory
    line appended to ``notes`` (when given), and starts gating once the
    baseline is regenerated to include it. A baseline entry without a
    usable ``speedup`` likewise notes-and-skips instead of raising — a
    hand-edited or truncated baseline must degrade the gate, not crash
    it.
    """
    if baseline.get("schema") != current.get("schema"):
        return [
            f"bench schema changed ({baseline.get('schema')} -> "
            f"{current.get('schema')}); regenerate the baseline"]

    def note(text: str) -> None:
        if notes is not None:
            notes.append(text)

    base = {(e["name"], e["kind"]): e for e in baseline.get("entries", [])
            if "name" in e and "kind" in e}
    cur = {(e["name"], e["kind"]): e for e in current.get("entries", [])
           if "name" in e and "kind" in e}
    problems = []
    for key, be in sorted(base.items()):
        ce = cur.get(key)
        if ce is None:
            problems.append(f"{key[0]}/{key[1]}: missing from current run")
            continue
        base_speedup = be.get("speedup")
        cur_speedup = ce.get("speedup")
        if not isinstance(base_speedup, (int, float)) \
                or not isinstance(cur_speedup, (int, float)):
            note(f"{key[0]}/{key[1]}: baseline or current entry has no "
                 "usable speedup; not gated (regenerate the baseline)")
            continue
        floor = base_speedup * (1.0 - threshold)
        if cur_speedup < floor:
            problems.append(
                f"{key[0]}/{key[1]}: speedup {cur_speedup:.2f}x below "
                f"floor {floor:.2f}x (baseline {base_speedup:.2f}x, "
                f"threshold {threshold:.0%})")
    for key in sorted(set(cur) - set(base)):
        note(f"{key[0]}/{key[1]}: no baseline entry; recorded only "
             "(regenerate the baseline to gate it)")
    return problems

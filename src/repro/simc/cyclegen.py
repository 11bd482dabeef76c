"""Fused per-image cycle function: the ``execute()`` harness, specialized.

:mod:`repro.simc.schedgen` specializes each process's schedule, but the
loop that clocks those processes — injector, board link round-robin,
collectors, process dispatch, latency monitors, abort / drain checks and
the watchdog — used to be generic Python re-deriving the same facts every
cycle (which processes block completion, which streams cross the link,
which taps feed which collector). Like FLASH, which specializes the whole
design rather than each component, this module emits **one cycle
function per image topology** with all of those facts resolved at
generation time:

* the board link is a round-robin loop over precomputed visiting
  orders, with feeders as deques and channel pushes and pops inlined
  unless a runtime fault hooks the channel (then the
  :class:`~repro.hls.cyclemodel.Channel` methods run, so fault hooks
  behave exactly as before); the feeder side stops looking once every
  feeder is empty and closed;
* compiled processes are dispatched straight to their generated step or
  pipeline function, with ``done`` / ``cycles`` / mode dispatch and
  ``stall_cycles`` bookkeeping inlined (``done`` and the stall count in
  locals, written back before the harness reads them); interpreted (or
  fallback) processes call ``tick()``;
* collectors, arbiters and latency monitors cost one inlined emptiness
  test per cycle and only run their (shared) ``tick`` when a tap holds
  a word;
* the drain check tests a precomputed list of non-daemon processes;
* the watchdog's idle and stagnant counters are locals, and forward
  progress comes from running counters (board and collector words moved
  plus each process's own ``stream_ops``) instead of re-summing every
  channel each cycle.

``ProcessExec`` and ``Channel`` objects stay the source of truth for
every piece of state a trace, fault hook, quarantine or report reads.
Rare events — a word on an assertion-failure stream, a latency
violation, a watchdog verdict — call back into the harness object.

The topology is structural only (process daemon / backend flags, counts,
sink kinds, tap indices): no names, feeder data, faults or process IR,
so every run of one design — every campaign cell, every seeded input —
shares one generated source through :func:`cached_source`.

The harness object ``H`` the generated ``_cycle(H, max_cycles)``
expects provides ``procs`` (executors in process order), ``fed`` and
``sinks`` (the round-robin visiting orders of the CPU-fed and CPU-bound
streams, sorted by name: entry ``r`` starts at stream ``r``, and lists
``(next r, channel, deque)`` per feeder and ``(next r, name, queue,
channel, output list or None)`` per sink), ``taps`` (tap channels),
``collectors``, ``monitors``, ``injector``, ``config`` (a
:class:`~repro.runtime.watchdog.WatchdogConfig`) and the callbacks
``deliver_failure(stream, word, cycle)``,
``record_violations(monitor, cycle)``, ``verdict(reason, cycle, idle,
stagnant, last, window)`` and ``finish(cycle, idle, stagnant, last,
window)``. ``_cycle`` returns the termination reason it broke on
(``aborted`` / ``completed`` / a watchdog verdict) or ``None`` when the
cycle budget ran out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hls.cyclemodel import ProcessExec

from .codecache import cached_source, compile_source
from .rtlgen import _Emitter

__all__ = ["Topology", "cycle_function", "cycle_source",
           "generate_cycle_source"]


@dataclass(frozen=True)
class Topology:
    """Everything the fused cycle function is specialized on."""

    #: ``(daemon, compiled)`` per FPGA process, in execution order
    procs: tuple[tuple[bool, bool], ...]
    #: number of CPU-fed streams
    fed: int
    #: number of CPU-bound streams
    sinks: int
    #: number of tap channels
    taps: int
    #: ``(kind, input tap indices)`` per collector / arbiter, tick order
    collectors: tuple[tuple[str, tuple[int, ...]], ...]
    #: ``(start tap, end tap)`` per latency monitor
    monitors: tuple[tuple[int, int], ...]


def _emit_push(em: _Emitter, ch: str, faulted: str, value: str) -> None:
    """``ch.push(value)``, inlined when no fault hooks the channel."""
    em.put(f"if {faulted}:")
    em.put(f"    {ch}.push({value})")
    em.put("else:")
    em.put(f"    {ch}.pushes += 1")
    em.put(f"    _q = {ch}.queue")
    em.put(f"    _q.append({value})")
    em.put(f"    if _len(_q) > {ch}.max_occupancy:")
    em.put(f"        {ch}.max_occupancy = _len(_q)")


def _can_push(ch: str, faulted: str) -> str:
    return f"({ch}.can_push() if {faulted} else _len({ch}.queue) < {ch}.depth)"


def _emit_feed(em: _Emitter, n: int) -> None:
    """CPU -> FPGA: one word per cycle across all feeder streams, visited
    round-robin from ``frr``; nothing once every feeder is empty and
    closed."""
    if n == 0:
        return
    em.put("# board link, CPU -> FPGA")
    em.put("if feeding:")
    em.indent += 1
    em.put("_closed = False")
    em.put("for _n, _c, _d, _ff in FROT[frr]:")
    em.indent += 1
    em.put("if _d:")
    em.indent += 1
    em.put(f"if {_can_push('_c', '_ff')}:")
    em.indent += 1
    em.put("_v = _d.popleft()")
    _emit_push(em, "_c", "_ff", "_v")
    em.put("moves += 1")
    em.put("if not _d:")
    em.put("    _c.close()")
    em.put("    _closed = True")
    em.put("frr = _n")
    em.put("active = True")
    em.put("break")
    em.indent -= 2
    em.put("elif not _c.closed:")
    em.put("    _c.close()")
    em.put("    _closed = active = True")
    em.indent -= 1
    em.put("if _closed:")
    em.put("    feeding = any(_d or not _c.closed for _n, _c, _d, _ff in FROT[0])")
    em.indent -= 1


def _emit_sinks(em: _Emitter, n: int) -> None:
    """FPGA -> CPU: one word per cycle across all sink streams, visited
    round-robin from ``srr``."""
    if n == 0:
        return
    em.put("# board link, FPGA -> CPU")
    em.put(f"if {' or '.join(f'SQ{i}' for i in range(n))}:")
    em.indent += 1
    em.put("for _n, _name, _q, _c, _o in SROT[srr]:")
    em.indent += 1
    em.put("if _q:")
    em.indent += 1
    em.put("_w = _q.popleft()")
    em.put("_c.pops += 1")
    em.put("moves += 1")
    em.put("if _o is None:  # an assertion-failure stream")
    em.put("    if _fail(_name, _w, cycle):")
    em.put("        halted = True")
    em.put("else:")
    em.put("    _o.append(_w)")
    em.put("srr = _n")
    em.put("active = True")
    em.put("break")
    em.indent -= 3


def _emit_collectors(em: _Emitter, topo: Topology) -> None:
    for j, (kind, inputs) in enumerate(topo.collectors):
        guard = [f"T{t}" for t in inputs]
        if kind == "collector":
            em.put(f"# collector {j}")
            em.put(f"if {' or '.join(guard + [f'K{j}.pending'])}:")
            em.indent += 1
            # the collector's output is an application stream: count its
            # words toward the watchdog's forward progress
            em.put(f"_p = KO{j}.pushes")
            em.put(f"if K{j}.tick():")
            em.put("    active = True")
            em.put(f"moves += KO{j}.pushes - _p")
            em.indent -= 1
        elif guard:
            em.put(f"# arbiter {j}")
            em.put(f"if {' or '.join(guard)}:")
            em.put(f"    if K{j}.tick():")
            em.put("        active = True")


def _emit_process(em: _Emitter, i: int, compiled: bool) -> None:
    """One process tick. A compiled process keeps its ``done`` flag and
    stall count in locals (``D<i>``, ``ST<i>``); its ``cycles`` counter
    equals the loop's cycle until it finishes, so it is written once then
    and by :func:`_emit_sync` before the harness looks at it."""
    p = f"P{i}"
    if not compiled:
        em.put(f"if {p}.tick() == 'active':")
        em.put("    active = True")
        return
    em.put(f"if not D{i}:")
    em.indent += 1
    em.put(f"if {p}.mode == 'seq':")
    em.put(f"    _f = S{i}.get({p}.block)")
    em.put(f"    _s = IS{i}() if _f is None else _f[{p}.step]()")
    em.put("else:")
    em.put(f"    _f = Q{i}.get({p}.block)")
    em.put(f"    _s = IQ{i}() if _f is None else _f()")
    em.put("if _s == 'active':")
    em.put("    active = True")
    em.put("elif _s == 'stalled':")
    em.put(f"    ST{i} += 1")
    em.put("else:  # 'done': the step function set P.done")
    em.put(f"    D{i} = True")
    em.put(f"    {p}.cycles = cycle")
    em.indent -= 1


def _emit_sync(em: _Emitter, topo: Topology) -> None:
    """Write compiled processes' local counters back to their executors."""
    for i, (_, compiled) in enumerate(topo.procs):
        if compiled:
            em.put(f"if not D{i}:")
            em.put(f"    P{i}.cycles = cycle")
            em.put(f"P{i}.stall_cycles += ST{i}")
            em.put(f"ST{i} = 0")


def _emit_reload(em: _Emitter, topo: Topology) -> None:
    """Re-read ``done`` flags after the harness may have quarantined."""
    for i, (_, compiled) in enumerate(topo.procs):
        if compiled:
            em.put(f"D{i} = P{i}.done")


def _emit_monitors(em: _Emitter, topo: Topology) -> None:
    for j, (start, end) in enumerate(topo.monitors):
        em.put(f"# latency monitor {j}")
        em.put(f"if T{start} or T{end}:")
        em.put(f"    if M{j}.tick(cycle):")
        em.put("        active = True")
        em.put(f"    if M{j}.violations and _viol(M{j}, cycle):")
        em.put("        halted = True")


def _emit_drain(em: _Emitter, topo: Topology) -> None:
    """Completion: every non-daemon done and nothing left in flight."""
    blocking = [f"D{i}" if compiled else f"P{i}.done"
                for i, (daemon, compiled) in enumerate(topo.procs)
                if not daemon]
    empty = ["not active"]
    empty += [f"not SQ{i}" for i in range(topo.sinks)]
    empty += [f"not T{t}" for t in range(topo.taps)]
    empty += [f"K{j}.pending == 0"
              for j, (kind, _) in enumerate(topo.collectors)
              if kind == "collector"]
    em.put("# drain: the application is done once nothing is in flight")
    if blocking:
        em.put(f"if {' and '.join(blocking)}:")
        em.indent += 1
    em.put(f"if {' and '.join(empty)}:")
    em.put("    reason = 'completed'")
    em.put("    break")
    if blocking:
        em.indent -= 1


def _emit_verdict(em: _Emitter, topo: Topology, verdict: str) -> None:
    _emit_sync(em, topo)
    em.put(f"_r = _verdict({verdict!r}, cycle, idle, stagnant, last, "
           "window)")
    em.put("if _r is None:")
    em.put(f"    reason = {verdict!r}")
    em.put("    break")
    _emit_reload(em, topo)
    em.put("idle, stagnant, last = _r")
    em.put("continue")


def _emit_watchdog(em: _Emitter, topo: Topology) -> None:
    n = len(topo.procs)
    em.put("# watchdog: idle (deadlock) and stagnant (livelock) counters")
    em.put("if active:")
    em.put("    idle = 0")
    em.put("else:")
    em.indent += 1
    em.put("idle += 1")
    em.put("if idle >= IDLE:")
    em.indent += 1
    _emit_verdict(em, topo, "deadlock")
    em.indent -= 2
    ops = "".join(f" + P{i}.stream_ops" for i in range(n))
    em.put(f"progress = moves{ops}")
    em.put("if progress != last:")
    em.put("    last = progress")
    em.put("    stagnant = 0")
    em.put("else:")
    em.indent += 1
    em.put("if stagnant == 0:")
    snap = ", ".join(
        f"(P{i}.stream_ops, P{i}.stall_cycles{f' + ST{i}' if c else ''})"
        for i, (_, c) in enumerate(topo.procs))
    em.put(f"    window = ({snap}{',' if n == 1 else ''})")
    em.put("stagnant += 1")
    em.put("if stagnant >= WINDOW:")
    em.indent += 1
    _emit_verdict(em, topo, "livelock")
    em.indent -= 2


def _emit_prologue(em: _Emitter, topo: Topology) -> None:
    for i, (_, compiled) in enumerate(topo.procs):
        em.put(f"P{i} = H.procs[{i}]")
        if compiled:
            em.put(f"S{i} = P{i}._seq_fns")
            em.put(f"Q{i} = P{i}._pipe_fns")
            em.put(f"IS{i} = _ISEQ.__get__(P{i})")
            em.put(f"IQ{i} = _IPIPE.__get__(P{i})")
            em.put(f"D{i} = P{i}.done")
            em.put(f"ST{i} = 0")
    if topo.fed:
        em.put("FROT = [[(_n, _c, _d, bool(_c.faults)) for _n, _c, _d in _r]"
               " for _r in H.fed]")
        em.put("feeding = True")
    for i in range(topo.sinks):
        em.put(f"SQ{i} = H.sinks[0][{i}][2]")
    if topo.sinks:
        em.put("SROT = H.sinks")
    for t in range(topo.taps):
        em.put(f"T{t} = H.taps[{t}].queue")
    for j, (kind, _) in enumerate(topo.collectors):
        em.put(f"K{j} = H.collectors[{j}]")
        if kind == "collector":
            em.put(f"KO{j} = K{j}.out")
    for j in range(len(topo.monitors)):
        em.put(f"M{j} = H.monitors[{j}]")
    em.put("_fail = H.deliver_failure")
    em.put("_viol = H.record_violations")
    em.put("_verdict = H.verdict")
    em.put("INJ = H.injector.tick if H.injector.faults else None")
    em.put("IDLE = H.config.idle_limit")
    em.put("WINDOW = H.config.livelock_window")
    em.put("idle = stagnant = moves = frr = srr = cycle = 0")
    em.put("last = -1")
    em.put("window = None")
    em.put("reason = None")


def generate_cycle_source(topo: Topology) -> str:
    """Generate (uncached) source of the fused cycle function."""
    em = _Emitter()
    em.put(f"# fused cycle function: {len(topo.procs)} processes, "
           f"{topo.fed} feeders, {topo.sinks} sinks, {topo.taps} "
           f"taps, {len(topo.collectors)} collectors, "
           f"{len(topo.monitors)} latency monitors")
    em.put("def _cycle(H, max_cycles):")
    em.indent += 1
    _emit_prologue(em, topo)
    em.put("for cycle in range(1, max_cycles + 1):")
    em.indent += 1
    em.put("if INJ is not None:")
    em.put("    INJ()")
    em.put("active = halted = False")
    _emit_feed(em, topo.fed)
    _emit_sinks(em, topo.sinks)
    _emit_collectors(em, topo)
    for i, (_, compiled) in enumerate(topo.procs):
        em.put(f"# process {i}")
        _emit_process(em, i, compiled)
    _emit_monitors(em, topo)
    em.put("if halted:")
    em.put("    reason = 'aborted'")
    em.put("    break")
    _emit_drain(em, topo)
    _emit_watchdog(em, topo)
    em.indent -= 1
    _emit_sync(em, topo)
    em.put("H.finish(cycle, idle, stagnant, last, window)")
    em.put("return reason")
    return "\n".join(em.lines) + "\n"


def cycle_source(topo: Topology, cache=None) -> str:
    """Cached variant of :func:`generate_cycle_source`, keyed on the
    topology alone (kind ``cycle``)."""
    return cached_source("cycle", (repr(topo),),
                         lambda: generate_cycle_source(topo), cache=cache)


def cycle_function(topo: Topology, cache=None):
    """The compiled ``_cycle(H, max_cycles)`` function for ``topo``."""
    code = compile_source(cycle_source(topo, cache=cache), "<simc-cycle>")
    ns = {"__builtins__": {}, "range": range, "_len": len, "any": any,
          "bool": bool, "_ISEQ": ProcessExec._tick_seq,
          "_IPIPE": ProcessExec._tick_pipe}
    exec(code, ns)
    return ns["_cycle"]

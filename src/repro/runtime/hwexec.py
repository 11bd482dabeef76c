"""Hardware execution: cycle-accurate co-simulation of the whole system.

The synthesized application runs as a set of :class:`ProcessExec` circuit
models connected by FIFO channels, a board model with **one time-multiplexed
physical CPU<->FPGA link** (the paper's portability mechanism: all logical
streams, including assertion-failure streams, share it round-robin, one
word per direction per cycle), collector pseudo-processes for shared
failure channels, and the CPU-side assertion notification function that
decodes failure words, prints the ANSI-C message and halts the application
(unless ``NABORT``).

Terminations are classified by the runtime watchdog
(:mod:`repro.runtime.watchdog`): ``completed``, ``aborted`` (assertion
halt), ``deadlock`` (everything stalled — reported with per-process traces
naming the blocked source lines, exactly the debugging workflow of the
paper's Section 5.1 second example), ``livelock`` (active but no stream
progress — the DES polling hang), and ``timeout`` (cycle budget exhausted
mid-progress). Runtime faults (:mod:`repro.faults.runtime`) can be
injected into the channel fabric and process registers, and under
``NABORT`` the watchdog can quarantine stuck processes so the rest of the
application — including in-flight assertion notifications — drains to
completion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter

from repro.faults.runtime import RuntimeFaultInjector
from repro.hls.compiler import CompiledProcess
from repro.hls.cyclemodel import Channel, ProcessExec, ProcessTrace
from repro.ir.instr import AssertionSite
from repro.runtime.taskgraph import Application
from repro.runtime.watchdog import (
    ABORTED,
    COMPLETED,
    HANG_REASONS,
    TIMEOUT,
    Watchdog,
    WatchdogConfig,
    WatchdogReport,
)


@dataclass
class CollectorSpec:
    """Shared-failure-channel collector (repro.core.share).

    ``inputs`` maps tap channels carrying failure events to bit positions of
    the packed word sent on ``output`` ("a single bit of the stream is used
    per assertion", Section 4.2).
    """

    inputs: list[tuple[str, int]] = field(default_factory=list)
    output: str = ""


@dataclass
class FailStreamDecode:
    """How the notifier interprets words arriving on one failure stream.

    ``mode='code'``: the word is an assertion error code (unoptimized
    framework, Section 4.1). ``mode='bitmask'``: each set bit identifies an
    assertion on this shared channel (resource sharing, Section 4.2).
    """

    mode: str
    table: dict[int, tuple[str, AssertionSite]] = field(default_factory=dict)


@dataclass
class HardwareImage:
    """A fully synthesized application, ready to execute or to estimate."""

    app: Application
    compiled: dict[str, CompiledProcess]
    assert_decode: dict[str, FailStreamDecode] = field(default_factory=dict)
    nabort: bool = False
    assertion_level: str = "none"
    #: timing assertions (repro.core.timing_assert.LatencyRegion)
    latency_regions: list = field(default_factory=list)
    #: simulation backend requested at synthesis time ("interp"/"compiled");
    #: execute() can still override per run
    sim_backend: str = "compiled"

    def __repr__(self) -> str:
        # the field-wise repr spells out every process's IR and schedule;
        # callers that key on repr (the lab executor's task token) need
        # only which image it is
        return (f"HardwareImage(app={self.app.name!r}, "
                f"assertion_level={self.assertion_level!r}, "
                f"nabort={self.nabort}, processes={sorted(self.compiled)})")

    def decode_failure(self, stream: str, word: int) -> list[tuple[str, AssertionSite]]:
        decode = self.assert_decode.get(stream)
        if decode is None:
            return []
        if decode.mode == "code":
            hit = decode.table.get(word)
            return [hit] if hit is not None else []
        # the bit range is defined by the decode table itself: a shared
        # failure channel wider than 32 assertions (wide share_word_width)
        # must not silently drop the high bits
        hits = []
        for bit in sorted(decode.table):
            if (word >> bit) & 1:
                hits.append(decode.table[bit])
        return hits


@dataclass
class HwResult:
    """Outcome of a hardware execution.

    ``reason`` is one of :data:`repro.runtime.watchdog.TERMINATIONS`:
    ``completed`` / ``aborted`` / ``deadlock`` / ``livelock`` /
    ``timeout`` — the legacy ``hung`` flag (which conflated the last
    three) survives as a derived property.
    """

    completed: bool
    cycles: int
    outputs: dict[str, list[int]] = field(default_factory=dict)
    #: warning dicts from compiled->interp backend fallbacks (RPR-K101)
    backend_diagnostics: list[dict] = field(default_factory=list)
    stderr: list[str] = field(default_factory=list)
    failures: list[tuple[str, AssertionSite]] = field(default_factory=list)
    aborted_by: AssertionSite | None = None
    reason: str = COMPLETED
    traces: list[ProcessTrace] = field(default_factory=list)
    process_stats: dict[str, dict] = field(default_factory=dict)
    #: cycle at which the first assertion failure reached the CPU notifier
    #: (detection latency for fault campaigns); None if none arrived
    first_failure_cycle: int | None = None
    #: processes retired by the watchdog's NABORT graceful degradation
    quarantined: list[str] = field(default_factory=list)
    watchdog: WatchdogReport | None = None
    #: what injected runtime faults actually did, in firing order
    fault_events: list[str] = field(default_factory=list)

    @property
    def aborted(self) -> bool:
        return self.aborted_by is not None

    @property
    def hung(self) -> bool:
        return self.reason in HANG_REASONS


class _Arbiter:
    """Round-robin merge of per-assertion tap FIFOs (the paper's Section
    3.3 future-work extension): one record per cycle moves from a member
    FIFO onto the merged channel, tagged with the assertion index and with
    the member's values placed at its slot offsets."""

    pending = 0  # drain-condition compatibility with _Collector
    out = None  # merges onto a tap, not an application stream

    def __init__(self, spec, taps: dict[str, Channel]):
        self.spec = spec
        self.taps = taps
        self.rr = 0
        self.in_qs = [taps[name].queue for name in spec.inputs]

    def tick(self) -> bool:
        n = len(self.spec.inputs)
        for k in range(n):
            idx = (self.rr + k) % n
            ch = self.taps[self.spec.inputs[idx]]
            if ch.can_pop():
                record = ch.pop()
                slots = [0] * self.spec.total_slots
                base = self.spec.offsets[idx]
                for i, v in enumerate(record):
                    slots[base + i] = v
                self.taps[self.spec.output].push((idx, *slots))
                self.rr = (idx + 1) % n
                return True
        return False


class _LatencyMonitor:
    """Hardware latency monitor: a cycle counter per measured region plus a
    bound comparator (the paper's future-work timing assertions)."""

    pending = 0

    def __init__(self, region, taps: dict[str, Channel]):
        self.region = region
        self.taps = taps
        self.start_cycle: int | None = None
        self.violations: list[tuple[object, int]] = []

    def tick(self, cycle: int) -> bool:
        active = False
        start_ch = self.taps[self.region.start_channel]
        while start_ch.can_pop():
            start_ch.pop()
            self.start_cycle = cycle
            active = True
        end_ch = self.taps[self.region.end_channel]
        while end_ch.can_pop():
            end_ch.pop()
            active = True
            if self.start_cycle is None:
                continue  # end without start: extraction rejects this shape
            elapsed = cycle - self.start_cycle
            if elapsed > self.region.bound:
                self.violations.append((self.region, elapsed))
            self.start_cycle = None
        return active


class _Collector:
    """Cycle behaviour of a CollectorSpec: OR arriving failure bits into a
    sticky word and push it on the shared failure stream when non-zero."""

    def __init__(self, spec: CollectorSpec, taps: dict[str, Channel],
                 out: Channel):
        self.spec = spec
        self.taps = taps
        self.out = out
        self.pending = 0
        self.in_qs = [taps[name].queue for name, _bit in spec.inputs]

    def tick(self) -> bool:
        active = False
        for name, bit in self.spec.inputs:
            ch = self.taps[name]
            while ch.can_pop():
                ch.pop()
                self.pending |= 1 << bit
                active = True
        if self.pending and self.out.can_push():
            self.out.push(self.pending)
            self.pending = 0
            active = True
        return active


_STREAM_OPS = attrgetter("stream_ops")

#: stream roles whose words go to the CPU assertion notifier
_FAIL_ROLES = ("assert_code", "assert_bitmask")


def _notify_failure(image: HardwareImage, result: HwResult, stream: str,
                    word: int, cycle: int) -> bool:
    """CPU-side assertion notification for one word arriving on a failure
    stream: decode it, print each message, halt unless ``NABORT``.
    Returns True when the application must halt."""
    hits = image.decode_failure(stream, word)
    if hits and result.first_failure_cycle is None:
        result.first_failure_cycle = cycle
    halted = False
    for proc, site in hits:
        result.failures.append((proc, site))
        result.stderr.append(site.message())
        if not image.nabort:
            result.aborted_by = site
            halted = True
    return halted


def _record_violations(image: HardwareImage, result: HwResult,
                       monitor: _LatencyMonitor, cycle: int) -> bool:
    """Report (and clear) a latency monitor's violations; True halts."""
    halted = False
    for region, elapsed in monitor.violations:
        if result.first_failure_cycle is None:
            result.first_failure_cycle = cycle
        result.failures.append((region.process, region.site))
        result.stderr.append(region.message(elapsed))
        if not image.nabort:
            result.aborted_by = region.site
            halted = True
    monitor.violations.clear()
    return halted


def _quarantine(image: HardwareImage, cfg: WatchdogConfig, wd: Watchdog,
                execs: dict, channels: dict, result: HwResult,
                verdict: str, rounds: int) -> bool:
    """Graceful degradation: under NABORT the stuck processes are
    quarantined (retired, their output streams closed) so the survivors —
    and every failure word still in flight — drain. Returns True when
    victims were retired and the run goes on."""
    if not (cfg.quarantine and image.nabort
            and rounds < cfg.max_quarantine_rounds):
        return False
    victims = wd.victims(verdict)
    if not victims:
        return False
    if result.watchdog is None:
        # triage snapshot from the moment the watchdog fired, even if the
        # run then drains to completion
        result.watchdog = wd.report(verdict)
    for name in victims:
        execs[name].quarantine()
        for sd in image.app.streams.values():
            if sd.source is not None and sd.source.process == name:
                channels[sd.name].close()
    result.quarantined.extend(victims)
    wd.reset_after_quarantine(victims)
    return True


def _rotations(items: list[tuple]) -> list[list[tuple]]:
    """Round-robin visiting orders over ``items``: entry ``r`` lists them
    from index ``r`` on, each prefixed with the index after it (the next
    round-robin pointer)."""
    n = len(items)
    return [[((r + k + 1) % n, *items[(r + k) % n]) for k in range(n)]
            for r in range(n)]


def _finalize(result: HwResult, app: Application, sink_order: list[str],
              cpu_outputs: dict, execs: dict,
              injector: RuntimeFaultInjector) -> None:
    """Fill the result's outputs, per-process stats and fault log."""
    for name in sink_order:
        if app.streams[name].role is None:
            result.outputs[name] = cpu_outputs[name]
    for name, pe in execs.items():
        result.process_stats[name] = {
            "cycles": pe.cycles,
            "stalls": pe.stall_cycles,
            "iterations": pe.iterations_started,
            "stream_ops": pe.stream_ops,
            "quarantined": pe.quarantined,
            "backend": getattr(pe, "backend", "interp"),
        }
    result.fault_events = injector.event_log()
    injector.detach()


class _Harness:
    """One scalar run as the fused cycle function sees it
    (:mod:`repro.simc.cyclegen`): the fabric in index order, plus the
    slow paths the generated loop calls back into."""

    def __init__(self, image: HardwareImage, config: WatchdogConfig,
                 channels: dict, taps: dict, execs: dict, feeders: dict,
                 cpu_outputs: dict, collectors: list, monitors: list,
                 injector: RuntimeFaultInjector, result: HwResult):
        app = image.app
        self.image = image
        self.config = config
        self.channels = channels
        self.execs = execs
        self.collectors = collectors
        self.monitors = monitors
        self.injector = injector
        self.result = result
        self.procs = list(execs.values())
        self.fed = _rotations([(channels[name], feeders[name])
                               for name in sorted(feeders)])
        self.sink_names = sorted(cpu_outputs)
        self.sinks = _rotations([
            (name, channels[name].queue, channels[name],
             None if app.streams[name].role in _FAIL_ROLES
             else cpu_outputs[name])
            for name in self.sink_names
        ])
        self.taps = list(taps.values())
        # slow paths the generated loop calls back into
        self.deliver_failure = partial(_notify_failure, image, result)
        self.record_violations = partial(_record_violations, image, result)
        self.wd = Watchdog(config, app=app, execs=execs)
        self.quarantine_rounds = 0

    def topology(self):
        from repro.simc.cyclegen import Topology
        from repro.simc.schedgen import CompiledProcessExec

        daemon = {pd.name: pd.daemon for pd in self.image.app.processes.values()}
        tap_index = {ch.name: i for i, ch in enumerate(self.taps)}
        collectors = []
        for c in self.collectors:
            if isinstance(c, _Collector):
                inputs = (tap_index[name] for name, _bit in c.spec.inputs)
                collectors.append(("collector", tuple(inputs)))
            else:
                inputs = (tap_index[name] for name in c.spec.inputs)
                collectors.append(("arbiter", tuple(inputs)))
        return Topology(
            procs=tuple((daemon[name], isinstance(pe, CompiledProcessExec))
                        for name, pe in self.execs.items()),
            fed=len(self.fed),
            sinks=len(self.sinks),
            taps=len(self.taps),
            collectors=tuple(collectors),
            monitors=tuple((tap_index[m.region.start_channel],
                            tap_index[m.region.end_channel])
                           for m in self.monitors),
        )

    # ---- callbacks from the generated loop ------------------------------

    def _sync(self, cycle, idle, stagnant, last, window) -> None:
        """Write the loop's local watchdog counters back to the Watchdog."""
        wd = self.wd
        wd.cycle = cycle
        wd.idle = idle
        wd.stagnant = stagnant
        wd._last_progress = last
        if window is not None:
            wd._window_ops = dict(zip(self.execs, window))
        self.result.cycles = cycle

    def verdict(self, verdict, cycle, idle, stagnant, last, window):
        """The watchdog fired: quarantine and go on (returns the reset
        ``(idle, stagnant, last)`` counters) or end the run (None)."""
        self._sync(cycle, idle, stagnant, last, window)
        wd = self.wd
        if _quarantine(self.image, self.config, wd, self.execs,
                       self.channels, self.result, verdict,
                       self.quarantine_rounds):
            self.quarantine_rounds += 1
            return wd.idle, wd.stagnant, wd._last_progress
        self.result.reason = verdict
        self.result.traces = [pe.trace() for pe in self.procs]
        self.result.watchdog = wd.report(verdict)
        return None

    def finish(self, cycle, idle, stagnant, last, window) -> None:
        self._sync(cycle, idle, stagnant, last, window)
        if not self.injector.faults:
            self.injector.cycle = cycle


def execute(
    image: HardwareImage,
    max_cycles: int = 2_000_000,
    idle_limit: int = 64,
    watchdog: WatchdogConfig | None = None,
    faults=(),
    sim_backend: str | None = None,
) -> HwResult:
    """Run the synthesized application cycle by cycle.

    ``watchdog`` overrides the termination watchdog configuration (the
    ``max_cycles``/``idle_limit`` arguments are folded into a default
    config when it is None). ``faults`` is an iterable of runtime faults
    (:mod:`repro.faults.runtime`) injected into the channel fabric and
    process registers for this run only. ``sim_backend`` overrides the
    image's synthesis-time backend choice (``None`` keeps it); fallbacks
    to the interpreter are recorded in ``HwResult.backend_diagnostics``.

    Every cycle runs, in order: the fault injector, the board link (one
    word CPU -> FPGA, one word FPGA -> CPU, round-robin over streams),
    collectors and arbiters, every process's tick, the latency monitors,
    then the abort, drain and watchdog checks. That loop is generated
    once per image topology (:mod:`repro.simc.cyclegen`).
    """
    from repro import simc

    cfg = watchdog or WatchdogConfig(max_cycles=max_cycles,
                                     idle_limit=idle_limit)
    backend = simc.resolve_backend(
        sim_backend or getattr(image, "sim_backend", None))
    app = image.app
    app.validate()

    channels: dict[str, Channel] = {}
    cpu_outputs: dict[str, list[int]] = {}
    feeders: dict[str, deque] = {}
    for sd in app.streams.values():
        channels[sd.name] = Channel(sd.name, width=sd.width, depth=sd.depth)
        if sd.cpu_fed:
            feeders[sd.name] = deque(sd.feeder_data or ())
        if sd.cpu_bound:
            cpu_outputs[sd.name] = []
    taps: dict[str, Channel] = {
        name: Channel(name, unbounded=True) for name in app.taps
    }

    execs: dict[str, ProcessExec] = {}
    backend_diags: list[dict] = []
    for pd in app.fpga_processes():
        binding = {
            param: channels[sd.name]
            for param, sd in app.stream_binding(pd.name).items()
        }
        execs[pd.name] = simc.make_process_exec(
            image.compiled[pd.name].schedule,
            binding,
            taps=taps,
            ext_funcs=pd.ext_hw,
            name=pd.name,
            backend=backend,
            diagnostics=backend_diags,
        )

    injector = RuntimeFaultInjector(faults)
    injector.attach(channels, execs)
    result = HwResult(completed=False, cycles=0, reason=TIMEOUT,
                      backend_diagnostics=backend_diags)
    harness = _Harness(
        image, cfg, channels, taps, execs, feeders, cpu_outputs,
        _make_collectors(app, channels, taps),
        [_LatencyMonitor(region, taps) for region in image.latency_regions],
        injector, result)

    cycle_fn = simc.cycle_function(harness.topology())
    reason = cycle_fn(harness, cfg.max_cycles)
    if reason is None:
        result.reason = TIMEOUT
        result.traces = [pe.trace() for pe in execs.values()]
        result.watchdog = harness.wd.report(TIMEOUT)
    elif reason == ABORTED:
        result.reason = ABORTED
    elif reason == COMPLETED:
        result.completed = True
        result.reason = COMPLETED
    # any other reason is a watchdog verdict, recorded by harness.verdict

    _finalize(result, app, harness.sink_names, cpu_outputs, execs, injector)
    return result


def _make_collectors(app: Application, channels: dict, taps: dict) -> list:
    """Collector then arbiter pseudo-processes, in tick order."""
    collectors: list = [
        _Collector(pd.collector_spec, taps, channels[pd.collector_spec.output])
        for pd in app.processes.values()
        if pd.kind == "collector" and pd.collector_spec is not None
    ]
    collectors.extend(
        _Arbiter(pd.collector_spec, taps)
        for pd in app.processes.values()
        if pd.kind == "arbiter" and pd.collector_spec is not None
    )
    return collectors


# ---------------------------------------------------------------------------
# batched execution: N independent lanes of one image, advanced in lockstep
# ---------------------------------------------------------------------------


@dataclass
class LaneSpec:
    """Per-lane inputs for :func:`execute_batch`.

    Each lane is a fully independent run of the same :class:`HardwareImage`
    — its own channels, taps, fault injector and watchdog — differing only
    in what this spec overrides: the runtime faults injected into the lane
    and, optionally, per-stream feeder data replacing the image's default
    stimulus (``None`` keeps the stream's ``feeder_data``).
    """

    faults: tuple = ()
    feeder_data: dict[str, list[int]] | None = None


class _LanewiseGroup:
    """Fallback batch adapter: per-lane scalar simulators, same contract.

    Used when the batched code generator cannot specialize a process (or
    the interpreter backend was requested): ``tick_lanes`` simply ticks
    each lane's scalar executor. Lane results stay bit-identical to scalar
    runs because they literally are scalar runs.
    """

    def __init__(self, lanes):
        self.lanes = lanes

    def tick_lanes(self, lane_ids, statuses: list) -> None:
        lanes = self.lanes
        for l in lane_ids:
            statuses[l] = lanes[l].tick()


class _LaneCtx:
    """All mutable state of one lane (what one scalar run keeps)."""

    __slots__ = ("channels", "taps", "cpu_outputs", "feeders", "execs",
                 "collectors", "monitors", "injector", "wd", "result",
                 "feed_rr", "sink_rr", "halted", "quarantine_rounds",
                 "alive", "fed", "feeding", "sinks", "sink_qs", "blocking",
                 "drain_qs", "procs", "moves", "faulted")


def execute_batch(
    image: HardwareImage,
    lanes: list[LaneSpec],
    max_cycles: int = 2_000_000,
    idle_limit: int = 64,
    watchdog: WatchdogConfig | None = None,
    sim_backend: str | None = None,
) -> list[HwResult]:
    """Run N independent lanes of ``image`` through one lockstep loop.

    Per lane this replays :func:`execute` exactly — same per-cycle order
    (injector, board link, collectors, process ticks, monitors, abort /
    drain / watchdog classification), same quarantine semantics, same
    result fields — so ``execute_batch(image, [LaneSpec(faults=f)])[i]``
    is bit-identical to ``execute(image, faults=f)`` for every lane. All
    lanes of one process advance through one generated structure-of-arrays
    tick function per cycle
    (:class:`repro.simc.schedgen.BatchedProcessExec`), and a lane that
    terminates (abort, deadlock, completion, assertion trip) is simply
    dropped from the lane lists without stalling its siblings.

    This loop is written out by hand, independently of the generated
    cycle function :func:`execute` runs, so a 1-lane batch is the
    reference the fused scalar loop is tested against.
    """
    from repro import simc
    from repro.errors import SimCompileError
    from repro.simc.schedgen import BatchedProcessExec

    n = len(lanes)
    if n < 1:
        raise SimCompileError("execute_batch needs at least one lane",
                              code="RPR-K030")
    cfg = watchdog or WatchdogConfig(max_cycles=max_cycles,
                                     idle_limit=idle_limit)
    backend = simc.resolve_backend(
        sim_backend or getattr(image, "sim_backend", None))
    app = image.app
    app.validate()

    ctxs: list[_LaneCtx] = []
    for spec in lanes:
        ctx = _LaneCtx()
        ctx.channels = {}
        ctx.cpu_outputs = {}
        ctx.feeders = {}
        for sd in app.streams.values():
            ctx.channels[sd.name] = Channel(sd.name, width=sd.width,
                                            depth=sd.depth)
            if sd.cpu_fed:
                override = (spec.feeder_data or {}).get(sd.name)
                ctx.feeders[sd.name] = deque(
                    sd.feeder_data or () if override is None else override)
            if sd.cpu_bound:
                ctx.cpu_outputs[sd.name] = []
        ctx.taps = {name: Channel(name, unbounded=True) for name in app.taps}
        ctx.execs = {}
        ctx.feed_rr = 0
        ctx.sink_rr = 0
        ctx.halted = False
        ctx.quarantine_rounds = 0
        ctx.alive = True
        ctxs.append(ctx)

    # one batched executor (or lanewise fallback) per FPGA process
    lane_diags: list[list[dict]] = [[] for _ in range(n)]
    groups: dict[str, object] = {}
    for pd in app.fpga_processes():
        lane_streams = []
        for ctx in ctxs:
            lane_streams.append({
                param: ctx.channels[sd.name]
                for param, sd in app.stream_binding(pd.name).items()
            })
        group = None
        if backend != "interp":
            try:
                group = BatchedProcessExec(
                    image.compiled[pd.name].schedule,
                    lane_streams,
                    lane_taps=[ctx.taps for ctx in ctxs],
                    lane_ext_funcs=[pd.ext_hw] * n,
                    name=pd.name,
                )
            except SimCompileError as exc:
                for diags in lane_diags:
                    diags.append(simc.fallback_diagnostic(
                        f"process {pd.name} [batched]", exc))
        if group is None:
            group = _LanewiseGroup([
                simc.make_process_exec(
                    image.compiled[pd.name].schedule,
                    lane_streams[l],
                    taps=ctxs[l].taps,
                    ext_funcs=pd.ext_hw,
                    name=pd.name,
                    backend=backend,
                    diagnostics=lane_diags[l],
                )
                for l in range(n)
            ])
        groups[pd.name] = group
        for l, ctx in enumerate(ctxs):
            ctx.execs[pd.name] = group.lanes[l]

    for l, (spec, ctx) in enumerate(zip(lanes, ctxs)):
        ctx.collectors = _make_collectors(app, ctx.channels, ctx.taps)
        ctx.monitors = [
            _LatencyMonitor(region, ctx.taps)
            for region in image.latency_regions
        ]
        ctx.injector = RuntimeFaultInjector(spec.faults)
        ctx.injector.attach(ctx.channels, ctx.execs)
        ctx.wd = Watchdog(cfg, app=app, execs=ctx.execs)
        ctx.result = HwResult(completed=False, cycles=0, reason=TIMEOUT,
                              backend_diagnostics=lane_diags[l])

    fed_order = sorted(ctxs[0].feeders)
    sink_order = sorted(ctxs[0].cpu_outputs)
    proc_names = [pd.name for pd in app.fpga_processes()]
    daemonless = [pd.name for pd in app.fpga_processes() if not pd.daemon]
    for ctx in ctxs:
        ctx.fed = _rotations([(ctx.channels[name], ctx.feeders[name])
                             for name in fed_order])
        ctx.sinks = _rotations([
            (name, ctx.channels[name],
             None if app.streams[name].role in _FAIL_ROLES
             else ctx.cpu_outputs[name])
            for name in sink_order
        ])
        ctx.feeding = bool(ctx.fed)
        ctx.faulted = bool(ctx.injector.faults)
        ctx.procs = list(ctx.execs.values())
        ctx.moves = 0
        ctx.sink_qs = [ctx.channels[name].queue for name in sink_order]
        ctx.blocking = [ctx.execs[name] for name in daemonless]
        ctx.drain_qs = ([ctx.channels[name].queue for name in sink_order]
                        + [ch.queue for ch in ctx.taps.values()])

    def feed(ctx: _LaneCtx) -> bool:
        """CPU -> FPGA: one word per cycle across all feeder streams."""
        moved = closed = False
        for nxt, ch, data in ctx.fed[ctx.feed_rr]:
            if data:
                if ch.faults:
                    if not ch.can_push():
                        continue
                    ch.push(data.popleft())
                elif len(ch.queue) < ch.depth:
                    # Channel.push without fault hooks, inlined
                    q = ch.queue
                    q.append(data.popleft())
                    ch.pushes += 1
                    if len(q) > ch.max_occupancy:
                        ch.max_occupancy = len(q)
                else:
                    continue
                ctx.moves += 1
                if not data:
                    ch.close()
                    closed = True
                ctx.feed_rr = nxt
                moved = True
                break
            elif not ch.closed:
                ch.close()
                moved = closed = True
        if closed:  # once every feeder is empty and closed, stop looking
            ctx.feeding = any(data or not ch.closed
                              for _, ch, data in ctx.fed[0])
        return moved

    def drain_sink(ctx: _LaneCtx, cycle: int) -> None:
        """FPGA -> CPU: one word per cycle across all sink streams (the
        caller checked that some sink holds a word)."""
        for nxt, name, ch, out in ctx.sinks[ctx.sink_rr]:
            if ch.queue:
                word = ch.queue.popleft()
                ch.pops += 1
                ctx.moves += 1
                if out is None:
                    if _notify_failure(image, ctx.result, name, word, cycle):
                        ctx.halted = True
                else:
                    out.append(word)
                ctx.sink_rr = nxt
                return

    def finalize(ctx: _LaneCtx, cycle: int) -> None:
        ctx.alive = False
        ctx.result.cycles = ctx.injector.cycle = cycle
        _finalize(ctx.result, app, sink_order, ctx.cpu_outputs, ctx.execs,
                  ctx.injector)

    status_rows = [[None] * n for _ in proc_names]
    ticks = [(groups[name].tick_lanes, row)
             for name, row in zip(proc_names, status_rows)]
    active_flags = [False] * n

    live = list(range(n))
    for cycle in range(1, cfg.max_cycles + 1):
        if not live:
            break
        for l in live:
            ctx = ctxs[l]
            if ctx.faulted:
                ctx.injector.tick()
            active = False
            if ctx.feeding:
                active = feed(ctx)
            if any(ctx.sink_qs):
                drain_sink(ctx, cycle)
                active = True
            for collector in ctx.collectors:
                # a collector or arbiter with no word in and none pending
                # has nothing to do this cycle
                if collector.pending or any(collector.in_qs):
                    out = collector.out
                    pushed = out.pushes if out is not None else 0
                    if collector.tick():
                        active = True
                    if out is not None:
                        ctx.moves += out.pushes - pushed
            active_flags[l] = active
        # one lockstep advance per process: every live lane of the process
        # moves through the same generated SoA tick function
        for tick_lanes, row in ticks:
            tick_lanes(live, row)
        ended = requeue = False
        for l in live:
            ctx = ctxs[l]
            active = active_flags[l]
            if not active:
                for row in status_rows:
                    if row[l] == "active":
                        active = True
                        break
            for monitor in ctx.monitors:
                if monitor.tick(cycle):
                    active = True
                if _record_violations(image, ctx.result, monitor, cycle):
                    ctx.halted = True
            if ctx.halted:
                ctx.result.reason = ABORTED
                finalize(ctx, cycle)
                ended = True
                continue
            for pe in ctx.blocking:
                if not pe.done:
                    break
            else:
                if not active and not any(ctx.drain_qs) \
                        and all(c.pending == 0 for c in ctx.collectors):
                    ctx.result.completed = True
                    ctx.result.reason = COMPLETED
                    finalize(ctx, cycle)
                    ended = True
                    continue
            verdict = ctx.wd.observe(
                active, ctx.moves + sum(map(_STREAM_OPS, ctx.procs)))
            if verdict is not None:
                result = ctx.result
                if _quarantine(image, cfg, ctx.wd, ctx.execs, ctx.channels,
                               result, verdict, ctx.quarantine_rounds):
                    ctx.quarantine_rounds += 1
                    requeue = True
                    continue
                result.reason = verdict
                result.traces = [pe.trace() for pe in ctx.execs.values()]
                result.watchdog = ctx.wd.report(verdict)
                finalize(ctx, cycle)
                ended = True
        if ended or requeue:
            # a new lane list makes every group place its lanes afresh,
            # dropping the finished lanes and the quarantined processes
            live = [l for l in live if ctxs[l].alive]

    for ctx in ctxs:
        if ctx.alive:
            ctx.result.reason = TIMEOUT
            ctx.result.traces = [pe.trace() for pe in ctx.execs.values()]
            ctx.result.watchdog = ctx.wd.report(TIMEOUT)
            finalize(ctx, cfg.max_cycles)

    return [ctx.result for ctx in ctxs]

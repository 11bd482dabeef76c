"""The fused per-image cycle function against its two references.

Every scalar ``execute()`` runs through the loop generated by
:mod:`repro.simc.cyclegen`, for the interpreted and the compiled backend
alike. ``execute_batch`` keeps its own hand-written loop, so a 1-lane
batch is an independent replay of the per-cycle order. These tests
require all three to agree on every observable ``HwResult`` field
(:func:`repro.simc.bench._hw_signature`) on the paper's example
applications, at every assertion level, clean and under injected
faults, and compare a per-cycle hash of every word pushed onto every
channel between the two backends.
"""

import hashlib
from dataclasses import dataclass

import pytest

from repro import simc
from repro.apps.edge_detect import build_edge_app
from repro.apps.loopback import build_loopback
from repro.apps.tripledes import build_tdes_app
from repro.core.synth import synthesize
from repro.faults.runtime import ChannelBitFlip, RegisterUpset, RuntimeFault
from repro.runtime.hwexec import LaneSpec, execute, execute_batch
from repro.runtime.watchdog import LIVELOCK, WatchdogConfig
from repro.simc.bench import _hw_signature

LEVELS = ("none", "unoptimized", "optimized")

#: (builder, feeder stream, main process) per application
APPS = {
    "loopback": (lambda: build_loopback(3, data=list(range(1, 17))),
                 "feed", "stage1"),
    "edge": (lambda: build_edge_app(width=16, height=8),
             "pixels_in", "edge5x5"),
    "tripledes": (lambda: build_tdes_app(b"In-circ!"), "cipher",
                  "tdes_decrypt"),
}

#: spins on a flag nobody sets: a livelock the NABORT watchdog quarantines
SPIN_SRC = """
void spin(co_stream input, co_stream output) {
  uint32 x;
  uint32 flag;
  flag = 0;
  co_stream_read(input, &x);
  while (flag == 0) {
    x = x + 1;
  }
  co_stream_write(output, x);
  co_stream_close(output);
}
"""

SETUPS = ("clean", "bitflip", "upset", "livelock")


def _setup(app_name: str, level: str, setup: str):
    """(image, faults, watchdog config) for one equivalence case."""
    build, feed, main = APPS[app_name]
    app = build()
    faults: tuple = ()
    cfg = None
    nabort = False
    if setup == "bitflip":
        faults = (ChannelBitFlip(target=feed, word_index=0, bit=5),)
    elif setup == "upset":
        faults = (RegisterUpset(target=main, cycle=20, reg_index=1, bit=2),)
    elif setup == "livelock":
        # a second feeder and sink make the board link round-robin too
        app.add_c_process(SPIN_SRC, name="spin")
        app.feed("spin_in", "spin.input", data=[7])
        app.sink("spin_out", "spin.output")
        cfg = WatchdogConfig(livelock_window=600, quarantine=True)
        nabort = True
    return synthesize(app, assertions=level, nabort=nabort), faults, cfg


def _run(image, faults, cfg, backend):
    for f in faults:
        f.reset()
    return execute(image, faults=faults, watchdog=cfg, sim_backend=backend)


@pytest.mark.parametrize("setup", SETUPS)
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("app_name", sorted(APPS))
def test_fused_loop_matches_interp_and_batched_loop(app_name, level, setup):
    image, faults, cfg = _setup(app_name, level, setup)
    interp = _run(image, faults, cfg, "interp")
    compiled = _run(image, faults, cfg, "compiled")
    for f in faults:
        f.reset()
    batched = execute_batch(image, [LaneSpec(faults=faults)],
                            watchdog=cfg)[0]
    assert compiled.backend_diagnostics == []
    assert _hw_signature(compiled) == _hw_signature(interp)
    assert _hw_signature(compiled) == _hw_signature(batched)
    if setup != "clean":
        assert compiled.fault_events or compiled.quarantined
    if setup == "livelock":
        assert "spin" in compiled.quarantined
        assert compiled.watchdog.reason == LIVELOCK
        assert compiled.completed


@pytest.mark.parametrize("level", ["unoptimized", "optimized"])
def test_failure_words_contend_for_the_board_link(level):
    """Under NABORT every zero word trips an assertion in every stage, so
    failure words and data words queue for the link together and the
    round-robin order shows in stderr and the detection cycle."""
    data = [0, 5, 0, 0, 9, 0] * 4
    image = synthesize(build_loopback(3, data=data), assertions=level,
                       nabort=True)
    interp = execute(image, sim_backend="interp")
    compiled = execute(image)
    batched = execute_batch(image, [LaneSpec()])[0]
    assert _hw_signature(compiled) == _hw_signature(interp)
    assert _hw_signature(compiled) == _hw_signature(batched)
    assert compiled.completed and len(compiled.stderr) > len(data)


@pytest.mark.parametrize("data", [[4, 0, 6], [0]])
@pytest.mark.parametrize("level", LEVELS)
def test_every_truncation_point_matches(level, data):
    """Cut the run at every cycle: each timeout report (stagnant count,
    per-process cycles and stalls, traces, outputs so far) must match the
    batched loop's, so no counter the fused loop keeps in a local can
    drift from the reference on any cycle. (A lone zero word makes one
    cycle's only progress the collector's failure word.)"""
    image = synthesize(build_loopback(2, data=data), assertions=level,
                       nabort=True)
    full = execute(image)
    assert full.completed
    for budget in range(1, full.cycles + 2):
        cfg = WatchdogConfig(max_cycles=budget)
        fused = execute(image, watchdog=cfg)
        batched = execute_batch(image, [LaneSpec()], watchdog=cfg)[0]
        assert _hw_signature(fused) == _hw_signature(batched), budget


#: three assertions merged into one round-robin checker (an arbiter)
MULTI_SRC = """
void f(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) {
    assert(x < 1000);
    assert(x != 13);
    assert(x * 2 < 1500);
    co_stream_write(output, x);
  }
  co_stream_close(output);
}
"""

#: a bounded-latency region (a latency monitor)
LATENCY_SRC = """
void f(co_stream input, co_stream output) {
  uint32 x;
  uint32 i;
  uint32 acc;
  while (co_stream_read(input, &x)) {
    co_latency_start(1);
    acc = 0;
    for (i = 0; i < x; i++) { acc += i; }
    co_latency_end(1, 12);
    co_stream_write(output, acc);
  }
  co_stream_close(output);
}
"""


@pytest.mark.parametrize("nabort", [False, True])
@pytest.mark.parametrize("kind", ["arbiter", "latency"])
def test_arbiters_and_latency_monitors(kind, nabort):
    from repro.core.synth import SynthesisOptions
    from repro.runtime.taskgraph import Application

    app = Application(kind)
    if kind == "arbiter":
        app.add_c_process(MULTI_SRC, name="f")
        data = [1, 5000, 13, 900, 2]
        options = SynthesisOptions(multichecker=True)
    else:
        app.add_c_process(LATENCY_SRC, name="f")
        data = [2, 20, 3, 30]
        options = None
    app.feed("in", "f.input", data=data)
    app.sink("out", "f.output")
    image = synthesize(app, assertions="optimized", options=options,
                       nabort=nabort)
    interp = execute(image, sim_backend="interp")
    compiled = execute(image)
    batched = execute_batch(image, [LaneSpec()])[0]
    assert _hw_signature(compiled) == _hw_signature(interp)
    assert _hw_signature(compiled) == _hw_signature(batched)
    assert compiled.failures and compiled.completed == nabort


@dataclass
class _PushRecorder(RuntimeFault):
    """Pass-through channel hook logging ``(cycle, channel, word)``."""

    target: str = ""

    def __post_init__(self) -> None:
        self.channel = self.target
        super().__post_init__()
        self.log: list = []

    def on_push(self, value, channel, now: int) -> list:
        self.log.append((now, channel.name, value))
        return [value]


def _push_trace_hash(image, backend: str) -> tuple[str, int]:
    recorders = tuple(_PushRecorder(target=name)
                      for name in sorted(image.app.streams))
    execute(image, faults=recorders, sim_backend=backend)
    trace = [r.log for r in recorders]
    digest = hashlib.sha256(repr(trace).encode()).hexdigest()
    return digest, sum(len(log) for log in trace)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("app_name", sorted(APPS))
def test_per_cycle_push_trace_hash(app_name, level):
    image = synthesize(APPS[app_name][0](), assertions=level)
    interp = _push_trace_hash(image, "interp")
    compiled = _push_trace_hash(image, "compiled")
    assert interp == compiled
    assert interp[1] > 0


def test_cycle_source_is_keyed_on_topology_only():
    """Different feeder data and faults reuse one generated source;
    the generated function is shared by every run of the design."""
    simc.clear_memo()
    first = build_loopback(2, data=[1, 2, 3])
    second = build_loopback(2, data=list(range(5, 40)))
    execute(synthesize(first, assertions="optimized"))
    misses = simc.memo_stats.source_misses
    execute(synthesize(second, assertions="optimized"),
            faults=(ChannelBitFlip(target="feed", word_index=1, bit=0),))
    # the sched and cycle sources of the second run are all memo hits
    assert simc.memo_stats.source_misses == misses

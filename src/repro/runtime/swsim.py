"""Software simulation of an application (the Impulse-C CPU-side model).

Every FPGA process runs as an interpreter coroutine with *idealized*
semantics: unbounded channel buffering, no clock, round-robin cooperative
scheduling. This is deliberately the weaker verification tool the paper
criticizes — translation faults injected into the hardware path and
cycle-level interactions are invisible here, which is what makes the
in-circuit assertion flow worth building.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.ir.instr import AssertionSite
from repro.ir.interp import Interp
from repro.runtime.taskgraph import Application


@dataclass
class _Queue:
    values: deque = field(default_factory=deque)
    closed: bool = False


@dataclass
class SimResult:
    """Outcome of a software simulation run."""

    completed: bool
    aborted: bool
    outputs: dict[str, list[int]] = field(default_factory=dict)
    stderr: list[str] = field(default_factory=list)
    failures: list[tuple[str, AssertionSite]] = field(default_factory=list)
    aborted_by: AssertionSite | None = None
    deadlocked: list[str] = field(default_factory=list)

    @property
    def assertion_messages(self) -> list[str]:
        return list(self.stderr)


def software_sim(app: Application, max_steps: int = 10_000_000) -> SimResult:
    """Run ``app`` to completion under software-simulation semantics."""
    app.validate()
    result = SimResult(completed=False, aborted=False)

    queues: dict[str, _Queue] = {}
    for sd in app.streams.values():
        q = _Queue()
        if sd.cpu_fed:
            q.values = deque(sd.feeder_data or ())
            q.closed = True
        queues[sd.name] = q
    tap_queues: dict[str, _Queue] = {name: _Queue() for name in app.taps}

    class _Proc:
        def __init__(self, pd):
            self.pd = pd
            self.binding = {
                param: sd.name for param, sd in app.stream_binding(pd.name).items()
            }
            self.gen = Interp(
                pd.func, ext_funcs=pd.ext_sw, max_steps=max_steps
            ).run()
            self.event = None
            self.started = False
            self.done = False

    procs = [_Proc(pd) for pd in app.fpga_processes()]

    def advance(proc: _Proc, reply) -> bool:
        """Send ``reply`` (or start); store next event; True when done."""
        try:
            if not proc.started:
                proc.started = True
                proc.event = next(proc.gen)
            else:
                proc.event = proc.gen.send(reply)
            return False
        except StopIteration:
            proc.done = True
            proc.event = None
            return True

    halted = False
    while not halted:
        progress = False
        for proc in procs:
            if proc.done:
                continue
            if not proc.started:
                if advance(proc, None):
                    progress = True
                    continue
                progress = True
            # drain as many events as possible for this process
            while proc.event is not None and not halted:
                kind = proc.event[0]
                if kind == "read":
                    q = queues[proc.binding[proc.event[1]]]
                    if q.values:
                        reply = (1, q.values.popleft())
                    elif q.closed:
                        reply = (0, 0)
                    else:
                        break  # parked: wait for the producer
                elif kind == "write":
                    queues[proc.binding[proc.event[1]]].values.append(proc.event[2])
                    reply = None
                elif kind == "close":
                    queues[proc.binding[proc.event[1]]].closed = True
                    reply = None
                elif kind == "tap":
                    # latency-marker taps have no consumer in SW simulation
                    tap_queues.setdefault(proc.event[1], _Queue()).values.append(
                        proc.event[2]
                    )
                    reply = None
                elif kind == "tap_read":
                    q = tap_queues[proc.event[1]]
                    if q.values:
                        record = q.values.popleft()
                        reply = (1, *record)
                    elif q.closed:
                        reply = (0,)
                    else:
                        break
                elif kind == "assert_fail":
                    site = proc.event[1]
                    result.failures.append((proc.pd.name, site))
                    result.stderr.append(site.message())
                    if app.nabort:
                        reply = "continue"
                    else:
                        reply = "abort"
                        result.aborted = True
                        result.aborted_by = site
                        halted = True
                else:  # pragma: no cover - defensive
                    raise RuntimeError(f"unknown event {proc.event!r}")
                progress = True
                if advance(proc, reply):
                    break

        if halted:
            break
        blocking = [p for p in procs if not p.done and not p.pd.daemon]
        if not blocking:
            result.completed = True
            break
        if not progress:
            # protocol deadlock even under idealized semantics
            result.deadlocked = [p.pd.name for p in procs if not p.done]
            break

    for sd in app.streams.values():
        if sd.cpu_bound:
            result.outputs[sd.name] = list(queues[sd.name].values)
    return result

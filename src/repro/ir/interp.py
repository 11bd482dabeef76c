"""IR interpreter: the *software simulation* semantics of a process.

This is the reproduction's stand-in for Impulse-C's CPU-side simulation of
FPGA processes: it executes the source-level semantics (exact C width
rules, idealized timing) as a coroutine that yields on stream operations.
The cooperative scheduler in :mod:`repro.runtime.swsim` drives many such
coroutines; the hardware path executes the *synthesized circuit* instead,
so behavioural divergence between the two is exactly the class of bug the
paper's in-circuit assertions exist to catch.

Event protocol (values yielded to the driver):

``("read", stream)``            → driver sends ``(ok, value)``
``("write", stream, value)``    → driver sends ``None``
``("close", stream)``           → driver sends ``None``
``("assert_fail", site)``       → driver sends ``"abort"`` or ``"continue"``

The generator's return value is an :class:`InterpResult`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Generator

from repro.errors import SimulationError
from repro.ir import semantics
from repro.ir.function import IRFunction
from repro.ir.instr import AssertionSite, Branch, Jump, Return
from repro.ir.ops import OpKind
from repro.ir.values import Const, Temp, Value
from repro.utils.bitops import truncate


@dataclass
class InterpResult:
    """Outcome of one process execution."""

    returned: bool
    aborted_by: AssertionSite | None = None
    steps: int = 0
    assert_failures: list[AssertionSite] = field(default_factory=list)


class Interp:
    """Interprets one :class:`IRFunction` with C semantics."""

    def __init__(
        self,
        func: IRFunction,
        ext_funcs: dict[str, Callable[[int], int]] | None = None,
        max_steps: int = 10_000_000,
    ) -> None:
        self.func = func
        self.ext_funcs = ext_funcs or {}
        self.max_steps = max_steps
        self.env: dict[str, int] = {name: 0 for name in func.scalars}
        self.memories: dict[str, list[int]] = {}
        for name, arr in func.arrays.items():
            image = [0] * arr.size
            for i, v in enumerate(arr.init or ()):
                image[i] = truncate(v, arr.elem.width)
            self.memories[name] = image

    # ---- value access ------------------------------------------------------

    def read(self, value: Value) -> int:
        if isinstance(value, Const):
            return value.value
        if isinstance(value, Temp):
            return self.env[value.name]
        raise SimulationError(f"bad operand {value!r}", code="RPR-X001")

    def write(self, temp: Temp, pattern: int) -> None:
        self.env[temp.name] = truncate(pattern, temp.ty.width)

    # ---- arithmetic ----------------------------------------------------------

    def _binop_numeric(self, op: OpKind, a: Value, b: Value) -> int:
        return semantics.binop(
            op, self.read(a), a.ty, self.read(b), b.ty, where=self.func.name
        )

    def _compare(self, op: OpKind, a: Value, b: Value) -> int:
        return semantics.compare(op, self.read(a), a.ty, self.read(b), b.ty)

    # ---- main loop -----------------------------------------------------------

    def run(self) -> Generator[tuple, object, InterpResult]:
        func = self.func
        result = InterpResult(returned=False)
        block = func.blocks[func.entry]
        steps = 0
        while True:
            for instr in block.instrs:
                steps += 1
                if steps > self.max_steps:
                    raise SimulationError(
                        f"{func.name}: exceeded {self.max_steps} interpreter steps", code="RPR-X002")
                op = instr.op
                if op in (OpKind.MOV, OpKind.TRUNC, OpKind.ZEXT, OpKind.SEXT):
                    # the hardware cycle model evaluates casts through
                    # semantics.cast; using the same function here means the
                    # two paths cannot drift apart
                    src = instr.args[0]
                    self.write(instr.dest,
                               semantics.cast(op, self.read(src), src.ty))
                elif op in (OpKind.NEG, OpKind.NOT, OpKind.LNOT):
                    src = instr.args[0]
                    self.write(instr.dest,
                               semantics.unop(op, self.read(src), src.ty))
                elif op == OpKind.SELECT:
                    cond, a, b = instr.args
                    chosen = a if self.read(cond) != 0 else b
                    src_val = semantics.interpret(self.read(chosen), chosen.ty)
                    self.write(instr.dest, src_val)
                elif op in (OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV,
                            OpKind.MOD, OpKind.AND, OpKind.OR, OpKind.XOR,
                            OpKind.SHL, OpKind.SHR):
                    r = self._binop_numeric(op, instr.args[0], instr.args[1])
                    self.write(instr.dest, r)
                elif op in (OpKind.EQ, OpKind.NE, OpKind.LT, OpKind.LE,
                            OpKind.GT, OpKind.GE):
                    self.write(instr.dest,
                               self._compare(op, instr.args[0], instr.args[1]))
                elif op == OpKind.LOAD:
                    mem = self.memories[instr.attrs["array"]]
                    idx = self.read(instr.args[0])
                    idx_s = semantics.interpret(idx, instr.args[0].ty)
                    if not (0 <= idx_s < len(mem)):
                        raise SimulationError(
                            f"{func.name}: out-of-bounds read "
                            f"{instr.attrs['array']}[{idx_s}] (size {len(mem)})", code="RPR-X003")
                    self.write(instr.dest, mem[idx_s])
                elif op == OpKind.STORE:
                    mem = self.memories[instr.attrs["array"]]
                    idx = self.read(instr.args[0])
                    idx_s = semantics.interpret(idx, instr.args[0].ty)
                    if not (0 <= idx_s < len(mem)):
                        raise SimulationError(
                            f"{func.name}: out-of-bounds write "
                            f"{instr.attrs['array']}[{idx_s}] (size {len(mem)})", code="RPR-X004")
                    value = instr.args[1]
                    arr = func.arrays[instr.attrs["array"]]
                    mem[idx_s] = truncate(self.read(value), arr.elem.width)
                elif op == OpKind.STREAM_READ:
                    reply = yield ("read", instr.attrs["stream"])
                    ok, value = reply  # type: ignore[misc]
                    ok_t, val_t = instr.dests
                    self.write(ok_t, int(bool(ok)))
                    self.write(val_t, int(value))
                elif op == OpKind.STREAM_WRITE:
                    yield ("write", instr.attrs["stream"],
                           truncate(self.read(instr.args[0]), 64))
                elif op == OpKind.STREAM_CLOSE:
                    yield ("close", instr.attrs["stream"])
                elif op == OpKind.ASSERT_CHECK:
                    cond = self.read(instr.args[0])
                    if cond == 0:
                        site: AssertionSite = instr.attrs["assertion"]
                        result.assert_failures.append(site)
                        decision = yield ("assert_fail", site)
                        if decision == "abort":
                            result.aborted_by = site
                            result.steps = steps
                            return result
                elif op == OpKind.TAP_READ:
                    reply = yield ("tap_read", instr.attrs["channel"])
                    ok, *values = reply  # type: ignore[misc]
                    self.write(instr.dests[0], int(bool(ok)))
                    for dest, v in zip(instr.dests[1:], values):
                        self.write(dest, int(v))
                elif op == OpKind.TAP:
                    values = tuple(
                        truncate(self.read(a), a.ty.width) for a in instr.args
                    )
                    yield ("tap", instr.attrs["channel"], values)
                elif op == OpKind.EXT_HDL:
                    fn = self.ext_funcs.get("ext_hdl", lambda v: v)
                    self.write(instr.dest,
                               fn(truncate(self.read(instr.args[0]), 64)))
                else:
                    raise SimulationError(f"unhandled op {op}", code="RPR-X005")

            term = block.term
            if isinstance(term, Jump):
                block = func.blocks[term.target]
            elif isinstance(term, Branch):
                taken = self.read(term.cond) != 0
                block = func.blocks[term.iftrue if taken else term.iffalse]
            elif isinstance(term, Return):
                result.returned = True
                result.steps = steps
                return result
            else:  # pragma: no cover - verifier excludes this
                raise SimulationError(f"bad terminator {term!r}", code="RPR-X006")


def run_to_completion(
    func: IRFunction,
    stream_inputs: dict[str, list[int]] | None = None,
    ext_funcs: dict[str, Callable[[int], int]] | None = None,
    nabort: bool = False,
    max_steps: int = 10_000_000,
) -> tuple[InterpResult, dict[str, list[int]]]:
    """Convenience driver for single-process tests.

    ``stream_inputs`` maps stream names to the full value sequence available
    on them (end-of-stream after exhaustion). Returns the interpreter result
    and everything written per output stream.
    """
    interp = Interp(func, ext_funcs=ext_funcs, max_steps=max_steps)
    inputs = {k: deque(v) for k, v in (stream_inputs or {}).items()}
    outputs: dict[str, list[int]] = {s: [] for s in func.stream_names()}
    gen = interp.run()
    try:
        event = next(gen)
        while True:
            kind = event[0]
            if kind == "read":
                queue = inputs.get(event[1])
                if queue:
                    event = gen.send((1, queue.popleft()))
                else:
                    event = gen.send((0, 0))
            elif kind == "write":
                outputs[event[1]].append(event[2])
                event = gen.send(None)
            elif kind == "tap":
                outputs.setdefault(f"tap:{event[1]}", []).append(event[2])
                event = gen.send(None)
            elif kind == "close":
                event = gen.send(None)
            elif kind == "assert_fail":
                event = gen.send("continue" if nabort else "abort")
            else:  # pragma: no cover
                raise SimulationError(f"unknown event {event!r}", code="RPR-X007")
    except StopIteration as stop:
        return stop.value, outputs

"""Compiled cycle-model simulation: specialize a ``FunctionSchedule``.

The interpreted :class:`repro.hls.cyclemodel.ProcessExec` dispatches every
instruction of every control step through :mod:`repro.ir.semantics` on
every cycle — re-deriving C usual-arithmetic-conversion types, widths and
masks that are all compile-time constants of the schedule. This module
walks the schedule **once**, emitting one Python function per
``(block, step)`` pair with those conversions constant-folded: operand
interpretation becomes a branchless sign-extension or nothing, masks
become hex literals, constant operands fold to their converted values, and
stream handshakes become direct bound-method calls on the
:class:`Channel` objects.

Pipelined regions compile too: each modulo-scheduled stage becomes one
overlay-passing function (stage-register semantics via the same
``overlay`` + ``_pending_env`` discipline the interpreter uses), and the
per-block tick function replays ``_tick_pipe``'s initiation / squash /
drain protocol with the per-stage instruction lists resolved at compile
time. Any block the codegen skipped falls back to the interpreted path
mid-run. Everything observable (``env`` contents, stall/cycle counters,
``stream_ops``, channel stats, watchdog/fault hooks including
``upset_register``) is shared with the base class, which is what lets the
difftest lockstep oracle compare the two backends cycle by cycle.
"""

from __future__ import annotations

import re
from collections import defaultdict

from repro.errors import SimCompileError, SimulationError
from repro.frontend.ctypes_ import CType, common_type
from repro.hls.cyclemodel import Channel, ProcessExec
from repro.hls.schedule import FunctionSchedule
from repro.ir import semantics
from repro.ir.instr import Branch, Instr, Jump, Return
from repro.ir.ops import OpKind
from repro.ir.values import Const, Temp, Value
from repro.utils.bitops import mask, truncate
from repro.utils.idgen import stable_fingerprint

from .codecache import cached_source, compile_source
from .rtlgen import _Emitter, _sext_src

__all__ = ["BatchedProcessExec", "CompiledProcessExec",
           "batched_sched_source", "generate_batched_sched_source",
           "generate_sched_source", "sched_exec_source"]


_P_USE = re.compile(r"\bP\b")
_E_USE = re.compile(r"\bE\b")


def _identity(v):
    return v


class _Opnd:
    """One IR operand: either a literal (folded) or a source fragment.

    For :class:`Temp` operands the fragment reads ``env`` and — by the
    ``_write`` invariant — always holds the unsigned pattern truncated to
    the temp's declared width. :class:`Const` operands keep their raw
    value so the exact interpreter conversions can be replayed on them at
    compile time.
    """

    __slots__ = ("src", "ty", "lit")

    def __init__(self, src: str | None, ty: CType, lit: int | None) -> None:
        self.src = src
        self.ty = ty
        self.lit = lit


class _SchedCompiler:
    def __init__(self, fsched: FunctionSchedule, batched: bool = False) -> None:
        #: structure-of-arrays mode: every generated function takes a lane
        #: index list and advances all lanes in one call, with per-lane
        #: status slots instead of a scalar return value
        self.batched = batched
        self.fsched = fsched
        self.func = fsched.func
        self.name = self.func.name
        # ("stream"|"tap", channel name) -> local variable prefix
        self.channels: dict[tuple[str, str], str] = {}
        self.mem_locals: dict[str, str] = {
            name: f"_m{i}" for i, name in enumerate(self.func.arrays)
        }
        self.mem_sizes: dict[str, int] = {
            name: arr.size for name, arr in self.func.arrays.items()
        }
        self.mem_widths: dict[str, int] = {
            name: arr.elem.width for name, arr in self.func.arrays.items()
        }
        #: when set (pipelined-stage codegen), reads check the iteration
        #: overlay dict of this name first and writes go through it plus
        #: ``_pending_env`` — the interpreter's ``_read``/``_write``
        #: overlay discipline, resolved at compile time
        self.ov: str | None = None
        #: schedule position -> name of the function generated for it:
        #: ``(block, step)`` for a sequential step, the block name for a
        #: pipeline (same numbering as :meth:`generate`)
        self.pos_fns: dict = {}
        fid = 0
        for block_name in self.func.blocks:
            if block_name in self.fsched.pipelines:
                self.pos_fns[block_name] = f"_pipe{fid}"
                fid += 1
                continue
            bs = self.fsched.blocks.get(block_name)
            if bs is None:
                continue
            for step in range(bs.length):
                self.pos_fns[(block_name, step)] = f"_f{fid}"
                fid += 1

    # ---- operands -------------------------------------------------------------

    def opnd(self, v: Value) -> _Opnd:
        if isinstance(v, Const):
            return _Opnd(None, v.ty, v.value)
        if isinstance(v, Temp):
            if self.ov is not None:
                n = v.name
                return _Opnd(
                    f"({self.ov}[{n!r}] if {n!r} in {self.ov} "
                    f"else E[{n!r}])", v.ty, None)
            return _Opnd(f"E[{v.name!r}]", v.ty, None)
        raise SimCompileError(
            f"{self.name}: bad operand {v!r}", code="RPR-K020")

    def chan(self, instr: Instr) -> str:
        if "stream" in instr.attrs:
            key = ("stream", instr.attrs["stream"])
        else:
            key = ("tap", instr.attrs["channel"])
        local = self.channels.get(key)
        if local is None:
            local = f"_c{len(self.channels)}"
            self.channels[key] = local
        return local

    def value_src(self, em: _Emitter, o: _Opnd, ct: CType) -> str:
        """Source for ``interpret(truncate(interpret(x, xty), ct.w), ct)``.

        The mathematical value of the operand after the C usual arithmetic
        conversions to ``ct`` — possibly negative when ``ct`` is signed.
        """
        if o.lit is not None:
            return repr(semantics.interpret(
                truncate(semantics.interpret(o.lit, o.ty), ct.width), ct))
        cm = mask(ct.width)
        if o.ty.signed:
            s = em.fresh()
            em.put(f"{s} = {_sext_src(o.src, o.ty.width)} & {hex(cm)}")
            masked_at = ct.width
        elif ct.width < o.ty.width:
            s = em.fresh()
            em.put(f"{s} = {o.src} & {hex(cm)}")
            masked_at = ct.width
        else:
            s = o.src
            masked_at = o.ty.width
        if ct.signed and masked_at >= ct.width:
            if s == o.src:
                v = em.fresh()
                em.put(f"{v} = {s}")
                s = v
            out = em.fresh()
            em.put(f"{out} = {_sext_src(s, ct.width)}")
            return out
        return s

    def pattern_src(self, em: _Emitter, o: _Opnd, ct: CType) -> str:
        """Like :meth:`value_src` but stops at the ``ct``-width pattern
        (the final signed interpretation elided) — for bitwise ops, which
        re-truncate both converted operands anyway."""
        if o.lit is not None:
            return hex(truncate(
                truncate(semantics.interpret(o.lit, o.ty), ct.width),
                ct.width))
        cm = mask(ct.width)
        if o.ty.signed:
            s = em.fresh()
            em.put(f"{s} = {_sext_src(o.src, o.ty.width)} & {hex(cm)}")
            return s
        if ct.width < o.ty.width:
            s = em.fresh()
            em.put(f"{s} = {o.src} & {hex(cm)}")
            return s
        return o.src

    # ---- instruction execution -------------------------------------------------

    def _store(self, em: _Emitter, dest: Temp, src: str,
               fits_width: int | None = None) -> None:
        """``E[dest] = src`` with the ``_write`` truncation; the mask is
        elided when the value provably fits (non-negative, ``fits_width``
        bits). In overlay mode the write lands in the iteration overlay
        and is journaled for the end-of-cycle ``_pending_env`` commit."""
        if fits_width is not None and fits_width <= dest.ty.width:
            rhs = src
        else:
            rhs = f"{src} & {hex(mask(dest.ty.width))}"
        if self.ov is None:
            em.put(f"E[{dest.name!r}] = {rhs}")
        else:
            v = em.fresh()
            em.put(f"{v} = {rhs}")
            em.put(f"{self.ov}[{dest.name!r}] = {v}")
            em.put(f"_pend(({dest.name!r}, {v}))")

    def _store_lit(self, em: _Emitter, dest: Temp, value: int) -> None:
        lit = truncate(value, dest.ty.width)
        if self.ov is None:
            em.put(f"E[{dest.name!r}] = {lit}")
        else:
            em.put(f"{self.ov}[{dest.name!r}] = {lit}")
            em.put(f"_pend(({dest.name!r}, {lit}))")

    def exec_instr(self, em: _Emitter, instr: Instr) -> None:
        pred = instr.attrs.get("pred")
        if pred is not None:
            p = self.opnd(pred)
            if p.lit is not None:
                if p.lit == 0:
                    return  # statically squashed
            else:
                em.put(f"if {p.src}:")
                em.indent += 1
                self._exec_body(em, instr)
                em.indent -= 1
                return
        self._exec_body(em, instr)

    def _exec_body(self, em: _Emitter, instr: Instr) -> None:
        op = instr.op
        if op in (OpKind.MOV, OpKind.TRUNC, OpKind.ZEXT, OpKind.SEXT):
            o = self.opnd(instr.args[0])
            d = instr.dest
            if o.lit is not None:
                self._store_lit(em, d, semantics.cast(op, o.lit, o.ty))
            elif op == OpKind.SEXT:
                self._store(em, d, f"({_sext_src(o.src, o.ty.width)})")
            else:
                self._store(em, d, o.src, fits_width=o.ty.width)
            return
        if op in (OpKind.NEG, OpKind.NOT, OpKind.LNOT):
            o = self.opnd(instr.args[0])
            d = instr.dest
            if o.lit is not None:
                self._store_lit(em, d, semantics.unop(op, o.lit, o.ty))
            elif op == OpKind.NEG:
                v = (_sext_src(o.src, o.ty.width) if o.ty.signed else o.src)
                self._store(em, d, f"(-({v}))")
            elif op == OpKind.NOT:
                self._store(em, d, f"(~{o.src})")
            else:  # LNOT
                self._store(em, d, f"(1 if {o.src} == 0 else 0)",
                            fits_width=1)
            return
        if op == OpKind.SELECT:
            cond, a, b = (self.opnd(x) for x in instr.args)
            d = instr.dest
            chosen = []
            for o in (a, b):
                if o.lit is not None:
                    chosen.append((repr(semantics.interpret(o.lit, o.ty)),
                                   None))
                elif o.ty.signed:
                    chosen.append((f"({_sext_src(o.src, o.ty.width)})", None))
                else:
                    chosen.append((o.src, o.ty.width))
            if cond.lit is not None:
                src, fits = chosen[0] if cond.lit != 0 else chosen[1]
                self._store(em, d, src, fits_width=fits)
                return
            em.put(f"if {cond.src}:")
            em.indent += 1
            self._store(em, d, chosen[0][0], fits_width=chosen[0][1])
            em.indent -= 1
            em.put("else:")
            em.indent += 1
            self._store(em, d, chosen[1][0], fits_width=chosen[1][1])
            em.indent -= 1
            return
        if op in (OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV, OpKind.MOD,
                  OpKind.AND, OpKind.OR, OpKind.XOR, OpKind.SHL, OpKind.SHR):
            self._binop(em, instr)
            return
        if op in (OpKind.EQ, OpKind.NE, OpKind.LT, OpKind.LE,
                  OpKind.GT, OpKind.GE):
            self._compare(em, instr)
            return
        if op == OpKind.LOAD:
            arr = instr.attrs["array"]
            local = self.mem_locals.get(arr)
            if local is None:
                raise SimCompileError(
                    f"{self.name}: load from unknown array {arr!r}",
                    code="RPR-K020")
            idx = self._index_src(em, self.opnd(instr.args[0]), arr)
            self._store(em, instr.dest, f"{local}[{idx}]",
                        fits_width=self.mem_widths[arr])
            return
        if op == OpKind.STORE:
            arr = instr.attrs["array"]
            local = self.mem_locals.get(arr)
            if local is None:
                raise SimCompileError(
                    f"{self.name}: store to unknown array {arr!r}",
                    code="RPR-K020")
            idx = self._index_src(em, self.opnd(instr.args[0]), arr)
            o = self.opnd(instr.args[1])
            ew = self.mem_widths[arr]
            if o.lit is not None:
                val = hex(truncate(o.lit, ew))
            elif ew < o.ty.width:
                val = f"({o.src} & {hex(mask(ew))})"
            else:
                val = o.src
            if self.ov is None:
                em.put(f"{local}[{idx}] = {val}")
            else:  # stage writes commit at end of cycle
                em.put(f"_pendm(({arr!r}, {idx}, {val}))")
            return
        if op == OpKind.STREAM_READ:
            ch = self.chan(instr)
            ok_t, val_t = instr.dests
            em.put(f"if {ch}_q:")
            em.indent += 1
            em.put("P.stream_ops += 1")
            self._store_lit(em, ok_t, 1)
            self._store(em, val_t, f"{ch}_pop()")
            em.indent -= 1
            em.put("else:")
            em.indent += 1
            self._store_lit(em, ok_t, 0)
            self._store_lit(em, val_t, 0)
            em.indent -= 1
            return
        if op == OpKind.TAP_READ:
            ch = self.chan(instr)
            em.put(f"if {ch}_q:")
            em.indent += 1
            rec = em.fresh()
            em.put(f"{rec} = {ch}_pop()")
            self._store_lit(em, instr.dests[0], 1)
            for k, dest in enumerate(instr.dests[1:]):
                # zip() semantics: a short record leaves later dests alone
                em.put(f"if {k} < _len({rec}):")
                em.indent += 1
                self._store(em, dest, f"{rec}[{k}]")
                em.indent -= 1
            em.indent -= 1
            em.put("else:")
            em.indent += 1
            for dest in instr.dests:
                self._store_lit(em, dest, 0)
            em.indent -= 1
            return
        if op == OpKind.STREAM_WRITE:
            ch = self.chan(instr)
            o = self.opnd(instr.args[0])
            if o.lit is not None:
                em.put(f"{ch}_push({o.lit} & {ch}_m)")
            else:
                em.put(f"{ch}_push({o.src} & {ch}_m)")
            em.put("P.stream_ops += 1")
            return
        if op == OpKind.STREAM_CLOSE:
            em.put(f"{self.chan(instr)}_close()")
            return
        if op == OpKind.TAP:
            ch = self.chan(instr)
            parts = []
            for a in instr.args:
                o = self.opnd(a)
                if o.lit is not None:
                    parts.append(repr(truncate(o.lit, o.ty.width)))
                else:
                    parts.append(o.src)
            tup = ", ".join(parts)
            if len(parts) == 1:
                tup += ","
            em.put(f"{ch}_push(({tup}))")
            return
        if op == OpKind.EXT_HDL:
            o = self.opnd(instr.args[0])
            if o.lit is not None:
                arg = hex(truncate(o.lit, 64))
            elif o.ty.width > 64:
                arg = f"({o.src} & {hex(mask(64))})"
            else:
                arg = o.src
            self._store(em, instr.dest, f"_ext({arg})")
            return
        raise SimCompileError(
            f"{self.name}: op {op} is outside the compiled-model subset",
            code="RPR-K020")

    def _index_src(self, em: _Emitter, o: _Opnd, arr: str) -> str:
        size = self.mem_sizes[arr]
        if o.lit is not None:
            return repr(semantics.interpret(o.lit, o.ty) % size)
        if o.ty.signed:
            return f"{_sext_src(o.src, o.ty.width)} % {size}"
        return f"{o.src} % {size}"

    def _binop(self, em: _Emitter, instr: Instr) -> None:
        op = instr.op
        a, b = (self.opnd(x) for x in instr.args)
        d = instr.dest
        if a.lit is not None and b.lit is not None:
            try:
                self._store_lit(em, d, semantics.binop(
                    op, a.lit, a.ty, b.lit, b.ty, where=self.name))
                return
            except SimulationError:
                pass  # e.g. constant division by zero: must raise at runtime
        if op in (OpKind.SHL, OpKind.SHR):
            if b.lit is not None:
                amt = repr(truncate(b.lit, b.ty.width) % 64)
            else:
                amt = f"({b.src} % 64)"
            if op == OpKind.SHL:
                x = (repr(semantics.interpret(a.lit, a.ty))
                     if a.lit is not None else
                     f"({_sext_src(a.src, a.ty.width)})" if a.ty.signed
                     else a.src)
                self._store(em, d, f"({x} << {amt})")
            elif a.ty.signed:
                x = (repr(semantics.interpret(a.lit, a.ty))
                     if a.lit is not None else
                     f"({_sext_src(a.src, a.ty.width)})")
                self._store(em, d, f"({x} >> {amt})")
            else:
                x = (hex(truncate(a.lit, a.ty.width))
                     if a.lit is not None else a.src)
                self._store(em, d, f"({x} >> {amt})",
                            fits_width=a.ty.width)
            return
        ct = common_type(a.ty, b.ty)
        if op in (OpKind.AND, OpKind.OR, OpKind.XOR):
            pya = self.pattern_src(em, a, ct)
            pyb = self.pattern_src(em, b, ct)
            pyop = {OpKind.AND: "&", OpKind.OR: "|", OpKind.XOR: "^"}[op]
            self._store(em, d, f"({pya} {pyop} {pyb})", fits_width=ct.width)
            return
        va = self.value_src(em, a, ct)
        vb = self.value_src(em, b, ct)
        if op == OpKind.ADD:
            self._store(em, d, f"({va} + {vb})")
        elif op == OpKind.SUB:
            self._store(em, d, f"({va} - {vb})")
        elif op == OpKind.MUL:
            self._store(em, d, f"({va} * {vb})")
        elif op == OpKind.DIV:
            self._store(em, d, f"_div({va}, {vb})")
        else:  # MOD
            self._store(em, d, f"_mod({va}, {vb})")

    def _compare(self, em: _Emitter, instr: Instr) -> None:
        op = instr.op
        a, b = (self.opnd(x) for x in instr.args)
        d = instr.dest
        force = instr.attrs.get("force_compare_width")
        if a.lit is not None and b.lit is not None:
            self._store_lit(em, d, semantics.compare(
                op, a.lit, a.ty, b.lit, b.ty, force_width=force))
            return
        if force is not None:
            va = self._forced_src(em, a, force)
            vb = self._forced_src(em, b, force)
        else:
            ct = common_type(a.ty, b.ty)
            va = self.value_src(em, a, ct)
            vb = self.value_src(em, b, ct)
        pyop = {OpKind.EQ: "==", OpKind.NE: "!=", OpKind.LT: "<",
                OpKind.LE: "<=", OpKind.GT: ">", OpKind.GE: ">="}[op]
        self._store(em, d, f"(1 if {va} {pyop} {vb} else 0)", fits_width=1)

    def _forced_src(self, em: _Emitter, o: _Opnd, force: int) -> str:
        """``truncate(interpret(x, xty), force)`` — the narrow-compare
        translation fault."""
        if o.lit is not None:
            return hex(truncate(semantics.interpret(o.lit, o.ty), force))
        fm = mask(force)
        if o.ty.signed:
            s = em.fresh()
            em.put(f"{s} = {_sext_src(o.src, o.ty.width)} & {hex(fm)}")
            return s
        if force < o.ty.width:
            s = em.fresh()
            em.put(f"{s} = {o.src} & {hex(fm)}")
            return s
        return o.src

    # ---- lane aliasing (batched mode) -------------------------------------------

    def lane_aliases(self, lines: list[str],
                     head: bool = False) -> list[str]:
        """Per-lane alias assignments for one generated function body.

        Batched bodies are emitted with the *same* names the scalar
        generator uses (``E``, ``P``, ``_c0_q`` ...), then wrapped in a
        ``for l in ls:`` loop whose head rebinds each used name to lane
        ``l``'s slot of the corresponding structure-of-arrays list. Only
        names the body actually mentions are rebound, keeping per-lane
        loop overhead proportional to what the step touches.
        """
        text = "\n".join(lines)
        uses_p = (head or _P_USE.search(text) or "_div(" in text
                  or "_mod(" in text)
        out = ["P = _PN[l]"] if uses_p else []
        if _E_USE.search(text):
            out.append("E = _EN[l]")
        if "_div(" in text:
            out.append("_div = P._sc_div")
        if "_mod(" in text:
            out.append("_mod = P._sc_mod")
        if "_ext(" in text:
            out.append("_ext = _EXTN[l]")
        if "_pend(" in text:
            out.append("_pend = _PENDN[l]")
        if "_pendm(" in text:
            out.append("_pendm = _PENDMN[l]")
        for local in self.channels.values():
            if f"{local}.closed" in text:
                out.append(f"{local} = {local}N[l]")
            if f"{local}_q" in text:
                out.append(f"{local}_q = {local}_qN[l]")
            if f"{local}_pop(" in text:
                out.append(f"{local}_pop = {local}_popN[l]")
            if f"{local}_push(" in text:
                out.append(f"{local}_push = {local}_pushN[l]")
            if f"{local}_can(" in text:
                out.append(f"{local}_can = {local}_canN[l]")
            if f"{local}_close(" in text:
                out.append(f"{local}_close = {local}_closeN[l]")
        for local in self.mem_locals.values():
            if f"{local}[" in text:
                out.append(f"{local} = {local}N[l]")
        return out

    # ---- readiness --------------------------------------------------------------

    def ready_check(self, em: _Emitter, instr: Instr,
                    fail: str | tuple = "return 'stalled'") -> None:
        if instr.op not in (OpKind.STREAM_READ, OpKind.STREAM_WRITE,
                            OpKind.TAP_READ):
            return  # close (and non-stream ops) never stall
        pred = instr.attrs.get("pred")
        indent = 0
        if pred is not None:
            p = self.opnd(pred)
            if p.lit is not None:
                if p.lit == 0:
                    return  # squashed handshake never stalls
            else:
                em.put(f"if {p.src}:")
                em.indent += 1
                indent = 1
        ch = self.chan(instr)
        if instr.op in (OpKind.STREAM_READ, OpKind.TAP_READ):
            cond = f"not ({ch}_q or {ch}.closed)"
        else:
            cond = f"not {ch}_can()"
        em.put(f"if {cond}:")
        em.indent += 1
        for line in ((fail,) if isinstance(fail, str) else fail):
            em.put(line)
        em.indent -= 1
        em.indent -= indent

    @staticmethod
    def _is_streamlike(instr: Instr) -> bool:
        return instr.op in (OpKind.STREAM_READ, OpKind.STREAM_WRITE,
                            OpKind.TAP_READ)

    # ---- step functions ---------------------------------------------------------

    def _route(self, em: _Emitter, pos) -> None:
        """Batched only: queue the lane for the function of schedule
        position ``pos`` next cycle (``_INTERP`` where none was
        generated), so the driver never looks a lane's position up."""
        if self.batched:
            em.put(f"_nx[{self.pos_fns.get(pos, '_INTERP')}].append(l)")

    def _lane_stall(self, fname: str) -> tuple[str, ...]:
        """What a batched function emits for a lane that stalls: it stays
        where it is."""
        return ("_st[l] = 'stalled'", "P.stall_cycles += 1",
                f"_nx[{fname}].append(l)", "continue")

    def _lane_head(self, em: _Emitter, aliases: list[str]) -> None:
        """Per-lane prologue of a batched function: the lane clocks."""
        em.put(aliases[0])  # P = _PN[l]
        em.put("P.cycles += 1")
        for line in aliases[1:]:
            em.put(line)

    def _emit_enter(self, em: _Emitter, target: str) -> None:
        """``P._enter_block(target)``; a sequential target is entered
        inline (a step function only runs in ``seq`` mode, so only the
        block and step change)."""
        if target in self.fsched.pipelines:
            em.put(f"P._enter_block({target!r})")
            self._route(em, target)
        else:
            em.put(f"P.block = {target!r}")
            em.put("P.step = 0")
            self._route(em, (target, 0))

    def _emit_advance(self, em: _Emitter, block_name: str, step: int, bs,
                      block, done: tuple[str, ...]) -> None:
        """Advance past ``step``: the next step, or the block terminator
        once the block's last step ran."""
        if step + 1 < bs.length:
            em.put(f"P.step = {step + 1}")
            self._route(em, (block_name, step + 1))
            return
        term = block.term
        if isinstance(term, Jump):
            targets = [term.target]
        elif isinstance(term, Branch):
            targets = [term.iftrue, term.iffalse]
        elif isinstance(term, Return):
            em.put(f"P.step = {step + 1}")
            em.put("P.done = True")
            for line in done:
                em.put(line)
            return
        else:
            raise SimCompileError(
                f"{self.name}: unsupported terminator "
                f"{type(term).__name__}", code="RPR-K020")
        if any(t in self.fsched.pipelines for t in targets):
            em.put(f"P.step = {step + 1}")  # a pipeline keeps the step
        if isinstance(term, Jump):
            self._emit_enter(em, term.target)
            return
        c = self.opnd(term.cond)
        if c.lit is not None:
            self._emit_enter(em, term.iftrue if c.lit != 0 else term.iffalse)
            return
        em.put(f"if {c.src}:")
        em.indent += 1
        self._emit_enter(em, term.iftrue)
        em.indent -= 1
        em.put("else:")
        em.indent += 1
        self._emit_enter(em, term.iffalse)
        em.indent -= 1

    def step_fn(self, em: _Emitter, fid: int, block_name: str,
                step: int) -> str:
        bs = self.fsched.blocks[block_name]
        block = self.func.blocks[block_name]
        indices = bs.steps[step] if step < len(bs.steps) else []
        instrs = [block.instrs[i] for i in indices]
        fname = f"_f{fid}"
        if self.batched:
            return self._step_fn_batched(em, fname, block_name, step,
                                         bs, block, instrs)
        em.put(f"def {fname}():")
        em.indent += 1
        em.put(f"# {block_name}[{step}]")
        for instr in instrs:
            self.ready_check(em, instr)
        for instr in instrs:
            self.exec_instr(em, instr)
        self._emit_advance(em, block_name, step, bs, block,
                           done=("return 'done'",))
        em.put("return 'active'")
        em.indent -= 1
        em.put("")
        return fname

    def _step_fn_batched(self, em: _Emitter, fname: str, block_name: str,
                         step: int, bs, block, instrs) -> str:
        """Lane-looped variant of :meth:`step_fn`: one call advances every
        lane currently parked at ``(block, step)``. A stalling or
        finishing lane writes its status slot and ``continue``s, so no
        lane ever blocks a sibling."""
        body = _Emitter()
        body.indent = em.indent + 2  # inside `def` + `for l in ls:`
        body.put(f"# {block_name}[{step}]")
        for instr in instrs:
            self.ready_check(body, instr,
                             fail=self._lane_stall(fname))
        for instr in instrs:
            self.exec_instr(body, instr)
        self._emit_advance(body, block_name, step, bs, block,
                           done=("_st[l] = 'done'", "continue"))
        body.put("_st[l] = 'active'")
        # a step that can neither stall, finish nor branch sends every
        # lane to the same next position: queue them all at once
        routes = [i for i, line in enumerate(body.lines) if "_nx[" in line]
        bulk = None
        if len(routes) == 1 and not any("continue" in line
                                        for line in body.lines):
            bulk = body.lines.pop(routes[0]).strip()
        em.put(f"def {fname}(ls, _st, _nx):")
        em.indent += 1
        em.put("for l in ls:")
        em.indent += 1
        self._lane_head(em, self.lane_aliases(body.lines, head=True))
        em.indent -= 1
        em.lines.extend(body.lines)
        if bulk is not None:
            em.put(bulk.replace(".append(l)", ".extend(ls)"))
        em.indent -= 1
        em.put("")
        return fname

    # ---- pipelined blocks -------------------------------------------------------

    def pipe_fn(self, em: _Emitter, fid: int, block_name: str) -> str:
        """Compile one modulo-scheduled loop: per-stage ready/exec
        functions plus a tick function replaying the interpreter's
        initiation / squash / drain protocol with the stage instruction
        lists resolved at compile time."""
        ps = self.fsched.pipelines[block_name]
        stage_ops: dict[int, list[Instr]] = {}
        for stage in range(ps.latency):
            # same comprehension as the interpreted _tick_pipe: plan order
            # is instr_step iteration order, one list per stage
            ops = [ps.instrs[i] for i, s in ps.instr_step.items()
                   if s == stage]
            if ops:
                stage_ops[stage] = ops

        self.ov = "o"
        rdy_fns: dict[int, str] = {}
        ex_fns: dict[int, str] = {}
        try:
            for stage, ops in stage_ops.items():
                if any(self._is_streamlike(i) for i in ops):
                    fname = f"_p{fid}r{stage}"
                    if self.batched:
                        self._emit_stage_fn(
                            em, fname, None,
                            lambda b: [self.ready_check(b, i,
                                                        fail="return False")
                                       for i in ops] and None,
                            tail="return True")
                    else:
                        em.put(f"def {fname}(o):")
                        em.indent += 1
                        for instr in ops:
                            self.ready_check(em, instr, fail="return False")
                        em.put("return True")
                        em.indent -= 1
                        em.put("")
                    rdy_fns[stage] = fname
                fname = f"_p{fid}x{stage}"
                if self.batched:
                    self._emit_stage_fn(
                        em, fname, f"# {block_name} stage {stage}",
                        lambda b: [self.exec_instr(b, i)
                                   for i in ops] and None,
                        tail="return None")
                else:
                    em.put(f"def {fname}(o):")
                    em.indent += 1
                    em.put(f"# {block_name} stage {stage}")
                    for instr in ops:
                        self.exec_instr(em, instr)
                    em.put("return None")
                    em.indent -= 1
                    em.put("")
                ex_fns[stage] = fname
        finally:
            self.ov = None

        fname = f"_pipe{fid}"
        ok = ps.ok.name if ps.ok is not None else None
        if any(stage > 0 for stage in rdy_fns):
            rdy_tbl = ", ".join(f"{s}: {f}" for s, f in rdy_fns.items())
            em.put(f"_p{fid}rd = {{{rdy_tbl}}}")
        # stage -> exec function (None where a stage has no operations)
        ex_tbl = "".join(f"{ex_fns.get(stage)}, "
                         for stage in range(ps.latency))
        em.put(f"_p{fid}ex = ({ex_tbl})")
        self._pipe_protocol(em, fid, fname, block_name, ps, rdy_fns,
                            ex_fns, ok, stage_ops.get(0, ()))
        return fname

    def _emit_stage_fn(self, em: _Emitter, fname: str, comment: str | None,
                       emit_body, tail: str) -> None:
        """Batched pipeline stage function: same body as the scalar stage
        function, wrapped in per-lane aliases and taking the lane index
        explicitly (stage functions run per (lane, in-flight iteration))."""
        body = _Emitter()
        body.indent = em.indent + 1  # inside `def`
        if comment:
            body.put(comment)
        emit_body(body)
        body.put(tail)
        em.put(f"def {fname}(l, o):")
        em.indent += 1
        for line in self.lane_aliases(body.lines):
            em.put(line)
        em.indent -= 1
        em.lines.extend(body.lines)
        em.put("")

    def _idle_guard(self, em: _Emitter, ps, stage0: list[Instr],
                    fail: str | tuple, aliased: bool = False) -> None:
        """An idle pipeline whose initiation is starved stalls without
        touching any state: test stage 0's handshakes inline (the overlay
        is empty, so they read registers directly). ``aliased`` binds
        the lane's channel aliases inside the guard, so a busy lane pays
        nothing for them."""
        guard = _Emitter()
        guard.indent = em.indent + 1
        for instr in stage0:
            self.ready_check(guard, instr, fail=fail)
        if not guard.lines:
            return
        # _since_init never goes negative: ii <= 1 always initiates
        ready = ("" if ps.ii <= 1
                 else f" and P._since_init + 1 >= {ps.ii}")
        em.put(f"if not inflight and not P._draining{ready}:")
        if aliased:
            em.indent += 1
            for line in self.lane_aliases(guard.lines):
                if line != "P = _PN[l]":  # bound
                    em.put(line)
            em.indent -= 1
        em.lines.extend(guard.lines)

    def _pipe_protocol(self, em: _Emitter, fid: int, fname: str,
                       block_name: str, ps, rdy_fns, ex_fns, ok,
                       stage0: list[Instr]) -> None:
        """The pipeline tick function: the interpreter's initiation /
        squash / drain protocol with the stage instruction lists resolved
        at compile time. Batched, each lane replays it against its own
        ``_inflight`` list and a stalling lane parks (status slot)
        without blocking its siblings."""
        lane = self.batched
        args = "l, " if lane else ""
        # a batched lane stays in the pipeline unless it drains out: the
        # staying lanes are queued for the next tick all at once
        stall = (("_st[l] = 'stalled'", "P.stall_cycles += 1", "continue")
                 if lane else ("return 'stalled'",))

        def put_all(lines) -> None:
            for line in lines:
                em.put(line)

        if lane:
            em.put(f"def {fname}(ls, _st, _nx):")
        else:
            em.put(f"def {fname}():")
        em.indent += 1
        em.put(f"# pipelined block {block_name!r} "
               f"(ii={ps.ii}, latency={ps.latency})"
               + (" [batched]" if lane else ""))
        if lane:
            em.put("_gone = []")
            em.put("for l in ls:")
            em.indent += 1
            self._lane_head(em, ["P = _PN[l]"])
        em.put("inflight = P._inflight")
        if 0 in rdy_fns:
            self._idle_guard(em, ps, stage0, stall, aliased=lane)
        if lane:
            em.put("E = _EN[l]")
        # a handshake stuck mid-pipeline stalls everything; an in-flight
        # iteration is past stage 0 when a tick starts, so only later
        # stages' handshakes can stall it
        if any(stage > 0 for stage in rdy_fns):
            em.put("_ok = True")
            em.put("for it in inflight:")
            em.indent += 1
            em.put("if it['squashed']:")
            em.indent += 1
            em.put("continue")
            em.indent -= 1
            em.put(f"r = _p{fid}rd.get(it['stage'])")
            em.put(f"if r is not None and not r({args}it['overlay']):")
            em.indent += 1
            em.put("_ok = False")
            em.put("break")
            em.indent -= 2
            em.put("if not _ok:")
            em.indent += 1
            put_all(stall)
            em.indent -= 1
        # initiation: starvation skips this cycle's initiation (a bubble);
        # _since_init never goes negative, so ii <= 1 always may initiate
        em.put("new_iter = None")
        ready = "" if ps.ii <= 1 else f" and P._since_init + 1 >= {ps.ii}"
        em.put(f"if not P._draining{ready}:")
        em.indent += 1
        if 0 in rdy_fns:
            # stage 0's handshakes against the new (empty) overlay, i.e.
            # the registers; inline unless several must short-circuit
            check = _Emitter()
            check.indent = em.indent
            for instr in stage0:
                self.ready_check(check, instr, fail="_go = False")
            if sum(line.lstrip().startswith("if not") for line
                   in check.lines) == 1:
                em.put("_go = True")
                if lane:
                    for line in self.lane_aliases(check.lines):
                        if line not in ("P = _PN[l]", "E = _EN[l]"):
                            em.put(line)
                em.lines.extend(check.lines)
                em.put("if _go:")
            else:
                em.put(f"if {rdy_fns[0]}({args}{{}}):")
            em.indent += 1
            em.put("new_iter = {'stage': 0, 'overlay': {}, "
                   "'squashed': False}")
            em.indent -= 1
            em.put("elif not inflight:  # nothing to advance: idle")
            em.indent += 1
            put_all(stall)
            em.indent -= 1
        else:
            em.put("new_iter = {'stage': 0, 'overlay': {}, "
                   "'squashed': False}")
        em.indent -= 1
        em.put("for it in inflight:")
        em.indent += 1
        em.put("if it['squashed']:")
        em.indent += 1
        em.put("continue")
        em.indent -= 1
        em.put(f"f = _p{fid}ex[it['stage']]")
        em.put("if f is not None:")
        em.indent += 1
        em.put(f"f({args}it['overlay'])")
        em.indent -= 2
        em.put("if new_iter is not None:")
        em.indent += 1
        ex0 = ex_fns.get(0)
        if ex0 is not None:
            em.put(f"{ex0}({args}new_iter['overlay'])")
        if ok is not None:
            em.put(f"if (new_iter['overlay'][{ok!r}] if {ok!r} in "
                   f"new_iter['overlay'] else E.get({ok!r}, 0)) == 0:")
            em.indent += 1
            em.put("new_iter['squashed'] = True")
            em.put("P._draining = True")
            em.indent -= 1
            em.put("else:")
            em.indent += 1
            em.put("P.iterations_started += 1")
            em.indent -= 1
        else:
            em.put("P.iterations_started += 1")
        em.put("inflight.append(new_iter)")
        em.put("P._since_init = 0")
        em.indent -= 1
        em.put("else:")
        em.indent += 1
        em.put("P._since_init += 1")
        em.indent -= 1
        # every iteration moves one stage on; finished and squashed ones
        # leave the pipeline
        em.put("_keep = []")
        em.put("for it in inflight:")
        em.indent += 1
        em.put("it['stage'] += 1")
        em.put(f"if it['stage'] < {ps.latency} and not it['squashed']:")
        em.indent += 1
        em.put("_keep.append(it)")
        em.indent -= 2
        em.put("P._inflight = _keep")
        # commit end-of-cycle register/memory writes
        em.put("_pel = P._pending_env")
        em.put("if _pel:")
        em.indent += 1
        em.put("E.update(_pel)  # in order: a later write wins")
        em.put("_pel.clear()")
        em.indent -= 1
        em.put("_pml = P._pending_mem")
        em.put("if _pml:")
        em.indent += 1
        em.put("_mems = P.memories")
        em.put("for mem_name, idx, value in _pml:")
        em.indent += 1
        em.put("_mems[mem_name][idx] = value")
        em.indent -= 1
        em.put("_pml.clear()")
        em.indent -= 1
        em.put("if P._draining and not _keep:")
        em.indent += 1
        em.put(f"P._enter_block({ps.exit_block!r})")
        exit_pos = (ps.exit_block if ps.exit_block in self.fsched.pipelines
                    else (ps.exit_block, 0))
        self._route(em, exit_pos)
        if lane:
            em.put("_gone.append(l)")
        em.indent -= 1
        if lane:
            em.put("_st[l] = 'active'")
            em.indent -= 1
            em.put("if _gone:")
            em.put("    ls = [l for l in ls if l not in _gone]")
            em.put("if ls:")
            em.put(f"    _nx[{fname}].extend(ls)")
        else:
            em.put("return 'active'")
        em.indent -= 1
        em.put("")

    # ---- whole schedule ---------------------------------------------------------

    def generate(self) -> str:
        body = _Emitter()
        body.indent = 1
        table: dict[str, list[str]] = {}
        pipe_table: dict[str, str] = {}
        fid = 0
        for block_name in self.func.blocks:
            if block_name in self.fsched.pipelines:
                pipe_table[block_name] = self.pipe_fn(body, fid, block_name)
                fid += 1
                continue
            bs = self.fsched.blocks.get(block_name)
            if bs is None:
                continue
            fns = []
            for step in range(bs.length):
                fns.append(self.step_fn(body, fid, block_name, step))
                fid += 1
            table[block_name] = fns

        em = _Emitter()
        if self.batched:
            em.put(f"# batched (SoA lanes) cycle model of process "
                   f"{self.name!r} ({fid} step/pipeline functions)")
            em.put("def _build_batched(bx):")
            em.indent += 1
            em.put("_PN = bx.lanes")
            em.put("_INTERP = bx._interp_lanes")
            em.put("_EN = [p.env for p in _PN]")
            em.put("_EXTN = [p.ext_funcs.get('ext_hdl', _IDENT) "
                   "for p in _PN]")
            em.put("_PENDN = [p._pending_env.append for p in _PN]")
            em.put("_PENDMN = [p._pending_mem.append for p in _PN]")
            for (kind, name), local in self.channels.items():
                src = "streams" if kind == "stream" else "taps"
                em.put(f"{local}N = [p.{src}[{name!r}] for p in _PN]")
                em.put(f"{local}_qN = [c.queue for c in {local}N]")
                em.put(f"{local}_popN = [c.pop for c in {local}N]")
                em.put(f"{local}_pushN = [c.push for c in {local}N]")
                em.put(f"{local}_canN = [c.can_push for c in {local}N]")
                em.put(f"{local}_closeN = [c.close for c in {local}N]")
                # widths are a property of the design, identical per lane
                em.put(f"{local}_m = (1 << {local}N[0].width) - 1")
            for name, local in self.mem_locals.items():
                em.put(f"{local}N = [p.memories[{name!r}] for p in _PN]")
            em.put("")
        else:
            em.put(f"# compiled cycle model of process {self.name!r} "
                   f"({fid} step/pipeline functions)")
            em.put("def _build(pe):")
            em.indent += 1
            em.put("P = pe")
            em.put("E = pe.env")
            em.put("_div = pe._sc_div")
            em.put("_mod = pe._sc_mod")
            em.put("_ext = pe.ext_funcs.get('ext_hdl', _IDENT)")
            em.put("_pend = pe._pending_env.append")
            em.put("_pendm = pe._pending_mem.append")
            for (kind, name), local in self.channels.items():
                src = "streams" if kind == "stream" else "taps"
                em.put(f"{local} = pe.{src}[{name!r}]")
                em.put(f"{local}_q = {local}.queue")
                em.put(f"{local}_pop = {local}.pop")
                em.put(f"{local}_push = {local}.push")
                em.put(f"{local}_can = {local}.can_push")
                em.put(f"{local}_close = {local}.close")
                em.put(f"{local}_m = (1 << {local}.width) - 1")
            for name, local in self.mem_locals.items():
                em.put(f"{local} = pe.memories[{name!r}]")
            em.put("")
        em.lines.extend(body.lines)
        rows = []
        for block_name, fns in table.items():
            rows.append(f"{block_name!r}: ({', '.join(fns)}"
                        f"{',' if len(fns) == 1 else ''})")
        prows = [f"{name!r}: {fn}" for name, fn in pipe_table.items()]
        em.put(f"return {{{', '.join(rows)}}}, {{{', '.join(prows)}}}")
        em.indent -= 1
        return "\n".join(em.lines) + "\n"


def _schedule_digest(fsched: FunctionSchedule) -> str:
    """Deterministic textual identity of everything the codegen consumes."""
    func = fsched.func
    parts = [func.name, func.entry]
    parts.append(repr(sorted(
        (n, t.width, t.signed) for n, t in func.scalars.items())))
    parts.append(repr(sorted(
        (n, a.size, a.elem.width, a.elem.signed, tuple(a.init or ()))
        for n, a in func.arrays.items())))
    for bname in sorted(func.blocks):
        block = func.blocks[bname]
        parts.append(f"== {bname}")
        parts.append(str(block.term))
        for instr in block.instrs:
            parts.append(repr(instr.op.value))
            parts.append(repr(instr.dests))
            parts.append(repr(instr.args))
            parts.append(repr(sorted(
                (k, repr(v)) for k, v in instr.attrs.items())))
        bs = fsched.blocks.get(bname)
        if bs is None:
            parts.append("pipelined")
        else:
            parts.append(repr((bs.length, bs.steps)))
        ps = fsched.pipelines.get(bname)
        if ps is not None:
            parts.append(repr((ps.header, ps.exit_block,
                               ps.ok.name if ps.ok is not None else None,
                               ps.ii, ps.latency,
                               tuple(ps.instr_step.items()))))
            for instr in ps.instrs:
                parts.append(repr(instr.op.value))
                parts.append(repr(instr.dests))
                parts.append(repr(instr.args))
                parts.append(repr(sorted(
                    (k, repr(v)) for k, v in instr.attrs.items())))
    return "\n".join(parts)


def schedule_digest(fsched: FunctionSchedule) -> str:
    """Fingerprint of :func:`_schedule_digest`, computed once per schedule
    object: the simc code-cache key part for ``fsched``.

    A synthesized schedule is never mutated, so every executor built from
    it (each ``execute()`` of one image) reuses the first digest.
    """
    if fsched._digest is None:
        fp = stable_fingerprint(_schedule_digest(fsched))
        fsched._digest = f"{fp:016x}"
    return fsched._digest


def generate_sched_source(fsched: FunctionSchedule) -> str:
    """Generate (uncached) compiled cycle-model source for ``fsched``."""
    return _SchedCompiler(fsched).generate()


def sched_exec_source(fsched: FunctionSchedule, cache=None) -> str:
    """Cached variant of :func:`generate_sched_source`."""
    return cached_source(
        "sched",
        (schedule_digest(fsched),),
        lambda: generate_sched_source(fsched),
        cache=cache,
    )


def generate_batched_sched_source(fsched: FunctionSchedule) -> str:
    """Generate (uncached) N-lane structure-of-arrays source for
    ``fsched``. The emitted module is lane-count independent: the batch
    width is fixed only when ``_build_batched`` binds a concrete lane
    list, so one cached source serves every batch size."""
    return _SchedCompiler(fsched, batched=True).generate()


def batched_sched_source(fsched: FunctionSchedule, cache=None) -> str:
    """Cached variant of :func:`generate_batched_sched_source`.

    Cached under the distinct ``sched-batch`` kind — the fingerprint
    namespace guarantees scalar and batched source can never alias in the
    in-process memo or the disk cache even though both are keyed by the
    same schedule digest.
    """
    return cached_source(
        "sched-batch",
        (schedule_digest(fsched),),
        lambda: generate_batched_sched_source(fsched),
        cache=cache,
    )


class CompiledProcessExec(ProcessExec):
    """Hybrid :class:`ProcessExec` with blocks compiled to bytecode.

    ``_tick_seq`` dispatches to a compiled per-``(block, step)`` function
    and ``_tick_pipe`` to a compiled per-pipeline tick function; any block
    the codegen skipped falls back to the interpreted path mid-run (same
    semantics, shared state). Raises :class:`SimCompileError` when the
    schedule cannot be specialized.
    """

    backend = "compiled"

    def __init__(
        self,
        fsched: FunctionSchedule,
        streams: dict[str, Channel],
        taps: dict[str, Channel] | None = None,
        ext_funcs=None,
        name: str | None = None,
        cache=None,
    ) -> None:
        super().__init__(fsched, streams, taps, ext_funcs, name)
        source = sched_exec_source(fsched, cache=cache)
        self.source = source
        code = compile_source(source, f"<simc-sched:{self.func.name}>")
        ns = {"__builtins__": {}, "_IDENT": _identity, "_len": len}
        exec(code, ns)
        try:
            self._seq_fns, self._pipe_fns = ns["_build"](self)
        except KeyError as exc:
            # an unbound tap channel the interpreter would only touch on
            # first use; fall back so the lazier behaviour is preserved
            raise SimCompileError(
                f"{self.name}: cannot bind channel {exc} during "
                "specialization", code="RPR-K021") from exc

    # _sc_div/_sc_mod (referenced from generated code) are inherited from
    # ProcessExec so interpreted lanes can serve batched generated code too.

    # ---- clocking --------------------------------------------------------------

    def _tick_seq(self) -> str:
        fns = self._seq_fns.get(self.block)
        if fns is None:
            return ProcessExec._tick_seq(self)
        return fns[self.step]()

    def _tick_pipe(self) -> str:
        fn = self._pipe_fns.get(self.block)
        if fn is None:
            return ProcessExec._tick_pipe(self)
        return fn()


class BatchedProcessExec:
    """N interpreter lanes advanced in lockstep by generated SoA code.

    Each lane is a plain :class:`ProcessExec` (so fault hooks —
    ``upset_register``, ``quarantine``, channel fault chains — and
    ``trace()`` work per lane, unchanged), but clocking goes through one
    generated function per ``(block, step)`` / pipeline that loops over
    exactly the lanes currently parked there. Lanes whose schedule
    position the codegen skipped fall back to the interpreted tick,
    bit-identically. A lane that finishes, stalls, aborts upstream or is
    quarantined simply stops appearing in the lane lists the driver
    passes in — siblings never wait for it.

    The contract is the backbone of the equivalence suite: after any
    number of ``tick_lanes`` calls, lane ``i`` is byte-identical (env,
    memories, counters, channel traffic) to a scalar run fed the same
    stimulus.
    """

    backend = "batched"

    def __init__(
        self,
        fsched: FunctionSchedule,
        lane_streams: list[dict[str, Channel]],
        lane_taps: list[dict[str, Channel] | None] | None = None,
        lane_ext_funcs: list | None = None,
        name: str | None = None,
        cache=None,
    ) -> None:
        n = len(lane_streams)
        if n < 1:
            raise SimCompileError(
                f"{name or fsched.func.name}: batch needs at least one "
                "lane", code="RPR-K030")
        taps_l = lane_taps if lane_taps is not None else [None] * n
        ext_l = lane_ext_funcs if lane_ext_funcs is not None else [None] * n
        self.fsched = fsched
        self.lanes: list[ProcessExec] = [
            ProcessExec(fsched, lane_streams[i], taps_l[i], ext_l[i], name)
            for i in range(n)
        ]
        for pe in self.lanes:
            pe.backend = "batched"  # shadow the class attr for stats
        self.name = self.lanes[0].name
        self.n = n
        # lanes queued per generated function for the next tick, and the
        # lane set / status list they were placed for (see tick_lanes)
        self._groups: dict = {}
        self._lane_ids = self._statuses = None
        self._n_lanes = 0
        source = batched_sched_source(fsched, cache=cache)
        self.source = source
        code = compile_source(source,
                              f"<simc-sched-batch:{fsched.func.name}>")
        ns = {"__builtins__": {}, "_IDENT": _identity, "_len": len}
        exec(code, ns)
        try:
            self._seq_fns, self._pipe_fns = ns["_build_batched"](self)
        except KeyError as exc:
            # an unbound tap channel the interpreter would only touch on
            # first use; fall back so the lazier behaviour is preserved
            raise SimCompileError(
                f"{self.name}: cannot bind channel {exc} during batched "
                "specialization", code="RPR-K021") from exc

    def _position(self, pe: ProcessExec):
        """The generated function for ``pe``'s schedule position, or the
        interpreted fallback where the codegen emitted none."""
        if pe.mode == "seq":
            fns = self._seq_fns.get(pe.block)
            return self._interp_lanes if fns is None else fns[pe.step]
        fn = self._pipe_fns.get(pe.block)
        return self._interp_lanes if fn is None else fn

    def _interp_lanes(self, ls, statuses: list, nx) -> None:
        """Same contract as a generated function, one interpreted tick per
        lane: for lanes parked where the codegen emitted no function."""
        for l in ls:
            pe = self.lanes[l]
            if pe.done:
                statuses[l] = "done"
                continue
            pe.cycles += 1
            st = pe._tick_seq() if pe.mode == "seq" else pe._tick_pipe()
            statuses[l] = st
            if st == "stalled":
                pe.stall_cycles += 1
            if not pe.done:
                nx[self._position(pe)].append(l)

    def tick_lanes(self, lane_ids, statuses: list) -> None:
        """Advance every lane in ``lane_ids`` one clock.

        ``statuses[l]`` receives ``'active'`` / ``'stalled'`` / ``'done'``
        — exactly what ``ProcessExec.tick()`` would have returned for that
        lane. Lanes are grouped by schedule position so each generated
        function is entered once per cycle, however many lanes sit there;
        each function queues its lanes for the function of their next
        position, so from the second tick on no lane is looked up. Pass a
        new ``lane_ids`` list whenever the lane set changes or a lane was
        retired from outside (``quarantine``): that, or a new
        ``statuses`` list, places every lane afresh and drops the done
        ones.
        """
        groups = self._groups
        if (lane_ids is not self._lane_ids or statuses is not self._statuses
                or len(lane_ids) != self._n_lanes):
            groups = defaultdict(list)
            for l in lane_ids:
                pe = self.lanes[l]
                if pe.done:
                    statuses[l] = "done"
                else:
                    groups[self._position(pe)].append(l)
            self._lane_ids = lane_ids
            self._statuses = statuses
            self._n_lanes = len(lane_ids)
        nx = defaultdict(list)
        for fn, ls in groups.items():
            fn(ls, statuses, nx)
        # a lane that finished is queued nowhere; its status stays 'done'
        self._groups = nx

    def tick_all(self) -> list:
        """Convenience: tick every lane, returning the status list."""
        statuses: list = [None] * self.n
        self.tick_lanes(range(self.n), statuses)
        return statuses

"""repro.simc — compiled-simulation backend (FLASH-style specialization).

Translates RTL modules (:mod:`repro.simc.rtlgen`) and function schedules
(:mod:`repro.simc.schedgen`) into specialized Python source compiled once
per design, with bit-identical semantics to the interpreted simulators,
and fuses the per-cycle execution harness around them into one generated
cycle function per image topology (:mod:`repro.simc.cyclegen`).
This package is the single place backend selection lives:

* :func:`resolve_backend` validates a ``--sim-backend`` value;
* :func:`make_rtl_sim` / :func:`make_process_exec` construct the chosen
  backend, automatically falling back to the interpreter (with an
  ``RPR-K101`` warning diagnostic) when a design cannot be specialized —
  unless the caller asked for ``strict`` compiled semantics, as the
  difftest lockstep legs do.

Generated source is content-addressed through the :mod:`repro.lab` cache
(:mod:`repro.simc.codecache`), so sweeps and campaigns pay codegen once
per distinct design.
"""

from __future__ import annotations

from repro.errors import SimCompileError
from repro.hls.cyclemodel import ProcessExec
from repro.rtl.sim import RtlSim

from .codecache import cached_source, clear_memo, compile_source, memo_stats
from .cyclegen import Topology, cycle_function
from .rtlgen import (
    BatchedRtlSim,
    CompiledRtlSim,
    batched_rtl_source,
    generate_batched_rtl_source,
    generate_rtl_source,
    rtl_sim_source,
)
from .schedgen import (
    BatchedProcessExec,
    CompiledProcessExec,
    batched_sched_source,
    generate_batched_sched_source,
    generate_sched_source,
    sched_exec_source,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "BatchedProcessExec",
    "BatchedRtlSim",
    "CompiledProcessExec",
    "CompiledRtlSim",
    "Topology",
    "batched_rtl_source",
    "batched_sched_source",
    "cached_source",
    "clear_memo",
    "compile_source",
    "cycle_function",
    "fallback_diagnostic",
    "generate_batched_rtl_source",
    "generate_batched_sched_source",
    "generate_rtl_source",
    "generate_sched_source",
    "make_process_exec",
    "make_rtl_sim",
    "memo_stats",
    "resolve_backend",
    "rtl_sim_source",
    "sched_exec_source",
]

BACKENDS = ("interp", "compiled")
DEFAULT_BACKEND = "compiled"

#: diagnostic code for an automatic compiled->interp fallback
FALLBACK_CODE = "RPR-K101"


def resolve_backend(name: str | None) -> str:
    """Normalize a ``--sim-backend`` value; ``None`` means the default."""
    if name is None or name == "":
        return DEFAULT_BACKEND
    if name not in BACKENDS:
        raise SimCompileError(
            f"unknown sim backend {name!r}; expected one of "
            f"{'/'.join(BACKENDS)}", code="RPR-K001")
    return name


def fallback_diagnostic(what: str, exc: SimCompileError) -> dict:
    """Structured warning dict recording a compiled->interp fallback."""
    from repro.diagnostics.core import Diagnostic

    return Diagnostic(
        code=FALLBACK_CODE,
        severity="warning",
        message=f"{what}: compiled backend unavailable, using interpreter",
        notes=(f"[{exc.code}] {exc.message}",),
        hint="run with --sim-backend=interp to silence, or report the "
             "construct so the compiled backend can learn it",
    ).to_dict()


def make_rtl_sim(
    module,
    streams,
    ext_hdl=None,
    injector=None,
    *,
    backend: str | None = None,
    cache=None,
    strict: bool = False,
    diagnostics: list | None = None,
) -> RtlSim:
    """Construct an RTL simulator with the requested backend.

    ``diagnostics`` (when given) collects fallback warning dicts. With
    ``strict=True`` a compiled-backend failure raises instead of falling
    back — the difftest lockstep legs use this so an unsupported
    construct is loud, never silently re-tested through the interpreter.
    """
    backend = resolve_backend(backend)
    if backend == "interp":
        return RtlSim(module, streams, ext_hdl, injector)
    try:
        return CompiledRtlSim(module, streams, ext_hdl, injector, cache=cache)
    except SimCompileError as exc:
        if strict:
            raise
        if diagnostics is not None:
            diagnostics.append(
                fallback_diagnostic(f"module {module.name}", exc))
        return RtlSim(module, streams, ext_hdl, injector)


def make_process_exec(
    fsched,
    streams,
    taps=None,
    ext_funcs=None,
    name=None,
    *,
    backend: str | None = None,
    cache=None,
    strict: bool = False,
    diagnostics: list | None = None,
) -> ProcessExec:
    """Construct a cycle-model executor with the requested backend.

    Same fallback contract as :func:`make_rtl_sim`. Pipelined regions
    compile too (per-stage ready/exec functions plus a specialized
    ``_tick_pipe`` replaying the interpreter's initiation/drain
    protocol); a pipeline the generator cannot specialize falls back
    like any other construct.
    """
    backend = resolve_backend(backend)
    if backend == "interp":
        return ProcessExec(fsched, streams, taps, ext_funcs, name)
    try:
        return CompiledProcessExec(fsched, streams, taps, ext_funcs, name,
                                   cache=cache)
    except SimCompileError as exc:
        if strict:
            raise
        if diagnostics is not None:
            diagnostics.append(
                fallback_diagnostic(f"process {name or fsched.func.name}",
                                    exc))
        return ProcessExec(fsched, streams, taps, ext_funcs, name)

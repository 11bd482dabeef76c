"""The repository benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload {incircuit,campaign,dse,serve} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time of a fresh interpreter (the median of several fresh starts), ops per
second, op latency percentiles and peak RSS, and checks every op with the
workload's oracle. ``--trace 1`` runs the same workload twice in fresh
interpreters for half the seconds each, untraced then traced, and
reports the per-layer metrics read
from the spans around each layer's entry points; it also writes a Chrome
trace (``.perfbench/trace-<workload>-s<seed>.json``) and a per-layer
self-time table next to it.

A human-readable report goes to stdout first; the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("incircuit", "campaign", "dse", "serve")

#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_SAMPLES = 5
#: a worker that has not finished by then is killed and the run fails
WORKER_TIMEOUT_S = 150

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "frontend.self_s": "s/op",
    "frontend.calls": "count",
    "frontend.share": "ratio",
    "core.self_s": "s/op",
    "hls.self_s": "s/op",
    "platform.self_s": "s/op",
    "lab.cache_self_s": "s/op",
    "lab.cache_hit_ratio": "ratio",
    "lab.proc_hit_ratio": "ratio",
    "lab.resyntheses": "count",
    "lab.store_self_s": "s/op",
    "simc.self_s": "s/op",
    "simc.memo_hit_ratio": "ratio",
    "runtime.execute_self_s": "s/op",
    "runtime.host_us_per_cycle": "us",
    "runtime.swsim_self_s": "s/op",
    "runtime.cycles": "count",
    "runtime.sim_cycles_per_s": "1/s",
    "faults.self_s": "s/op",
    "faults.verdicts.assertion-detected": "count",
    "faults.verdicts.watchdog-detected": "count",
    "faults.verdicts.silent-corruption": "count",
    "faults.verdicts.benign": "count",
    "serve.accept_s_p50": "s",
    "serve.exec_s_p50": "s",
    "serve.coalesced": "count",
    "serve.cache_hit_ratio": "ratio",
    "serve.rejected": "count",
    "serve.gen_lag_p90_s": "s",
    "trace.overhead": "ratio",
    "trace.unattributed_share": "ratio",
}


class WorkerError(RuntimeError):
    pass


def _worker(args, workdir: Path, trace: int, seconds: float,
            setup_only: bool = False):
    """Run one worker; returns (wall seconds to READY, host probe seconds
    just before the start, result dict or None)."""
    result = workdir / f"result-{trace}.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    probe = statistics.median(speed.sample()[1] for _ in range(3))
    t0 = time.perf_counter()
    # own process group, so a timeout also stops the serve daemon
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.communicate(timeout=WORKER_TIMEOUT_S)[0]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{args.workload} worker timed out") from None
    if line.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"{args.workload} worker failed "
                          f"(exit {proc.returncode}): {line}{rest}")
    if setup_only:
        return ready, probe, None
    return ready, probe, json.loads(result.read_text())


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (a measured sample, never an interpolation)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def _ops_per_s(res: dict) -> float:
    """Correct ops per second, from raw wall times (trace overhead)."""
    good = sum(1 for op in res["ops"] if op[1])
    return good / res["elapsed_s"]


def scaled(res: dict) -> tuple[list[float], float]:
    """Op latencies and elapsed time in reference-speed seconds.

    A closed loop's elapsed time is the sum of its op latencies; an open
    loop's stays the wall time, because its arrivals follow the clock.
    """
    probes = res["probes"]
    latencies = [op[0] * speed.factor(probes, op[4], op[4] + op[0])
                 for op in res["ops"]]
    elapsed = sum(latencies) if res["closed_loop"] else res["elapsed_s"]
    return latencies, elapsed


def end_to_end(res: dict, setups: list[float]) -> dict[str, float]:
    latencies, elapsed = scaled(res)
    good = sum(1 for op in res["ops"] if op[1])
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": good / elapsed,
        "op_p50_s": statistics.median(latencies),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(base: dict, traced: dict) -> tuple[dict[str, float], dict]:
    """Per-layer metrics from the traced run (rates from the base run)."""
    from tracer import layer_table

    count_ops = traced["count_ops"]
    spans, counts = [], {}
    for dump in traced["traces"].values():
        spans.extend(dump["spans"])
        for op, c in dump["counts"].items():
            for name, value in c.items():
                counts.setdefault(op, {}).setdefault(name, 0)
                counts[op][name] += value

    def in_prefix(op) -> bool:
        if count_ops == 0:
            return True
        try:
            return int(op) < count_ops
        except (TypeError, ValueError):
            return False

    def exact(name: str) -> int:
        return sum(c.get(name, 0) for op, c in counts.items()
                   if in_prefix(op))

    def total(name: str) -> int:
        return sum(c.get(name, 0) for c in counts.values())

    table = layer_table(spans)
    ops = [s for s in spans if s[0] == "op"]
    n_ops = len(ops)
    op_wall = sum(s[4] - s[3] for s in ops)

    def self_s(layer: str) -> float:
        return table.get(layer, {}).get("self_s", 0.0) / n_ops

    frontend_calls = sum(1 for s in spans
                         if s[0] == "frontend" and s[6] != "frontend"
                         and in_prefix(s[7]))
    memo = traced["memo"]
    if traced["workload"] == "serve":
        memo = traced["serve"]["stats"]["codecache"]
    cycles_all = total("runtime.cycles")
    m = {
        "frontend.self_s": self_s("frontend"),
        "frontend.calls": frontend_calls,
        "frontend.share": _ratio(table.get("frontend", {}).get("self_s", 0),
                                 op_wall),
        "core.self_s": self_s("core"),
        "hls.self_s": self_s("hls"),
        "platform.self_s": self_s("platform"),
        "lab.cache_self_s": self_s("lab.cache"),
        "lab.cache_hit_ratio": _ratio(total("lab.app_hits"),
                                      total("lab.app_hits")
                                      + total("lab.app_misses")),
        "lab.proc_hit_ratio": _ratio(total("lab.proc_hits"),
                                     total("lab.proc_hits")
                                     + total("lab.proc_misses")),
        "lab.resyntheses": exact("lab.resyntheses"),
        "lab.store_self_s": self_s("lab.store"),
        "simc.self_s": self_s("simc"),
        "simc.memo_hit_ratio": _ratio(memo["source_hits"],
                                      memo["source_hits"]
                                      + memo["source_misses"]),
        "runtime.execute_self_s": self_s("runtime.execute"),
        "runtime.host_us_per_cycle": _ratio(
            table.get("runtime.execute", {}).get("self_s", 0.0) * 1e6,
            cycles_all),
        "runtime.swsim_self_s": self_s("runtime.swsim"),
        "runtime.cycles": exact("runtime.cycles"),
        "runtime.sim_cycles_per_s": sum(op[3] for op in base["ops"])
        / base["elapsed_s"],
        "faults.self_s": self_s("faults"),
    }
    for verdict in ("assertion-detected", "watchdog-detected",
                    "silent-corruption", "benign"):
        m[f"faults.verdicts.{verdict}"] = exact(f"faults.verdicts.{verdict}")
    serve = traced.get("serve")
    if serve is not None:
        stats = serve["stats"]
        cache = stats["cache"]
        m.update({
            "serve.accept_s_p50": statistics.median(serve["accept_s"]),
            "serve.exec_s_p50": statistics.median(serve["exec_s"]),
            "serve.coalesced": stats["jobs"]["coalesced"],
            "serve.cache_hit_ratio": _ratio(cache["hits"],
                                            cache["hits"] + cache["misses"]),
            "serve.rejected": stats["jobs"]["rejected"],
            "serve.gen_lag_p90_s": _quantile(serve["gen_lag_s"], 0.9),
        })
        base_p50 = statistics.median(op[0] for op in base["ops"])
        traced_p50 = statistics.median(op[0] for op in traced["ops"])
        m["trace.overhead"] = _ratio(base_p50, traced_p50)
    else:
        m.update({name: 0.0 for name in LAYER_UNITS
                  if name.startswith("serve.")})
        m["trace.overhead"] = _ratio(_ops_per_s(traced), _ops_per_s(base))
    # on serve a client op only waits on a socket; the work happens in
    # the daemon, whose roots are the accept-side fingerprint and the job
    roots = ([s for s in spans if s[0] in ("serve.accept", "serve.exec")]
             if serve is not None else ops)
    m["trace.unattributed_share"] = _ratio(
        sum(s[5] for s in roots), sum(s[4] - s[3] for s in roots))
    return m, table


def _report_ops(name: str, res: dict) -> list[str]:
    ops = res["ops"]
    failed = [op for op in ops if not op[1]]
    lines = [f"{name}: {len(ops)} ops in {res['elapsed_s']:.3f} s busy, "
             f"{len(failed)} failed, error_rate "
             f"{len(failed) / len(ops):.4f}"]
    lines += [f"  FAILED: {op[2]}" for op in failed[:5]]
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace == 0:
            samples = [_worker(args, workdir / f"setup-{k}", 0,
                               args.seconds, setup_only=True)
                       for k in range(SETUP_SAMPLES - 1)]
            samples.append(_worker(args, workdir / "run", 0, args.seconds))
            res = samples[-1][2]
            setups = [ready * speed.REFERENCE_S / probe
                      for ready, probe, _ in samples]
            values = end_to_end(res, setups)
            units = E2E_UNITS
            runs = [res]
            lines = _report_ops("untraced", res)
            raw = [op[0] for op in res["ops"]]
            lines.append(
                f"op_p90_s {_quantile(scaled(res)[0], 0.9):.6g} s "
                f"(n={len(raw)}; printed only, see README)")
            lines.append(
                f"raw wall times: setup_s "
                f"{statistics.median(s[0] for s in samples):.4f}, "
                f"ops_per_s {_ops_per_s(res):.4f}, "
                f"op_p50_s {statistics.median(raw):.4f}, "
                f"op_p90_s {_quantile(raw, 0.9):.4f}; host probe median "
                f"{statistics.median(p[1] for p in res['probes']):.5f} s "
                f"(reference {speed.REFERENCE_S} s)")
            lines.append("setup_s samples: "
                         + ", ".join(f"{s:.4f}" for s in setups))
            if any(op[3] for op in res["ops"]):
                rate = sum(op[3] for op in res["ops"]) / res["elapsed_s"]
                lines.append(f"sim_cycles_per_s: {rate:.1f} 1/s")
        else:
            # the measured time is split evenly between the two runs
            base = _worker(args, workdir / "base", 0, args.seconds / 2)[2]
            traced = _worker(args, workdir / "traced", 1,
                             args.seconds / 2)[2]
            values, table = per_layer(base, traced)
            units = LAYER_UNITS
            runs = [base, traced]
            lines = _report_ops("untraced", base)
            lines += _report_ops("traced", traced)
            from tracer import render_table, write_chrome_trace

            stem = OUT / f"trace-{args.workload}-s{args.seed}"
            write_chrome_trace(
                stem.with_suffix(".json"),
                {int(pid): dump["spans"]
                 for pid, dump in traced["traces"].items()})
            op_wall = sum(op[0] for op in traced["ops"])
            text = render_table(table, op_wall)
            stem.with_suffix(".txt").write_text(text + "\n")
            lines += ["", "per-layer self time (traced run):", text,
                      f"trace: {stem.with_suffix('.json')}"]
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r["ops"]) for r in runs)
    failed = sum(1 for r in runs for op in r["ops"] if not op[1])
    drained = all(r["teardown"].get("drained", True) for r in runs)
    correct = failed == 0 and drained
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for line in lines:
        print(line)
    if not drained:
        print("serve daemon did not report drained=True on SIGTERM")
    samples = {"setup_s": SETUP_SAMPLES}
    for name, value in values.items():
        n = samples.get(name, len(runs[-1]["ops"]))
        print(f"  {name:<36} {value:>14.6g} {units[name]:<6} (n={n})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

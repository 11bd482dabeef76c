"""One benchmark run of one workload in a fresh interpreter.

Prints ``READY`` on stdout once the workload is set up (the parent times
fresh interpreter -> READY as ``setup_s``), then runs the timed phase,
the workload's oracles and teardown, and writes a JSON result file.

    python3 perfbench/worker.py --workload W --seed N --seconds S \\
        --trace 0|1 --workdir DIR --result FILE [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import workloads
    from repro.simc.codecache import memo_stats

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, workdir, bool(args.trace))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        wl.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        memo_before = memo_stats.as_dict()
        results, elapsed = wl.run(args.seconds, tracer)
        memo_after = memo_stats.as_dict()
        if tracer is not None:
            tracer.uninstall()
        wl.finish(results)
    finally:
        teardown = wl.teardown()
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": [[r.latency_s, r.ok, r.error, r.cycles, r.start]
                for r in results],
        "probes": wl.probes,
        "closed_loop": args.workload != "serve",
        "elapsed_s": elapsed,
        "count_ops": wl.count_ops,
        "peak_rss_mb": wl.peak_rss_mb,
        "teardown": teardown,
        "memo": {k: memo_after[k] - memo_before[k] for k in memo_after},
    }
    if args.workload == "serve":
        serve = {"gen_lag_s": [], "accept_s": [], "exec_s": [],
                 "stats": wl.stats}
        for due, sent, _done, events in wl.timing:
            serve["gen_lag_s"].append(sent - due)
            stamps = dict(events)
            if "accepted" in stamps and "result" in stamps:
                serve["accept_s"].append(stamps["accepted"] - sent)
                serve["exec_s"].append(stamps["result"] - stamps["accepted"])
        out["serve"] = serve
    if tracer is not None:
        traces = {str(os.getpid()): tracer.dump()}
        daemon_trace = getattr(wl, "trace_out", None)
        if daemon_trace is not None and daemon_trace.exists():
            dump = json.loads(daemon_trace.read_text())
            traces[str(dump.pop("pid"))] = dump
        out["traces"] = traces
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

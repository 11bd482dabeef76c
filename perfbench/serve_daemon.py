"""Run ``repro serve`` in this interpreter, optionally traced.

    python3 perfbench/serve_daemon.py [--trace-out FILE] <repro serve args>

With ``--trace-out`` the layer wrappers of :mod:`tracer` are installed
before the daemon starts, and its spans and counts are written to FILE
when it exits (after the SIGTERM drain).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    tracer = None
    if trace_out is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *argv])
    finally:
        if tracer is not None:
            dump = tracer.dump()
            dump["pid"] = os.getpid()
            Path(trace_out).write_text(json.dumps(dump))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

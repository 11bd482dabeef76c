"""The benchmark's four workloads, their seeded inputs and their oracles.

Every workload derives its inputs from ``(workload, seed, op index)``
alone, so one seed gives the same op sequence on every run, and the
program under test receives only the generated inputs. Every oracle is
independent of the code path it checks:

* ``incircuit`` -- Triple-DES against the pure-Python FIPS model in
  ``repro.apps.des_tables``, edge detection against ``golden_edge``,
  loopback against the identity; the assertion verdict against the one
  the input implies.
* ``campaign`` -- each (target, seed) detection matrix is computed twice
  and must repeat exactly.
* ``dse`` -- every point summary, whether it came from a cold, warm or
  incremental synthesis, must equal a full cold ``synthesize``.
* ``serve`` -- every canonical payload must equal the in-process
  ``evaluate_point_cached`` result, and the daemon must report
  ``drained=True`` on SIGTERM.

A closed-loop workload runs ops back to back from one caller until the
deadline and at least ``count_ops`` ops have run; the exact per-layer
counts are summed over those first ``count_ops`` ops, so they do not move
when the program only gets faster.
"""

from __future__ import annotations

import json
import random
import resource
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from repro.apps import des_tables
from repro.apps.edge_detect import build_edge_app, golden_edge
from repro.apps.loopback import build_loopback
from repro.apps.tripledes import build_tdes_app
from repro.core.synth import synthesize
from repro.faults.campaign import run_campaign
from repro.lab.cache import SynthesisCache
from repro.lab.sweep import (
    OPTION_VARIANTS,
    AppSpec,
    SweepPoint,
    SweepSpec,
    build_app,
    evaluate_point_cached,
    run_sweep,
)
from repro.platform.report import point_summary
from repro.runtime.hwexec import execute
from repro.serve.client import ServeClient
from repro.serve.protocol import canonical_record

import speed

HERE = Path(__file__).resolve().parent


@dataclass
class OpResult:
    index: int
    latency_s: float
    ok: bool
    error: str | None = None
    cycles: int = 0
    #: perf_counter at the op's start (its due time on serve)
    start: float = 0.0


def _rng(*parts) -> random.Random:
    # str seeds hash through SHA-512: stable across interpreters
    return random.Random(":".join(str(p) for p in parts))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ClosedLoop:
    """One caller running ops back to back."""

    name = ""
    #: exact counts are summed over this many leading ops
    count_ops = 1

    def __init__(self, seed: int, workdir: Path, trace: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Work done before the first op is ready (part of setup_s)."""

    def plan(self, index: int):
        """The op's generated inputs and expected results (not timed)."""
        raise NotImplementedError

    def execute(self, plan):
        """Call the program (timed)."""
        raise NotImplementedError

    def check(self, plan, output) -> tuple[str | None, int]:
        """(error or None, simulated cycles)."""
        raise NotImplementedError

    def finish(self, results: list[OpResult]) -> None:
        """Post-phase oracles; may mark results as failed."""

    def teardown(self) -> dict:
        return {}

    def run(self, seconds: float, tracer) -> tuple[list[OpResult], float]:
        results: list[OpResult] = []
        self.probes = []
        busy = 0.0
        t_end = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < t_end or index < self.count_ops:
            self.probes.append(speed.sample())
            plan = self.plan(index)
            error, cycles = None, 0
            t0 = time.perf_counter()
            with tracer.op(index) if tracer is not None else nullcontext():
                try:
                    output = self.execute(plan)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    output, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            busy += latency
            if error is None:
                error, cycles = self.check(plan, output)
            results.append(OpResult(index, latency, error is None, error,
                                    cycles, t0))
            index += 1
        self.probes.append(speed.sample())
        self.peak_rss_mb = peak_rss_mb()
        return results, busy


# ---- incircuit ---------------------------------------------------------------

#: fixed op mix: the median op is an edge run, the top quarter Triple-DES
INCIRCUIT_MIX = ("tdes", "edge", "loopback", "edge")
EDGE_W, EDGE_H = 48, 24
TDES_TEXT_BYTES = 32
LOOPBACK_STAGES, LOOPBACK_WORDS = 4, 128


class Incircuit(ClosedLoop):
    """Build a seeded app, synthesize with optimized assertions, execute.

    One in four Triple-DES and edge inputs is faulty: a non-ASCII byte
    in the plaintext must trip ``ch < 127``, a wrong image width in the
    header must trip ``w == 48``.
    """

    name = "incircuit"
    count_ops = 8

    def setup(self) -> None:
        rng = _rng(self.name, self.seed)
        self.fault_offset = {k: rng.randrange(4) for k in ("tdes", "edge")}

    def plan(self, index: int) -> dict:
        kind = INCIRCUIT_MIX[index % len(INCIRCUIT_MIX)]
        rng = _rng(self.name, self.seed, index)
        rounds = index // len(INCIRCUIT_MIX)
        occurrence = rounds if kind == "tdes" else 2 * rounds + (index % 4 == 3)
        faulty = kind != "loopback" and \
            (occurrence + self.fault_offset[kind]) % 4 == 0
        if kind == "tdes":
            keys = tuple(rng.getrandbits(64) for _ in range(3))
            text = bytearray(rng.randrange(32, 127)
                             for _ in range(TDES_TEXT_BYTES))
            if faulty:
                text[rng.randrange(TDES_TEXT_BYTES // 2, TDES_TEXT_BYTES)] = \
                    rng.randrange(128, 256)
            blocks = des_tables.pack_text(bytes(text))
            cipher = [des_tables.tdes_encrypt_block(b, *keys) for b in blocks]
            expected = [des_tables.tdes_decrypt_block(c, *keys)
                        for c in cipher]
            return {"kind": kind, "faulty": faulty, "text": bytes(text),
                    "keys": keys, "cipher": cipher, "expected": expected,
                    "site": "ch < 127"}
        if kind == "edge":
            pixels = [rng.randrange(1 << 16) for _ in range(EDGE_W * EDGE_H)]
            width = EDGE_W + rng.choice((-8, -1, 1, 8)) if faulty else EDGE_W
            return {"kind": kind, "faulty": faulty, "pixels": pixels,
                    "header": (width, EDGE_H),
                    "expected": golden_edge(EDGE_W, EDGE_H, pixels),
                    "site": f"w == {EDGE_W}"}
        data = [rng.randrange(1, 1 << 32) for _ in range(LOOPBACK_WORDS)]
        return {"kind": kind, "faulty": False, "data": data,
                "expected": list(data)}

    def execute(self, plan: dict):
        kind = plan["kind"]
        if kind == "tdes":
            app = build_tdes_app(plan["text"], keys=plan["keys"])
            stream = "plain"
        elif kind == "edge":
            app = build_edge_app(EDGE_W, EDGE_H, pixels=plan["pixels"],
                                 header=plan["header"])
            stream = "edges_out"
        else:
            app = build_loopback(LOOPBACK_STAGES, data=plan["data"])
            stream = "drain"
        image = synthesize(app, assertions="optimized")
        return app, stream, execute(image)

    def check(self, plan: dict, output) -> tuple[str | None, int]:
        app, stream, result = output
        sites = sorted({site.expr_text for _proc, site in result.failures})
        words = result.outputs.get(stream, [])
        expected = plan["expected"]
        if plan["kind"] == "tdes":
            if app.streams["cipher"].feeder_data != plan["cipher"]:
                return "app ciphertext differs from the FIPS reference", 0
            if expected != des_tables.pack_text(plan["text"]):
                return "FIPS reference does not round-trip the plaintext", 0
        if plan["faulty"]:
            if not result.aborted or sites != [plan["site"]]:
                return (f"{plan['kind']}: expected {plan['site']!r} to fire, "
                        f"got reason={result.reason} sites={sites}"), \
                    result.cycles
            if plan["kind"] == "tdes" and words != expected[:len(words)]:
                return "tdes: output before the abort differs", result.cycles
            return None, result.cycles
        if result.reason != "completed" or sites:
            return (f"{plan['kind']}: clean input ended {result.reason} "
                    f"with sites={sites}"), result.cycles
        if words != expected:
            return f"{plan['kind']}: output differs from the reference", \
                result.cycles
        return None, result.cycles


# ---- campaign ------------------------------------------------------------------

#: per pair; a quarter edge campaigns keeps the median op a loopback one
#: and the 90th percentile an edge one
CAMPAIGN_TARGETS = ("edge", "loopback", "loopback", "loopback")
CAMPAIGN_COUNT = 8
CAMPAIGN_LEVELS = ("none", "optimized")


class Campaign(ClosedLoop):
    """``run_campaign`` with CLI defaults over seeded (target, seed) pairs.

    Ops run pairs twice, interleaved (a, b, a, b, c, d, c, d, ...), so
    every detection matrix is computed twice and must repeat exactly.
    """

    name = "campaign"
    count_ops = 4

    def setup(self) -> None:
        self.matrices: dict[int, list] = {}
        self.pending: dict[int, int] = {}

    def pair(self, index: int) -> int:
        return (index // 4) * 2 + index % 2

    def plan(self, index: int) -> dict:
        pair = self.pair(index)
        rng = _rng(self.name, self.seed, pair)
        return {"pair": pair, "index": index,
                "target": CAMPAIGN_TARGETS[pair % len(CAMPAIGN_TARGETS)],
                "seed": rng.randrange(1 << 16)}

    def execute(self, plan: dict):
        return run_campaign(plan["target"], levels=CAMPAIGN_LEVELS,
                            seed=plan["seed"], count=CAMPAIGN_COUNT)

    @staticmethod
    def matrix(result) -> list:
        return [(oc.scenario, oc.level, oc.classification, oc.reason,
                 oc.cycles, oc.detection_latency, oc.events)
                for oc in result.outcomes]

    def check(self, plan: dict, output) -> tuple[str | None, int]:
        cycles = sum(oc.cycles for oc in output.outcomes)
        if output.harness_errors:
            return f"{len(output.harness_errors)} harness-error cells", cycles
        matrix = self.matrix(output)
        first = self.matrices.setdefault(plan["pair"], matrix)
        if first is not matrix:
            self.pending.pop(plan["pair"], None)
            if first != matrix:
                return (f"{plan['target']} seed {plan['seed']}: detection "
                        "matrix did not repeat"), cycles
        else:
            self.pending[plan["pair"]] = plan["index"]
        return None, cycles

    def finish(self, results: list[OpResult]) -> None:
        # pairs whose repeat fell past the deadline are repeated here
        for pair, index in sorted(self.pending.items()):
            plan = self.plan(index)
            error, _ = self.check(plan, self.execute(plan))
            if error is not None and results[index].ok:
                results[index].ok, results[index].error = False, error


# ---- dse -------------------------------------------------------------------------

ALL_LEVELS = ("none", "unoptimized", "optimized")
OTHER_VARIANTS = tuple(v for v in OPTION_VARIANTS if v != "default")
PIPELINE_STAGES, DSE_LOOPBACK_STAGES = 6, 8


class Dse(ClosedLoop):
    """``run_sweep(jobs=1)`` over small seeded cross products.

    Ops run in cycles of eight with a fixed shape, so every seed asks for
    the same amount of work: a cold edge app over the three levels, the
    same sweep again (warm), the edge app under two other option variants
    (partly warm), a cold 6-stage pipeline, that pipeline with one stage
    edited (incremental), an 8-stage loopback and a Triple-DES app with
    new feed data (app-level misses, process-level hits after the first
    cycle), and the pipeline sweep again (warm). The seed draws image
    sizes, stage constants, edits, variants and data. Every op gets a
    fresh store; all ops of a run share one cache.
    """

    name = "dse"
    count_ops = 8

    def setup(self) -> None:
        self.cache_root = self.workdir / "cache"
        self.cache_root.mkdir(parents=True)
        self.points: dict[str, tuple[SweepPoint, list[tuple[int, dict]]]] = {}

    def plan(self, index: int) -> dict:
        rng = _rng(self.name, self.seed, index // 8)
        edge = AppSpec.make("edge", width=rng.randrange(8, 65, 4),
                            height=rng.randrange(4, 33, 4))
        deltas = {i: rng.randint(1, 999) for i in range(PIPELINE_STAGES)}
        pipeline = AppSpec.make("pipeline", stages=PIPELINE_STAGES,
                                edits=tuple(sorted(deltas.items())))
        deltas[rng.randrange(PIPELINE_STAGES)] = rng.randint(1000, 1999)
        edited = AppSpec.make("pipeline", stages=PIPELINE_STAGES,
                              edits=tuple(sorted(deltas.items())))
        two = ("none", "optimized")
        ops = [
            ("cold", edge, ALL_LEVELS, ("default",)),
            ("warm", edge, ALL_LEVELS, ("default",)),
            ("variant", edge, ("unoptimized", "optimized"),
             tuple(rng.sample(OTHER_VARIANTS, 2))),
            ("cold", pipeline, two, ("default",)),
            ("edit", edited, two, ("default",)),
            ("data", AppSpec.make(
                "loopback", n=DSE_LOOPBACK_STAGES,
                data=tuple(rng.randrange(1, 1 << 16) for _ in range(8))),
             two, ("default",)),
            ("data", AppSpec.make(
                "tripledes", text="".join(chr(rng.randrange(32, 127))
                                          for _ in range(12))),
             two, ("default",)),
            ("warm", pipeline, two, ("default",)),
        ]
        mode, app, levels, variants = ops[index % 8]
        return {"index": index, "mode": mode, "app": app, "levels": levels,
                "variants": variants}

    def execute(self, plan: dict):
        spec = SweepSpec.cross("perfbench-dse", [plan["app"]],
                               levels=plan["levels"],
                               variants=plan["variants"])
        store = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        return spec, run_sweep(spec, jobs=1, store_root=store,
                               cache_root=str(self.cache_root),
                               progress=False)

    def check(self, plan: dict, output) -> tuple[str | None, int]:
        spec, result = output
        if not result.ok:
            return f"sweep not ok: {result.manifest.get('counters')}", 0
        for point in spec.points:
            key = json.dumps([point.app.kind, point.app.params, point.level,
                              point.variant], default=str)
            entry = self.points.setdefault(key, (point, []))
            entry[1].append((plan["index"], result.records[point.point_id]))
        return None, 0

    def finish(self, results: list[OpResult]) -> None:
        # every cold, warm and incremental point against a full cold
        # synthesis of the same point
        apps: dict[str, object] = {}
        for point, seen in self.points.values():
            key = json.dumps([point.app.kind, point.app.params], default=str)
            if key not in apps:
                apps[key] = build_app(point.app)
            image = synthesize(apps[key], point.level, options=point.options)
            reference = point_summary(image, point.device)
            for index, record in seen:
                got = {k: record.get(k) for k in reference}
                if got != reference and results[index].ok:
                    results[index].ok = False
                    results[index].error = (
                        f"{point.point_id}: summary differs from a full "
                        f"cold synthesis: {got} != {reference}")


# ---- serve -----------------------------------------------------------------------

#: offered load, about a third of the daemon's measured capacity for this
#: request mix on a 2-core host (about 42 req/s at the host-speed probe's
#: reference speed, with every request due at once)
SERVE_RATE_PER_S = 14.0
SERVE_CONNECTIONS = 2
#: the host-speed probe runs in its own client thread this often; a
#: request lasts about 35 ms, and denser probes follow the host's
#: sub-second swings more closely
SERVE_PROBE_PERIOD_S = 0.1
SERVE_POOL = 6
#: one-process loopback and pipeline apps keep a warm request short, so
#: the rate, and with it the sample count, is high, and they cost about
#: the same when warm, so the median request is not poised between two
#: groups of different cost (an edge app costs about twice as much)
SERVE_STAGES = 1
#: arrival mix: in every 12 arrivals one is a cold point and one an
#: identical cold pair sent together; the rest repeat a pool point
SERVE_MIX_PERIOD, SERVE_COLD_SLOT, SERVE_PAIR_SLOT = 12, 5, 11


def _point_params(kind: str, params: dict, level: str,
                  variant: str = "default") -> dict:
    return {"app": {"kind": kind, "params": params}, "level": level,
            "variant": variant}


class Serve:
    """Open-loop Poisson ``synth`` submits to a ``repro serve`` daemon."""

    name = "serve"
    count_ops = 0

    def __init__(self, seed: int, workdir: Path, trace: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.trace_out = workdir / "daemon-trace.json" if trace else None
        self.proc: subprocess.Popen | None = None

    # -- daemon lifecycle --

    def setup(self) -> None:
        addr = self.workdir / "serve.addr"
        self.log_path = self.workdir / "serve.log"
        cmd = [sys.executable, str(HERE / "serve_daemon.py")]
        if self.trace_out is not None:
            cmd += ["--trace-out", str(self.trace_out)]
        cmd += ["--port", "0", "--jobs", str(SERVE_CONNECTIONS),
                "--cache", str(self.workdir / "serve-cache"),
                "--store", str(self.workdir / "serve-runs"),
                "--address-file", str(addr)]
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(cmd, stdout=log,
                                         stderr=subprocess.STDOUT,
                                         cwd=self.workdir)
        deadline = time.monotonic() + 60
        while not (addr.exists() and addr.read_text().endswith("\n")):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("serve daemon did not start: "
                                   + self.log_path.read_text())
            time.sleep(0.005)
        self.address = addr.read_text().strip()
        client = ServeClient(self.address, client_id="perfbench-setup")
        client.ping()
        # one synthesis finishes the daemon's lazy imports before timing;
        # no request of the load uses stage constant 0, so none gets warm
        warm = client.submit("synth", _point_params(
            "pipeline", {"stages": SERVE_STAGES, "edits": [[0, 0]]},
            "optimized"), timeout=120)
        if not warm.ok:
            raise RuntimeError(f"serve warm-up failed: {warm.terminal}")

    def teardown(self) -> dict:
        """SIGTERM the daemon; it must drain cleanly."""
        if self.proc is None:
            return {}
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = None
        self.proc = None
        log = self.log_path.read_text()
        return {"drained": "drained=True" in log and code == 0}

    def daemon_peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    # -- load --

    def requests(self, seconds: float) -> list[tuple[float, dict]]:
        """(due offset, params) sorted by due time.

        Arrival times of a Poisson process conditioned on its count are
        sorted uniform draws, so a fixed count keeps every run's load the
        same while the gaps stay exponential. The pool's app shapes and
        the positions of cold points and pairs, and how often each pool
        point repeats, are fixed; the seed draws their contents and the
        repeat order.
        """
        rng = _rng(self.name, self.seed)

        def pipeline(edits) -> dict:
            return {"stages": SERVE_STAGES,
                    "edits": [[i, d] for i, d in enumerate(edits)]}

        pool = []
        for j in range(SERVE_POOL):
            level = ALL_LEVELS[j // 2 % len(ALL_LEVELS)]
            if j % 2 == 0:
                params = {"n": SERVE_STAGES,
                          "data": [rng.randrange(1, 1 << 16)
                                   for _ in range(8)]}
                pool.append(_point_params("loopback", params, level))
            else:
                params = pipeline(rng.randint(1, 999)
                                  for _ in range(SERVE_STAGES))
                pool.append(_point_params("pipeline", params, level))
        count = round(SERVE_RATE_PER_S * seconds)
        dues = sorted(rng.uniform(0, seconds) for _ in range(count))
        out = []
        repeats: list[dict] = []
        for n, due in enumerate(dues):
            slot = n % SERVE_MIX_PERIOD
            if slot in (SERVE_COLD_SLOT, SERVE_PAIR_SLOT):
                # stage constants above 999 never occur in the pool
                cold = _point_params(
                    "pipeline",
                    pipeline(1000 + rng.randrange(1 << 20)
                             for _ in range(SERVE_STAGES)),
                    ALL_LEVELS[n // SERVE_MIX_PERIOD % len(ALL_LEVELS)])
                out.append((due, cold))
                if slot == SERVE_PAIR_SLOT:
                    out.append((due, cold))
            else:
                # every pool point repeats equally often, in seeded order
                if not repeats:
                    repeats = rng.sample(pool, len(pool))
                out.append((due, repeats.pop()))
        return out

    def run(self, seconds: float, tracer) -> tuple[list[OpResult], float]:
        reqs = self.requests(seconds)
        self.replies: list = [None] * len(reqs)
        self.timing: list = [None] * len(reqs)
        lock = threading.Lock()
        cursor = iter(range(len(reqs)))
        t_start = time.perf_counter() + 0.05

        def sender(conn: int) -> None:
            client = ServeClient(self.address, client_id=f"perfbench-{conn}")
            while True:
                with lock:
                    n = next(cursor, None)
                if n is None:
                    return
                due = t_start + reqs[n][0]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                with tracer.op(n) if tracer is not None else nullcontext():
                    if tracer is not None:
                        tracer.take_events()
                    try:
                        reply = client.submit("synth", reqs[n][1],
                                              timeout=120)
                    except Exception as exc:  # noqa: BLE001 - counted
                        reply = exc
                    events = tracer.take_events() if tracer else []
                done = time.perf_counter()
                self.replies[n] = reply
                self.timing[n] = (due, sent, done, events)

        self.probes = []
        stop = threading.Event()

        def prober() -> None:
            while not stop.is_set():
                self.probes.append(speed.sample())
                stop.wait(SERVE_PROBE_PERIOD_S)

        threads = [threading.Thread(target=sender, args=(c,))
                   for c in range(SERVE_CONNECTIONS)]
        probe_thread = threading.Thread(target=prober)
        probe_thread.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        probe_thread.join()
        wall = max(t[2] for t in self.timing) - t_start
        self.peak_rss_mb = self.daemon_peak_rss_mb()
        self.stats = ServeClient(self.address,
                                 client_id="perfbench-stats").stats()
        self.reqs = reqs
        results = []
        for n, reply in enumerate(self.replies):
            due, _sent, done, _ev = self.timing[n]
            if isinstance(reply, Exception):
                error = f"{type(reply).__name__}: {reply}"
            elif not reply.ok:
                error = f"{reply.status}: {reply.terminal}"
            else:
                error = None
            results.append(OpResult(n, done - due, error is None, error,
                                    start=due))
        return results, wall

    def finish(self, results: list[OpResult]) -> None:
        """Canonical payloads against in-process evaluation."""
        ref_cache = SynthesisCache(self.workdir / "reference-cache")
        refs: dict[str, dict] = {}
        for n, (_due, params) in enumerate(self.reqs):
            if not results[n].ok:
                continue
            key = json.dumps(params, sort_keys=True)
            if key not in refs:
                app = AppSpec.make(params["app"]["kind"],
                                   **params["app"]["params"])
                variant = params["variant"]
                point = SweepPoint(
                    point_id=f"{app.label}/{params['level']}"
                    + (f"/{variant}" if variant != "default" else ""),
                    app=app, level=params["level"], variant=variant,
                    options=OPTION_VARIANTS[variant])
                refs[key] = canonical_record(
                    evaluate_point_cached(point, ref_cache))
            if canonical_record(self.replies[n].record) != refs[key]:
                results[n].ok = False
                results[n].error = "payload differs from in-process result"


WORKLOADS = {cls.name: cls for cls in (Incircuit, Campaign, Dse, Serve)}


def make(name: str, seed: int, workdir: Path, trace: bool):
    return WORKLOADS[name](seed, workdir, trace)



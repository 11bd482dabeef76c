"""Lane-vs-scalar bit-identity of the batched (SoA) execution mode.

The batched executor's contract is stronger than "same outputs": lane i
of ``execute_batch(image, lanes)`` must reproduce *everything*
observable about ``execute(image)`` run scalar with lane i's feed and
faults — outputs, cycle/stall counters, assertion failures and abort
sites, watchdog classification, quarantine lists and fault event logs —
while the other lanes keep running. These tests pin that contract on the
paper's example applications across lane counts, assertion levels and
injected runtime faults.
"""

import pytest

from repro.apps.edge_detect import build_edge_app
from repro.apps.loopback import build_loopback, expected_output
from repro.apps.tripledes import build_tdes_app
from repro.core.synth import synthesize
from repro.faults.runtime import (
    ChannelBitFlip,
    RegisterUpset,
    StuckAtBit,
)
from repro.runtime.hwexec import LaneSpec, execute, execute_batch
from repro.runtime.watchdog import WatchdogConfig
from repro.simc.bench import _hw_signature

TEXT = b"In-circuit!"
LEVELS = ("none", "unoptimized", "optimized")

APPS = {
    "loopback": lambda: build_loopback(3, data=list(range(1, 17))),
    "edge": lambda: build_edge_app(width=16, height=8),
    "tripledes": lambda: build_tdes_app(TEXT),
}

_images: dict = {}


def image_for(app_name: str, level: str):
    key = (app_name, level)
    if key not in _images:
        _images[key] = synthesize(APPS[app_name](), assertions=level)
    return _images[key]


def scalar_run(image, feed=None, faults=(), watchdog=None):
    """Scalar reference with an optional feeder-data override."""
    for f in faults:
        f.reset()
    sd = image.app.streams.get("feed")
    saved = sd.feeder_data if sd is not None else None
    try:
        if feed is not None and sd is not None:
            sd.feeder_data = list(feed)
        return execute(image, faults=faults, watchdog=watchdog)
    finally:
        if sd is not None:
            sd.feeder_data = saved


def lane_feed(i: int) -> list[int]:
    """Deterministic per-lane loopback stimulus; lane 2 trips the
    ``buf[i & 15] > 0`` stage assertion with a zero word."""
    if i == 0:
        return list(range(1, 17))
    if i == 2:
        return [5, 0, 7]
    return [(3 * i + k) % 251 + 1 for k in range(8 + (i % 5))]


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_lane_count_sweep_loopback(n):
    image = image_for("loopback", "optimized")
    feeds = [lane_feed(i) for i in range(n)]
    batch = execute_batch(
        image, [LaneSpec(feeder_data={"feed": f}) for f in feeds])
    assert len(batch) == n
    for i, res in enumerate(batch):
        ref = scalar_run(image, feed=feeds[i])
        assert _hw_signature(res) == _hw_signature(ref), f"lane {i}"
    # sanity on content, not just self-consistency: clean lanes loop back
    # their feed, the zero-word lane aborts on the stage assertion
    assert batch[0].outputs["drain"] == expected_output(feeds[0])
    if n > 2:
        assert not batch[2].completed and batch[2].failures


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("app_name", sorted(APPS))
def test_example_apps_all_levels(app_name, level):
    image = image_for(app_name, level)
    batch = execute_batch(image, [LaneSpec(), LaneSpec()])
    ref = _hw_signature(execute(image))
    for i, res in enumerate(batch):
        assert _hw_signature(res) == ref, f"lane {i}"
        assert res.completed
    for st in batch[0].process_stats.values():
        assert st["backend"] in ("batched", "interp")


LANE_FAULTS = [
    (),
    (ChannelBitFlip(target="link0", word_index=3, bit=5),),
    (RegisterUpset(target="stage1", cycle=20, reg_index=1, bit=2),),
    (StuckAtBit(target="link1", bit=0, stuck_value=1),),
]


@pytest.mark.parametrize("level", ["none", "optimized"])
def test_per_lane_fault_injection(level):
    """Each lane gets its own fault set; classifications, event logs and
    watchdog reasons must match a scalar run of the same fault."""
    image = image_for("loopback", level)
    batch = execute_batch(
        image, [LaneSpec(faults=tuple(f)) for f in LANE_FAULTS])
    for i, faults in enumerate(LANE_FAULTS):
        res = batch[i]
        events_batched = list(res.fault_events)
        ref = scalar_run(image, faults=faults)
        assert _hw_signature(res) == _hw_signature(ref), f"lane {i}"
        assert events_batched == list(ref.fault_events)
    # the clean lane is unaffected by its faulted siblings
    assert batch[0].completed
    assert batch[0].outputs["drain"] == expected_output(range(1, 17))


def test_watchdog_reason_per_lane():
    """A lane that blows its cycle budget is classified per lane, with
    the same watchdog report a scalar run under the same config gets."""
    image = image_for("loopback", "optimized")
    cfg = WatchdogConfig(max_cycles=40, idle_limit=64)
    feeds = [list(range(1, 17)), [9, 9, 9]]
    batch = execute_batch(
        image, [LaneSpec(feeder_data={"feed": f}) for f in feeds],
        watchdog=cfg)
    for i, res in enumerate(batch):
        ref = scalar_run(image, feed=feeds[i], watchdog=cfg)
        assert res.reason == ref.reason, f"lane {i}"
        assert _hw_signature(res) == _hw_signature(ref), f"lane {i}"
    # the 16-word lane blows the 40-cycle budget while its short sibling
    # completes — per-lane classification, not batch-wide
    assert not batch[0].completed and batch[0].watchdog is not None
    assert batch[1].completed and batch[1].watchdog is None


def test_interp_backend_uses_lanewise_fallback():
    """``sim_backend="interp"`` must still honor the batch contract —
    through per-lane scalar interpreters, bit-identically."""
    image = image_for("loopback", "optimized")
    batch = execute_batch(image, [LaneSpec(), LaneSpec()],
                          sim_backend="interp")
    ref = _hw_signature(execute(image, sim_backend="interp"))
    for res in batch:
        assert _hw_signature(res) == ref
        for st in res.process_stats.values():
            assert st["backend"] == "interp"


def test_empty_batch_rejected():
    from repro.errors import SimCompileError

    image = image_for("loopback", "none")
    with pytest.raises(SimCompileError) as exc:
        execute_batch(image, [])
    assert exc.value.code == "RPR-K030"


# ---- consumers --------------------------------------------------------------


def test_campaign_batched_matches_scalar(tmp_path):
    from repro.faults.campaign import run_campaign

    def key(oc):
        return (oc.scenario, oc.level, oc.classification, oc.reason,
                oc.cycles, oc.detection_latency, oc.failures,
                oc.quarantined, oc.events)

    scalar = run_campaign("loopback", levels=("none", "optimized"),
                          seed=0, count=6, cache_root=str(tmp_path / "c1"))
    batched = run_campaign("loopback", levels=("none", "optimized"),
                           seed=0, count=6, batch_lanes=8,
                           cache_root=str(tmp_path / "c2"))
    assert [key(o) for o in scalar.outcomes] == \
        [key(o) for o in batched.outcomes]
    assert not batched.harness_errors


def test_difftest_scalar_vs_batched_phase():
    from repro.difftest.generator import GenConfig, generate
    from repro.difftest.oracle import run_difftest

    for seed in range(6):
        prog = generate(seed, GenConfig())
        report = run_difftest(prog.render(), prog.feed,
                              filename=f"seed{seed}.c", batch_lanes=4)
        assert report.ok, report.divergence
        assert report.batch_lanes == 4


def test_difftest_batch_lanes_validation():
    from repro.difftest.oracle import DifftestError, run_difftest

    with pytest.raises(DifftestError) as exc:
        run_difftest("void p(co_stream a) { }", [], batch_lanes=-1)
    assert exc.value.code == "RPR-Y010"


def test_difftest_spec_fingerprint_isolates_batch_lanes():
    from repro.difftest.runner import DifftestSpec

    plain = DifftestSpec(name="fp", seeds=(0, 4))
    batched = DifftestSpec(name="fp", seeds=(0, 4), batch_lanes=4)
    assert plain.fingerprint() != batched.fingerprint()
    # disabled batching keeps historical run ids resolvable
    assert plain.fingerprint() == \
        DifftestSpec(name="fp", seeds=(0, 4), batch_lanes=0).fingerprint()


def test_sweep_point_lane_validation(tmp_path):
    from repro.lab.cache import SynthesisCache
    from repro.lab.sweep import AppSpec, SweepPoint, evaluate_point_cached

    point = SweepPoint(point_id="lb/opt",
                       app=AppSpec.make("loopback", n=3),
                       level="optimized")
    record = evaluate_point_cached(
        point, SynthesisCache(str(tmp_path)), validate_lanes=3)
    assert record["validate_lanes"] == 3
    assert record["lane_check"] == "ok"

"""Unit tests for hardware execution (board, collectors, notifier)."""

from repro.core.synth import SynthesisOptions, synthesize
from repro.runtime.hwexec import execute
from repro.runtime.swsim import software_sim
from repro.runtime.taskgraph import Application

SRC = """
void p(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) {
    assert(x < 100);
    co_stream_write(output, x * 2);
  }
  co_stream_close(output);
}
"""


def make_app(data, nprocs=1):
    app = Application("t")
    prev = None
    for i in range(nprocs):
        app.add_c_process(SRC.replace("void p(", f"void p{i}("), name=f"p{i}")
        if prev is None:
            app.feed("in", f"p{i}.input", data=data)
        else:
            app.connect(f"l{i}", f"{prev}.output", f"p{i}.input")
        prev = f"p{i}"
    app.sink("out", f"{prev}.output")
    return app


def test_execute_matches_software_sim_outputs():
    app = make_app([1, 2, 3, 4])
    sw = software_sim(app)
    for level in ("none", "unoptimized", "optimized"):
        hw = execute(synthesize(app, assertions=level))
        assert hw.completed, level
        assert hw.outputs["out"] == sw.outputs["out"], level


def test_multiprocess_chain_over_board():
    app = make_app([5, 6], nprocs=3)
    hw = execute(synthesize(app, assertions="optimized"))
    assert hw.completed
    assert hw.outputs["out"] == [40, 48]


def test_failure_aborts_at_every_level():
    for level in ("unoptimized", "optimized"):
        hw = execute(synthesize(make_app([1, 500, 3]), assertions=level))
        assert hw.aborted, level
        assert "Assertion failed: x < 100" in hw.stderr[0]


def test_optimized_without_share_reports_failures_too():
    hw = execute(
        synthesize(make_app([500]), assertions="optimized",
                   options=SynthesisOptions(share=False))
    )
    assert hw.aborted
    assert "x < 100" in hw.stderr[0]


def test_nabort_collects_all_failures():
    hw = execute(synthesize(make_app([500, 1, 600]), assertions="optimized",
                            nabort=True))
    assert hw.completed and not hw.aborted
    assert len(hw.failures) >= 2
    assert hw.outputs["out"] == [1000, 2, 1200]


def test_level_none_never_fails():
    hw = execute(synthesize(make_app([500]), assertions="none"))
    assert hw.completed and not hw.failures
    assert hw.outputs["out"] == [1000]


def test_hang_detection_with_traces():
    src = """
void stuck(co_stream input, co_stream output) {
  uint32 x;
  co_stream_read(input, &x);
  co_stream_read(input, &x);
  co_stream_write(output, x);
  co_stream_close(output);
}
"""
    app = Application("t")
    app.add_c_process(src, name="stuck")
    # feeder supplies one word and never closes more: after EOS the second
    # read returns immediately, so to force a hang we use an internal
    # producer that stalls forever
    producer = """
void prod(co_stream input, co_stream output) {
  uint32 x;
  co_stream_read(input, &x);
  co_stream_write(output, x);
  while (x == x) { x = x; }
}
"""
    app2 = Application("t2")
    app2.add_c_process(producer, name="prod")
    app2.add_c_process(src, name="stuck")
    app2.feed("seed", "prod.input", data=[7])
    app2.connect("mid", "prod.output", "stuck.input")
    app2.sink("out", "stuck.output")
    hw = execute(synthesize(app2, assertions="none"), max_cycles=5000,
                 idle_limit=16)
    assert hw.hung
    assert any("stuck" in str(t) for t in hw.traces)


def test_process_stats_recorded():
    hw = execute(synthesize(make_app([1, 2]), assertions="optimized"))
    assert "p0" in hw.process_stats
    stats = hw.process_stats["p0"]
    assert stats["cycles"] > 0
    assert stats["stalls"] >= 0
    # the checker process pipelines one initiation per tapped assertion
    chk = hw.process_stats["p0__chk0"]
    assert chk["iterations"] >= 2


def test_board_single_word_per_cycle():
    # feeding N words takes at least N cycles over the multiplexed link
    n = 50
    hw = execute(synthesize(make_app(list(range(1, n + 1))), assertions="none"))
    assert hw.cycles >= n
    assert len(hw.outputs["out"]) == n


def test_empty_feed_closes_stream():
    hw = execute(synthesize(make_app([]), assertions="optimized"))
    assert hw.completed
    assert hw.outputs["out"] == []


def test_bitmask_decode_handles_more_than_32_assertions():
    # regression: the notifier used to scan a hard-coded 32-bit range, so
    # assertions packed above bit 31 of a wide shared word were dropped
    from repro.apps.loopback import build_loopback

    app = build_loopback(40, data=[0, 5])  # 0 violates `> 0` in all stages
    image = synthesize(app, assertions="optimized", nabort=True,
                       options=SynthesisOptions(share_word_width=64))
    decode = image.assert_decode["__collect0_out"]
    assert decode.mode == "bitmask"
    assert max(decode.table) == 39  # 40 assertions share one word

    # unit level: a word with only high bits set must still decode
    high_word = (1 << 39) | (1 << 32)
    hits = image.decode_failure("__collect0_out", high_word)
    assert len(hits) == 2

    # end to end: every stage's failure reaches the CPU notifier
    hw = execute(image)
    assert hw.completed
    assert len(hw.failures) == 40
    assert {site.ordinal for _, site in hw.failures} == {0}
    assert len({proc for proc, _ in hw.failures}) == 40


def test_nabort_failure_words_drain_after_processes_finish():
    # the data path finishes quickly; sticky failure words must still be
    # in flight through collectors and the multiplexed link, and the drain
    # condition has to wait for them rather than cut the run short
    data = [500] * 6  # every word violates x < 100 in every stage
    hw = execute(synthesize(make_app(data, nprocs=3), assertions="optimized",
                            nabort=True))
    assert hw.completed and not hw.aborted
    assert hw.reason == "completed"
    assert hw.outputs["out"] == [v * 8 for v in data]
    # one sticky failure per (stage, violating word) batch at minimum:
    # each of the 3 stages must have reported its assertion at least once
    assert {proc for proc, _ in hw.failures} == {"p0", "p1", "p2"}
    assert hw.first_failure_cycle is not None
    assert hw.first_failure_cycle <= hw.cycles


def test_timeout_and_deadlock_reasons_distinguishable():
    # same spinning-producer app as test_hang_detection_with_traces: the
    # spin is *active*, so a tight cycle budget ends in `timeout`, never
    # the idle-counter `deadlock`
    producer = """
void prod(co_stream input, co_stream output) {
  uint32 x;
  co_stream_read(input, &x);
  while (x == x) { x = x; }
}
"""
    app = Application("t3")
    app.add_c_process(producer, name="prod")
    app.feed("seed", "prod.input", data=[7])
    app.sink("out", "prod.output")
    hw = execute(synthesize(app, assertions="none"), max_cycles=3000,
                 idle_limit=16)
    assert hw.hung
    assert hw.reason == "timeout"
    assert hw.watchdog is not None and hw.watchdog.reason == "timeout"


PASS_SRC = """
void q(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) {
    co_stream_write(output, x);
  }
  co_stream_close(output);
}
"""


def test_64k_word_loopback_returns_its_input():
    """A long stimulus streams through every feeder in linear time (the
    feeders are deques) and comes back unchanged."""
    from repro.runtime.hwexec import LaneSpec, execute_batch

    data = [(i * 2654435761) % (1 << 32) for i in range(65_536)]
    app = Application("feed64k")
    app.add_c_process(PASS_SRC, name="q")
    app.feed("in", "q.input", data=data)
    app.sink("out", "q.output")
    image = synthesize(app, assertions="none")
    hw = execute(image, sim_backend="compiled")
    assert hw.completed and hw.outputs["out"] == data
    lane = execute_batch(image, [LaneSpec()])[0]
    assert lane.completed and lane.outputs["out"] == data
    assert software_sim(app).outputs["out"] == data

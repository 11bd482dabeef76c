"""Watchdog layer: termination classification, triage, quarantine."""

from repro.core.synth import synthesize
from repro.platform.report import execution_summary
from repro.runtime.hwexec import execute
from repro.runtime.taskgraph import Application
from repro.runtime.watchdog import (
    ABORTED,
    COMPLETED,
    DEADLOCK,
    HANG_REASONS,
    LIVELOCK,
    TERMINATIONS,
    TIMEOUT,
    WatchdogConfig,
)

#: terminates without closing its output -> the downstream reader blocks
#: forever on an open-but-dead channel, with zero system activity
NOCLOSE_SRC = """
void p(co_stream input, co_stream output) {
  uint32 x;
  co_stream_read(input, &x);
}
"""

#: spins actively on a flag that is never set -> livelock, not deadlock
LIVELOCK_SRC = """
void p(co_stream input, co_stream output) {
  uint32 x;
  uint32 flag;
  flag = 0;
  co_stream_read(input, &x);
  while (flag == 0) {
    x = x + 1;
  }
  co_stream_write(output, x);
  co_stream_close(output);
}
"""

#: hands one word to the CPU, then spins: the last forward progress is
#: the board link popping that word
WRITE_THEN_SPIN_SRC = """
void p(co_stream input, co_stream output) {
  uint32 x;
  uint32 flag;
  flag = 0;
  co_stream_read(input, &x);
  co_stream_write(output, x);
  while (flag == 0) {
    x = x + 1;
  }
  co_stream_close(output);
}
"""

#: streams a 40-word log to the CPU, then hands one word downstream
SLOW_SRC = """
void slow(co_stream input, co_stream log, co_stream output) {
  uint32 x;
  uint32 i;
  co_stream_read(input, &x);
  for (i = 0; i < 40; i = i + 1) {
    co_stream_write(log, i);
  }
  co_stream_write(output, x);
  co_stream_close(log);
  co_stream_close(output);
}
"""

PASS_SRC = """
void q(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) {
    co_stream_write(output, x);
  }
  co_stream_close(output);
}
"""


def one_proc_app(src, data, name="p"):
    app = Application("wd")
    app.add_c_process(src, name=name)
    app.feed("in", f"{name}.input", data=list(data))
    app.sink("out", f"{name}.output")
    return app


def deadlock_app():
    app = Application("wd")
    app.add_c_process(NOCLOSE_SRC, name="p")
    app.add_c_process(PASS_SRC, name="q")
    app.feed("in", "p.input", data=[7])
    app.connect("mid", "p.output", "q.input")
    app.sink("out", "q.output")
    return app


def test_termination_vocabulary():
    assert set(HANG_REASONS) == {DEADLOCK, LIVELOCK, TIMEOUT}
    assert set(TERMINATIONS) == {COMPLETED, ABORTED, *HANG_REASONS}


def test_completed_reason():
    app = one_proc_app(PASS_SRC, [1, 2], name="q")
    res = execute(synthesize(app, assertions="none"))
    assert res.reason == COMPLETED
    assert not res.hung
    assert res.watchdog is None


def test_blocked_read_classified_as_deadlock():
    res = execute(synthesize(deadlock_app(), assertions="none"),
                  max_cycles=50_000)
    assert res.reason == DEADLOCK
    assert res.hung and not res.completed
    assert res.watchdog is not None
    assert res.watchdog.reason == DEADLOCK
    blocked = [t for t in res.watchdog.traces if t.process == "q"]
    assert blocked and "mid" in blocked[0].waiting_on
    # exact timing: 64 idle cycles after the last word moved
    assert res.cycles == 65
    assert (res.watchdog.fired_at_cycle, res.watchdog.stagnant_cycles,
            res.watchdog.quarantined, res.quarantined) == (65, 63, [], [])


def test_active_spin_classified_as_livelock_not_deadlock():
    app = one_proc_app(LIVELOCK_SRC, [7])
    cfg = WatchdogConfig(max_cycles=50_000, livelock_window=2_000)
    res = execute(synthesize(app, assertions="none"), watchdog=cfg)
    assert res.reason == LIVELOCK
    assert res.hung
    assert res.watchdog.stagnant_cycles >= 2_000
    # exact timing: the window fills 2000 cycles after the last read
    assert res.watchdog.reason == LIVELOCK
    assert res.cycles == 2_001
    assert (res.watchdog.fired_at_cycle, res.watchdog.stagnant_cycles,
            res.watchdog.quarantined, res.quarantined) == (2_001, 2_000, [], [])


def test_board_link_word_counts_as_progress():
    """The livelock window opens after the CPU pops the last word, not
    when the process wrote it."""
    app = one_proc_app(WRITE_THEN_SPIN_SRC, [7])
    cfg = WatchdogConfig(max_cycles=50_000, livelock_window=1_000)
    res = execute(synthesize(app, assertions="none"), watchdog=cfg)
    assert res.reason == LIVELOCK
    assert res.outputs["out"] == [7]
    assert res.cycles == 1_003
    assert (res.watchdog.fired_at_cycle, res.watchdog.stagnant_cycles,
            res.watchdog.quarantined, res.quarantined) == (1_003, 1_000, [], [])


def test_budget_exhaustion_mid_progress_is_timeout():
    app = one_proc_app(PASS_SRC, list(range(1, 200)), name="q")
    res = execute(synthesize(app, assertions="none"), max_cycles=40)
    assert res.reason == TIMEOUT
    assert res.hung and not res.completed
    assert res.cycles == 40
    assert res.watchdog.reason == TIMEOUT
    assert (res.watchdog.fired_at_cycle, res.watchdog.stagnant_cycles,
            res.watchdog.quarantined, res.quarantined) == (40, 0, [], [])


def test_legacy_idle_limit_argument_still_honored():
    res = execute(
        synthesize(deadlock_app(), assertions="none"),
        max_cycles=50_000,
        idle_limit=16,
    )
    assert res.reason == DEADLOCK
    assert res.watchdog.fired_at_cycle < 50_000
    assert res.cycles == 17
    assert (res.watchdog.fired_at_cycle, res.watchdog.stagnant_cycles,
            res.watchdog.quarantined, res.quarantined) == (17, 15, [], [])


def test_starvation_fractions_are_sane():
    res = execute(synthesize(deadlock_app(), assertions="none"),
                  max_cycles=50_000)
    assert res.watchdog.starvation
    assert all(0.0 <= v <= 1.0 for v in res.watchdog.starvation.values())
    # a process blocked on a read forever is starved nearly all its cycles
    assert res.watchdog.starvation["q"] > 0.5


def test_quarantine_requires_nabort():
    app = one_proc_app(LIVELOCK_SRC, [7])
    cfg = WatchdogConfig(
        max_cycles=50_000, livelock_window=1_000, quarantine=True
    )
    res = execute(synthesize(app, assertions="none"), watchdog=cfg)
    # abort-on-failure image: quarantine must not engage
    assert res.reason == LIVELOCK
    assert res.quarantined == []
    assert (res.cycles, res.watchdog.fired_at_cycle,
            res.watchdog.stagnant_cycles) == (1_001, 1_001, 1_000)


def test_quarantine_drains_app_under_nabort():
    app = Application("wd2")
    app.add_c_process(LIVELOCK_SRC, name="p")
    app.add_c_process(PASS_SRC, name="q")
    app.feed("in", "p.input", data=[7])
    app.connect("mid", "p.output", "q.input")
    app.sink("out", "q.output")
    cfg = WatchdogConfig(
        max_cycles=50_000, livelock_window=1_000, quarantine=True
    )
    image = synthesize(app, assertions="unoptimized", nabort=True)
    res = execute(image, watchdog=cfg)
    assert res.completed and res.reason == COMPLETED
    assert res.quarantined == ["p"]
    # the spinner never wrote a word, so the drained output is empty
    assert res.outputs["out"] == []
    # detection info survives the degraded completion
    assert res.watchdog is not None
    assert res.watchdog.reason == LIVELOCK
    assert res.process_stats["p"]["quarantined"]
    # exact timing: the report is the snapshot taken when the watchdog
    # fired, before the quarantine; the drain then takes two more cycles
    assert res.cycles == 1_003
    assert (res.watchdog.fired_at_cycle, res.watchdog.stagnant_cycles,
            res.watchdog.quarantined) == (1_001, 1_000, [])


def test_long_blocked_spinner_is_still_the_livelock_victim():
    """Triage looks at the stagnant window only: a process that was
    blocked for 100+ cycles before it started spinning is a spinner,
    not a blocked innocent."""
    app = Application("wd3")
    app.add_c_process(SLOW_SRC, name="slow")
    app.add_c_process(LIVELOCK_SRC, name="p")
    app.feed("in", "slow.input", data=[7])
    app.sink("log", "slow.log")
    app.connect("mid", "slow.output", "p.input")
    app.sink("out", "p.output")
    cfg = WatchdogConfig(max_cycles=50_000, livelock_window=30,
                         quarantine=True)
    image = synthesize(app, assertions="unoptimized", nabort=True)
    res = execute(image, watchdog=cfg)
    assert res.completed and res.quarantined == ["p"]
    assert res.outputs["log"] == list(range(40))
    assert res.process_stats["p"]["stalls"] == 122
    assert res.cycles == 154
    assert (res.watchdog.reason, res.watchdog.fired_at_cycle,
            res.watchdog.stagnant_cycles, res.watchdog.quarantined) == \
        (LIVELOCK, 153, 30, [])


def test_execution_summary_renders_classification():
    app = one_proc_app(LIVELOCK_SRC, [7])
    cfg = WatchdogConfig(max_cycles=50_000, livelock_window=1_000)
    res = execute(synthesize(app, assertions="none"), watchdog=cfg)
    text = "\n".join(execution_summary(res))
    assert "termination: livelock" in text
    assert "watchdog: livelock at cycle" in text

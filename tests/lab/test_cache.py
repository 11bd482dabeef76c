"""Cache-key invalidation and on-disk cache behavior (ISSUE satellite c).

The contract: changing the source text, *any* SynthesisOptions field, the
assertion level, or the device must produce a cache miss; byte-identical
inputs must hit — including across separate OS processes sharing one cache
directory.
"""

import dataclasses
import subprocess
import sys

import pytest

from repro.core.synth import SynthesisOptions
from repro.lab.cache import SynthesisCache, app_key_parts, cache_key
from repro.platform.device import EP2S60, EP2S180
from repro.runtime.taskgraph import Application

SRC = """
void p(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) {
    assert(x < 100);
    co_stream_write(output, x + 1);
  }
  co_stream_close(output);
}
"""


def small_app(source: str = SRC) -> Application:
    app = Application("keytest")
    app.add_c_process(source, name="p", filename="k.c")
    app.feed("in", "p.input", data=[1, 2])
    app.sink("out", "p.output")
    return app


def test_identical_inputs_produce_identical_keys():
    assert cache_key(small_app(), "optimized") == \
        cache_key(small_app(), "optimized")


def test_source_text_change_invalidates():
    changed = SRC.replace("x < 100", "x < 101")
    assert cache_key(small_app(), "optimized") != \
        cache_key(small_app(changed), "optimized")


def test_assertion_level_invalidates():
    app = small_app()
    keys = {cache_key(app, lvl) for lvl in ("none", "unoptimized",
                                            "optimized")}
    assert len(keys) == 3


def test_device_invalidates():
    app = small_app()
    assert cache_key(app, "optimized", device=EP2S180) != \
        cache_key(app, "optimized", device=EP2S60)


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(SynthesisOptions)])
def test_every_options_field_invalidates(field):
    """Flipping any single SynthesisOptions field must change the key."""
    app = small_app()
    base = SynthesisOptions()
    value = getattr(base, field)
    if isinstance(value, bool):
        flipped = not value
    elif isinstance(value, str):
        flipped = value + "-x"
    else:
        flipped = value + 1
    changed = dataclasses.replace(base, **{field: flipped})
    assert cache_key(app, "optimized", base) != \
        cache_key(app, "optimized", changed)


def test_extra_parts_invalidate():
    app = small_app()
    assert cache_key(app, "optimized", extra=("campaign", 1)) != \
        cache_key(app, "optimized", extra=("campaign", 2))


def test_feeder_data_is_part_of_the_key():
    a = small_app()
    b = small_app()
    b.streams["in"].feeder_data = [9, 9]
    assert cache_key(a, "optimized") != cache_key(b, "optimized")


def test_app_key_parts_contain_no_memory_addresses():
    parts = app_key_parts(small_app())
    assert all("object at 0x" not in repr(p) for p in parts)


def test_key_is_stable_across_processes(tmp_path):
    """The fingerprint must not depend on PYTHONHASHSEED / process state."""
    prog = (
        "import sys; sys.path.insert(0, %r)\n"
        "from tests.lab.test_cache import small_app\n"
        "from repro.lab.cache import cache_key\n"
        "print(cache_key(small_app(), 'optimized'))\n"
    )
    keys = set()
    for seed in ("0", "1234"):
        out = subprocess.run(
            [sys.executable, "-c", prog % "src"],
            capture_output=True, text=True, check=True,
            cwd=str(_repo_root()),
            env=_env_with(PYTHONHASHSEED=seed),
        )
        keys.add(out.stdout.strip())
    assert len(keys) == 1
    assert keys == {cache_key(small_app(), "optimized")}


def _repo_root():
    import pathlib
    return pathlib.Path(__file__).resolve().parents[2]


def _env_with(**kw):
    import os
    env = dict(os.environ)
    env.update(kw)
    env["PYTHONPATH"] = str(_repo_root() / "src") + os.pathsep + \
        str(_repo_root())
    return env


def test_cache_roundtrip_and_stats(tmp_path):
    cache = SynthesisCache(tmp_path / "c")
    assert cache.get("deadbeef") is None
    cache.put("deadbeef", {"x": 1})
    assert cache.get("deadbeef") == {"x": 1}
    assert cache.stats.as_dict() == {
        "hits": 1, "misses": 1, "stores": 1, "evictions": 0, "errors": 0,
        "corrupt": 0, "proc_hits": 0, "proc_misses": 0, "lease_waits": 0,
        "lease_takeovers": 0, "partial_rebuilds": 0,
    }


def test_disabled_cache_never_hits():
    cache = SynthesisCache(None)
    cache.put("k", 1)
    assert cache.get("k") is None
    assert not cache.enabled
    assert cache.stats.misses == 1 and cache.stats.stores == 0


def test_corrupt_entry_heals_as_miss(tmp_path):
    cache = SynthesisCache(tmp_path / "c")
    cache.put("abcd", [1, 2, 3])
    path = cache._path("abcd")
    path.write_bytes(b"not a pickle")
    assert cache.get("abcd") is None
    assert cache.stats.errors == 1
    assert cache.stats.corrupt == 1
    assert not path.exists()  # the bad entry was dropped


def test_lru_eviction_bounds_entry_count(tmp_path):
    import os
    import time
    cache = SynthesisCache(tmp_path / "c", max_entries=100)
    for i in range(5):
        cache.put(f"k{i}", i)
        # force distinct mtimes without sleeping a full clock tick
        os.utime(cache._path(f"k{i}"), (time.time() + i, time.time() + i))
    cache.max_entries = 3
    cache._evict()
    assert len(cache) == 3
    assert cache.stats.evictions >= 2
    # the newest entry survives
    assert cache.get("k4") == 4


def count_sweeps(monkeypatch, cache):
    """Log the target of every ``_evict`` call ``cache`` makes."""
    calls = []
    real = cache._evict

    def counting(target=None):
        calls.append(target)
        return real(target)

    monkeypatch.setattr(cache, "_evict", counting)
    return calls


def aged_puts(cache, keys):
    """Store ``keys`` oldest first, with mtimes a second apart and in the
    past, so any later put is strictly the newest entry."""
    import os
    import time

    base = time.time() - 10 * len(keys)
    for i, key in enumerate(keys):
        cache.put(key, i)
        os.utime(cache._path(key), (base + i, base + i))


def test_put_below_budget_runs_no_sweep(tmp_path, monkeypatch):
    cache = SynthesisCache(tmp_path / "c", max_entries=8)
    sweeps = count_sweeps(monkeypatch, cache)
    for i in range(8):
        cache.put(f"k{i}", i)
    cache.put("k7", "overwrite")  # replacing an entry adds none
    assert sweeps == []
    assert len(cache) == 8 and cache.stats.evictions == 0


def test_put_over_budget_trims_to_low_water_mark(tmp_path, monkeypatch):
    cache = SynthesisCache(tmp_path / "c", max_entries=16)
    aged_puts(cache, [f"k{i:02d}" for i in range(16)])
    sweeps = count_sweeps(monkeypatch, cache)
    cache.put("new", "newest")
    # 17 entries: one sweep, down to 7/8 of the budget (oldest first)
    assert sweeps == [14]
    assert len(cache) == 14 and cache.stats.evictions == 3
    assert all(cache.get(f"k{i:02d}") is None for i in range(3))
    assert cache.get("k03") == 3 and cache.get("new") == "newest"
    # the next two puts fit under the budget again without a sweep
    cache.put("a", 1)
    cache.put("b", 2)
    assert sweeps == [14] and len(cache) == 16
    cache.put("c", 3)
    assert sweeps == [14, 14] and len(cache) == 14


@pytest.mark.parametrize("budget", [1, 2, 3, 8])
def test_len_stays_within_budget_after_every_put(tmp_path, budget):
    cache = SynthesisCache(tmp_path / "c", max_entries=budget)
    for i in range(4 * budget + 3):
        cache.put(f"k{i}", i)
        assert 1 <= len(cache) <= budget
    assert cache.stats.evictions == 4 * budget + 3 - len(cache)


def test_cache_shared_across_processes(tmp_path):
    """A second OS process sees entries stored by the first (satellite c)."""
    root = tmp_path / "shared"
    writer = (
        "from repro.lab.cache import SynthesisCache\n"
        f"SynthesisCache({str(root)!r}).put('feedface', [7, 3, 9])\n"
    )
    reader = (
        "from repro.lab.cache import SynthesisCache\n"
        f"c = SynthesisCache({str(root)!r})\n"
        "print(c.get('feedface'))\n"
        "print(c.stats.hits)\n"
    )
    for prog in (writer, reader):
        out = subprocess.run(
            [sys.executable, "-c", prog], capture_output=True, text=True,
            check=True, env=_env_with(),
        )
    assert out.stdout.splitlines() == ["[7, 3, 9]", "1"]


def test_one_handle_is_safe_under_concurrent_threads(tmp_path):
    """Serve-daemon regression: many threads hammer one shared handle —
    get/put/evict racing freely — with no exceptions and coherent stats.
    Before the cache grew its lock, concurrent _evict() calls crashed on
    files another thread had already unlinked."""
    import threading

    cache = SynthesisCache(tmp_path / "c", max_entries=8)
    errors = []
    n_threads, n_rounds = 8, 30
    barrier = threading.Barrier(n_threads)

    def hammer(tid):
        try:
            barrier.wait()
            for i in range(n_rounds):
                cache.put(f"shared{i % 4}", [tid, i])
                assert len(cache) <= cache.max_entries
                cache.put(f"t{tid}-{i}", i)  # churn forces evictions
                assert len(cache) <= cache.max_entries
                got = cache.get(f"shared{i % 4}")
                assert got is None or isinstance(got, list)
        except Exception as exc:  # noqa: BLE001 - recorded for the assert
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(t,))
               for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors
    assert len(cache) <= cache.max_entries
    stats = cache.stats.as_dict()
    assert stats["stores"] == n_threads * n_rounds * 2
    assert stats["hits"] + stats["misses"] == n_threads * n_rounds
    assert stats["errors"] == 0 and stats["corrupt"] == 0


def test_stats_counters_coherent_under_concurrent_updates(tmp_path):
    """hits+misses must equal total gets even when updated from many
    threads (CacheStats increments happen under the handle's lock)."""
    import threading

    cache = SynthesisCache(tmp_path / "c")
    cache.put("hot", 42)
    n_threads, n_gets = 8, 50
    barrier = threading.Barrier(n_threads)

    def reader():
        barrier.wait()
        for i in range(n_gets):
            assert cache.get("hot") == 42
            cache.get(f"cold-{i}")

    threads = [threading.Thread(target=reader) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert cache.stats.hits == n_threads * n_gets
    assert cache.stats.misses == n_threads * n_gets

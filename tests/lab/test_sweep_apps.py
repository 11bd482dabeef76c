"""Sweep app sharing: one build per distinct app, same journal.

``run_sweep`` builds every app that two or more pending points use once,
in the calling process, and hands the Application to each of its points;
an app only one point uses is built by that point. The reference every
variant is held to is the per-point path (every point building its own
app), which is what every point did before apps were shared.
"""

import time

import pytest

import repro.lab.sweep as sweep_mod
from repro.lab.shard import ShardSpec, canonical_record, merge_runs
from repro.lab.sweep import AppSpec, SweepSpec, run_sweep

LOOPBACK = AppSpec.make("loopback", n=2)
PIPELINE = AppSpec.make("pipeline", stages=2, edits=((1, 7),))


def grid(name="apps"):
    """Two apps, each at two levels under two option variants."""
    return SweepSpec.cross(name, [LOOPBACK, PIPELINE],
                           levels=("none", "optimized"),
                           variants=("default", "noshare"))


def sweep(spec, root, **kw):
    kw.setdefault("store_root", root / "runs")
    kw.setdefault("cache_root", root / "cache")
    kw.setdefault("progress", False)
    return run_sweep(spec, **kw)


def per_point(monkeypatch):
    """Switch sharing off: every point builds its own app."""
    monkeypatch.setattr(sweep_mod, "_shared_apps",
                        lambda points: [None] * len(points))


def record_builds(monkeypatch, hook=lambda spec: None):
    """Log every ``build_app`` call made in this process and call ``hook``
    before it (to raise or stall)."""
    calls = []
    real = sweep_mod.build_app

    def recording(spec):
        calls.append(spec)
        hook(spec)
        return real(spec)

    monkeypatch.setattr(sweep_mod, "build_app", recording)
    return calls


def records(result, strip=("elapsed_s",)):
    return {pid: {k: v for k, v in rec.items() if k not in strip}
            for pid, rec in result.records.items()}


def canonical(result):
    return {pid: canonical_record(rec)
            for pid, rec in result.records.items()}


def test_build_app_runs_once_per_distinct_app(tmp_path, monkeypatch):
    single = AppSpec.make("loopback", n=3)
    spec = grid()
    spec.points.append(sweep_mod.SweepPoint(
        point_id="single", app=single, level="optimized"))
    calls = record_builds(monkeypatch)
    result = sweep(spec, tmp_path, jobs=1)
    assert result.ok
    # the two shared apps in the caller, the single-point app in its point
    assert calls == [LOOPBACK, PIPELINE, single]


def test_journal_equals_per_point_path_inline(tmp_path, monkeypatch):
    shared = sweep(grid(), tmp_path / "shared", jobs=1)
    per_point(monkeypatch)
    reference = sweep(grid(), tmp_path / "ref", jobs=1)
    assert shared.ok and reference.ok
    assert records(shared) == records(reference)
    assert shared.manifest["counters"] == reference.manifest["counters"]


def test_journal_equals_per_point_path_pooled(tmp_path, monkeypatch):
    # under jobs=2 which point fills a shared process artifact and which
    # waits on its lease depends on scheduling, in either path; those are
    # the fields canonical_record strips
    shared = sweep(grid(), tmp_path / "shared", jobs=2)
    per_point(monkeypatch)
    reference = sweep(grid(), tmp_path / "ref", jobs=1)
    assert shared.ok
    assert canonical(shared) == canonical(reference)


def test_validate_lanes_equals_per_point_path(tmp_path, monkeypatch):
    shared = sweep(grid(), tmp_path / "shared", jobs=1, validate_lanes=2)
    per_point(monkeypatch)
    reference = sweep(grid(), tmp_path / "ref", jobs=1, validate_lanes=2)
    assert {r["lane_check"] for r in shared.records.values()} == {"ok"}
    assert records(shared) == records(reference)


def test_sharded_merge_is_byte_identical_to_per_point_path(tmp_path,
                                                           monkeypatch):
    spec = grid()
    for k in (1, 2):
        assert sweep(spec, tmp_path / "shared", jobs=1,
                     shard=ShardSpec(k, 2)).ok
    merged = merge_runs(tmp_path / "shared" / "runs", spec.run_id())
    per_point(monkeypatch)
    sweep(spec, tmp_path / "ref", jobs=1)
    reference = merge_runs(tmp_path / "ref" / "runs", spec.run_id())
    assert merged.counters == {"ok": len(spec.points)}
    assert merged.run.results_path.read_bytes() == \
        reference.run.results_path.read_bytes()
    assert merged.run.manifest_path.read_bytes() == \
        reference.run.manifest_path.read_bytes()


def resumed(root):
    """Run ``grid()``, keep the first three journal lines (as an
    interruption would) and resume."""
    first = sweep(grid(), root, jobs=1)
    lines = first.run.results_path.read_text().splitlines()
    first.run.results_path.write_text("\n".join(lines[:3]) + "\n")
    return sweep(grid(), root, jobs=1)


def test_resume_equals_per_point_path(tmp_path, monkeypatch):
    shared = resumed(tmp_path / "shared")
    per_point(monkeypatch)
    reference = resumed(tmp_path / "ref")
    assert shared.manifest["counters"]["skipped_resume"] == 3
    assert records(shared) == records(reference)
    assert shared.manifest["counters"] == reference.manifest["counters"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_shared_build_fails_each_point_then_resumes(tmp_path,
                                                           monkeypatch, jobs):
    def broken(spec):
        if spec == PIPELINE:
            raise ValueError("injected build failure")

    calls = record_builds(monkeypatch, broken)
    first = sweep(grid(), tmp_path, jobs=jobs)
    victims = {p.point_id for p in grid().points if p.app == PIPELINE}
    assert first.manifest["status"] == "completed-with-failures"
    assert first.manifest["counters"]["failed"] == len(victims)
    assert len(first.manifest["bundles"]) == len(victims)
    for pid, rec in first.records.items():
        if pid not in victims:
            assert rec["status"] == "ok"
            continue
        assert rec["status"] == "failed"
        assert "injected build failure" in rec["error"]
        assert rec["bundle"] in first.manifest["bundles"]
    if jobs == 1:
        # the shared attempt, then each point's own
        assert calls.count(PIPELINE) == 1 + len(victims)

    monkeypatch.undo()
    second = sweep(grid(), tmp_path, jobs=jobs)
    counters = second.manifest["counters"]
    assert counters["done"] == len(victims)
    assert counters["skipped_resume"] == len(grid().points) - len(victims)
    assert second.ok


def test_transient_shared_build_failure_leaves_points_to_build(tmp_path,
                                                               monkeypatch):
    failed = []

    def once(spec):
        if spec == LOOPBACK and not failed:
            failed.append(spec)
            raise ValueError("injected build failure")

    calls = record_builds(monkeypatch, once)
    result = sweep(grid(), tmp_path, jobs=1)
    assert result.ok
    assert calls.count(LOOPBACK) == 1 + 4 and calls.count(PIPELINE) == 1


def test_slow_shared_build_is_not_a_point_timeout(tmp_path, monkeypatch):
    # the shared app is built in the calling process before the grid
    # starts, so ``timeout`` bounds only what each point runs
    calls = record_builds(monkeypatch, lambda spec: time.sleep(2.0))
    spec = SweepSpec.cross("slow", [LOOPBACK], levels=("none", "optimized"))
    result = sweep(spec, tmp_path, jobs=2, timeout=1.5)
    assert result.ok, result.manifest["counters"]
    assert result.manifest["executor"]["timeouts"] == 0
    assert calls == [LOOPBACK]


def test_shared_app_executor_token_depends_on_content_only():
    # the lab executor keys retry jitter and chaos rolls on repr(item),
    # and a sweep item carries the shared app
    first, second = sweep_mod.build_app(LOOPBACK), sweep_mod.build_app(LOOPBACK)
    assert repr(first) == repr(second)
    assert " at 0x" not in repr(first)

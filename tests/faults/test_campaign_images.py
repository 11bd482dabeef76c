"""Campaign image sharing: one synthesis per shared image, same matrix.

Cells whose scenarios inject only runtime faults run on one image per
level, resolved once per campaign with or without a cache directory; a
translation-fault cell synthesizes its own. The reference every variant
is held to is the per-cell path (:func:`_run_one` synthesizing each cell
itself), which is what every cell did before images were shared.
"""

import pickle
import time

import pytest

import repro.faults.campaign as campaign
from repro.core.synth import LEVELS
from repro.faults.campaign import (
    HARNESS_ERROR,
    builtin_targets,
    generate_scenarios,
    run_campaign,
)
from repro.lab.store import ResultStore
from repro.runtime.hwexec import execute
from repro.runtime.swsim import software_sim
from repro.simc.schedgen import _schedule_digest, schedule_digest
from repro.utils.idgen import stable_fingerprint

COUNT = 8


def record_syntheses(monkeypatch, hook=lambda level, scenario: None):
    """Log every campaign synthesis as (level, scenario name) and call
    ``hook`` before it (to raise or stall)."""
    calls = []
    real = campaign._synthesize_cached

    def recording(app, level, scenario, *rest):
        calls.append((level, scenario.name))
        hook(level, scenario)
        return real(app, level, scenario, *rest)

    monkeypatch.setattr(campaign, "_synthesize_cached", recording)
    return calls


def per_cell_reference(name: str, seed: int, nabort: bool) -> list:
    """Every cell through the per-cell path, each synthesizing its own
    image."""
    target = builtin_targets()[name]
    app = target.build()
    golden = {n: list(w) for n, w in software_sim(app).outputs.items()}
    return [
        campaign._run_one((target.watchdog, app, sc, lv, golden, nabort,
                           None, None, None))
        for sc in generate_scenarios(app, seed=seed, count=COUNT)
        for lv in LEVELS
    ]


def test_no_cache_campaign_synthesizes_each_shared_image_once(monkeypatch):
    calls = record_syntheses(monkeypatch)
    res = run_campaign("loopback", levels=LEVELS, seed=7, count=COUNT)
    translation = [sc for sc in res.scenarios if sc.ir_faults]
    assert translation, "the seed must cover translation-fault scenarios"
    assert len(calls) == len(LEVELS) + len(translation) * len(LEVELS)
    # the shared images are resolved once per level, not once per cell
    faulted = {sc.name for sc in translation}
    shared = sorted(lv for lv, name in calls if name not in faulted)
    assert shared == sorted(LEVELS)


@pytest.mark.parametrize("nabort", [False, True], ids=["abort", "nabort"])
@pytest.mark.parametrize("app", ["loopback", "edge"])
def test_matrix_equals_the_per_cell_path_in_every_variant(
        app, nabort, tmp_path):
    reference = per_cell_reference(app, 5, nabort)
    variants = {
        "jobs=1": {},
        "jobs=2": {"jobs": 2},
        "cache_root": {"cache_root": str(tmp_path / "cache")},
        "batch_lanes=4": {"batch_lanes": 4},
    }
    for label, kw in variants.items():
        res = run_campaign(app, levels=LEVELS, seed=5, count=COUNT,
                           nabort=nabort, **kw)
        assert res.outcomes == reference, label


def test_failed_shared_synthesis_falls_back_to_per_cell_errors(
        monkeypatch, tmp_path):
    clean = run_campaign("loopback", seed=7, count=COUNT)
    def explode(level, scenario):
        if level == "optimized" and not scenario.ir_faults:
            raise RuntimeError("synthesis exploded")

    calls = record_syntheses(monkeypatch, explode)
    res = run_campaign("loopback", seed=7, count=COUNT,
                       bundle_dir=str(tmp_path / "bundles"),
                       store_root=str(tmp_path / "store"))

    broken = {sc.name for sc in res.scenarios if not sc.ir_faults}
    # one failed shared attempt, then every affected cell tries its own
    assert sum(1 for lv, name in calls
               if lv == "optimized" and name in broken) == len(broken) + 1
    for oc, ref in zip(res.outcomes, clean.outcomes):
        if oc.level == "optimized" and oc.scenario in broken:
            assert oc.classification == HARNESS_ERROR
            assert oc.reason == "RuntimeError: synthesis exploded"
            assert oc.cycles == 0
            (diag,) = oc.diagnostics
            assert diag["code"] == "RPR-E999"
            assert diag["message"] == "RuntimeError: synthesis exploded"
        else:
            assert oc == ref
    bundles = sorted(p.name for p in (tmp_path / "bundles").iterdir())
    assert bundles == sorted(f"{name}_optimized" for name in broken)
    records = ResultStore(tmp_path / "store").open_run(res.run_id).records()
    failed = {r["point_id"] for r in records if r["status"] == "failed"}
    assert failed == {f"{name}@optimized" for name in broken}
    assert all(r["attempts"] == 1 for r in records)


def test_slow_shared_synthesis_is_not_a_cell_timeout(monkeypatch):
    # the shared image is synthesized in the calling process before the
    # grid starts, so ``timeout`` bounds only what each cell runs
    clean = run_campaign("loopback", levels=("optimized",), seed=7,
                         count=COUNT)

    def stall(level, scenario):
        if not scenario.ir_faults:
            time.sleep(2.0)

    calls = record_syntheses(monkeypatch, stall)
    res = run_campaign("loopback", levels=("optimized",), seed=7,
                       count=COUNT, jobs=2, timeout=1.5)
    assert res.outcomes == clean.outcomes
    assert HARNESS_ERROR not in {oc.classification for oc in res.outcomes}
    shared = [name for lv, name in calls
              if name in {sc.name for sc in res.scenarios
                          if not sc.ir_faults}]
    assert len(shared) == 1


def test_memoized_digest_matches_and_stays_out_of_pickles():
    from repro.core.synth import synthesize

    image = synthesize(builtin_targets()["loopback"].build(),
                       assertions="optimized")
    before = pickle.dumps(image)
    execute(image)
    memos = {name: cp.schedule._digest
             for name, cp in image.compiled.items()}
    assert None not in memos.values()
    assert len(set(memos.values())) == len(memos)
    for name, cp in image.compiled.items():
        fresh = f"{stable_fingerprint(_schedule_digest(cp.schedule)):016x}"
        assert memos[name] == fresh
    assert pickle.dumps(image) == before
    clone = pickle.loads(before)
    for cp in clone.compiled.values():
        assert cp.schedule._digest is None
        assert schedule_digest(cp.schedule) == \
            schedule_digest(image.compiled[cp.name].schedule)

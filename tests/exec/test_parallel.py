"""End-to-end engine tests: grid dedup, parallel determinism, cache reuse."""

import dataclasses

import pytest

from repro.exec.grid import (
    baseline_point, build_tasks, dynamic_point, run_points, selector_point,
)
from repro.exec.store import ArtifactStore
from repro.exec.tasks import selector_from_spec
from repro.harness.runner import Runner
from repro.minigraph.selectors import (
    SlackProfileSelector, StructAll, StructNone,
)
from repro.pipeline.config import full_config, reduced_config

BENCHES = ("crc32", "adpcm")


def _points():
    points = []
    for bench in BENCHES:
        points.append(baseline_point(bench, "full"))
        points.append(baseline_point(bench, "reduced"))
        points.append(selector_point(bench, StructAll(), "reduced"))
        points.append(selector_point(bench, SlackProfileSelector(),
                                     "reduced"))
        points.append(dynamic_point(bench, "reduced", mode="full",
                                    outlining_penalty=True))
    return points


def _collect(runner):
    """The per-benchmark result tuple the figures are built from."""
    out = {}
    for bench in BENCHES:
        out[bench] = (
            runner.baseline(bench, full_config()).ipc,
            runner.baseline(bench, reduced_config()).ipc,
            runner.run_selector(bench, StructAll(), reduced_config()).ipc,
            runner.run_selector(bench, SlackProfileSelector(),
                                reduced_config()).ipc,
            runner.run_slack_dynamic(bench, reduced_config()).ipc,
            runner.run_selector(bench, StructAll(),
                                reduced_config()).coverage,
        )
    return out


def test_grid_dedups_shared_upstream_nodes():
    runner = Runner()
    tasks = build_tasks(_points(), runner)
    by_stage = {}
    for task in tasks:
        by_stage.setdefault(task.stage, []).append(task.id)
    # One trace and one candidate enumeration per benchmark, shared by
    # every selector; one profile each (slack-profile's reduced trainer).
    assert len(by_stage["trace"]) == len(BENCHES)
    assert len(by_stage["candidates"]) == len(BENCHES)
    assert len(by_stage["profile"]) == len(BENCHES)
    # struct-all + slack-profile + slack-dynamic plans per benchmark.
    assert len(by_stage["plan"]) == 3 * len(BENCHES)
    assert len(set(task.id for task in tasks)) == len(tasks)


@pytest.mark.parametrize("prewarm", [False, True],
                         ids=["cold", "prewarmed"])
def test_parallel_and_serial_are_identical(tmp_path, prewarm):
    """Cold, or with the parent holding every trace beforehand: pool
    workers load prewarmed traces from the store and never recompute
    them (the payload files stay untouched)."""
    serial = _collect(Runner())

    store = ArtifactStore(tmp_path / "cache")
    runner = Runner(store=store)
    payloads = {}
    if prewarm:
        for bench in BENCHES:
            runner.trace(bench)
            key = store.key("trace", runner.trace_params(bench, "train"))
            stat = store.backend.payload_path(key).stat()
            payloads[key] = (stat.st_ino, stat.st_mtime_ns)
    report = run_points(runner, _points(), jobs=4)
    assert not report.failures
    for key, before in payloads.items():
        stat = store.backend.payload_path(key).stat()
        assert (stat.st_ino, stat.st_mtime_ns) == before, key
    # Replay through a fresh runner over the warmed store: everything is
    # a cache hit and the numbers match the serial in-process run.
    replay = Runner(store=ArtifactStore(tmp_path / "cache"))
    assert _collect(replay) == serial
    stats = replay.store.stats
    assert stats.misses == 0
    assert stats.hit_rate == 1.0


def test_jobs_one_scheduler_matches_direct_calls(tmp_path):
    store = ArtifactStore(tmp_path / "cache")
    runner = Runner(store=store)
    report = run_points(runner, _points(), jobs=1)
    assert not report.failures
    assert _collect(Runner(store=store)) == _collect(Runner())


def test_parallel_requires_persistent_store():
    with pytest.raises(ValueError, match="persistent"):
        run_points(Runner(), _points(), jobs=2)


def test_runner_key_includes_max_insts(tmp_path):
    """The seed's memo-key bug: traces keyed without max_insts aliased.

    Two runners with different instruction limits sharing one store must
    produce two distinct trace artifacts, not alias the first one.
    """
    store = ArtifactStore(tmp_path / "cache")
    first = Runner(max_insts=1_000_000, store=store)
    second = Runner(max_insts=2_000_000, store=store)
    first.trace("crc32")
    second.trace("crc32")
    assert store.stats.misses == 2  # no aliasing: both were computed
    assert store.disk_summary()["trace"]["count"] == 2


def test_runner_cross_process_cache_reuse(tmp_path):
    first = Runner(store=ArtifactStore(tmp_path / "cache"))
    trace = first.trace("crc32")
    second = Runner(store=ArtifactStore(tmp_path / "cache"))
    again = second.trace("crc32")
    assert again is not trace  # different store instance...
    assert len(again.records) == len(trace.records)  # ...same artifact
    assert second.store.stats.disk_hits == 1


def test_selector_run_is_frozen():
    runner = Runner()
    run = runner.run_selector("crc32", StructNone(), reduced_config())
    with pytest.raises(dataclasses.FrozenInstanceError):
        run.selector = "renamed"


def test_slack_dynamic_label_set_at_construction():
    runner = Runner()
    ideal = runner.run_slack_dynamic("crc32", reduced_config(), mode="sial",
                                     outlining_penalty=False)
    assert ideal.selector == "ideal-slack-dynamic-sial"


def test_selector_spec_roundtrip():
    for selector in (StructAll(), StructNone(),
                     SlackProfileSelector("delay", unprofiled_ok=False)):
        rebuilt = selector_from_spec(selector.spec())
        assert rebuilt.name == selector.name
        assert rebuilt.spec() == selector.spec()


def test_limit_study_parallel_matches_serial(tmp_path):
    from repro.analysis.limit_study import run_limit_study
    serial = run_limit_study(Runner(), subset_cap=16)
    parallel = run_limit_study(
        Runner(store=ArtifactStore(tmp_path / "cache"), jobs=3),
        subset_cap=16, jobs=3)
    assert [dataclasses.astuple(p) for p in parallel.points] == \
        [dataclasses.astuple(p) for p in serial.points]
    assert parallel.render() == serial.render()

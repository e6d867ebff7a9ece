"""Warm-path probes: store-address parity with the compute paths."""

import pytest

from repro.exec.dag import Scheduler
from repro.exec.grid import baseline_point, build_tasks, selector_point
from repro.exec.store import ArtifactStore
from repro.harness.runner import Runner
from repro.serve.warm import prune_cached, task_artifact

POINTS = [
    baseline_point("crc32", "reduced", "train"),
    selector_point("crc32", {"kind": "struct-all"}, "reduced", "train"),
]


@pytest.fixture(scope="module")
def warm_runner(tmp_path_factory):
    """A runner whose store has already executed ``POINTS``."""
    store = ArtifactStore(tmp_path_factory.mktemp("warm-store"))
    runner = Runner(store=store)
    tasks = build_tasks(POINTS, runner)
    Scheduler(jobs=1, runner=runner).run(tasks)
    return runner


def test_every_store_backed_node_has_an_address(warm_runner):
    tasks = build_tasks(POINTS, warm_runner, check=True)
    addressed = {t.stage: task_artifact(warm_runner, t) is not None
                 for t in tasks}
    assert addressed["trace"] and addressed["baseline"]
    assert addressed["plan"] and addressed["timing"]
    assert not addressed["check"]          # recomputes by design

def test_cold_dag_keeps_everything():
    runner = Runner(store=ArtifactStore())    # empty memory-only store
    tasks = build_tasks(POINTS, runner)
    kept, pruned = prune_cached(runner, tasks)
    assert pruned == []
    assert [t.id for t in kept] == [t.id for t in tasks]


def test_executed_dag_prunes_to_nothing(warm_runner):
    """The serving acceptance contract: repeat work schedules nothing."""
    tasks = build_tasks(POINTS, warm_runner)
    kept, pruned = prune_cached(warm_runner, tasks)
    assert kept == []
    assert sorted(pruned) == sorted(t.id for t in tasks)


def test_partial_prune_drops_dead_edges(warm_runner):
    """A DAG mixing warm and cold points keeps only the cold subgraph,
    with dependency edges into pruned nodes removed."""
    mixed = POINTS + [
        selector_point("crc32", {"kind": "struct-none"}, "reduced",
                       "train"),
    ]
    tasks = build_tasks(mixed, warm_runner)
    kept, pruned = prune_cached(warm_runner, tasks)
    assert kept, "the struct-none plan/run must still be cold"
    kept_ids = {t.id for t in kept}
    dead = set(pruned)
    for task in kept:
        for dep in task.deps:
            assert dep in kept_ids and dep not in dead
    # And the kept subgraph actually executes on its own.
    report = Scheduler(jobs=1, runner=warm_runner).run(kept)
    assert len(report.results) == len(kept)


def test_check_nodes_are_never_pruned(warm_runner):
    tasks = build_tasks(POINTS, warm_runner, check=True)
    kept, _ = prune_cached(warm_runner, tasks)
    assert {t.stage for t in kept} == {"check"}

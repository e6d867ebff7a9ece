"""``--jobs threads:N``: batched native dispatch through the scheduler.

Thread mode keeps the whole DAG in-process (no persistent store, no
pickling) and runs each wave of ready timing nodes as one C call. The
contract is scheduling-level parity: a threaded run leaves exactly the
artifacts — bit for bit — that a serial run computes, in the caller's
own runner and store (every artifact computed once, none recomputed by
the reduction), falls back per point (and per wave) whenever the kernel
cannot help, and keeps the serial path's failure semantics.
"""

import collections
import os

import pytest

from repro.exec import batch, store
from repro.exec import tasks as task_fns
from repro.exec.batch import is_batchable, run_batch_wave
from repro.exec.dag import Scheduler, Task
from repro.exec.grid import (baseline_point, build_tasks, dynamic_point,
                             parse_jobs, run_points, selector_point)
from repro.exec.tasks import bound_runner, runner_params
from repro.harness.runner import Runner
from repro.minigraph.selectors import SlackProfileSelector, StructAll
from repro.pipeline import ckern
from repro.pipeline.config import config_by_name

needs_kernel = pytest.mark.skipif(
    not ckern.available(),
    reason="compiled kernel unavailable (no C compiler or REPRO_PURE_PY)")


def test_parse_jobs():
    assert parse_jobs(4) == (4, 0)
    assert parse_jobs("4") == (4, 0)
    assert parse_jobs("1") == (1, 0)
    assert parse_jobs("threads:8") == (1, 8)
    assert parse_jobs(" threads:8 ") == (1, 8)
    jobs, threads = parse_jobs("threads")
    assert jobs == 1 and threads >= 1
    with pytest.raises(ValueError):
        parse_jobs("sixteen")


@pytest.mark.parametrize("bad", [
    "threads:0", "threads:-2", "threads:", "threads:eight",
    "threads:2.5", "0", "-1", "-3", "", "2.5", "jobs:4", 0, -4,
])
def test_parse_jobs_rejects_bad_values(bad):
    """Zero, negative, and malformed specs raise a clean one-liner."""
    with pytest.raises(ValueError) as excinfo:
        parse_jobs(bad)
    message = str(excinfo.value)
    assert "--jobs" in message
    assert "\n" not in message


def _points():
    points = []
    for bench in ("crc32", "adpcm"):
        for config in ("reduced", "full"):
            points.append(baseline_point(bench, config))
            points.append(selector_point(bench, {"kind": "struct-all"},
                                         config))
    points.append(selector_point("fft", SlackProfileSelector(), "reduced"))
    points.append(dynamic_point("crc32", "reduced"))
    return points


def _artifacts(runner):
    """Every timing artifact of :func:`_points`, via the runner memo."""
    out = {}
    for bench in ("crc32", "adpcm"):
        for name in ("reduced", "full"):
            config = config_by_name(name)
            stats = runner.baseline(bench, config)
            out[("baseline", bench, name)] = (stats.cycles, stats.ipc)
            run = runner.run_selector(bench, StructAll(), config)
            out[("struct-all", bench, name)] = \
                (run.stats.cycles, run.ipc, run.coverage)
    run = runner.run_selector("fft", SlackProfileSelector(),
                              config_by_name("reduced"))
    out[("slack-profile", "fft")] = (run.stats.cycles, run.ipc,
                                     run.coverage)
    dyn = runner.run_slack_dynamic("crc32", config_by_name("reduced"))
    out[("slack-dynamic", "crc32")] = (dyn.stats.cycles, dyn.ipc,
                                       dyn.coverage)
    return out


@needs_kernel
def test_threaded_run_points_bit_identical_to_serial():
    """threads:N prewarms the store with exactly the serial artifacts."""
    threaded = Runner()
    before = ckern.counters["batch_points"]
    report = run_points(threaded, _points(), jobs=1, threads=4)
    assert not report.failures
    assert ckern.counters["batch_points"] > before  # batches actually ran

    serial = Runner()
    serial_report = run_points(serial, _points(), jobs=1)
    assert not serial_report.failures
    assert _artifacts(threaded) == _artifacts(serial)
    # Both reports completed the same task set.
    assert set(report.results) == set(serial_report.results)
    assert report.results == serial_report.results


@pytest.fixture
def productions(monkeypatch):
    """Artifacts produced per store key, across every ArtifactStore.

    Every production ends in ``put``: ``get_or_compute`` publishes each
    compute callback's value through it, and the batched dispatcher
    publishes kernel results with it directly.
    """
    counts = collections.Counter()
    put = store.ArtifactStore.put

    def counting_put(self, key, value, kind="?", params=None):
        counts[key] += 1
        return put(self, key, value, kind, params)

    monkeypatch.setattr(store.ArtifactStore, "put", counting_put)
    return counts


def _assert_handed_off(runner, counts, replay):
    """The prewarm left everything in ``runner``: replaying misses
    nothing and no artifact was ever produced twice."""
    misses = runner.store.stats.misses
    produced = sum(counts.values())
    replay(runner)
    assert runner.store.stats.misses == misses
    assert sum(counts.values()) == produced
    assert counts and set(counts.values()) == {1}


@needs_kernel
def test_threads_need_no_persistent_store(productions):
    """Unlike --jobs N, thread mode runs against a memory-only store,
    and hands every artifact to the caller's runner: the reduction
    replays the grid without a single store miss or recompute."""
    runner = Runner()
    assert not runner.store.persistent
    with pytest.raises(ValueError):
        run_points(runner, _points()[:2], jobs=2)
    report = run_points(runner, _points(), jobs=1, threads=2)
    assert not report.failures
    _assert_handed_off(runner, productions, _artifacts)


def test_serial_dag_hands_off_to_the_caller(productions):
    """``--jobs 1 --check`` runs the DAG (not the reduction) first; its
    artifacts land in the caller's store, so nothing is recomputed."""
    runner = Runner()
    report = run_points(runner, _points(), jobs=1, check=True,
                        raise_on_failure=True)
    assert any(tid.startswith("check/") for tid in report.results)
    _assert_handed_off(runner, productions, _artifacts)


@needs_kernel
def test_tune_threads_evaluate_computes_once(productions):
    """``repro tune --jobs threads:N``: the trial reduction reads what
    the batched prewarm computed."""
    from repro.tune.evaluate import Evaluator
    from repro.tune.space import Trial

    replays = []

    class Recording(Evaluator):
        def _reduce(self, runner, *args, **kwargs):
            misses = runner.store.stats.misses
            produced = sum(productions.values())
            result = super()._reduce(runner, *args, **kwargs)
            replays.append((runner.store.stats.misses - misses,
                            sum(productions.values()) - produced))
            return result

    trials = [Trial(selector=(("kind", "struct-all"),), config="reduced"),
              Trial(selector=(("kind", "slack-profile"),),
                    config="reduced")]
    evals = Recording(threads=2).evaluate(trials, ["crc32", "adpcm"],
                                          "train", 20_000)
    assert set(evals) == {trial.trial_id for trial in trials}
    assert replays == [(0, 0)] * len(trials)
    assert set(productions.values()) == {1}


def t_resolve_runner(spec):
    """Which runner a task resolves to, from wherever it runs."""
    runner = task_fns._runner(spec)
    return {"pid": os.getpid(), "id": id(runner),
            "worker_runner": any(runner is cached
                                 for cached in task_fns._RUNNERS.values())}


def test_pool_workers_never_resolve_to_the_callers_runner(tmp_path):
    """``--jobs 2``: forked pool workers build their own runner; the
    caller's binding (and its open store) never leaks into them."""
    runner = Runner(store=store.ArtifactStore(tmp_path))
    spec = runner_params(runner)
    tasks = [Task(id=f"resolve/{i}", fn=t_resolve_runner, args=(spec,))
             for i in range(4)]
    report = run_points(runner, [], jobs=2, tasks=tasks)
    assert not report.degraded and not report.failures
    for result in report.results.values():
        assert result["pid"] != os.getpid()
        assert result["id"] != id(runner)
        assert result["worker_runner"]


def test_in_process_tasks_need_the_callers_runner():
    """In-process execution never builds a private runner: a task whose
    spec names other parameters, or no runner at all, fails loudly."""
    runner = Runner(max_insts=20_000)
    tasks = build_tasks([baseline_point("crc32", "reduced")],
                        Runner(max_insts=10_000))
    for scheduler, message in (
            (Scheduler(jobs=1, retries=0, runner=runner), "differ"),
            (Scheduler(jobs=1, retries=0), "runner=")):
        report = scheduler.run(tasks, raise_on_failure=False)
        assert not report.results
        errors = [error for error in report.failures.values()
                  if not error.startswith("skipped")]
        assert errors and all(error.startswith("RuntimeError")
                              and message in error for error in errors)
    [result] = Scheduler(jobs=1, runner=runner).run(
        [Task(id="resolve", fn=t_resolve_runner,
              args=(runner_params(runner),))]).results.values()
    assert result["id"] == id(runner) and not result["worker_runner"]


def _wave(runner, points, stages=("baseline", "profile", "timing")):
    """The batchable nodes of ``points``' DAG (their set-up materializes
    whatever upstream artifacts they read)."""
    return [task for task in build_tasks(points, runner)
            if is_batchable(task) and task.stage in stages]


def _fallbacks(run):
    """``ckern.counters`` fallback deltas over ``run()``."""
    before = dict(ckern.counters)
    run()
    return {key: value - before.get(key, 0)
            for key, value in ckern.counters.items()
            if key.startswith(("batch_fallback", "batch_setup_error",
                               "batch_copy_back_error"))
            and value != before.get(key, 0)}


_WAVE = [baseline_point("crc32", "reduced"),
         selector_point("crc32", {"kind": "struct-all"}, "reduced")]


@needs_kernel
def test_fallback_reason_store_hit():
    runner = Runner(max_insts=20_000)
    wave = _wave(runner, _WAVE)
    run_points(runner, _WAVE, jobs=1)
    with bound_runner(runner):
        deltas = _fallbacks(lambda: run_batch_wave(wave, 2))
    assert deltas == {"batch_fallback_store_hit": len(wave)}


@needs_kernel
def test_fallback_reason_ineligible(monkeypatch):
    from repro.pipeline.core import OoOCore
    runner = Runner(max_insts=20_000)
    wave = _wave(runner, _WAVE)
    monkeypatch.setattr(OoOCore, "kernel_batch_entry",
                        lambda self, max_cycles: None)
    with bound_runner(runner):
        deltas = _fallbacks(lambda: run_batch_wave(wave, 2))
    assert deltas == {"batch_fallback_ineligible": len(wave)}


@needs_kernel
def test_fallback_reason_setup_error_records_type():
    runner = Runner(max_insts=20_000)
    wave = _wave(runner, _WAVE[:1])
    spec = dict(wave[0].args[0], bench="no-such-benchmark")
    broken = type(wave[0])(id="baseline/broken", fn=wave[0].fn,
                           args=(spec,), stage="baseline")
    with bound_runner(runner):
        deltas = _fallbacks(lambda: run_batch_wave([broken], 2))
    assert deltas.pop("batch_fallback_setup_error") == 1
    [(key, count)] = deltas.items()
    assert key.startswith("batch_setup_error.") and count == 1


@needs_kernel
def test_fallback_reason_deadlock(monkeypatch):
    """A point past the kernel's cycle budget is rerun per point."""
    runner = Runner(max_insts=20_000)
    wave = _wave(runner, _WAVE)
    monkeypatch.setattr(batch, "DEFAULT_MAX_CYCLES", 50)
    with bound_runner(runner):
        deltas = _fallbacks(lambda: run_batch_wave(wave, 2))
    assert deltas == {"batch_fallbacks": len(wave),
                      "batch_fallback_deadlock": len(wave)}


@needs_kernel
def test_fallback_reason_tap_overflow(monkeypatch):
    """The slack profile's event tap overflows a tiny buffer; the other
    points complete in the batch."""
    from repro.pipeline.core import OoOCore
    runner = Runner(max_insts=20_000)
    points = [baseline_point("crc32", "reduced"),
              selector_point("crc32", SlackProfileSelector(), "reduced")]
    wave = _wave(runner, points, stages=("baseline", "profile"))
    assert {task.stage for task in wave} == {"baseline", "profile"}
    monkeypatch.setattr(OoOCore, "_tap_words", lambda self: 3)
    with bound_runner(runner):
        deltas = _fallbacks(lambda: run_batch_wave(wave, 2))
    assert deltas == {"batch_fallbacks": 1,
                      "batch_fallback_tap_overflow": 1}


@needs_kernel
def test_fallback_reason_copy_back_error_records_type(monkeypatch):
    """A raising copy-back costs only its own point, not the wave."""
    from repro.pipeline.core import OoOCore
    runner = Runner(max_insts=20_000)
    wave = _wave(runner, _WAVE)
    apply = OoOCore._apply_kernel_result
    raised = []

    def flaky(self, *args):
        if not raised:
            raised.append(self)
            raise ZeroDivisionError("copy-back")
        return apply(self, *args)

    monkeypatch.setattr(OoOCore, "_apply_kernel_result", flaky)
    done = {}
    with bound_runner(runner):
        deltas = _fallbacks(lambda: done.update(run_batch_wave(wave, 2)))
    assert deltas == {"batch_fallbacks": 1,
                      "batch_fallback_copy_back_error": 1,
                      "batch_copy_back_error.ZeroDivisionError": 1}
    assert len(done) == len(wave) - 1


@needs_kernel
def test_fallbacks_keep_results_identical(monkeypatch):
    """Every point deadlocking in the batch still yields the serial
    artifacts, through the per-point rerun."""
    monkeypatch.setattr(batch, "DEFAULT_MAX_CYCLES", 50)
    threaded = Runner()
    report = run_points(threaded, _points(), jobs=1, threads=2)
    assert not report.failures
    serial = Runner()
    run_points(serial, _points(), jobs=1)
    assert _artifacts(threaded) == _artifacts(serial)


def test_threads_degrade_to_serial_without_kernel(monkeypatch):
    """REPRO_PURE_PY: every wave falls back to the per-point path."""
    monkeypatch.setenv("REPRO_PURE_PY", "1")
    runner = Runner()
    report = run_points(runner, _points()[:4], jobs=1, threads=4)
    assert not report.failures
    serial = Runner()
    run_points(serial, _points()[:4], jobs=1)
    config = config_by_name("reduced")
    assert runner.baseline("crc32", config).cycles == \
        serial.baseline("crc32", config).cycles


@needs_kernel
def test_threaded_summaries_match_task_shapes():
    """Batched summaries are indistinguishable from task returns."""
    runner = Runner()
    report = run_points(runner, _points(), jobs=1, threads=2)
    for tid, summary in report.results.items():
        stage = tid.split("/", 1)[0]
        if stage == "timing":
            assert set(summary) == {"ipc", "coverage"}
        elif stage == "baseline":
            assert set(summary) == {"ipc"}
        elif stage == "profile":
            assert set(summary) == {"entries"}

"""Batched native dispatch: one GIL-released C call per scheduler wave.

Process fan-out (``--jobs N``) pays a pickle round-trip and a worker
process per timing point. For grids whose points all ride the compiled
kernel that overhead dominates: the cycle loop itself releases the GIL
(ctypes drops it for the call's duration), so the natural unit of
parallelism is a *batch* — every ready timing node of one scheduler
wave packed into an array of descriptors and handed to
``repro_run_batch``, which fans the points over a pthread pool inside
the single call. No processes, no pickling, no persistent store.

:func:`run_batch_wave` is the bridge. For each batchable task it
reconstructs the runner-side setup through the ``*_prepared`` helpers
(:class:`~repro.harness.runner.Runner.baseline_prepared` and friends) —
the same code path the serial computes use — probes the artifact store,
collects one :func:`repro.pipeline.ckern.run_batch` descriptor per
store miss, dispatches once, and publishes each finished artifact under
the identical store key with the identical summary dict the task
function would have returned. Any point the batch cannot finish is
left out of the returned map and tallied under its reason in
``ckern.counters`` (``batch_fallback_<reason>``: ``store_hit``,
``ineligible`` and ``setup_error`` before dispatch; ``tap_overflow``,
``deadlock``, ``nomem`` and ``copy_back_error`` from the kernel, which
``batch_fallbacks`` counts as before; raised errors also under
``batch_<reason>.<exception type>`` and, when the bound runner's store
has telemetry attached, as a ``batch-fallback`` instant carrying the
reason and exception type); the scheduler reruns it through
:func:`~repro.exec.tasks.run_timing` et al. serially, preserving the
retry/raise semantics bit for bit. Results are bit-identical to
``--jobs 1`` by construction: the batch path runs the same kernel on
the same descriptors and the fallback path *is* the serial path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from . import tasks as task_fns
from .store import MISS

#: ``OoOCore.run``'s cycle budget — batched points must deadlock at the
#: same horizon the per-point path uses or parity breaks on pathologies.
DEFAULT_MAX_CYCLES = 200_000_000


def is_batchable(task) -> bool:
    """Can this DAG node ride the batched kernel dispatch?

    Timing-shaped nodes only: baselines, slack profiles, and selector
    timing runs. Slack-dynamic points carry a run-time policy, which
    forces the Python reference loop, and every other stage (trace,
    candidates, plan, check) is not a cycle loop at all.
    """
    if task.fn in (task_fns.run_baseline, task_fns.run_profile):
        return True
    if task.fn is task_fns.run_timing:
        return task.args[0].get("point_kind") != "slack-dynamic"
    return False


@dataclass
class _Prepared:
    """One store-missing point, ready for native dispatch."""

    task_id: str
    runner: Any
    kind: str                      # store artifact kind
    params: Dict[str, Any]         # store-key params
    core: Any                      # un-run OoOCore
    finalize: Callable             # stats -> artifact
    summarize: Callable            # artifact -> task summary dict
    entry: tuple                   # ckern.run_batch descriptor
    start: float                   # perf_counter at prepare start


def _prepare(task) -> Union[_Prepared, str]:
    """Set one task's point up for the batch, or say why it cannot ride.

    Returns the fallback reason instead of a point when the batch cannot
    help: ``"store_hit"`` (the artifact is already stored, so the serial
    rerun is a memo hit) or ``"ineligible"`` (the point kind has no
    prepared form, or the constructed core is not kernel-eligible:
    ``REPRO_PURE_PY``, no compiler, tap-incapable observer). Setup
    exceptions propagate; :func:`run_batch_wave` labels them.
    """
    start = time.perf_counter()
    spec = task.args[0]
    runner = task_fns._runner(spec)
    bench = runner._bench(spec["bench"])
    input_name = spec["input"]
    config = task_fns._config(spec["config"])

    if task.fn is task_fns.run_profile:
        global_slack = spec.get("global_slack", False)
        kind = "profile"
        params = runner.profile_params(bench.name, config, input_name,
                                       global_slack)
        build = lambda: runner.profile_prepared(  # noqa: E731
            bench, config, input_name, global_slack=global_slack)
        summarize = task_fns.profile_summary
    elif task.fn is task_fns.run_baseline \
            or spec.get("point_kind") == "baseline":
        kind = "baseline"
        params = runner.baseline_params(bench.name, config, input_name)
        build = lambda: runner.baseline_prepared(  # noqa: E731
            bench, config, input_name)
        summarize = task_fns.baseline_summary \
            if task.fn is task_fns.run_baseline \
            else task_fns.timing_baseline_summary
    elif task.fn is task_fns.run_timing:
        selector = task_fns.selector_from_spec(spec["selector"])
        from ..pipeline.config import config_by_name
        profile_config = task_fns._config(spec["profile_config"]) \
            if spec.get("profile_config") else None
        profile_input = spec.get("profile_input")
        global_slack = spec.get("global_slack", False)
        kind = "run"
        # Key on the *resolved* profiling parameters, exactly as
        # Runner.run_selector does.
        params = runner.run_params(
            bench.name, selector.spec(), config, input_name,
            profile_config if profile_config is not None
            else config_by_name("reduced"),
            profile_input or input_name, global_slack, None)
        build = lambda: runner.selector_prepared(  # noqa: E731
            bench, selector, config, input_name=input_name,
            profile_config=profile_config, profile_input=profile_input,
            global_slack=global_slack)
        summarize = task_fns.timing_summary
    else:
        return "ineligible"

    if runner.store.get(runner.store.key(kind, params), kind) is not MISS:
        return "store_hit"
    core, finalize = build()
    entry = core.kernel_batch_entry(DEFAULT_MAX_CYCLES)
    if entry is None:
        return "ineligible"
    return _Prepared(task.id, runner, kind, params, core, finalize,
                     summarize, entry, start)


#: Fallback reasons arising after dispatch — the points the kernel could
#: not finish, which ``batch_fallbacks`` counts.
_KERNEL_REASONS = ("tap_overflow", "deadlock", "nomem", "copy_back_error")


def _fall_back(reason: str, error: Optional[BaseException] = None) -> None:
    """Tally one point sent back to the per-point path, by reason.

    A raised ``error`` is also tallied by exception type and, when the
    bound runner's store has telemetry attached, emitted as a
    ``batch-fallback`` instant; with telemetry off nothing is written.
    """
    from ..pipeline import ckern
    counters = ckern.counters
    counters[f"batch_fallback_{reason}"] += 1
    if reason in _KERNEL_REASONS:
        counters["batch_fallbacks"] += 1
    if error is not None:
        exc_type = type(error).__name__
        key = f"batch_{reason}.{exc_type}"
        counters[key] = counters.get(key, 0) + 1
        binding = getattr(task_fns._BOUND, "binding", None)
        runner = binding[1] if binding is not None else None
        telemetry = runner.store.telemetry if runner is not None else None
        if telemetry is not None:
            telemetry.instant("batch-fallback", "batch",
                              {"reason": reason, "exc_type": exc_type})


def run_batch_wave(tasks: Sequence, threads: int
                   ) -> Dict[str, tuple]:
    """Run one wave of batchable tasks through a single native dispatch.

    Returns ``{task id: (summary dict, duration)}`` for every point the
    kernel completed; the caller reruns missing ids through the normal
    per-point path. Never raises for a single point's sake — a setup
    failure (missing benchmark, broken plan) is left for the serial
    rerun to surface with the scheduler's retry policy attached.
    """
    from ..pipeline import ckern
    results: Dict[str, tuple] = {}
    if not ckern.available():
        for _ in tasks:
            _fall_back("ineligible")
        return results
    prepared: List[_Prepared] = []
    # Prepare in (bench, input) order: plan construction behind
    # selector points reuses the hoisted template sites through a
    # bounded cache, so grouping same-program points keeps it hot.
    # Results are keyed by task id, so the order is otherwise free.
    def _locality(task):
        spec = task.args[0]
        return (str(spec.get("bench", "")), str(spec.get("input", "")))

    for task in sorted(tasks, key=_locality):
        try:
            p = _prepare(task)
        except Exception as error:  # noqa: BLE001 - serial rerun reports it
            _fall_back("setup_error", error)
            continue
        if isinstance(p, str):
            _fall_back(p)
        else:
            prepared.append(p)
    if not prepared:
        return results

    batch = ckern.run_batch([p.entry for p in prepared], threads)
    if batch is None:
        for _ in prepared:
            _fall_back("ineligible")
        return results
    for p, (rc, out, events, n_words, overflowed) in zip(prepared, batch):
        try:
            stats = p.core.apply_kernel_result(rc, out, events, n_words,
                                               overflowed)
        except Exception as error:  # noqa: BLE001 - serial rerun reports it
            _fall_back("copy_back_error", error)
            continue
        if stats is None:
            # The serial rerun retries overflows at 4x and raises
            # deadlocks with the scheduler's failure semantics.
            _fall_back(ckern.batch_point_fallback(rc, out, overflowed))
            continue
        artifact = p.finalize(stats)
        p.runner.store.put(p.runner.store.key(p.kind, p.params), artifact,
                           p.kind, p.params)
        results[p.task_id] = (p.summarize(artifact),
                              time.perf_counter() - p.start)
    return results

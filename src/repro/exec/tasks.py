"""Task payloads executed by the scheduler, in-process or in workers.

Every function here takes one plain-dict ``spec`` (JSON-ish: strings,
numbers, bools, lists) and returns a *small* summary dict; the real
artifact lands in the :class:`~repro.exec.store.ArtifactStore`, which is
how downstream tasks (and the caller's final reporting pass) pick it up
without shipping multi-megabyte traces over a result pipe.

Specs carry the runner parameters (``budget``, ``max_mg_size``,
``warm_caches``, ``max_insts``, ``cache_dir``). In-process execution —
the serial and batched (``--jobs threads:N``) scheduler paths — shares
the caller's own :class:`~repro.harness.runner.Runner` and store: the
scheduler binds it to the running thread (:func:`bound_runner`) around
in-process execution only, and every task run there resolves to it, so
what a task computes is exactly what the caller reads back, with no
persistent store needed for the handoff. Only pool and socket worker
processes build their own runner, one per distinct parameter set, so
that repeated tasks in the same worker share the in-memory layer. Specs may
additionally carry ``shm_traces`` descriptors naming shared-memory
segments the parent published (:mod:`repro.exec.shm`); workers attach
those traces zero-copy instead of unpickling them from disk.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

from .store import ArtifactStore

# Per-process caches: runners for worker processes (which have no caller
# runner), and limit-study site rankings per runner parameter set.
_RUNNERS: Dict[Tuple, Any] = {}
_SITES: Dict[Tuple, list] = {}

#: ``(pid, runner)`` of the scheduler executing tasks on this thread in
#: this process (thread-local, so concurrent ``repro serve`` jobs keep
#: their own runners apart). The pid keeps a binding inherited by a
#: forked worker from ever resolving there.
_BOUND = threading.local()


def runner_params(runner) -> Dict[str, Any]:
    """The spec fragment that reconstructs ``runner`` in a worker."""
    return {
        "budget": runner.budget,
        "max_mg_size": runner.max_mg_size,
        "warm_caches": runner.warm_caches,
        "max_insts": runner.max_insts,
        "cache_dir": str(runner.store.root) if runner.store.persistent
        else None,
        "store_backend": runner.store.backend_name
        if runner.store.persistent else None,
    }


def _params_key(params: Dict[str, Any]) -> Tuple:
    return (params["budget"], params["max_mg_size"], params["warm_caches"],
            params["max_insts"], params["cache_dir"],
            params.get("store_backend"))


@contextmanager
def bound_runner(runner):
    """Resolve the tasks this thread executes in-process to ``runner``.

    Inside the block every task runs against ``runner`` itself — its
    memory layer, hoisted sites and store — never a private runner; a
    task whose spec carries other parameters (:func:`runner_params`),
    or any runner-backed task when ``runner`` is None, raises instead.
    Bind only around in-process execution, never around submissions
    to worker processes.
    """
    previous = getattr(_BOUND, "binding", None)
    _BOUND.binding = (os.getpid(), runner)
    try:
        yield
    finally:
        _BOUND.binding = previous


def _runner(spec: Dict[str, Any]):
    key = _params_key(spec)
    binding = getattr(_BOUND, "binding", None)
    if binding is not None and binding[0] == os.getpid():
        bound = binding[1]
        if bound is None:
            raise RuntimeError(
                "in-process task has no runner to run against: "
                "construct the Scheduler with runner=")
        if _params_key(runner_params(bound)) != key:
            raise RuntimeError(
                f"task spec runner parameters {key} differ from the "
                f"scheduler's runner {_params_key(runner_params(bound))}")
        # The caller holds the originals of any shared-memory traces.
        return bound
    from ..harness.runner import Runner
    if key not in _RUNNERS:
        _RUNNERS[key] = Runner(
            budget=spec["budget"], max_mg_size=spec["max_mg_size"],
            warm_caches=spec["warm_caches"], max_insts=spec["max_insts"],
            store=ArtifactStore(spec["cache_dir"],
                                backend=spec.get("store_backend")))
    runner = _RUNNERS[key]
    _seed_shared_traces(runner, spec)
    return runner


def _seed_shared_traces(runner, spec: Dict[str, Any]) -> None:
    """Attach any shared-memory trace segments named in the spec.

    The parent publishes functional traces it already holds as
    ``multiprocessing.shared_memory`` segments (see
    :mod:`repro.exec.shm`); specs carry the descriptors under
    ``shm_traces``. Attaching maps the packed columns zero-copy and
    seeds the rehydrated trace into this runner's *memory* layer so the
    pipeline's ``runner.trace(...)`` calls hit without touching the
    pickled disk artifact. Any attach failure (segment already
    released, no shared memory here) silently falls back to the store.
    """
    descriptors = spec.get("shm_traces")
    if not descriptors:
        return
    from .shm import attach_trace
    for descriptor in descriptors:
        params = {"bench": descriptor["bench"],
                  "input": descriptor["input"],
                  "max_insts": descriptor["max_insts"]}
        key = runner.store.key("trace", params)
        if key in runner.store._memory:
            continue
        trace = attach_trace(descriptor)
        if trace is not None:
            runner.store.seed(key, trace)


def _config(name: str):
    from ..pipeline.config import config_by_name
    return config_by_name(name)


def selector_from_spec(spec: Dict[str, Any]):
    """Inverse of :meth:`repro.minigraph.selectors.Selector.spec`.

    Delegates to the family registry in
    :mod:`repro.minigraph.selectors`, so any registered family — paper
    selectors and searchable ones alike — round-trips across worker
    processes.
    """
    from ..minigraph import selectors
    return selectors.selector_from_spec(spec)


# -- result summaries ----------------------------------------------------------
#
# The small dicts tasks return over the result pipe. Shared with the
# batched native dispatcher (:mod:`repro.exec.batch`), which publishes
# artifacts directly and must hand the scheduler summaries that are
# indistinguishable from a task function's.

def baseline_summary(stats) -> Dict[str, Any]:
    """Summary shape of :func:`run_baseline`."""
    return {"ipc": stats.ipc}


def profile_summary(profile) -> Dict[str, Any]:
    """Summary shape of :func:`run_profile`."""
    return {"entries": len(profile)}


def timing_summary(run) -> Dict[str, Any]:
    """Summary shape of :func:`run_timing` for selector/dynamic points."""
    return {"ipc": run.ipc, "coverage": run.coverage}


def timing_baseline_summary(stats) -> Dict[str, Any]:
    """Summary shape of :func:`run_timing` for ``baseline`` grid points."""
    return {"ipc": stats.ipc, "coverage": 0.0}


# -- pipeline-stage tasks ------------------------------------------------------

def run_trace(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Materialize the functional trace artifact for one benchmark."""
    trace = _runner(spec).trace(spec["bench"], spec["input"])
    return {"records": len(trace.records)}


def run_candidates(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Materialize the candidate enumeration artifact."""
    candidates = _runner(spec).candidates(spec["bench"], spec["input"])
    return {"candidates": len(candidates)}


def run_baseline(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Singleton timing run on the named machine configuration."""
    stats = _runner(spec).baseline(spec["bench"], _config(spec["config"]),
                                   spec["input"])
    return baseline_summary(stats)


def run_profile(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Slack-profiling run (local or global slack)."""
    profile = _runner(spec).slack_profile(
        spec["bench"], _config(spec["config"]), spec["input"],
        global_slack=spec.get("global_slack", False))
    return profile_summary(profile)


def run_plan(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Selection plan for one (benchmark, selector) pair."""
    runner = _runner(spec)
    plan = runner.plan(
        spec["bench"], selector_from_spec(spec["selector"]),
        input_name=spec["input"],
        profile_config=_config(spec["profile_config"])
        if spec.get("profile_config") else None,
        profile_input=spec.get("profile_input"),
        global_slack=spec.get("global_slack", False))
    return {"templates": plan.n_templates}


def run_timing(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Timing run for one experiment grid point."""
    runner = _runner(spec)
    if spec["point_kind"] == "slack-dynamic":
        run = runner.run_slack_dynamic(
            spec["bench"], _config(spec["config"]),
            input_name=spec["input"],
            **dict(spec.get("policy") or {}))
    elif spec["point_kind"] == "baseline":
        stats = runner.baseline(spec["bench"], _config(spec["config"]),
                                spec["input"])
        return timing_baseline_summary(stats)
    else:
        run = runner.run_selector(
            spec["bench"], selector_from_spec(spec["selector"]),
            _config(spec["config"]), input_name=spec["input"],
            profile_config=_config(spec["profile_config"])
            if spec.get("profile_config") else None,
            profile_input=spec.get("profile_input"),
            global_slack=spec.get("global_slack", False))
    return timing_summary(run)


class CheckFailed(RuntimeError):
    """A validation task found a divergence or an illegal plan.

    Deterministic by construction — check tasks are scheduled with
    ``retries=0``, since re-running the same comparison cannot succeed.
    """


def run_check(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Validation node for one (program, selector) grid point.

    Replays the already-materialized plan and trace through the
    differential lockstep engine and the plan invariant linter
    (:mod:`repro.check`); raises :class:`CheckFailed` on the first
    divergence or lint issue, which fails the experiment run.
    """
    from ..check.lint import lint_plan
    from ..check.lockstep import lockstep_check
    runner = _runner(spec)
    selector = selector_from_spec(spec["selector"])
    plan = runner.plan(
        spec["bench"], selector, input_name=spec["input"],
        profile_config=_config(spec["profile_config"])
        if spec.get("profile_config") else None,
        profile_input=spec.get("profile_input"),
        global_slack=spec.get("global_slack", False))
    trace = runner.trace(spec["bench"], spec["input"])
    report = lockstep_check(trace.program, plan, trace=trace,
                            selector=selector.name,
                            max_insts=spec["max_insts"])
    if report.divergence is not None:
        raise CheckFailed(f"lockstep divergence: {report.render()}")
    issues = lint_plan(trace.program, plan,
                       max_size=spec["max_mg_size"],
                       budget=spec["budget"])
    if issues:
        rendered = "; ".join(issue.render() for issue in issues[:5])
        raise CheckFailed(f"plan invariant violations: {rendered}")
    return {"records": report.records, "handles": report.handles,
            "sites": len(plan.sites)}


# -- limit-study tasks ---------------------------------------------------------

def _limit_sites(runner, bench: str, input_name: str, count: int):
    from ..analysis.limit_study import top_nonoverlapping_sites
    key = (_params_key(runner_params(runner)), bench, input_name, count)
    if key not in _SITES:
        _SITES[key] = top_nonoverlapping_sites(runner, bench, input_name,
                                               count)
    return _SITES[key]


def run_subset(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Evaluate one limit-study subset mask (Figure 8 scatter point).

    Memoized through the store under a ``subset`` artifact (the full
    parameter set, via :meth:`Runner.subset_params`) — which is what
    makes a killed limit study resumable: completed subset points are
    durable, so ``repro resume`` schedules only the missing masks.
    """
    from ..analysis.limit_study import evaluate_subset_cached
    runner = _runner(spec)
    sites = _limit_sites(runner, spec["bench"], spec["input"],
                         spec["n_candidates"])
    point = evaluate_subset_cached(runner, spec["bench"], spec["input"],
                                   _config(spec["config"]),
                                   spec["n_candidates"], spec["mask"],
                                   spec["baseline_ipc"], sites=sites)
    return {"mask": point.mask, "coverage": point.coverage,
            "relative_ipc": point.relative_ipc}

"""Dependency-graph scheduler with process fan-out and fault tolerance.

An experiment grid is a DAG of :class:`Task` nodes — trace → profile →
candidates → plan → timing run per (benchmark × selector × machine)
point, with upstream nodes shared between points. The :class:`Scheduler`
topologically orders the graph and either runs it serially in-process
(``jobs=1``, also the deterministic reference path) or fans ready tasks
out over a ``ProcessPoolExecutor``.

Task functions must be module-level (picklable) and communicate bulk
results through the shared on-disk :class:`~repro.exec.store.ArtifactStore`
rather than their return values; returns should be small summaries. This
keeps inter-process traffic negligible and makes re-execution idempotent,
which is what the fault-tolerance layer leans on:

* a task raising an exception is retried up to ``retries`` times with
  linear backoff;
* a worker process dying (``BrokenProcessPool``) degrades the run to
  serial in-process execution of everything still pending — slower, but
  the run completes;
* a task exceeding its ``timeout`` is failed without retry (a stuck
  simulation stays stuck), its pool is torn down, and the remainder of
  the graph likewise degrades to serial;
* a failed task poisons its transitive dependents (``skipped``), but
  independent subgraphs still complete.

Progress is surfaced as a stream of event dicts via ``on_event`` —
``{"kind": "done", "task": ..., "stage": ..., "queued": ..., ...}`` —
which the CLI renders, and as an :class:`ExecReport` with per-stage wall
times at the end.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.dist.dispatch import (DispatchBackend, LocalPoolBackend,
                                 WorkerLost, _invoke)

from .tasks import bound_runner


@dataclass
class Task:
    """One schedulable unit: a picklable callable plus dependency edges."""

    id: str
    fn: Callable[..., Any]
    args: Tuple = ()
    deps: Tuple[str, ...] = ()
    stage: str = "task"
    retries: Optional[int] = None       # None → scheduler default
    timeout: Optional[float] = None     # None → scheduler default


class TaskError(RuntimeError):
    """Raised by :meth:`Scheduler.run` when tasks fail terminally."""

    def __init__(self, failures: Dict[str, str]):
        self.failures = dict(failures)
        first = next(iter(self.failures.items()))
        extra = len(self.failures) - 1
        suffix = f" (+{extra} more)" if extra else ""
        super().__init__(f"task {first[0]!r} failed: {first[1]}{suffix}")


@dataclass
class ExecReport:
    """Outcome of one scheduler run."""

    results: Dict[str, Any] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)
    stage_wall: Dict[str, float] = field(default_factory=dict)
    stage_tasks: Dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0
    degraded: bool = False
    retries: int = 0

    def render(self) -> str:
        stages = ", ".join(
            f"{stage} {self.stage_tasks[stage]}x/{wall:.1f}s"
            for stage, wall in sorted(self.stage_wall.items()))
        line = (f"[exec] {len(self.results)} tasks in {self.elapsed:.1f}s"
                f" ({stages})")
        if self.retries:
            line += f", {self.retries} retries"
        if self.degraded:
            line += ", degraded to serial"
        if self.failures:
            line += f", {len(self.failures)} FAILED"
        return line


class ProgressPrinter:
    """Renders scheduler events as a throttled one-line-per-tick stream."""

    def __init__(self, stream=None, min_interval: float = 0.5):
        import sys
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._last = 0.0

    def __call__(self, event: Dict[str, Any]) -> None:
        kind = event["kind"]
        now = time.monotonic()
        urgent = kind in ("failed", "degraded", "retry")
        finished = event.get("done", 0) + event.get("failed", 0) \
            == event.get("total", -1)
        if not urgent and not finished \
                and now - self._last < self.min_interval:
            return
        self._last = now
        if kind == "degraded":
            line = "[exec] worker pool lost; continuing serially"
        else:
            line = (f"[exec] {event['done']}/{event['total']} done, "
                    f"{event['running']} running, "
                    f"{event['queued']} queued")
            if event["failed"]:
                line += f", {event['failed']} failed"
            if urgent:
                line += f"  ({kind}: {event['task']})"
            elif event.get("task"):
                line += f"  ({event['stage']}: {event['task']})"
        print(line, file=self.stream)


class Scheduler:
    """Runs a task DAG serially or across a dispatch backend."""

    def __init__(self, jobs: int = 1, retries: int = 1,
                 backoff: float = 0.1, timeout: Optional[float] = None,
                 on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
                 pool: Optional[ProcessPoolExecutor] = None,
                 dispatch: Optional[DispatchBackend] = None,
                 threads: int = 0, runner=None):
        self.jobs = max(1, int(jobs))
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self.on_event = on_event
        #: Batched native dispatch (``--jobs threads:N``). When set (and
        #: ``jobs == 1``), each wave of ready timing nodes is packed into
        #: one ``repro_run_batch`` call that fans the points over N C
        #: threads — in-process, so no persistent store or pickling is
        #: needed, and results are bit-identical to serial execution
        #: (see :mod:`repro.exec.batch`). Non-batchable nodes and any
        #: point the kernel cannot finish run through the ordinary
        #: serial path with the same retry policy.
        self.threads = max(0, int(threads))
        #: Optional externally-owned process pool. When set, parallel
        #: runs submit into it instead of spawning a private pool —
        #: ``jobs`` still caps *this* scheduler's in-flight tasks, so
        #: several schedulers (e.g. server jobs) can share one pool.
        #: The scheduler never shuts an external pool down; on timeout
        #: it cannot terminate the pool's workers either, so runaway
        #: tasks are abandoned rather than killed.
        self.pool = pool
        #: Optional :class:`~repro.dist.dispatch.DispatchBackend`.
        #: ``None`` (the default) builds a fresh
        #: :class:`~repro.dist.dispatch.LocalPoolBackend` per run —
        #: today's process-pool semantics exactly. A socket backend
        #: (``repro.dist.remote``) fans the same graph out to ``repro
        #: worker`` processes instead; every fault-tolerance path
        #: (retry, degrade-to-serial on :class:`WorkerLost`, deadline
        #: sweep) is backend-agnostic.
        self.dispatch = dispatch
        #: The caller's :class:`~repro.harness.runner.Runner`. Tasks run
        #: in this process (serial, batched, degraded-to-serial) resolve
        #: to it, so their artifacts land in the store the caller reads
        #: back; runner-backed tasks run in-process need one (see
        #: :func:`repro.exec.tasks.bound_runner`). Worker processes
        #: build their own.
        self.runner = runner

    # -- graph preparation -----------------------------------------------------

    @staticmethod
    def _topo_order(tasks: Dict[str, Task]) -> List[str]:
        """Kahn's algorithm; deterministic (insertion-ordered) and
        cycle-detecting."""
        dependents: Dict[str, List[str]] = {tid: [] for tid in tasks}
        missing_deps: Dict[str, int] = {}
        for task in tasks.values():
            for dep in task.deps:
                if dep not in tasks:
                    raise ValueError(
                        f"task {task.id!r} depends on unknown {dep!r}")
                dependents[dep].append(task.id)
            missing_deps[task.id] = len(task.deps)
        ready = [tid for tid, n in missing_deps.items() if n == 0]
        order: List[str] = []
        while ready:
            tid = ready.pop(0)
            order.append(tid)
            for successor in dependents[tid]:
                missing_deps[successor] -= 1
                if missing_deps[successor] == 0:
                    ready.append(successor)
        if len(order) != len(tasks):
            cyclic = sorted(set(tasks) - set(order))
            raise ValueError(f"dependency cycle involving {cyclic}")
        return order

    # -- events ----------------------------------------------------------------

    def _emit(self, kind: str, task: Optional[Task], state: Dict) -> None:
        if self.on_event is None:
            return
        event = {
            "kind": kind,
            "task": task.id if task else None,
            "stage": task.stage if task else None,
        }
        event.update(state)
        self.on_event(event)

    # -- execution -------------------------------------------------------------

    def run(self, tasks: Sequence[Task],
            raise_on_failure: bool = True) -> ExecReport:
        """Execute the graph; returns task-id → result."""
        table: Dict[str, Task] = {}
        for task in tasks:
            if task.id in table:
                raise ValueError(f"duplicate task id {task.id!r}")
            table[task.id] = task
        order = self._topo_order(table)

        report = ExecReport()
        start = time.perf_counter()
        if self.jobs == 1 and self.threads:
            with bound_runner(self.runner):
                self._run_batched(table, order, report)
        elif self.jobs == 1:
            with bound_runner(self.runner):
                self._run_serial(table, order, report)
        else:
            # Unbound: with fork, the pool's workers are forked from
            # this thread on the first submit.
            self._run_parallel(table, order, report)
        report.elapsed = time.perf_counter() - start
        if report.failures and raise_on_failure:
            raise TaskError(report.failures)
        return report

    def _state(self, table: Dict[str, Task], report: ExecReport,
               running: int = 0) -> Dict[str, Any]:
        done = len(report.results)
        failed = len(report.failures)
        return {"done": done, "failed": failed, "running": running,
                "queued": len(table) - done - failed - running,
                "total": len(table)}

    def _record(self, task: Task, result: Any, duration: float,
                report: ExecReport) -> None:
        report.results[task.id] = result
        report.stage_wall[task.stage] = \
            report.stage_wall.get(task.stage, 0.0) + duration
        report.stage_tasks[task.stage] = \
            report.stage_tasks.get(task.stage, 0) + 1

    def _deps_ok(self, task: Task, report: ExecReport) -> bool:
        return all(dep in report.results for dep in task.deps)

    def _skip_for_deps(self, task: Task, report: ExecReport,
                       table: Dict[str, Task]) -> None:
        bad = [dep for dep in task.deps if dep in report.failures]
        report.failures[task.id] = f"skipped: dependency {bad[0]!r} failed"
        self._emit("skipped", task, self._state(table, report))

    def _run_one_serial(self, task: Task, table: Dict[str, Task],
                        report: ExecReport) -> None:
        """In-process execution with the retry policy (no preemption, so
        per-task timeouts are not enforceable here)."""
        retries = self.retries if task.retries is None else task.retries
        for attempt in range(retries + 1):
            try:
                result, duration = _invoke(task.fn, task.args)
            except Exception as error:  # noqa: BLE001 - task boundary
                if attempt < retries:
                    report.retries += 1
                    self._emit("retry", task, self._state(table, report))
                    time.sleep(self.backoff * (attempt + 1))
                    continue
                report.failures[task.id] = f"{type(error).__name__}: {error}"
                self._emit("failed", task, self._state(table, report))
                return
            self._record(task, result, duration, report)
            self._emit("done", task, self._state(table, report))
            return

    def _run_serial(self, table: Dict[str, Task], order: List[str],
                    report: ExecReport,
                    only: Optional[Iterable[str]] = None) -> None:
        pending = set(order if only is None else only)
        for tid in order:
            if tid not in pending or tid in report.results \
                    or tid in report.failures:
                continue
            task = table[tid]
            if not self._deps_ok(task, report):
                self._skip_for_deps(task, report, table)
                continue
            self._run_one_serial(task, table, report)

    def _run_batched(self, table: Dict[str, Task], order: List[str],
                     report: ExecReport) -> None:
        """Wave-at-a-time execution with one native dispatch per wave.

        Each pass collects every ready task; the batchable ones (timing
        runs on the compiled kernel) go through a single
        ``repro_run_batch`` call over ``self.threads`` C threads, the
        rest — and any point the kernel could not finish — run through
        :meth:`_run_one_serial` so failures keep the exact serial retry
        and error-reporting behavior.
        """
        from .batch import is_batchable, run_batch_wave
        pending: List[str] = list(order)
        while pending:
            ready: List[str] = []
            blocked: List[str] = []
            for tid in pending:
                task = table[tid]
                if any(dep in report.failures for dep in task.deps):
                    self._skip_for_deps(task, report, table)
                elif self._deps_ok(task, report):
                    ready.append(tid)
                else:
                    blocked.append(tid)
            if not ready:
                if len(blocked) == len(pending):
                    # No skips, no ready work: unreachable for an acyclic
                    # graph, but never spin — finish serially.
                    self._run_serial(table, order, report, only=blocked)
                    return
                pending = blocked
                continue
            wave = [table[tid] for tid in ready if is_batchable(table[tid])]
            done = run_batch_wave(wave, self.threads) if len(wave) > 1 \
                else {}
            for tid in ready:
                task = table[tid]
                if tid in done:
                    result, duration = done[tid]
                    self._record(task, result, duration, report)
                    self._emit("done", task, self._state(table, report))
                else:
                    self._run_one_serial(task, table, report)
            pending = blocked

    def _run_parallel(self, table: Dict[str, Task], order: List[str],
                      report: ExecReport) -> None:
        dispatch = self.dispatch if self.dispatch is not None \
            else LocalPoolBackend(jobs=self.jobs, pool=self.pool)
        dispatch.open()
        # handle → (task, submit time, attempt); submissions are throttled
        # to backend capacity so "submitted" ≈ "started" and deadlines are
        # fair.
        in_flight: Dict[Any, Tuple[Task, float, int]] = {}
        attempts: Dict[str, int] = {}
        pending: List[str] = list(order)
        degrade = False

        def submit(task: Task) -> None:
            handle = dispatch.submit(task)
            in_flight[handle] = (task, time.monotonic(), attempts.get(task.id, 0))
            self._emit("submit", task, self._state(table, report,
                                                   running=len(in_flight)))

        try:
            while (pending or in_flight) and not degrade:
                # Fill free capacity with ready tasks, in topological
                # order. Capacity is re-polled each pass: elastic
                # backends grow/shrink as workers join or die.
                capacity = max(1, dispatch.capacity())
                still_pending: List[str] = []
                for tid in pending:
                    task = table[tid]
                    if len(in_flight) >= capacity:
                        still_pending.append(tid)
                    elif any(dep in report.failures for dep in task.deps):
                        self._skip_for_deps(task, report, table)
                    elif self._deps_ok(task, report):
                        submit(task)
                    else:
                        still_pending.append(tid)
                pending = still_pending
                if not in_flight:
                    if pending:  # every remaining task is blocked on failures
                        continue
                    break

                completed = dispatch.wait(list(in_flight), timeout=0.05)
                for handle in completed:
                    task, _submitted, attempt = in_flight.pop(handle)
                    try:
                        result, duration = dispatch.result(handle)
                    except WorkerLost:
                        # The executor died underneath the task (dead
                        # worker process, torn-down pool, empty worker
                        # fleet). It is unusable; finish serially.
                        attempts[task.id] = attempt  # retried serially below
                        pending.insert(0, task.id)
                        degrade = True
                        break
                    except Exception as error:  # noqa: BLE001 - task boundary
                        retries = self.retries if task.retries is None \
                            else task.retries
                        if attempt < retries:
                            attempts[task.id] = attempt + 1
                            report.retries += 1
                            self._emit("retry", task,
                                       self._state(table, report,
                                                   running=len(in_flight)))
                            submit(table[task.id])
                        else:
                            report.failures[task.id] = \
                                f"{type(error).__name__}: {error}"
                            self._emit("failed", task,
                                       self._state(table, report,
                                                   running=len(in_flight)))
                        continue
                    self._record(task, result, duration, report)
                    self._emit("done", task,
                               self._state(table, report,
                                           running=len(in_flight)))

                # Deadline sweep: a run-away task cannot be killed without
                # killing its worker, so fail it and degrade.
                if not degrade:
                    now = time.monotonic()
                    timed_out = False
                    for handle, (task, submitted, _a) in list(in_flight.items()):
                        limit = self.timeout if task.timeout is None \
                            else task.timeout
                        if limit is not None and now - submitted > limit \
                                and not dispatch.cancel(handle):
                            in_flight.pop(handle)
                            report.failures[task.id] = \
                                f"timeout after {limit:.1f}s"
                            self._emit("failed", task,
                                       self._state(table, report,
                                                   running=len(in_flight)))
                            degrade = timed_out = True
                    if timed_out:
                        dispatch.handle_timeout()
        finally:
            dispatch.close(list(in_flight))

        if degrade or pending or in_flight:
            # Anything still unfinished (including tasks whose futures were
            # cancelled above) is re-run in-process.
            report.degraded = True
            self._emit("degraded", None, self._state(table, report))
            leftovers = [tid for tid in order
                         if tid not in report.results
                         and tid not in report.failures]
            with bound_runner(self.runner):
                self._run_serial(table, order, report, only=leftovers)

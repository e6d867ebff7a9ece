"""Multi-tenant job queue: priority classes, quotas, durable journal.

The queue itself is synchronous and event-loop-agnostic — the server
drives it from asyncio, the tests drive it directly. Three priority
classes (``interactive`` < ``normal`` < ``batch`` by dispatch order)
break ties by submission order, so the queue is a strict priority FIFO.

Per-client quotas bound both dimensions of multi-tenant abuse:
``max_queued`` rejects submissions outright (the client gets an
immediate 429-style :class:`QuotaExceeded`, it does not silently wait),
while ``max_running`` never rejects — a client over its running quota
simply stays queued and other clients' jobs dispatch around it.

Durability: every submission and every terminal transition appends one
line to a :class:`~repro.exec.journal.Journal` of kind ``serve``. On
restart the server replays the journal and re-enqueues every job
without a terminal record — including jobs that were *running* when
the process died, which is safe because job execution is idempotent
through the content-addressed artifact store (a re-run of a
half-finished job skips everything already published).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..exec.journal import Journal, compact, replay

#: Priority classes, in dispatch order (lower dispatches first).
PRIORITIES = {"interactive": 0, "normal": 1, "batch": 2}

_TERMINAL = ("done", "failed", "cancelled")

SERVE_JOURNAL_VERSION = 1
_HEADER = {"type": "serve", "version": SERVE_JOURNAL_VERSION}


class JobState:
    """Job lifecycle states (plain strings; JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


class QuotaExceeded(RuntimeError):
    """A submission rejected by the client's ``max_queued`` quota."""


@dataclass
class Quota:
    """Per-client admission limits."""

    max_queued: int = 32
    max_running: int = 2


@dataclass
class Job:
    """One submitted job, from admission to terminal state.

    ``events`` is attached by the server (a telemetry-shaped event log,
    see :mod:`repro.serve.events`); the queue never touches it. The
    ``cancel_requested`` flag is the cooperative mid-flight cancellation
    channel: execution threads poll it between DAG events.
    """

    id: str
    client: str
    kind: str
    spec: Dict[str, Any]
    priority: int = PRIORITIES["normal"]
    state: str = JobState.QUEUED
    submitted: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    warm_hit: bool = False
    nodes_scheduled: int = 0
    nodes_pruned: int = 0
    events: Any = None
    cancel_requested: Any = None   # threading.Event, set by the server

    def summary(self) -> Dict[str, Any]:
        """The status document served by ``GET /jobs/<id>``."""
        return {
            "id": self.id, "client": self.client, "kind": self.kind,
            "priority": self.priority, "state": self.state,
            "submitted": self.submitted, "started": self.started,
            "finished": self.finished, "error": self.error,
            "warm_hit": self.warm_hit,
            "nodes_scheduled": self.nodes_scheduled,
            "nodes_pruned": self.nodes_pruned,
        }


class JobQueue:
    """Priority FIFO with per-client quotas and an optional journal."""

    def __init__(self, quota: Optional[Quota] = None,
                 journal: Optional[Path] = None):
        self.quota = quota or Quota()
        self.jobs: Dict[str, Job] = {}
        self._order: List[str] = []          # queued ids, submission order
        self._seq = itertools.count(1)
        self._journal_path = Path(journal) if journal else None
        self._journal_handle: Optional[Journal] = None

    # -- introspection ---------------------------------------------------------

    def next_id(self) -> str:
        return f"j{next(self._seq):06d}"

    @property
    def depth(self) -> int:
        """Jobs currently queued (admitted, not yet dispatched)."""
        return len(self._order)

    @property
    def active(self) -> int:
        """Jobs currently running."""
        return sum(1 for job in self.jobs.values()
                   if job.state == JobState.RUNNING)

    def counts(self, client: str, state: str) -> int:
        return sum(1 for job in self.jobs.values()
                   if job.client == client and job.state == state)

    # -- journal ---------------------------------------------------------------

    def _journal(self, record: Dict[str, Any]) -> None:
        if self._journal_path is None:
            return
        if self._journal_handle is None:
            self._journal_handle = Journal.append_to(self._journal_path,
                                                  _HEADER)
        self._journal_handle.append(record)

    @staticmethod
    def _submit_record(job: Job) -> Dict[str, Any]:
        return {"kind": "submit", "job": {
            "id": job.id, "client": job.client, "kind": job.kind,
            "spec": job.spec, "priority": job.priority,
            "submitted": job.submitted}}

    def close(self) -> None:
        if self._journal_handle is not None:
            self._journal_handle.close()
            self._journal_handle = None

    def recover(self) -> List[Job]:
        """Replay the journal: re-enqueue every non-terminal job.

        Returns the recovered jobs (already admitted, quota-exempt —
        they were admitted by the previous incarnation). The journal is
        compacted: terminal records older than the live set are dropped
        by rewriting it with just the recovered submissions.
        """
        if self._journal_path is None or not self._journal_path.exists():
            return []
        _header, records = replay(self._journal_path, "serve",
                                  SERVE_JOURNAL_VERSION)
        submitted: Dict[str, Dict[str, Any]] = {}
        terminal: Dict[str, str] = {}
        for record in records:
            if record.get("kind") == "submit":
                job = record.get("job")
                if isinstance(job, dict) and isinstance(job.get("id"), str):
                    submitted[job["id"]] = job
            elif record.get("kind") == "state":
                if record.get("state") in _TERMINAL:
                    terminal[record.get("id")] = record["state"]
        recovered: List[Job] = []
        top = 0
        for job_id, payload in submitted.items():
            try:
                top = max(top, int(job_id.lstrip("j")))
            except ValueError:
                pass
            if job_id in terminal:
                continue
            job = Job(id=job_id, client=payload.get("client", "?"),
                      kind=payload.get("kind", "?"),
                      spec=payload.get("spec", {}),
                      priority=int(payload.get("priority",
                                               PRIORITIES["normal"])),
                      submitted=payload.get("submitted", time.time()))
            self.jobs[job.id] = job
            self._order.append(job.id)
            recovered.append(job)
        self._seq = itertools.count(top + 1)
        # Compact: rewrite the journal as just the live submissions.
        self.close()
        compact(self._journal_path, _HEADER,
                [self._submit_record(job) for job in recovered])
        return recovered

    # -- admission / dispatch --------------------------------------------------

    def submit(self, client: str, kind: str, spec: Dict[str, Any],
               priority: str = "normal") -> Job:
        """Admit a job, or raise :class:`QuotaExceeded` / ``ValueError``."""
        if priority not in PRIORITIES:
            raise ValueError(f"unknown priority {priority!r} "
                             f"(choose from {', '.join(PRIORITIES)})")
        if self.counts(client, JobState.QUEUED) >= self.quota.max_queued:
            raise QuotaExceeded(
                f"client {client!r} already has "
                f"{self.quota.max_queued} jobs queued")
        job = Job(id=self.next_id(), client=client, kind=kind, spec=spec,
                  priority=PRIORITIES[priority])
        self.jobs[job.id] = job
        self._order.append(job.id)
        self._journal(self._submit_record(job))
        return job

    def next_ready(self) -> Optional[Job]:
        """Pop the best dispatchable queued job, honoring running quotas.

        Best = lowest (priority class, submission order) among jobs
        whose client is under ``max_running``. Jobs of a saturated
        client are skipped, not starved: they become eligible the
        moment one of that client's jobs finishes.
        """
        best_index = None
        running: Dict[str, int] = {}
        for job in self.jobs.values():
            if job.state == JobState.RUNNING:
                running[job.client] = running.get(job.client, 0) + 1
        for index, job_id in enumerate(self._order):
            job = self.jobs[job_id]
            if running.get(job.client, 0) >= self.quota.max_running:
                continue
            if best_index is None \
                    or job.priority < self.jobs[
                        self._order[best_index]].priority:
                best_index = index
        if best_index is None:
            return None
        job = self.jobs[self._order.pop(best_index)]
        job.state = JobState.RUNNING
        job.started = time.time()
        return job

    # -- transitions -----------------------------------------------------------

    def finish(self, job: Job, state: str,
               error: Optional[str] = None) -> None:
        """Move a job to a terminal state and journal it."""
        assert state in _TERMINAL, state
        job.state = state
        job.error = error
        job.finished = time.time()
        self._journal({"kind": "state", "id": job.id, "state": state,
                       "t": job.finished})

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a queued job now, or flag a running one.

        Queued jobs transition to ``cancelled`` immediately. Running
        jobs get ``cancel_requested`` set (if the server attached one)
        and transition when the execution thread notices — the caller
        sees state ``running`` until then. Terminal jobs are untouched.
        """
        job = self.jobs.get(job_id)
        if job is None:
            return None
        if job.state == JobState.QUEUED:
            self._order.remove(job.id)
            self.finish(job, JobState.CANCELLED)
        elif job.state == JobState.RUNNING \
                and job.cancel_requested is not None:
            job.cancel_requested.set()
        return job

    def by_client(self, client: Optional[str] = None) -> List[Job]:
        jobs = list(self.jobs.values())
        if client is not None:
            jobs = [job for job in jobs if job.client == client]
        return sorted(jobs, key=lambda job: job.id)

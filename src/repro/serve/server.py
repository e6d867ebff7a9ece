"""The ``repro serve`` daemon: async job API over a local socket.

One long-lived asyncio process fronts the whole experiment engine. The
HTTP surface (dependency-free, HTTP/1.1, one request per connection)::

    POST /jobs                     submit {client, kind, spec, priority}
    GET  /jobs?client=...          list jobs
    GET  /jobs/<id>                status summary
    GET  /jobs/<id>/events[?from=N]  NDJSON telemetry stream (live)
    GET  /jobs/<id>/result         result document (409 until terminal)
    POST /jobs/<id>/cancel         cancel queued / flag running
    GET  /stats                    server counters + queue gauges
    GET  /metrics[?format=prom]    metrics registry export
    GET  /healthz                  liveness

Behind it: the multi-tenant :class:`~repro.serve.queue.JobQueue`
(priorities, quotas, restart journal), a dispatcher that runs up to
``job_slots`` jobs concurrently on worker threads, and the warm path —
the compiled ``_ckern`` stays loaded, the runner's store memory layer
accumulates traces/plans/runs across requests, and DAG nodes whose
artifacts already exist are pruned before scheduling
(:mod:`repro.serve.warm`). Identical repeat submissions therefore
complete with **zero scheduled nodes**.

Cross-job execution shares one :class:`ProcessPoolExecutor` (``pool``
workers) among every parallel job, and an in-flight node registry keeps
two concurrent jobs from computing the same DAG node: the later job
waits for the overlap to land in the store, then re-prunes — compute-
once semantics without cross-process locks, exactly the deterministic
batch-plan / conflict-free-execute split the content-addressed keys
enable.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..exec.dag import Scheduler
from ..exec.grid import build_tasks
from ..exec.store import ArtifactStore
from ..harness.runner import Runner
from ..obs.telemetry import run_manifest
from . import jobs as job_fns
from .events import JobCancelled, JobEventLog
from .queue import Job, JobQueue, JobState, Quota, QuotaExceeded
from .warm import prune_cached

_MAX_BODY = 8 << 20
_REASONS = {200: "OK", 201: "Created", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            409: "Conflict", 429: "Too Many Requests",
            500: "Internal Server Error"}


@dataclass
class ServerConfig:
    """Everything ``repro serve`` is parameterized by."""

    state_dir: Path = Path(".repro-serve")
    socket_path: Optional[Path] = None    # default: <state_dir>/serve.sock
    host: Optional[str] = None            # set host+port for TCP instead
    port: int = 0
    cache_dir: Optional[Path] = None      # default: <state_dir>/cache
    job_slots: int = 4                    # concurrent jobs server-wide
    pool_workers: int = 0                 # shared process pool (0 = per-job)
    max_queued: int = 32                  # per-client quotas
    max_running: int = 2
    budget: int = 512                     # runner defaults
    max_mg_size: int = 4
    max_insts: int = 2_000_000
    max_results: int = 256                # completed jobs kept (LRU)
    result_ttl: float = 3600.0            # seconds before eviction
    max_job_events: int = 10_000          # per-job event-log window
    dispatch: Optional[str] = None        # e.g. "workers:host:port"
    batch_threads: int = 0                # batched native dispatch for
                                          # jobs that ask for 1 process
    quiet: bool = False

    def __post_init__(self):
        self.state_dir = Path(self.state_dir)
        if self.socket_path is None and self.host is None:
            self.socket_path = self.state_dir / "serve.sock"
        if self.cache_dir is None:
            self.cache_dir = self.state_dir / "cache"

    @property
    def address(self) -> str:
        if self.host is not None:
            return f"tcp:{self.host}:{self.port}"
        return f"unix:{self.socket_path}"


@dataclass
class ServeStats:
    """Monotonic server counters (see ``collect_server``)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    rejected: int = 0
    warm_hits: int = 0
    nodes_scheduled: int = 0
    nodes_pruned: int = 0
    store_corruptions: int = 0
    results_evicted: int = 0
    events_truncated: int = 0
    first_event_us: List[int] = field(default_factory=list)

    @property
    def finished(self) -> int:
        return self.completed + self.failed + self.cancelled

    @property
    def warm_hit_ratio(self) -> float:
        return self.warm_hits / self.completed if self.completed else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {"submitted": self.submitted, "completed": self.completed,
                "failed": self.failed, "cancelled": self.cancelled,
                "rejected": self.rejected, "warm_hits": self.warm_hits,
                "warm_hit_ratio": self.warm_hit_ratio,
                "nodes_scheduled": self.nodes_scheduled,
                "nodes_pruned": self.nodes_pruned,
                "store_corruptions": self.store_corruptions,
                "results_evicted": self.results_evicted,
                "events_truncated": self.events_truncated}


class NodeRegistry:
    """In-flight DAG-node claims: cross-job compute-once coordination.

    Single-threaded (event loop only). A job claims its whole node set
    atomically or waits; released claims wake every waiter, which then
    re-prunes against the store — the overlapping nodes it was waiting
    on are artifacts now.
    """

    def __init__(self):
        self._inflight: set = set()
        self._waiters: List[asyncio.Event] = []

    def try_claim(self, node_ids) -> Optional[List[str]]:
        ids = list(node_ids)
        if any(node in self._inflight for node in ids):
            return None
        self._inflight.update(ids)
        return ids

    def release(self, node_ids) -> None:
        self._inflight.difference_update(node_ids)
        for waiter in self._waiters:
            waiter.set()
        self._waiters.clear()

    async def wait(self) -> None:
        waiter = asyncio.Event()
        self._waiters.append(waiter)
        await waiter.wait()


class ServeApp:
    """The daemon: queue + dispatcher + HTTP front end."""

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.config.state_dir.mkdir(parents=True, exist_ok=True)
        self.stats = ServeStats()
        self.queue = JobQueue(
            quota=Quota(self.config.max_queued, self.config.max_running),
            journal=self.config.state_dir / "jobs.jsonl")
        self.store = ArtifactStore(self.config.cache_dir)
        self.store.on_corrupt = self._on_corrupt
        self.runner = Runner(budget=self.config.budget,
                             max_mg_size=self.config.max_mg_size,
                             max_insts=self.config.max_insts,
                             store=self.store)
        self._runners: Dict[Tuple, Runner] = {}
        self._nodes = NodeRegistry()
        self._coordinator = None     # shared dist.remote.SocketCoordinator
        self._pool: Optional[ProcessPoolExecutor] = None
        self._running: set = set()
        self._kick = asyncio.Event()
        self._stopping = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._manifest_base = run_manifest(label="serve")
        self.started = time.time()

    # -- logging / hooks -------------------------------------------------------

    def _log(self, message: str) -> None:
        if not self.config.quiet:
            print(f"[serve] {message}", file=sys.stderr)

    def _on_corrupt(self, key: str, error: Exception) -> None:
        self.stats.store_corruptions += 1
        self._log(f"store: dropped corrupt artifact {key[:16]}… "
                  f"({type(error).__name__}), recovered as miss")

    # -- runners / pool --------------------------------------------------------

    def _runner_for(self, spec: Dict[str, Any]) -> Runner:
        """The server runner, or a spec-override sibling sharing its store."""
        budget = int(spec.get("budget", self.config.budget))
        max_insts = int(spec.get("max_insts", self.config.max_insts))
        if (budget, max_insts) == (self.config.budget,
                                   self.config.max_insts):
            return self.runner
        key = (budget, max_insts)
        if key not in self._runners:
            self._runners[key] = Runner(
                budget=budget, max_mg_size=self.config.max_mg_size,
                max_insts=max_insts, store=self.store)
        return self._runners[key]

    def _dispatch_backend(self, jobs: int):
        """One coordinator shared by every job; one backend per run.

        Backend handles are nonce-namespaced, so concurrent jobs lease
        through the same worker fleet without id collisions. The
        coordinator outlives individual jobs and is stopped with the
        app.
        """
        if self._coordinator is None:
            from ..dist.remote import SocketCoordinator
            spec = self.config.dispatch
            address = spec[len("workers:"):] \
                if spec.startswith("workers:") else spec
            self._coordinator = SocketCoordinator(address)
            self._coordinator.start()
            self._log(f"dispatch coordinator listening on {address}")
        from ..dist.remote import SocketDispatchBackend
        return SocketDispatchBackend(self._coordinator, jobs=jobs)

    def _scheduler(self, jobs: int, on_event, runner: Runner) -> Scheduler:
        if self.config.dispatch:
            return Scheduler(jobs=jobs, on_event=on_event,
                             dispatch=self._dispatch_backend(jobs),
                             runner=runner)
        if jobs <= 1 and self.config.batch_threads > 0:
            # Batched native dispatch: the job stays in-process (the
            # warm path's store probes and memory layer keep working)
            # while each wave of timing points runs as one C call over
            # ``batch_threads`` threads.
            return Scheduler(jobs=1, on_event=on_event,
                             threads=self.config.batch_threads,
                             runner=runner)
        pool = None
        if jobs > 1 and self.config.pool_workers > 0:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.config.pool_workers)
            pool = self._pool
            jobs = min(jobs, self.config.pool_workers)
        return Scheduler(jobs=jobs, on_event=on_event, pool=pool,
                         runner=runner)

    def _drop_pool_if_degraded(self, degraded: bool) -> None:
        if degraded and self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._log("shared worker pool degraded; recreating on demand")

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Recover the journal, start the dispatcher and the socket."""
        self._loop = asyncio.get_running_loop()
        recovered = self.queue.recover()
        for job in recovered:
            self._attach_log(job)
            job.events.instant("queued", "job",
                               {"id": job.id, "recovered": True})
        if recovered:
            self._log(f"recovered {len(recovered)} queued job(s) "
                      f"from the journal")
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        if self.config.host is not None:
            self._server = await asyncio.start_server(
                self._handle_conn, self.config.host, self.config.port,
                backlog=512)
            self.config.port = self._server.sockets[0].getsockname()[1]
        else:
            path = Path(self.config.socket_path)
            if path.exists():
                path.unlink()
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=str(path), backlog=512)
        (self.config.state_dir / "serve.json").write_text(json.dumps(
            {"address": self.config.address, "pid": os.getpid(),
             "started": self.started}))
        self._kick.set()
        self._log(f"listening on {self.config.address} "
                  f"(slots={self.config.job_slots}, "
                  f"pool={self.config.pool_workers}, "
                  f"cache={self.config.cache_dir})")

    async def stop(self) -> None:
        """Graceful shutdown: flag cancels, drain, tear sockets down."""
        self._stopping = True
        self._kick.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Flag every running job before cancelling its task: the flag
        # unwinds the worker *thread* (which task.cancel cannot reach),
        # so the interpreter's thread-join at loop teardown is short.
        for job in self.queue.jobs.values():
            if job.state == JobState.RUNNING \
                    and job.cancel_requested is not None:
                job.cancel_requested.set()
        for task in list(self._running):
            task.cancel()
        if self._running:
            await asyncio.gather(*self._running, return_exceptions=True)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            await asyncio.gather(self._dispatcher, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        if self._coordinator is not None:
            self._coordinator.stop()
        self.queue.close()
        self._log("stopped")

    # -- submission ------------------------------------------------------------

    def _attach_log(self, job: Job) -> None:
        job.events = JobEventLog(
            dict(self._manifest_base, label=f"job/{job.id}"),
            loop=self._loop, max_events=self.config.max_job_events)
        job.events.on_truncate = self._on_truncate
        job.cancel_requested = threading.Event()

    def _on_truncate(self, dropped: int) -> None:
        self.stats.events_truncated += dropped

    def _evict_results(self) -> None:
        """Bound the job table: TTL-expire and LRU-cap terminal jobs.

        Queued and running jobs are never evicted. The journal already
        carries each evicted job's terminal record, so a restart does
        not resurrect it; clients asking about an evicted id get a 404,
        same as an id that never existed.
        """
        terminal = [job for job in self.queue.jobs.values()
                    if job.state in (JobState.DONE, JobState.FAILED,
                                     JobState.CANCELLED)
                    and job.finished is not None]
        terminal.sort(key=lambda job: job.finished)
        now = time.time()
        evict = [job for job in terminal
                 if now - job.finished > self.config.result_ttl]
        keep = len(terminal) - len(evict)
        if keep > self.config.max_results:
            fresh = [job for job in terminal if job not in evict]
            evict.extend(fresh[:keep - self.config.max_results])
        for job in evict:
            del self.queue.jobs[job.id]
            self.stats.results_evicted += 1
        if evict:
            self._log(f"evicted {len(evict)} finished job record(s) "
                      f"(max_results={self.config.max_results}, "
                      f"ttl={self.config.result_ttl:.0f}s)")

    def submit(self, client: str, kind: str, spec: Dict[str, Any],
               priority: str = "normal") -> Job:
        """Validate + admit a job (raises ValueError / QuotaExceeded)."""
        job_fns.validate_spec(kind, spec)
        job = self.queue.submit(client, kind, spec, priority)
        self._attach_log(job)
        self.stats.submitted += 1
        job.events.instant("queued", "job",
                           {"id": job.id, "client": client, "kind": kind,
                            "priority": job.priority})
        self._kick.set()
        return job

    # -- dispatch --------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while not self._stopping:
            await self._kick.wait()
            self._kick.clear()
            if self._stopping:
                return
            while len(self._running) < self.config.job_slots:
                job = self.queue.next_ready()
                if job is None:
                    break
                task = asyncio.create_task(self._run_job(job))
                self._running.add(task)
                task.add_done_callback(self._job_finished)

    def _job_finished(self, task) -> None:
        self._running.discard(task)
        self._evict_results()
        self._kick.set()

    async def _run_job(self, job: Job) -> None:
        log: JobEventLog = job.events
        log.instant("started", "job", {"id": job.id})
        start_us = log._now_us()
        try:
            if job.cancel_requested.is_set():
                raise JobCancelled()
            job.result = await self._execute(job)
        except (JobCancelled, asyncio.CancelledError):
            self.queue.finish(job, JobState.CANCELLED)
            self.stats.cancelled += 1
        except Exception as error:  # noqa: BLE001 - job boundary
            self.queue.finish(job, JobState.FAILED,
                              error=f"{type(error).__name__}: {error}")
            self.stats.failed += 1
            self._log(f"job {job.id} failed: {job.error}")
        else:
            self.queue.finish(job, JobState.DONE)
            self.stats.completed += 1
            if job.warm_hit:
                self.stats.warm_hits += 1
        log.instant(job.state, "job",
                    {"id": job.id, "warm_hit": job.warm_hit,
                     "nodes_scheduled": job.nodes_scheduled,
                     "nodes_pruned": job.nodes_pruned,
                     "error": job.error or ""})
        log.span("job", "job", start_us,
                 args={"id": job.id, "kind": job.kind, "state": job.state})
        log.close()

    def _thread_log(self, job: Job):
        """A line-log callback for harness code: events + cancel point."""
        def log_line(line: str) -> None:
            if job.cancel_requested.is_set():
                raise JobCancelled()
            job.events.instant("log", "job", {"line": str(line)})
        return log_line

    async def _execute(self, job: Job) -> Dict[str, Any]:
        runner = self._runner_for(job.spec)
        if job.kind == "experiment":
            return await self._execute_experiment(job, runner)
        if job.kind == "bench":
            return await asyncio.to_thread(
                job_fns.run_bench_job, runner, job.spec,
                self._thread_log(job))
        if job.kind == "fuzz":
            return await asyncio.to_thread(
                job_fns.run_fuzz_job, job.spec, self._thread_log(job),
                job.cancel_requested)
        if job.kind == "limit-study":
            sink = job.events.scheduler_sink(job.cancel_requested)
            return await asyncio.to_thread(
                job_fns.run_limit_study_job, runner, job.spec, sink)
        raise ValueError(f"unknown job kind {job.kind!r}")

    async def _execute_experiment(self, job: Job,
                                  runner: Runner) -> Dict[str, Any]:
        points = job_fns.parse_points(job.spec)
        check = bool(job.spec.get("check", False))
        jobs = int(job.spec.get("jobs", 1))
        if jobs > 1 and not runner.store.persistent:
            jobs = 1
        while True:
            if job.cancel_requested.is_set():
                raise JobCancelled()
            tasks = build_tasks(points, runner, check=check)
            kept, pruned = prune_cached(runner, tasks)
            job.nodes_pruned = len(pruned)
            self.stats.nodes_pruned += len(pruned)
            if not kept:
                job.events.instant("warm-hit", "job",
                                   {"id": job.id, "pruned": len(pruned)})
                break
            claimed = self._nodes.try_claim(task.id for task in kept)
            if claimed is None:
                # Another job is computing overlapping nodes; when it
                # releases, its artifacts are in the store — re-prune.
                job.events.instant("waiting-inflight", "job",
                                   {"id": job.id})
                await self._nodes.wait()
                continue
            sink = job.events.scheduler_sink(job.cancel_requested)
            scheduler = self._scheduler(jobs, sink, runner)
            try:
                report = await asyncio.to_thread(scheduler.run, kept, True)
            finally:
                self._nodes.release(claimed)
            self._drop_pool_if_degraded(report.degraded)
            job.nodes_scheduled = len(report.results)
            self.stats.nodes_scheduled += len(report.results)
            break
        job.warm_hit = job.nodes_scheduled == 0
        return await asyncio.to_thread(
            job_fns.collect_experiment_results, runner, points)

    # -- metrics ---------------------------------------------------------------

    def metrics_registry(self):
        from ..obs.metrics import (MetricsRegistry, collect_dist,
                                   collect_server, collect_store)
        registry = MetricsRegistry()
        collect_server(registry, self)
        collect_store(registry, self.store)
        if self._coordinator is not None:
            collect_dist(registry, self._coordinator.stats)
            registry.gauge("dist.workers",
                           "Workers currently connected").set(
                self._coordinator.worker_count())
        return registry

    def stats_doc(self) -> Dict[str, Any]:
        doc = self.stats.to_dict()
        doc.update({"queue_depth": self.queue.depth,
                    "active_jobs": self.queue.active,
                    "job_slots": self.config.job_slots,
                    "uptime_s": time.time() - self.started,
                    "address": self.config.address,
                    "store": {"hits": self.store.stats.hits,
                              "misses": self.store.stats.misses,
                              "hit_rate": self.store.stats.hit_rate}})
        if self._coordinator is not None:
            dist = self._coordinator.stats.as_dict()
            dist["workers"] = self._coordinator.worker_count()
            doc["dispatch"] = dist
        return doc

    # -- HTTP ------------------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, query, body = request
            await self._route(writer, method, path, query, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as error:  # noqa: BLE001 - connection boundary
            try:
                await self._send_json(writer, 500, {
                    "error": f"{type(error).__name__}: {error}"})
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_request(reader):
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > _MAX_BODY:
            raise ValueError("request body too large")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        return method, split.path, query, body

    async def _send(self, writer: asyncio.StreamWriter, status: int,
                    content_type: str, payload: bytes) -> None:
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, '?')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n")
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    async def _send_json(self, writer, status: int, doc: Any) -> None:
        payload = (json.dumps(doc, sort_keys=True, default=str) + "\n")
        await self._send(writer, status, "application/json",
                         payload.encode())

    async def _route(self, writer, method: str, path: str,
                     query: Dict[str, str], body: bytes) -> None:
        segments = [s for s in path.split("/") if s]
        if segments == ["healthz"]:
            return await self._send_json(writer, 200, {
                "ok": True, "uptime_s": time.time() - self.started})
        if segments == ["stats"]:
            return await self._send_json(writer, 200, self.stats_doc())
        if segments == ["metrics"]:
            registry = self.metrics_registry()
            if query.get("format") == "prom":
                return await self._send(writer, 200, "text/plain",
                                        registry.to_prometheus().encode())
            return await self._send_json(writer, 200, registry.to_json())
        if segments[:1] == ["jobs"]:
            return await self._route_jobs(writer, method, segments[1:],
                                          query, body)
        return await self._send_json(writer, 404,
                                     {"error": f"no route for {path}"})

    async def _route_jobs(self, writer, method: str, rest: List[str],
                          query: Dict[str, str], body: bytes) -> None:
        if not rest:
            if method == "POST":
                return await self._handle_submit(writer, body)
            jobs = self.queue.by_client(query.get("client"))
            return await self._send_json(writer, 200, {
                "jobs": [job.summary() for job in jobs]})
        job = self.queue.jobs.get(rest[0])
        if job is None:
            return await self._send_json(writer, 404, {
                "error": f"no such job {rest[0]!r}"})
        action = rest[1] if len(rest) > 1 else None
        if action is None:
            return await self._send_json(writer, 200, job.summary())
        if action == "cancel" and method == "POST":
            self.queue.cancel(job.id)
            self._kick.set()
            return await self._send_json(writer, 200, job.summary())
        if action == "result":
            if job.state not in (JobState.DONE, JobState.FAILED,
                                 JobState.CANCELLED):
                return await self._send_json(writer, 409, {
                    "error": f"job {job.id} is {job.state}",
                    "state": job.state})
            return await self._send_json(writer, 200, {
                "id": job.id, "state": job.state, "error": job.error,
                "warm_hit": job.warm_hit,
                "nodes_scheduled": job.nodes_scheduled,
                "result": job.result})
        if action == "events":
            start = int(query.get("from", 0) or 0)
            head = ("HTTP/1.1 200 OK\r\n"
                    "Content-Type: application/x-ndjson\r\n"
                    "Connection: close\r\n\r\n")
            writer.write(head.encode("latin-1"))
            async for line in job.events.stream(start):
                writer.write(line.encode() + b"\n")
                await writer.drain()
            return
        return await self._send_json(writer, 405, {
            "error": f"unsupported {method} on jobs/{'/'.join(rest)}"})

    async def _handle_submit(self, writer, body: bytes) -> None:
        try:
            doc = json.loads(body.decode() or "{}")
        except ValueError:
            return await self._send_json(writer, 400,
                                         {"error": "body is not JSON"})
        if not isinstance(doc, dict):
            return await self._send_json(writer, 400,
                                         {"error": "body must be an object"})
        client = str(doc.get("client", "anonymous"))
        kind = str(doc.get("kind", ""))
        spec = doc.get("spec") or {}
        priority = str(doc.get("priority", "normal"))
        try:
            job = self.submit(client, kind, spec, priority)
        except QuotaExceeded as error:
            self.stats.rejected += 1
            return await self._send_json(writer, 429,
                                         {"error": str(error)})
        except ValueError as error:
            return await self._send_json(writer, 400,
                                         {"error": str(error)})
        return await self._send_json(writer, 201, job.summary())


async def serve_forever(config: ServerConfig) -> int:
    """Run the daemon until SIGINT/SIGTERM (the CLI entry point)."""
    import signal
    _raise_fd_limit()
    app = ServeApp(config)
    await app.start()
    print(f"serving on {config.address}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:
            pass
    await stop.wait()
    await app.stop()
    return 0


def _raise_fd_limit() -> None:
    """Lift the soft fd limit to the hard one (thousands of sockets)."""
    try:
        import resource
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < hard:
            resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
    except (ImportError, ValueError, OSError):
        pass

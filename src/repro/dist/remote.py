"""Socket work dispatch: a coordinator leasing DAG nodes to workers.

One :class:`SocketCoordinator` listens on a unix socket (or TCP
``host:port``); any number of ``repro worker`` processes dial in, say
how many executor slots they have, and receive *leases* — batches of
ready tasks, planned deterministically by the scheduler up front
(Batch-Schedule-Execute: content-addressed keys make execution
conflict-free, so batches need no coordination beyond the lease itself).
Workers execute through the shared artifact store, so results travel as
small summaries while bulk data stays on disk.

Wire protocol — one JSON object per line, both directions:

====================  =====================================================
worker → coordinator  ``{"op": "hello", "worker": str, "slots": int}``
                      ``{"op": "started", "task": id}``
                      ``{"op": "done", "task": id, "result": object,
                      "duration": float}``
                      ``{"op": "failed", "task": id, "exc_type": str,
                      "error": str}``
                      ``{"op": "heartbeat"}``
coordinator → worker  ``{"op": "welcome", "worker": str,
                      "heartbeat": float}``
                      ``{"op": "lease", "lease": int, "tasks":
                      [{"id", "fn", "args": list}]}``
                      ``{"op": "revoke", "tasks": [ids]}``
                      ``{"op": "shutdown"}``
====================  =====================================================

Task callables cross the wire by *name* (``module:qualname``, restricted
to the ``repro`` package on the worker side); their arguments (spec
dicts of scalars and store keys) and results (small summary dicts)
cross as plain JSON. Nothing a peer sends is decoded into anything but
JSON data, so a peer that reaches the port (TCP is an accepted
transport) can at most run a ``repro`` task function on JSON data. A
value that JSON would alter (a tuple, a non-string key, NaN) is refused
before it is sent, never silently converted. Bulk artifacts never cross
the socket: each side loads them from its own view of the store.

Fault tolerance reuses the scheduler's machinery end to end:

- a worker that stops heartbeating past the lease timeout is declared
  dead; its incomplete leased tasks are requeued at the front
  (idempotent re-execution — the store absorbs duplicates);
- a task requeued too many times (it keeps killing workers) surfaces as
  :class:`WorkerLost`, which degrades the run to serial in-process
  execution, exactly like ``BrokenProcessPool`` always has;
- an idle worker *steals* leased-but-unstarted tasks from the most
  loaded straggler (the coordinator revokes and re-leases them);
- an empty fleet past the join grace period likewise degrades the run
  rather than hanging it.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import uuid
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.dist.dispatch import DispatchBackend, DispatchStats, WorkerLost

#: A task that outlives this many leases is poison (it kills whatever
#: worker picks it up); surface it as WorkerLost instead of looping.
MAX_REQUEUES = 3


class RemoteTaskError(RuntimeError):
    """A task raised on a worker; carries the original exception type
    name so retry/failure reports stay readable."""

    def __init__(self, exc_type: str, message: str):
        self.exc_type = exc_type
        super().__init__(f"{exc_type}: {message}" if exc_type else message)


def parse_address(address: str) -> Tuple[int, Any]:
    """``host:port`` → TCP, anything else → unix socket path."""
    if ":" in address and not address.startswith(("/", ".")):
        host, port = address.rsplit(":", 1)
        return socket.AF_INET, (host or "127.0.0.1", int(port))
    return socket.AF_UNIX, address


def plain_json(value: Any, what: str) -> Any:
    """``value`` itself, if a JSON round trip returns it unchanged.

    Raises ValueError otherwise: a tuple would arrive as a list, an int
    key as a string, and an arbitrary object not at all.
    """
    try:
        same = json.loads(json.dumps(value)) == value
    except (TypeError, ValueError) as error:
        raise ValueError(f"{what} is not plain JSON: {error}") from None
    if not same:
        raise ValueError(f"{what} does not survive a JSON round trip "
                         f"unchanged: {value!r}")
    return value


def encode_args(args: Tuple) -> List[Any]:
    """A task argument tuple as its JSON wire list."""
    return plain_json(list(args), "task args")


def decode_args(doc: Any) -> Tuple:
    """Inverse of :func:`encode_args`; anything but a list is refused."""
    if not isinstance(doc, list):
        raise TypeError(f"task args must be a JSON list, "
                        f"not {type(doc).__name__}")
    return tuple(doc)


def task_fn_name(fn) -> str:
    """``module:qualname`` wire name for a task callable."""
    return f"{fn.__module__}:{fn.__qualname__}"


def send_line(sock: socket.socket, lock: threading.Lock,
              doc: Dict[str, Any]) -> None:
    """Write one JSON line to ``sock`` atomically under ``lock``."""
    data = (json.dumps(doc, sort_keys=True) + "\n").encode()
    with lock:
        sock.sendall(data)


class _Worker:
    """Coordinator-side view of one connected worker."""

    def __init__(self, worker_id: str, sock: socket.socket, slots: int):
        self.id = worker_id
        self.sock = sock
        self.send_lock = threading.Lock()
        self.slots = max(1, slots)
        self.last_seen = time.monotonic()
        self.leased: set = set()     # task ids leased to this worker
        self.started: set = set()    # subset the worker reported started
        self.alive = True

    @property
    def unstarted(self) -> set:
        return self.leased - self.started


class SocketCoordinator:
    """Owns the listening socket, the worker fleet, and the ready queue.

    Shareable: several schedulers (serve jobs) can dispatch through one
    coordinator concurrently — handles are namespaced per backend, so
    two jobs scheduling the same DAG node id never collide.
    """

    def __init__(self, address: str, batch: int = 4,
                 lease_timeout: float = 10.0, grace: float = 30.0):
        self.address = address
        self.batch = max(1, batch)
        self.lease_timeout = lease_timeout
        #: How long submit-time waits for a first worker before the run
        #: is declared WorkerLost (and degrades to serial).
        self.grace = grace
        self.stats = DispatchStats()
        self._family, self._addr = parse_address(address)
        self._lock = threading.Lock()
        self._completed = threading.Condition(self._lock)
        self._workers: Dict[str, _Worker] = {}
        self._ready: deque = deque()           # task ids awaiting lease
        self._tasks: Dict[str, Dict[str, Any]] = {}
        self._results: Dict[str, Tuple] = {}
        self._lease_seq = 0
        self._started_at = time.monotonic()
        self._last_worker_seen: Optional[float] = None
        self._closing = False
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self._listener is not None:
            return
        listener = socket.socket(self._family, socket.SOCK_STREAM)
        if self._family == socket.AF_UNIX:
            Path(self._addr).parent.mkdir(parents=True, exist_ok=True)
            try:
                os.unlink(self._addr)
            except OSError:
                pass
        else:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(self._addr)
        listener.listen(64)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="dist-accept", daemon=True)
        self._accept_thread.start()

    def stop(self) -> None:
        with self._lock:
            self._closing = True
            workers = list(self._workers.values())
        for worker in workers:
            try:
                send_line(worker.sock, worker.send_lock, {"op": "shutdown"})
            except OSError:
                pass
            try:
                worker.sock.close()
            except OSError:
                pass
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        if self._family == socket.AF_UNIX:
            try:
                os.unlink(self._addr)
            except OSError:
                pass

    # -- connection handling --------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _peer = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(target=self._serve_worker, args=(sock,),
                             name="dist-worker-conn", daemon=True).start()

    def _serve_worker(self, sock: socket.socket) -> None:
        worker: Optional[_Worker] = None
        try:
            reader = sock.makefile("r", encoding="utf-8")
            for line in reader:
                try:
                    msg = json.loads(line)
                except ValueError:
                    continue
                op = msg.get("op")
                if op == "hello":
                    name = str(msg.get("worker") or "worker")
                    worker_id = f"{name}-{uuid.uuid4().hex[:6]}"
                    worker = _Worker(worker_id, sock,
                                     int(msg.get("slots", 1)))
                    with self._lock:
                        self._workers[worker_id] = worker
                        self._last_worker_seen = time.monotonic()
                        self.stats.workers_joined += 1
                    send_line(sock, worker.send_lock,
                              {"op": "welcome", "worker": worker_id,
                               "heartbeat": self.lease_timeout / 3.0})
                    self._fill()
                elif worker is None:
                    continue  # protocol violation: not introduced yet
                elif op == "heartbeat":
                    with self._lock:
                        worker.last_seen = time.monotonic()
                elif op == "started":
                    with self._lock:
                        worker.last_seen = time.monotonic()
                        if msg.get("task") in worker.leased:
                            worker.started.add(msg["task"])
                elif op in ("done", "failed"):
                    self._finish(worker, msg)
        except (OSError, ValueError):
            pass
        finally:
            if worker is not None:
                self._drop_worker(worker, "connection closed")
            try:
                sock.close()
            except OSError:
                pass

    def _finish(self, worker: _Worker, msg: Dict[str, Any]) -> None:
        task_id = msg.get("task")
        with self._lock:
            worker.last_seen = time.monotonic()
            worker.leased.discard(task_id)
            worker.started.discard(task_id)
            if task_id not in self._tasks:
                return  # stale result for a revoked/finished task
            if task_id in self._results:
                return  # a twin already answered (steal race) — first wins
            if msg["op"] == "done":
                self._results[task_id] = (
                    "ok", msg.get("result"),
                    float(msg.get("duration", 0.0)))
                self.stats.completed += 1
            else:
                self._results[task_id] = (
                    "err", str(msg.get("exc_type", "")),
                    str(msg.get("error", "")))
                self.stats.failed += 1
            self._completed.notify_all()
        self._fill()

    def _drop_worker(self, worker: _Worker, reason: str) -> None:
        with self._lock:
            if not worker.alive:
                return
            worker.alive = False
            self._workers.pop(worker.id, None)
            incomplete = [tid for tid in worker.leased
                          if tid in self._tasks
                          and tid not in self._results]
            worker.leased.clear()
            worker.started.clear()
            if not self._closing:
                self.stats.workers_lost += 1
                self._requeue(incomplete)
        if not self._closing:
            self._fill()

    def _requeue(self, task_ids: List[str]) -> None:
        """Put a dead/straggling worker's tasks back. Lock held."""
        for tid in reversed(task_ids):
            task = self._tasks.get(tid)
            if task is None:
                continue
            task["requeues"] += 1
            self.stats.reassigned += 1
            if task["requeues"] > MAX_REQUEUES:
                self._results[tid] = (
                    "lost", f"task requeued {task['requeues']} times "
                            f"(keeps losing its worker)")
                self._completed.notify_all()
            else:
                self._ready.appendleft(tid)

    # -- leasing / stealing / expiry ------------------------------------------

    def _fill(self) -> None:
        """Lease ready tasks to free slots, batch-at-a-time."""
        grants: List[Tuple[_Worker, List[Dict[str, Any]], int]] = []
        with self._lock:
            for worker in self._workers.values():
                while self._ready:
                    free = worker.slots - len(worker.unstarted)
                    if free <= 0:
                        break
                    take = min(self.batch, free, len(self._ready))
                    batch = []
                    for _ in range(take):
                        tid = self._ready.popleft()
                        worker.leased.add(tid)
                        task = self._tasks[tid]
                        batch.append({"id": tid, "fn": task["fn"],
                                      "args": task["args"]})
                    self._lease_seq += 1
                    self.stats.leases += 1
                    grants.append((worker, batch, self._lease_seq))
        for worker, batch, lease_id in grants:
            try:
                send_line(worker.sock, worker.send_lock,
                          {"op": "lease", "lease": lease_id, "tasks": batch})
            except OSError:
                self._drop_worker(worker, "lease send failed")

    def sweep(self) -> None:
        """Periodic maintenance: expire silent workers, steal from
        stragglers, declare the run lost if the fleet never showed up.

        Driven by the dispatch backend's ``wait()`` — no timer thread.
        """
        now = time.monotonic()
        expired: List[_Worker] = []
        steal_from: Optional[_Worker] = None
        stolen: List[str] = []
        with self._lock:
            for worker in list(self._workers.values()):
                if now - worker.last_seen > self.lease_timeout:
                    expired.append(worker)
            live = [w for w in self._workers.values() if w not in expired]
            # Steal: someone is idle, the queue is dry, and a straggler
            # sits on more unstarted work than it has started.
            if live and not self._ready:
                idle = [w for w in live if not w.leased]
                stragglers = sorted((w for w in live if len(w.unstarted) > 1),
                                    key=lambda w: -len(w.unstarted))
                if idle and stragglers:
                    straggler = stragglers[0]
                    victims = sorted(straggler.unstarted)
                    stolen = victims[:max(1, len(victims) // 2)]
                    for tid in stolen:
                        straggler.leased.discard(tid)
                    self._ready.extend(stolen)
                    self.stats.steals += len(stolen)
                    steal_from = straggler
            # Empty fleet past the grace period: every pending task is
            # going nowhere — surface them as lost so the run degrades.
            if not self._workers and not self._closing:
                anchor = self._last_worker_seen or self._started_at
                if now - anchor > self.grace:
                    pending = [tid for tid in self._tasks
                               if tid not in self._results]
                    for tid in pending:
                        self._results[tid] = (
                            "lost", "no workers joined within "
                                    f"{self.grace:.0f}s grace")
                    if pending:
                        self._completed.notify_all()
        for worker in expired:
            self.stats.expiries += 1
            try:
                worker.sock.close()
            except OSError:
                pass
            self._drop_worker(worker, "lease expired (no heartbeat)")
        if steal_from is not None and steal_from.alive:
            try:
                send_line(steal_from.sock, steal_from.send_lock,
                          {"op": "revoke", "tasks": stolen})
            except OSError:
                self._drop_worker(steal_from, "revoke send failed")
        if stolen or expired:
            self._fill()

    # -- dispatch-facing API --------------------------------------------------

    def submit(self, task_id: str, fn_name: str, args: List[Any]) -> None:
        with self._lock:
            self._tasks[task_id] = {"fn": fn_name, "args": args,
                                    "requeues": 0}
            self._results.pop(task_id, None)
            self._ready.append(task_id)
            self.stats.submitted += 1
        self._fill()

    def wait_any(self, task_ids: Sequence[str], timeout: float) -> List[str]:
        self.sweep()
        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                done = [tid for tid in task_ids if tid in self._results]
                if done:
                    return done
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._completed.wait(remaining)

    def take_result(self, task_id: str) -> Tuple:
        with self._lock:
            outcome = self._results.pop(task_id)
            self._tasks.pop(task_id, None)
        return outcome

    def cancel(self, task_id: str) -> bool:
        """True only if the task is still unleased (guaranteed unrun)."""
        with self._lock:
            if task_id in self._ready:
                self._ready.remove(task_id)
                self._tasks.pop(task_id, None)
                self._results[task_id] = ("lost", "cancelled")
                self._completed.notify_all()
                return True
        return False

    def forget(self, task_ids: Sequence[str]) -> None:
        """Abandon tasks a closing backend no longer wants."""
        with self._lock:
            for tid in task_ids:
                self._tasks.pop(tid, None)
                self._results.pop(tid, None)
                try:
                    self._ready.remove(tid)
                except ValueError:
                    pass

    def total_slots(self) -> int:
        with self._lock:
            return sum(w.slots for w in self._workers.values())

    def worker_count(self) -> int:
        with self._lock:
            return len(self._workers)


class SocketDispatchBackend(DispatchBackend):
    """The scheduler-facing facade over a :class:`SocketCoordinator`.

    Constructed from an address (owns a fresh coordinator for the run)
    or an already-started coordinator (shared across runs — the serve
    daemon's mode). Handles are namespaced task ids, so sharing is safe.
    """

    name = "workers"

    def __init__(self, coordinator, jobs: int = 0, batch: int = 4,
                 lease_timeout: float = 10.0, grace: float = 30.0):
        super().__init__()
        if isinstance(coordinator, SocketCoordinator):
            self._coordinator = coordinator
            self._own = False
        else:
            self._coordinator = SocketCoordinator(
                str(coordinator), batch=batch,
                lease_timeout=lease_timeout, grace=grace)
            self._own = True
        self.jobs = int(jobs)
        self._nonce = uuid.uuid4().hex[:8]
        self.stats = self._coordinator.stats

    @property
    def coordinator(self) -> SocketCoordinator:
        return self._coordinator

    def open(self) -> None:
        self._coordinator.start()

    def capacity(self) -> int:
        # Elastic: the whole fleet's slots (tasks queue at the
        # coordinator while workers are still dialing in). ``jobs``
        # caps it when set, so one run can be throttled below fleet
        # size; floor 1 keeps the scheduler submitting pre-join.
        slots = self._coordinator.total_slots()
        if self.jobs > 0 and slots > self.jobs:
            slots = self.jobs
        return max(1, slots)

    def submit(self, task) -> str:
        handle = f"{self._nonce}/{task.id}"
        self._coordinator.submit(handle, task_fn_name(task.fn),
                                 encode_args(tuple(task.args)))
        return handle

    def wait(self, handles: Sequence[str], timeout: float) -> List[str]:
        return self._coordinator.wait_any(list(handles), timeout)

    def result(self, handle: str) -> Tuple[Any, float]:
        outcome = self._coordinator.take_result(handle)
        if outcome[0] == "ok":
            return outcome[1], outcome[2]
        if outcome[0] == "err":
            raise RemoteTaskError(outcome[1], outcome[2])
        raise WorkerLost(outcome[1])

    def cancel(self, handle: str) -> bool:
        return self._coordinator.cancel(handle)

    def close(self, pending: Sequence[str]) -> None:
        self._coordinator.forget(list(pending))
        if self._own:
            self._coordinator.stop()

"""``repro worker`` — a leased-task executor joining a coordinator.

One worker process dials the coordinator address, introduces itself
with its slot count, and then executes whatever task batches it is
leased, publishing bulk results through the shared artifact store
(``--store`` overrides the store root baked into task specs, so hosts
with different mount points can share one store). The main thread owns
the socket (reads leases, sends heartbeats); ``--slots`` executor
threads run tasks.

Task callables arrive by name and are resolved strictly inside the
``repro`` package — a coordinator cannot make a worker import or run
anything else. Workers are stateless and restart-cheap: killing one
mid-task loses nothing (the coordinator re-leases, the store makes
re-execution idempotent), and a worker that loses its coordinator just
redials until a new run starts (``--once`` exits instead, for tests and
bounded CI jobs).
"""

from __future__ import annotations

import importlib
import json
import queue
import socket
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro.dist.remote import (
    decode_args, parse_address, plain_json, send_line,
)


def resolve_task_fn(name: str):
    """``module:qualname`` → callable, restricted to the repro package."""
    module_name, _, qualname = name.partition(":")
    if not (module_name == "repro" or module_name.startswith("repro.")):
        raise ValueError(f"refusing to import task fn outside repro: {name!r}")
    if not qualname:
        raise ValueError(f"malformed task fn name: {name!r}")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise ValueError(f"task fn {name!r} is not callable")
    return obj


def _rewrite_store(args: Tuple, store_dir: Optional[str]) -> Tuple:
    """Point task specs at this host's view of the shared store."""
    if store_dir is None:
        return args
    return tuple(dict(arg, cache_dir=store_dir)
                 if isinstance(arg, dict) and "cache_dir" in arg else arg
                 for arg in args)


class Worker:
    """One coordinator connection plus its executor threads."""

    def __init__(self, connect: str, store_dir: Optional[str] = None,
                 slots: int = 1, name: Optional[str] = None,
                 quiet: bool = False):
        self.connect = connect
        self.store_dir = store_dir
        self.slots = max(1, int(slots))
        self.name = name or f"{socket.gethostname()}.{threading.get_ident()}"
        self.quiet = quiet
        self.tasks_run = 0
        self._sock: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._queue: "queue.Queue[Optional[Dict[str, Any]]]" = queue.Queue()
        self._revoked: set = set()
        self._revoked_lock = threading.Lock()
        self._stop = threading.Event()

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(f"[worker {self.name}] {message}", flush=True)

    # -- executor threads -----------------------------------------------------

    def _execute(self, task: Dict[str, Any]) -> None:
        task_id = task["id"]
        try:
            send_line(self._sock, self._send_lock,
                      {"op": "started", "task": task_id})
            fn = resolve_task_fn(task["fn"])
            args = _rewrite_store(decode_args(task.get("args")),
                                  self.store_dir)
            start = time.perf_counter()
            result = plain_json(fn(*args), "task result")
            duration = time.perf_counter() - start
            send_line(self._sock, self._send_lock,
                      {"op": "done", "task": task_id,
                       "result": result, "duration": duration})
            self.tasks_run += 1
        except OSError:
            raise  # connection gone; the run loop redials
        except Exception as error:  # noqa: BLE001 - task boundary
            send_line(self._sock, self._send_lock,
                      {"op": "failed", "task": task_id,
                       "exc_type": type(error).__name__,
                       "error": str(error)})

    def _executor_loop(self) -> None:
        while not self._stop.is_set():
            try:
                task = self._queue.get(timeout=0.2)
            except queue.Empty:
                continue
            if task is None:
                return
            with self._revoked_lock:
                if task["id"] in self._revoked:
                    self._revoked.discard(task["id"])
                    continue
            try:
                self._execute(task)
            except OSError:
                return

    # -- connection loop ------------------------------------------------------

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._stop.is_set():
            time.sleep(interval)
            try:
                send_line(self._sock, self._send_lock, {"op": "heartbeat"})
            except OSError:
                return

    def _serve_connection(self, sock: socket.socket) -> None:
        self._sock = sock
        self._stop.clear()
        with self._revoked_lock:
            self._revoked.clear()
        send_line(sock, self._send_lock,
                  {"op": "hello", "worker": self.name, "slots": self.slots})
        threads = [threading.Thread(target=self._executor_loop,
                                    name=f"worker-exec-{i}", daemon=True)
                   for i in range(self.slots)]
        for thread in threads:
            thread.start()
        heartbeat_thread: Optional[threading.Thread] = None
        try:
            reader = sock.makefile("r", encoding="utf-8")
            for line in reader:
                try:
                    msg = json.loads(line)
                except ValueError:
                    continue
                op = msg.get("op")
                if op == "welcome":
                    interval = float(msg.get("heartbeat", 2.0))
                    heartbeat_thread = threading.Thread(
                        target=self._heartbeat_loop, args=(interval,),
                        name="worker-heartbeat", daemon=True)
                    heartbeat_thread.start()
                    self._log(f"joined as {msg.get('worker')}")
                elif op == "lease":
                    for task in msg.get("tasks", []):
                        self._queue.put(task)
                elif op == "revoke":
                    with self._revoked_lock:
                        self._revoked.update(msg.get("tasks", []))
                elif op == "shutdown":
                    return
        except OSError:
            pass
        finally:
            self._stop.set()
            # Drain: executors exit on the stop flag; unstarted leased
            # tasks are simply dropped — the coordinator re-leases them.
            while True:
                try:
                    self._queue.get_nowait()
                except queue.Empty:
                    break
            try:
                sock.close()
            except OSError:
                pass
            self._sock = None

    def run(self, once: bool = False, dial_timeout: Optional[float] = None,
            retry_interval: float = 0.5) -> int:
        """Dial, serve, redial. Returns tasks executed (for tests)."""
        family, addr = parse_address(self.connect)
        deadline = (time.monotonic() + dial_timeout) if dial_timeout else None
        while True:
            sock = socket.socket(family, socket.SOCK_STREAM)
            try:
                sock.connect(addr)
            except OSError:
                sock.close()
                if deadline is not None and time.monotonic() > deadline:
                    self._log("coordinator never appeared; giving up")
                    return self.tasks_run
                if once and deadline is None:
                    return self.tasks_run
                time.sleep(retry_interval)
                continue
            self._log(f"connected to {self.connect}")
            self._serve_connection(sock)
            self._log("connection closed")
            if once:
                return self.tasks_run


def main(argv=None) -> int:
    """CLI entry: ``repro worker --connect ADDR [--store DIR] ...``"""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="Join a dispatch coordinator and execute leased "
                    "DAG nodes through the shared artifact store.")
    parser.add_argument("--connect", required=True,
                        help="coordinator address: unix socket path or "
                             "host:port")
    parser.add_argument("--store", default=None,
                        help="artifact store root on this host "
                             "(overrides the root baked into task specs)")
    parser.add_argument("--slots", type=int, default=1,
                        help="concurrent executor threads (default 1; "
                             "run one worker process per core instead "
                             "for CPU-bound grids)")
    parser.add_argument("--name", default=None, help="worker display name")
    parser.add_argument("--once", action="store_true",
                        help="exit when the coordinator goes away "
                             "instead of redialing")
    parser.add_argument("--dial-timeout", type=float, default=None,
                        help="give up if no coordinator appears within "
                             "this many seconds")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    worker = Worker(args.connect, store_dir=args.store, slots=args.slots,
                    name=args.name, quiet=args.quiet)
    try:
        worker.run(once=args.once, dial_timeout=args.dial_timeout)
    except KeyboardInterrupt:
        pass
    return 0

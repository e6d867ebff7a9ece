"""Run ledger: a JSONL journal of DAG node completion.

A killed ``experiments``/``limit-study`` run used to leave nothing
behind but whatever artifacts happened to land in the store; restarting
meant re-planning the whole grid and trusting warm-path pruning to skip
finished work. The ledger makes the run itself durable: a header line
records everything needed to rebuild the task graph (runner parameters,
store location and backend, code-version salt, the serialized workload),
then one line per node completion as the scheduler reports it, then a
completion marker. ``repro resume <ledger>`` replays the file and
schedules only what is still missing.

The file is a :class:`~repro.exec.journal.Journal` of kind ``run``
(format, torn-line handling and durability are described there);
repeated records for the same node are idempotent (last status wins).

The durability invariant (SNIPPETS.md, hypergraph): *if a step can be
skipped on resume, the step must have durable outputs.* The ledger's
``done`` records are therefore **advisory** — resume re-probes the
artifact store and re-runs any node whose durable outputs are missing,
and :func:`assert_skippable` refuses outright to mark a node with no
durable outputs (e.g. a ``check`` node) skippable, no matter what the
journal says.
"""

from __future__ import annotations

import os
import time
import uuid
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.exec.journal import Journal, JournalError, replay

LEDGER_VERSION = 1

#: Node statuses worth journaling. ``submit``/``retry`` events are
#: progress noise; only terminal-per-attempt outcomes matter to resume.
_TERMINAL = ("done", "failed", "skipped")

#: Unusable ledger: missing header, version skew, or an attempt to skip
#: a node with no durable outputs.
LedgerError = JournalError


class RunLedger(Journal):
    """Append-only journal for one scheduler run. ``append_to`` (the
    resume path) reopens an existing ledger for appending."""

    # -- creation / replay ----------------------------------------------------

    @classmethod
    def create(cls, path: os.PathLike,
               workload: Dict[str, Any],
               runner_params: Dict[str, Any],
               salt: str,
               cache_dir: Optional[str],
               store_backend: str = "dir",
               extra: Optional[Dict[str, Any]] = None) -> "RunLedger":
        """Start a fresh ledger (truncating any previous file at ``path``)."""
        header = {
            "type": "run",
            "version": LEDGER_VERSION,
            "run_id": uuid.uuid4().hex[:12],
            "created": time.time(),
            "salt": salt,
            "cache_dir": cache_dir,
            "store_backend": store_backend,
            "runner": dict(runner_params),
            "workload": workload,
        }
        if extra:
            header.update(extra)
        return cls.start(path, header)

    @classmethod
    def load(cls, path: os.PathLike) -> Tuple[Dict[str, Any],
                                              Dict[str, str], bool]:
        """Replay a ledger: ``(header, node_status, completed)``.

        ``node_status`` maps task id → last journaled status.
        """
        header, records = replay(path, "run", LEDGER_VERSION)
        status: Dict[str, str] = {}
        completed = False
        for record in records:
            rtype = record.get("type")
            if rtype == "node" and record.get("task"):
                if record.get("status") in _TERMINAL:
                    status[record["task"]] = record["status"]
            elif rtype == "complete":
                completed = True
        return header, status, completed

    # -- journaling -----------------------------------------------------------

    def record(self, task_id: str, stage: Optional[str],
               status: str) -> None:
        self.append({"type": "node", "task": task_id, "stage": stage,
                     "status": status, "t": time.time()})

    def record_skipped_durable(self, task_ids: Iterable[str]) -> None:
        """Journal nodes resume pruned because their artifacts exist."""
        for task_id in task_ids:
            self.append({"type": "node", "task": task_id, "stage": None,
                         "status": "done", "t": time.time(),
                         "resumed": True})

    def complete(self, results: int, failures: int) -> None:
        self.append({"type": "complete", "t": time.time(),
                     "results": results, "failures": failures})

    # -- scheduler integration ------------------------------------------------

    def sink(self, inner: Optional[Callable[[Dict[str, Any]], None]] = None
             ) -> Callable[[Dict[str, Any]], None]:
        """An ``on_event`` callback that journals terminal node events
        and forwards everything to ``inner`` (the progress printer or a
        serve event log)."""

        def on_event(event: Dict[str, Any]) -> None:
            if event.get("kind") in _TERMINAL and event.get("task"):
                self.record(event["task"], event.get("stage"), event["kind"])
            if inner is not None:
                inner(event)

        return on_event


def assert_skippable(tasks, durable_ids: Iterable[str],
                     skip_ids: Iterable[str]) -> None:
    """The durability lint: every node being skipped must be durable.

    ``durable_ids`` is the set of task ids whose outputs live in the
    artifact store (``warm.task_artifact`` resolved an address for
    them); anything else — ``check`` nodes, unrecognized stages — has no
    durable output, so skipping it would silently drop its effect.
    Raises :class:`LedgerError` naming the offenders.
    """
    durable = set(durable_ids)
    by_id = {task.id: task for task in tasks}
    offenders = []
    for task_id in skip_ids:
        if task_id in durable:
            continue
        stage = by_id[task_id].stage if task_id in by_id else "?"
        offenders.append(f"{task_id} (stage {stage})")
    if offenders:
        raise LedgerError(
            "refusing to skip nodes with no durable outputs: "
            + ", ".join(sorted(offenders))
            + " — a step skippable on resume must have durable outputs")

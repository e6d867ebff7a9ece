"""Durable, distributed execution.

Two layers that scale the execution engine past one process and one
uninterrupted run, both over the one artifact store of
:mod:`repro.exec.store`:

- :mod:`repro.dist.ledger` — a :class:`~repro.dist.ledger.RunLedger`
  (a :class:`~repro.exec.journal.Journal` of kind ``run``) journaling
  DAG node completion so a killed ``experiments``/
  ``limit-study`` run resumes with ``repro resume``, scheduling only
  nodes whose durable outputs are missing.
- :mod:`repro.dist.dispatch` / :mod:`repro.dist.remote` /
  :mod:`repro.dist.worker` — the scheduler's executor abstracted behind
  :class:`~repro.dist.dispatch.DispatchBackend`: a local process pool
  (today's behavior, bit for bit) or a socket coordinator that leases
  batches of ready nodes to ``repro worker`` processes sharing the
  artifact store, with heartbeats, lease expiry, and work stealing.

See ``docs/distributed.md`` for the design, the wire protocol, and the
durability invariant the resume path enforces.
"""

from repro.dist.dispatch import (DispatchBackend, DispatchStats,
                                 LocalPoolBackend, WorkerLost)
from repro.dist.ledger import LedgerError, RunLedger

__all__ = [
    "DispatchBackend",
    "DispatchStats",
    "LocalPoolBackend",
    "WorkerLost",
    "LedgerError",
    "RunLedger",
]

"""Simulation-as-a-service: the ``repro serve`` daemon.

Everything else in the repository is a batch CLI that pays cold start —
kernel build check, program/plan recompute, store round-trips — on every
invocation. This package keeps one process alive and turns experiment
execution into a job API over a local socket:

* :mod:`~repro.serve.queue` — multi-tenant job queue: priority classes,
  per-client quotas (max queued + max running), cancellation, and a
  JSONL journal so queued jobs survive a daemon restart;
* :mod:`~repro.serve.jobs` — job-kind registry (experiment, bench,
  fuzz, limit-study): spec validation plus the blocking execution
  functions the dispatcher runs in worker threads;
* :mod:`~repro.serve.warm` — the warm path: probe the content-addressed
  artifact store with exactly the keys the compute paths would use and
  prune every DAG node whose artifact already exists, so a repeated
  experiment schedules zero work;
* :mod:`~repro.serve.server` — the asyncio daemon: HTTP job API,
  per-job telemetry-shaped event streams (NDJSON), a process pool
  shared across jobs, Prometheus metrics;
* :mod:`~repro.serve.client` — a minimal dependency-free HTTP client;
* :mod:`~repro.serve.loadtest` — concurrent-client load harness and
  the ``repro loadtest`` CI gate.

See ``docs/serving.md`` for the API schema and the warm-path contract.
"""

from .queue import (Job, JobQueue, JobState, PRIORITIES, Quota,
                    QuotaExceeded)
from .server import ServeApp, ServerConfig

__all__ = ["Job", "JobQueue", "JobState", "PRIORITIES", "Quota",
           "QuotaExceeded", "ServeApp", "ServerConfig"]

"""Unified metrics registry: namespaced counters, gauges, histograms.

Every subsystem that counts something — the timing core's
:class:`~repro.pipeline.stats.RunStats` and
:class:`~repro.pipeline.activity.ActivityCounters`, the cache/TLB
hierarchy, the branch unit, store sets, the artifact store, the DAG
scheduler — can be *harvested* into one :class:`MetricsRegistry` through
the ``collect_*`` adapters below. Collection is post-hoc: the simulator
keeps its existing plain-integer counters on the hot path (so C-kernel
eligibility and the golden matrix are untouched) and the registry reads
them out after a run. See ``docs/observability.md`` for the namespace
conventions and the export schema.

Registries support snapshot/delta semantics (:meth:`MetricsRegistry.
snapshot` / :meth:`MetricsRegistry.delta`) and two exporters: a JSON
document (``{"schema": 1, "metrics": [...]}``) and the Prometheus text
exposition format. ``repro metrics`` is the CLI frontend.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence

#: Version of the ``to_json``/``validate_metrics`` document schema.
METRICS_SCHEMA = 1

#: Default histogram bucket upper bounds (powers of two, cycles/events).
DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

_NAME_ALLOWED = set("abcdefghijklmnopqrstuvwxyz0123456789_.")


class MetricsError(ValueError):
    """An invalid metric name, kind clash, or malformed export document."""


def _check_name(name: str) -> str:
    """Validate a dotted metric name (``namespace.metric``)."""
    if not name or name[0] == "." or name[-1] == ".":
        raise MetricsError(f"invalid metric name {name!r}")
    if not set(name) <= _NAME_ALLOWED:
        raise MetricsError(
            f"invalid metric name {name!r} "
            f"(lowercase letters, digits, '_' and '.' only)")
    return name


class Counter:
    """A monotonically increasing count of events."""

    kind = "counter"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise MetricsError(
                f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        """Export entry for the JSON document."""
        return {"name": self.name, "kind": self.kind, "help": self.help,
                "value": self.value}


class Gauge:
    """A point-in-time value that may go up or down."""

    kind = "gauge"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)

    def to_dict(self) -> Dict[str, Any]:
        """Export entry for the JSON document."""
        return {"name": self.name, "kind": self.kind, "help": self.help,
                "value": self.value}


class Histogram:
    """A distribution over fixed, cumulative-style buckets.

    ``buckets`` holds the inclusive upper bound of each bin; observations
    above the last bound land in the implicit ``+Inf`` bin. Counts are
    stored per-bin and cumulated at export time (the Prometheus
    convention).
    """

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise MetricsError(
                f"histogram {name}: buckets must be non-empty and sorted")
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> List[int]:
        """Per-bucket cumulative counts, ending with the total."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def to_dict(self) -> Dict[str, Any]:
        """Export entry for the JSON document."""
        return {"name": self.name, "kind": self.kind, "help": self.help,
                "buckets": list(self.buckets),
                "counts": list(self.counts),
                "sum": self.sum, "count": self.count}


class MetricsRegistry:
    """A namespace of metrics with snapshot/delta and export support."""

    def __init__(self):
        self._metrics: Dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str):
        """The registered metric object, or ``None``."""
        return self._metrics.get(name)

    def _register(self, cls, name: str, help: str, **kwargs):
        _check_name(name)
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricsError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}")
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Register (or fetch) a counter."""
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Register (or fetch) a gauge."""
        return self._register(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Register (or fetch) a histogram."""
        return self._register(Histogram, name, help, buckets=buckets)

    # -- snapshot / delta -----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Freeze current values: ``{name: value-or-(sum, count)}``."""
        snap: Dict[str, Any] = {}
        for name, metric in self._metrics.items():
            if metric.kind == "histogram":
                snap[name] = (metric.sum, metric.count)
            else:
                snap[name] = metric.value
        return snap

    def delta(self, since: Dict[str, Any]) -> Dict[str, Any]:
        """Change of every metric relative to a :meth:`snapshot`.

        Metrics registered after the snapshot diff against zero; gauges
        report their raw difference (which may be negative).
        """
        out: Dict[str, Any] = {}
        for name, metric in self._metrics.items():
            if metric.kind == "histogram":
                base_sum, base_count = since.get(name, (0.0, 0))
                out[name] = (metric.sum - base_sum,
                             metric.count - base_count)
            else:
                out[name] = metric.value - since.get(name, 0)
        return out

    # -- exporters ------------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """The JSON export document (see ``docs/observability.md``)."""
        return {"schema": METRICS_SCHEMA,
                "metrics": [self._metrics[name].to_dict()
                            for name in sorted(self._metrics)]}

    def to_prometheus(self) -> str:
        """Prometheus text exposition (dots become underscores)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            flat = name.replace(".", "_")
            if metric.help:
                lines.append(f"# HELP {flat} {metric.help}")
            lines.append(f"# TYPE {flat} {metric.kind}")
            if metric.kind == "histogram":
                cumulative = metric.cumulative()
                for bound, count in zip(metric.buckets, cumulative):
                    le = _format_value(bound)
                    lines.append(f'{flat}_bucket{{le="{le}"}} {count}')
                lines.append(f'{flat}_bucket{{le="+Inf"}} {cumulative[-1]}')
                lines.append(f"{flat}_sum {_format_value(metric.sum)}")
                lines.append(f"{flat}_count {metric.count}")
            else:
                lines.append(f"{flat} {_format_value(metric.value)}")
        return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    """Integral floats render without a trailing ``.0``."""
    if isinstance(value, float) and math.isfinite(value) \
            and value == int(value):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def validate_metrics(doc: Any) -> int:
    """Validate a :meth:`MetricsRegistry.to_json` document.

    Returns the number of metrics; raises :class:`MetricsError` on any
    deviation from the documented schema.
    """
    if not isinstance(doc, dict):
        raise MetricsError("metrics document must be a JSON object")
    if doc.get("schema") != METRICS_SCHEMA:
        raise MetricsError(
            f"unsupported metrics schema {doc.get('schema')!r} "
            f"(expected {METRICS_SCHEMA})")
    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        raise MetricsError("'metrics' must be a list")
    seen = set()
    for i, entry in enumerate(metrics):
        if not isinstance(entry, dict):
            raise MetricsError(f"metrics[{i}] is not an object")
        name = entry.get("name")
        if not isinstance(name, str):
            raise MetricsError(f"metrics[{i}] has no string 'name'")
        _check_name(name)
        if name in seen:
            raise MetricsError(f"duplicate metric {name!r}")
        seen.add(name)
        kind = entry.get("kind")
        if kind not in ("counter", "gauge", "histogram"):
            raise MetricsError(f"{name}: bad kind {kind!r}")
        if not isinstance(entry.get("help", ""), str):
            raise MetricsError(f"{name}: 'help' must be a string")
        if kind == "histogram":
            buckets = entry.get("buckets")
            counts = entry.get("counts")
            if not isinstance(buckets, list) or not buckets \
                    or buckets != sorted(buckets):
                raise MetricsError(f"{name}: bad histogram buckets")
            if not isinstance(counts, list) \
                    or len(counts) != len(buckets) + 1 \
                    or any(not isinstance(c, int) or c < 0 for c in counts):
                raise MetricsError(f"{name}: bad histogram counts")
            if not isinstance(entry.get("count"), int) \
                    or entry["count"] != sum(counts):
                raise MetricsError(f"{name}: histogram count mismatch")
            if not isinstance(entry.get("sum"), (int, float)):
                raise MetricsError(f"{name}: bad histogram sum")
        else:
            if not isinstance(entry.get("value"), (int, float)):
                raise MetricsError(f"{name}: missing numeric 'value'")
            if kind == "counter" and entry["value"] < 0:
                raise MetricsError(f"{name}: counter is negative")
    return len(metrics)


# ---------------------------------------------------------------------------
# Post-hoc collection adapters (one per subsystem namespace)
# ---------------------------------------------------------------------------

def collect_run(registry: MetricsRegistry, stats,
                prefix: str = "core") -> None:
    """Harvest a :class:`~repro.pipeline.stats.RunStats` into ``core.*``."""
    fields = (
        ("cycles", "Simulated cycles"),
        ("cycles_skipped", "Cycles proven idle and skipped"),
        ("original_committed", "Committed original-program instructions"),
        ("handles_committed", "Committed mini-graph handles"),
        ("embedded_committed", "Instructions inside committed handles"),
        ("outline_jumps_committed", "Outline overhead jumps committed"),
        ("slots_committed", "Commit-stage slots consumed"),
        ("fetch_cycles_blocked", "Cycles fetch was branch-blocked"),
        ("icache_stall_cycles", "Cycles fetch stalled on the I-cache"),
        ("cond_branches", "Conditional branches predicted"),
        ("cond_mispredicts", "Conditional branch mispredictions"),
        ("indirect_branches", "Indirect branches predicted"),
        ("indirect_mispredicts", "Indirect branch mispredictions"),
        ("loads_issued", "Loads issued"),
        ("store_forwards", "Loads satisfied by store forwarding"),
        ("ordering_violations", "Memory ordering violations"),
        ("replays", "Issue replays after wrong speculative wakeup"),
        ("mg_serialized_instances", "Handles issued input-serialized"),
        ("mg_consumer_delays", "Serialization propagated to a consumer"),
        ("mg_disabled_instances", "Handles executed in outlined form"),
        ("mgt_misses", "Mini-Graph Table fills at fetch"),
    )
    for field, help_text in fields:
        counter = registry.counter(f"{prefix}.{field}", help_text)
        counter.inc(int(getattr(stats, field)))
    registry.gauge(f"{prefix}.ipc",
                   "Original instructions per cycle").set(stats.ipc)
    registry.gauge(f"{prefix}.coverage",
                   "Fraction of instructions in handles").set(stats.coverage)
    for key, value in sorted((stats.cache_stats or {}).items()):
        registry.counter(f"cache.{key}",
                         "Cache misses (from RunStats)").inc(int(value))
    if stats.activity is not None:
        collect_activity(registry, stats.activity)


def collect_activity(registry: MetricsRegistry, activity,
                     prefix: str = "activity") -> None:
    """Harvest :class:`~repro.pipeline.activity.ActivityCounters`."""
    for field in ("fetch_slots", "rename_ops", "rename_map_reads",
                  "phys_allocations", "iq_insertions", "iq_occupancy",
                  "window_occupancy", "select_slots", "regfile_reads",
                  "regfile_writes", "commit_slots", "cycles"):
        registry.counter(f"{prefix}.{field}",
                         "Structure-activity event count").inc(
            int(getattr(activity, field)))
    registry.gauge(f"{prefix}.avg_iq_occupancy",
                   "Mean issue-queue occupancy").set(
        activity.avg_iq_occupancy)
    registry.gauge(f"{prefix}.avg_window_occupancy",
                   "Mean window occupancy").set(
        activity.avg_window_occupancy)


def collect_hierarchy(registry: MetricsRegistry, hierarchy) -> None:
    """Harvest caches, TLBs and prefetchers into ``cache.*``/``tlb.*``."""
    for cache in (hierarchy.il1, hierarchy.dl1, hierarchy.l2):
        base = f"cache.{cache.name}"
        registry.counter(f"{base}.accesses",
                         f"{cache.name} accesses").inc(cache.accesses)
        registry.counter(f"{base}.misses",
                         f"{cache.name} misses").inc(cache.misses)
    for name, tlb in (("itlb", hierarchy.itlb), ("dtlb", hierarchy.dtlb)):
        registry.counter(f"tlb.{name}.accesses",
                         f"{name} accesses").inc(tlb.accesses)
        registry.counter(f"tlb.{name}.misses",
                         f"{name} misses").inc(tlb.misses)
    for name, prefetcher in (("il1", hierarchy.il1_prefetcher),
                             ("dl1", hierarchy.dl1_prefetcher)):
        if prefetcher is not None:
            registry.counter(f"prefetch.{name}.issued",
                             f"{name} prefetches issued").inc(
                prefetcher.issued)


def collect_branch(registry: MetricsRegistry, branch_unit) -> None:
    """Harvest the :class:`~repro.pipeline.branch.BranchUnit`."""
    pairs = (("cond_predictions", branch_unit.cond_predictions),
             ("cond_mispredictions", branch_unit.cond_mispredictions),
             ("indirect_predictions", branch_unit.indirect_predictions),
             ("indirect_mispredictions",
              branch_unit.indirect_mispredictions))
    for field, value in pairs:
        registry.counter(f"branch.{field}",
                         "Branch predictor event count").inc(value)


def collect_storesets(registry: MetricsRegistry, storesets) -> None:
    """Harvest the :class:`~repro.pipeline.storesets.StoreSets` table."""
    registry.counter("storesets.violations",
                     "Ordering violations trained into store sets").inc(
        storesets.violations)


def collect_core(registry: MetricsRegistry, core) -> None:
    """Harvest every counter a finished :class:`OoOCore` run exposes."""
    collect_run(registry, core.stats)
    collect_hierarchy(registry, core.hierarchy)
    collect_branch(registry, core.branch_unit)
    collect_storesets(registry, core.storesets)


def collect_ckern(registry: MetricsRegistry, counters=None) -> None:
    """Harvest the compiled kernel's process-wide dispatch counters.

    ``ckern.counters`` tracks batched native dispatch (how many
    ``repro_run_batch`` calls ran, how many points they covered, how
    many points fell back to per-point execution) and the previously
    silent event-tap overflow retries. Pass a mapping to harvest a
    snapshot; the default reads the live module counters.
    """
    if counters is None:
        from ..pipeline import ckern
        counters = ckern.counters
    registry.counter("ckern.batch_dispatches",
                     "Batched native kernel calls").inc(
        counters.get("batch_dispatches", 0))
    registry.counter("ckern.batch_points",
                     "Timing points run through batched dispatch").inc(
        counters.get("batch_points", 0))
    registry.counter("ckern.batch_fallbacks",
                     "Batched points rerun through the per-point "
                     "path").inc(counters.get("batch_fallbacks", 0))
    for key in sorted(counters):
        if key.startswith("batch_fallback_"):
            registry.counter(
                f"ckern.batch_fallbacks.{key[len('batch_fallback_'):]}",
                "Batched points rerun per point, by reason").inc(
                counters[key])
        elif key.startswith("batch_") and "." in key:
            registry.counter(
                f"ckern.{key.lower()}",
                "Batched points whose set-up or copy-back raised, by "
                "exception type").inc(counters[key])
    registry.gauge("ckern.batch_threads",
                   "C threads used by the last batched dispatch").set(
        counters.get("batch_threads_last", 0))
    registry.counter("ckern.tap_overflow_retries",
                     "Event-tap buffers regrown 4x after overflow").inc(
        counters.get("tap_overflow_retries", 0))
    registry.counter("ckern.profiles_built_native",
                     "Slack profiles built by the one-call C path").inc(
        counters.get("profiles_built_native", 0))
    registry.counter("ckern.global_folds_native",
                     "Global-slack event folds run in C").inc(
        counters.get("global_folds_native", 0))
    registry.counter("ckern.plan_fallbacks",
                     "Plan-kernel calls degraded to the Python "
                     "reference").inc(counters.get("plan_fallbacks", 0))


def collect_store(registry: MetricsRegistry, store) -> None:
    """Harvest :class:`~repro.exec.store.ArtifactStore` lookup stats."""
    stats = store.stats
    registry.counter("store.memory_hits",
                     "Artifact-store memory-layer hits").inc(
        stats.memory_hits)
    registry.counter("store.disk_hits",
                     "Artifact-store disk-layer hits").inc(stats.disk_hits)
    registry.counter("store.misses",
                     "Artifact-store misses").inc(stats.misses)
    registry.counter("store.puts",
                     "Artifacts published").inc(stats.puts)
    registry.counter("store.corrupt_dropped",
                     "Corrupt disk artifacts dropped").inc(
        stats.corrupt_dropped)
    registry.gauge("store.hit_rate",
                   "Artifact-store hit rate").set(stats.hit_rate)
    for kind, (hit, miss) in sorted(stats.by_kind.items()):
        registry.counter(f"store.kind.{kind}.hits",
                         f"{kind} artifact hits").inc(hit)
        registry.counter(f"store.kind.{kind}.misses",
                         f"{kind} artifact misses").inc(miss)


def collect_server(registry: MetricsRegistry, server) -> None:
    """Harvest a running :class:`~repro.serve.server.ServeApp`.

    Duck-typed (``server.stats`` counters plus ``server.queue`` gauges)
    so this module never imports the serve package.
    """
    stats = server.stats
    registry.counter("server.jobs_submitted",
                     "Jobs admitted to the queue").inc(stats.submitted)
    registry.counter("server.jobs_completed",
                     "Jobs finished successfully").inc(stats.completed)
    registry.counter("server.jobs_failed",
                     "Jobs finished with an error").inc(stats.failed)
    registry.counter("server.jobs_cancelled",
                     "Jobs cancelled before completion").inc(stats.cancelled)
    registry.counter("server.jobs_rejected",
                     "Submissions rejected by quota").inc(stats.rejected)
    registry.counter("server.warm_hits",
                     "Jobs answered with zero scheduled nodes").inc(
        stats.warm_hits)
    registry.counter("server.nodes_scheduled",
                     "DAG nodes actually executed").inc(
        stats.nodes_scheduled)
    registry.counter("server.nodes_pruned",
                     "DAG nodes served from the store").inc(
        stats.nodes_pruned)
    registry.counter("server.store_corruptions",
                     "Corrupt artifacts recovered as misses").inc(
        stats.store_corruptions)
    registry.counter("server.results_evicted",
                     "Terminal jobs evicted from the job table").inc(
        getattr(stats, "results_evicted", 0))
    registry.counter("server.events_truncated",
                     "Job events dropped by log truncation").inc(
        getattr(stats, "events_truncated", 0))
    registry.gauge("server.queue_depth",
                   "Jobs queued, not yet dispatched").set(
        server.queue.depth)
    registry.gauge("server.active_jobs",
                   "Jobs currently running").set(server.queue.active)
    registry.gauge("server.warm_hit_ratio",
                   "Warm hits / completed jobs").set(stats.warm_hit_ratio)


def collect_dist(registry: MetricsRegistry, stats) -> None:
    """Harvest dispatch-backend counters as ``dist.*`` metrics.

    Duck-typed over :class:`~repro.dist.dispatch.DispatchStats` (or any
    mapping / ``as_dict()`` carrier) so this module never imports the
    dist package.
    """
    doc = stats.as_dict() if hasattr(stats, "as_dict") else dict(stats)
    descriptions = {
        "submitted": "Tasks handed to the dispatch backend",
        "completed": "Tasks finished by workers",
        "failed": "Tasks that raised on a worker",
        "leases": "Task leases granted to workers",
        "steals": "Leases stolen from stragglers",
        "expiries": "Leases expired past their deadline",
        "reassigned": "Tasks rescheduled after a lost worker",
        "workers_joined": "Workers that joined the coordinator",
        "workers_lost": "Workers lost to heartbeat timeout",
    }
    extra = doc.pop("extra", None) or {}
    for name, value in sorted(doc.items()):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        registry.counter(f"dist.{name}",
                         descriptions.get(name, f"dispatch {name}")).inc(
            value)
    for name, value in sorted(extra.items()):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            registry.gauge(f"dist.{name}", f"dispatch {name}").set(value)


def collect_tune(registry: MetricsRegistry, stats) -> None:
    """Harvest autotuner counters as ``tune.*`` metrics.

    Duck-typed over :class:`~repro.tune.tuner.TuneStats` (or any
    mapping / ``as_dict()`` carrier) so this module never imports the
    tune package.
    """
    doc = stats.as_dict() if hasattr(stats, "as_dict") else dict(stats)
    gauges = {
        "frontier_size": "Pareto-frontier size of the final rung",
        "dominated": "Dominated trials pruned from the frontier",
    }
    descriptions = {
        "space_trials": "Trials enumerated by the search space",
        "planned_trials": "Trials selected by the strategy",
        "evaluations": "(trial, rung) evaluations executed",
        "resumed": "(trial, rung) evaluations replayed from the ledger",
        "rungs": "Trace-length rungs scheduled",
        "store_hits": "Artifact-store hits during the search",
        "store_misses": "Artifact-store misses during the search",
    }
    for name, value in sorted(doc.items()):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if name in gauges:
            registry.gauge(f"tune.{name}", gauges[name]).set(value)
        else:
            registry.counter(f"tune.{name}",
                             descriptions.get(name, f"tune {name}")).inc(
                value)


def collect_exec_report(registry: MetricsRegistry, report) -> None:
    """Harvest a scheduler :class:`~repro.exec.dag.ExecReport`."""
    registry.counter("exec.tasks_done",
                     "Scheduler tasks completed").inc(len(report.results))
    registry.counter("exec.tasks_failed",
                     "Scheduler tasks failed").inc(len(report.failures))
    registry.counter("exec.retries",
                     "Scheduler task retries").inc(report.retries)
    registry.gauge("exec.elapsed_s",
                   "Scheduler wall-clock seconds").set(report.elapsed)
    registry.gauge("exec.degraded",
                   "1 if the run degraded to serial").set(
        1.0 if report.degraded else 0.0)
    wall = registry.histogram("exec.stage_wall_s",
                              "Per-stage wall seconds",
                              buckets=(0.1, 0.5, 1, 5, 10, 30, 60, 300))
    for stage, seconds in sorted(report.stage_wall.items()):
        wall.observe(seconds)
        registry.counter(f"exec.stage.{stage}.tasks",
                         f"{stage} tasks run").inc(
            report.stage_tasks.get(stage, 0))


def run_registry(stats=None, core=None, store=None,
                 exec_report=None) -> MetricsRegistry:
    """Convenience builder: one registry over whatever is available."""
    registry = MetricsRegistry()
    if core is not None:
        collect_core(registry, core)
    elif stats is not None:
        collect_run(registry, stats)
    if store is not None:
        collect_store(registry, store)
    if exec_report is not None:
        collect_exec_report(registry, exec_report)
    collect_ckern(registry)
    return registry

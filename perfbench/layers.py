"""Per-layer instrumentation: spans around each layer's public functions.

``install(tracer)`` wraps the entry points below, in the child process
that runs one benchmark op, from outside the program (no file under
``src/repro`` changes). ``derive`` turns the recorded spans and counts
of one or more ops into the ``per_layer`` metrics of BENCHMARK.json.

A ``<layer>.<x>_s`` metric is the *self time* of that layer's spans:
their duration minus the part covered by nested spans of other calls,
so the layer times of one op add up to the op's covered wall time.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Sequence

from spans import Tracer, patch, root_coverage, self_times

#: Which end-to-end metric each layer's spans should move, and where.
#: Later changes cite these by name when they claim a gain.
LAYER_MAP = {
    "workloads": "program_s: setup_s, wall_s on fig6-cold",
    "isa": "execute: wall_s on fig6-cold, ~0 on fig8-limit; "
           "repack: wall_s on fig8-limit most",
    "minigraph": "fold: wall_s on fig8-limit >> fig6-cold; plan/enumerate: "
                 "wall_s on fig6-cold, flat for native-enumeration removal",
    "pipeline": "run_py: wall_s on fig6-cold (Slack-Dynamic), flat on "
                "fig8-limit; core_init/marshal: wall_s on fig8-limit; "
                "batch_*: wall_s.threads on fig6-cold",
    "exec": "computes_per_key and batch: wall_s.threads on fig6-cold; "
            "put: wall_s.dispatch on store-durable; get: warm_s on "
            "store-durable",
    "harness": "reduce: warm_s on store-durable, wall_s.* on fig6-cold",
    "analysis": "subset: wall_s, wall_s.dispatch on fig8-limit",
    "dist": "ledger/dispatch: wall_s.dispatch on store-durable",
    "serve": "wall_s.dispatch (and job_p50_ms) on serve-closed, which "
             "BENCHMARK.json leaves out (README: Known defect)",
}

#: Every per-layer metric with its unit, in report order. Metrics a
#: workload never exercises read 0 (e.g. ``analysis.*`` on fig6-cold).
#: The serve client figures of serve-closed go to its report only.
PER_LAYER = [
    ("workloads.program_s", "s"), ("workloads.programs", "count"),
    ("isa.execute_s", "s"), ("isa.execute_insts", "count"),
    ("isa.repack_s", "s"), ("isa.repack_calls", "count"),
    ("minigraph.enumerate_s", "s"), ("minigraph.candidates", "count"),
    ("minigraph.templates_s", "s"), ("minigraph.plan_s", "s"),
    ("minigraph.plans", "count"), ("minigraph.admit_ratio", "fraction"),
    ("minigraph.profile_s", "s"), ("minigraph.fold_s", "s"),
    ("minigraph.folds", "count"), ("minigraph.fold_records", "count"),
    ("minigraph.dynamic_disabled_sites", "count"),
    ("pipeline.core_init_s", "s"), ("pipeline.marshal_s", "s"),
    ("pipeline.run_native_s", "s"), ("pipeline.run_native_calls", "count"),
    ("pipeline.run_py_s", "s"), ("pipeline.run_py_calls", "count"),
    ("pipeline.native_ratio", "fraction"),
    ("pipeline.batch_s", "s"), ("pipeline.batch_points", "count"),
    ("pipeline.batch_fallbacks", "count"),
    ("pipeline.sim_insts", "count"), ("pipeline.sim_cycles", "count"),
    ("pipeline.host_ns_per_sim_inst", "ns"),
    ("exec.store_get_s", "s"), ("exec.store_gets", "count"),
    ("exec.store_hit_ratio", "fraction"),
    ("exec.store_put_s", "s"), ("exec.store_puts", "count"),
    ("exec.store_bytes_written", "bytes"),
    ("exec.computes_per_key.serial", "ratio"),
    ("exec.computes_per_key.threads", "ratio"),
    ("exec.computes_per_key.dispatch", "ratio"),
    ("exec.prewarm_s", "s"), ("exec.tasks", "count"),
    ("exec.task_retries", "count"), ("exec.task_failures", "count"),
    ("exec.batch_waves", "count"), ("exec.batch_wave_s", "s"),
    ("harness.reduce_s", "s"), ("harness.unattributed_frac", "fraction"),
    ("harness.trace_overhead", "fraction"),
    ("harness.error_rate", "fraction"),
    ("analysis.subset_s", "s"), ("analysis.subsets", "count"),
    ("dist.ledger_s", "s"), ("dist.ledger_records", "count"),
    ("dist.dispatch_s", "s"),
    ("job_p50_ms", "ms"), ("job_p95_ms", "ms"), ("jobs_per_s", "1/s"),
]

def install(tracer: Tracer) -> List:
    """Wrap every layer entry point; returns the Slack-Dynamic policies
    created while the op runs (read for ``dynamic_disabled_sites``)."""
    from repro.analysis import global_slack, limit_study
    from repro.dist import ledger
    from repro.exec import batch, grid, store
    from repro.harness import runner  # noqa: F401 - load name aliases
    from repro.isa import interp
    from repro.minigraph import (candidates, dynamic, selectors, slack,
                                 templates, transform)
    from repro.pipeline import ckern, core
    from repro.workloads import suite

    wrap = tracer.wrap
    count = tracer.count
    policies: List = []

    def program_wrapper(fn):
        def wrapper(self, input_name="train"):
            if input_name in self._cache:
                return fn(self, input_name)
            count("workloads.programs")
            return wrap("workloads.program", fn)(self, input_name)
        return wrapper
    patch(suite.Benchmark, "program", program_wrapper)

    patch(interp, "execute", lambda fn: wrap(
        "isa.execute", fn,
        lambda t, r, a, k: t.count("isa.execute_insts", len(r))))

    def repack_wrapper(fn):
        timed = wrap("isa.repack", fn,
                     lambda t, r, a, k: t.count("isa.repack_calls"))

        def wrapper(cls, records):
            if isinstance(records, cls):
                return records
            return timed(cls, records)
        return wrapper
    patch(interp.PackedTrace, "from_records", repack_wrapper)

    patch(candidates, "enumerate_candidates", lambda fn: wrap(
        "minigraph.enumerate", fn,
        lambda t, r, a, k: t.count("minigraph.candidates", len(r))))
    patch(templates, "build_templates",
          lambda fn: wrap("minigraph.templates", fn))

    def plan_after(t, plan, args, kwargs):
        t.count("minigraph.plans")
        offered = kwargs.get("sites")
        if offered is not None:
            t.count("minigraph.sites_offered", len(offered))
            t.count("minigraph.sites_admitted", len(plan.sites))
    patch(selectors, "make_plan",
          lambda fn: wrap("minigraph.plan", fn, plan_after))
    patch(slack.SlackCollector, "profile",
          lambda fn: wrap("minigraph.profile", fn))
    patch(global_slack.GlobalSlackCollector, "global_profile",
          lambda fn: wrap("minigraph.profile", fn))
    patch(transform, "fold_trace", lambda fn: wrap(
        "minigraph.fold", fn,
        lambda t, r, a, k: (t.count("minigraph.folds"),
                            t.count("minigraph.fold_records", len(r)))))

    def policy_wrapper(fn):
        def wrapper(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            policies.append(self)
        return wrapper
    patch(dynamic.SlackDynamicPolicy, "__init__", policy_wrapper)

    patch(core.OoOCore, "__init__",
          lambda fn: wrap("pipeline.core_init", fn))
    patch(ckern, "marshal", lambda fn: wrap("pipeline.marshal", fn))
    patch(core.OoOCore, "_run_compiled", lambda fn: wrap(
        "pipeline.run_native", fn,
        lambda t, r, a, k: r is not None
        and t.count("pipeline.run_native_calls")))

    def run_wrapper(fn):
        def wrapper(self, *args, **kwargs):
            index = tracer.open("pipeline.run")
            try:
                stats = fn(self, *args, **kwargs)
            finally:
                tracer.close(index)
            if self._ctrace is None:      # ran (or fell back to) Python
                tracer.spans[index].name = "pipeline.run_py"
                count("pipeline.run_py_calls")
            count("pipeline.sim_insts", stats.original_committed)
            count("pipeline.sim_cycles", stats.cycles)
            return stats
        return wrapper
    patch(core.OoOCore, "run", run_wrapper)

    patch(ckern, "run_batch", lambda fn: wrap(
        "pipeline.batch", fn,
        lambda t, r, a, k: t.count("pipeline.batch_points", len(a[0]))))

    patch(store.ArtifactStore, "get", lambda fn: wrap(
        "exec.store_get", fn,
        lambda t, r, a, k: (t.count("exec.store_gets"),
                            r is not store.MISS
                            and t.count("exec.store_hits"))))
    patch(store.ArtifactStore, "put", lambda fn: wrap(
        "exec.store_put", fn,
        lambda t, r, a, k: t.count("exec.store_puts")))
    patch(store.ArtifactBackend, "write", lambda fn: wrap(
        "exec.store_write", fn,
        lambda t, r, a, k: t.count("exec.store_bytes_written",
                                   len(a[2]))))

    def prewarm_after(t, report, args, kwargs):
        t.count("exec.tasks", len(report.results))
        t.count("exec.task_retries", report.retries)
        t.count("exec.task_failures", len(report.failures))
    patch(grid, "run_points", lambda fn: wrap(
        lambda *a, **k: "dist.dispatch" if k.get("dispatch") is not None
        else "exec.prewarm", fn, prewarm_after))
    patch(limit_study, "_parallel_subset_points", lambda fn: wrap(
        "exec.prewarm", fn, lambda t, r, a, k: t.count("exec.tasks", len(r))))
    patch(batch, "run_batch_wave", lambda fn: wrap(
        "exec.batch_wave", fn,
        lambda t, r, a, k: t.count("exec.batch_waves")))

    patch(limit_study, "evaluate_subset_cached", lambda fn: wrap(
        "analysis.subset", fn,
        lambda t, r, a, k: t.count("analysis.subsets")))
    patch(ledger.RunLedger, "record", lambda fn: wrap(
        "dist.ledger", fn,
        lambda t, r, a, k: t.count("dist.ledger_records")))
    return policies


def op_layers(tracer: Tracer, wall_start: float, wall_end: float,
              policies: Sequence) -> Dict[str, float]:
    """Raw per-layer sums of one op: self seconds by span name, counts,
    covered and unattributed seconds."""
    out: Dict[str, float] = dict(tracer.counts)
    spans = tracer.spans
    for span, own in zip(spans, self_times(spans)):
        key = span.name + "_s"
        out[key] = out.get(key, 0.0) + own
    covered = root_coverage(spans, wall_start, wall_end)
    harness_self = out.get("harness.reduce_s", 0.0)
    out["wall_s"] = wall_end - wall_start
    out["unattributed_s"] = (wall_end - wall_start) - covered + harness_self
    out["minigraph.dynamic_disabled_sites"] = float(
        sum(p.disabled_sites() for p in policies))
    return out


def derive(ops: Sequence[Dict]) -> Dict[str, float]:
    """Per-layer metrics from the raw sums of the ops of one traced round.

    Each op dict carries ``layers`` (from :func:`op_layers`), ``mode``
    and ``computes``.
    """
    raw: Dict[str, float] = {}
    for op in ops:
        for key, value in op.get("layers", {}).items():
            raw[key] = raw.get(key, 0.0) + value
    # Span self times (``<span>_s``) and counts carry their metric names.
    metrics = {name: raw.get(name, 0.0) for name, _ in PER_LAYER}
    # The store's disk write nests inside put: report put inclusive.
    metrics["exec.store_put_s"] += raw.get("exec.store_write_s", 0.0)
    # A kernel run's own span wraps the native call: count both as native.
    metrics["pipeline.run_native_s"] += raw.get("pipeline.run_s", 0.0)
    offered = raw.get("minigraph.sites_offered", 0.0)
    metrics["minigraph.admit_ratio"] = (
        raw.get("minigraph.sites_admitted", 0.0) / offered if offered
        else 0.0)
    runs = metrics["pipeline.run_native_calls"] + \
        metrics["pipeline.run_py_calls"]
    metrics["pipeline.native_ratio"] = (
        metrics["pipeline.run_native_calls"] / runs if runs else 0.0)
    sim = metrics["pipeline.sim_insts"]
    metrics["pipeline.host_ns_per_sim_inst"] = (
        1e9 * (metrics["pipeline.run_native_s"]
               + metrics["pipeline.run_py_s"]) / sim if sim else 0.0)
    gets = metrics["exec.store_gets"]
    metrics["exec.store_hit_ratio"] = (
        raw.get("exec.store_hits", 0.0) / gets if gets else 0.0)
    wall = raw.get("wall_s", 0.0)
    metrics["harness.unattributed_frac"] = (
        raw.get("unattributed_s", 0.0) / wall if wall else 0.0)
    for op in ops:
        mode = op["mode"]
        key = f"exec.computes_per_key.{mode}"
        if key in metrics:
            metrics[key] = computes_per_key(op.get("computes", {}))
    return metrics


def computes_per_key(computes: Dict[str, Sequence[int]]) -> float:
    """Artifacts produced over distinct keys produced, all kinds pooled;
    0 when this process produced nothing (work done in child processes
    is not visible from here)."""
    produced = sum(c[0] for c in computes.values())
    distinct = sum(c[1] for c in computes.values())
    return produced / distinct if distinct else 0.0


class ComputeCounter:
    """Counts artifacts produced per kind, by wrapping the store.

    A compute callback run by ``ArtifactStore.get_or_compute`` is one
    production; so is a ``put`` made outside ``get_or_compute`` (the
    batched dispatcher publishes timing points that way). Two stores
    producing the same key both count, which is exactly the work an
    in-process mode should not duplicate.
    """

    def __init__(self):
        self.produced: Dict[str, int] = {}
        self.keys: Dict[str, set] = {}
        self.enabled = True
        self._local = threading.local()

    def _note(self, kind: str, key: str) -> None:
        if not self.enabled:
            return
        self.produced[kind] = self.produced.get(kind, 0) + 1
        self.keys.setdefault(kind, set()).add(key)

    def install(self) -> None:
        from repro.exec import store
        counter = self

        def goc_wrapper(fn):
            def wrapper(self, kind, params, compute):
                key = self.key(kind, params)

                def counted():
                    value = compute()
                    counter._note(kind, key)
                    counter._local.pending = key
                    return value
                return fn(self, kind, params, counted)
            return wrapper

        def put_wrapper(fn):
            def wrapper(self, key, value, kind="?", params=None):
                if getattr(counter._local, "pending", None) == key:
                    counter._local.pending = None
                else:
                    counter._note(kind, key)
                return fn(self, key, value, kind, params)
            return wrapper

        patch(store.ArtifactStore, "get_or_compute", goc_wrapper)
        patch(store.ArtifactStore, "put", put_wrapper)

    def summary(self) -> Dict[str, List[int]]:
        return {kind: [self.produced[kind], len(self.keys[kind])]
                for kind in sorted(self.produced)}

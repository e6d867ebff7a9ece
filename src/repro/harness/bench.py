"""``repro bench``: the performance harness for the simulator itself.

Every experiment in the reproduction bottlenecks on
:meth:`repro.pipeline.core.OoOCore.run`, so simulator throughput is a
first-class, regression-gated metric. This module runs a fixed
benchmark × selector matrix, times the *timing run only* (traces, plans
and trace folding are prepared — and memoized — before the stopwatch
starts), and reports per-point and aggregate:

``wall_s``
    Wall-clock seconds of ``OoOCore.run()``.
``cycles`` / ``ipc`` / ``coverage``
    The simulated results, recorded so a perf report doubles as a
    fidelity check: two BENCH files for the same matrix must agree on
    these byte-for-byte, whatever their KIPS say.
``kips``
    Thousands of trace records retired per wall-second — committed
    *original-program* instructions (a retired mini-graph handle counts
    its constituents), so the figure is comparable across selectors.

Results are written to ``BENCH_<label>.json`` so the perf trajectory of
the simulator is part of the repository history, and
:func:`check_against` gates CI on both fidelity (exact) and throughput
(tolerance). See ``docs/performance.md``.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..pipeline.config import MachineConfig, config_by_name
from ..pipeline.core import OoOCore
from .runner import Runner

#: The default matrix: a deliberate mix of compute-bound (crafty, fft),
#: branchy (gzip, dijkstra), serial (g721pred) and memory-bound (mcf)
#: workloads so aggregate KIPS cannot be gamed by one behaviour class.
DEFAULT_BENCHMARKS = ("crc32", "dijkstra", "fft", "g721pred", "mcf",
                      "gzip", "crafty", "patricia")
DEFAULT_SELECTORS = ("none", "struct-all", "slack-profile")

#: ``--quick`` matrix for CI smoke runs.
QUICK_BENCHMARKS = ("crc32", "dijkstra", "mcf")
QUICK_SELECTORS = ("none", "struct-all")

#: Observed-run modes: a singleton profiling run with a
#: :class:`~repro.minigraph.slack.SlackCollector` attached. ``observed``
#: takes whatever path the core picks (the compiled kernel's event tap
#: where available); ``observed-py`` pins the Python reference loop with
#: in-loop callbacks — the pre-event-tap behaviour, kept as the
#: denominator for the speedup gate in CI (see ``profile-smoke``).
OBSERVED_SELECTORS = ("observed", "observed-py")

SCHEMA_VERSION = 1


@dataclass
class BenchPoint:
    """One benchmark × selector measurement."""

    bench: str
    selector: str
    config: str
    records: int          # records in the (possibly folded) trace
    instructions: int     # committed original-program instructions
    cycles: int
    ipc: float
    coverage: float
    wall_s: float
    kips: float


@dataclass
class BenchReport:
    """A full matrix run, serializable to ``BENCH_<label>.json``."""

    label: str
    schema: int = SCHEMA_VERSION
    created: str = ""
    python: str = ""
    platform: str = ""
    config: str = "reduced"
    repeat: int = 1
    points: List[BenchPoint] = field(default_factory=list)
    total_instructions: int = 0
    total_wall_s: float = 0.0
    kips: float = 0.0
    peak_rss_kb: int = 0
    #: Run manifest (git SHA, config digest, code-version salt, …) shared
    #: with the telemetry subsystem; empty in pre-manifest reports.
    manifest: Dict = field(default_factory=dict)

    def finalize(self) -> None:
        self.total_instructions = sum(p.instructions for p in self.points)
        self.total_wall_s = sum(p.wall_s for p in self.points)
        self.kips = (self.total_instructions / self.total_wall_s / 1e3
                     if self.total_wall_s else 0.0)
        self.peak_rss_kb = peak_rss_kb()

    def to_dict(self) -> Dict:
        return asdict(self)

    def render(self) -> str:
        lines = [f"{'bench':<10s} {'selector':<14s} {'cycles':>9s} "
                 f"{'ipc':>7s} {'cover':>7s} {'wall_s':>8s} {'KIPS':>8s}"]
        for p in self.points:
            lines.append(
                f"{p.bench:<10s} {p.selector:<14s} {p.cycles:>9d} "
                f"{p.ipc:>7.3f} {p.coverage:>7.1%} {p.wall_s:>8.3f} "
                f"{p.kips:>8.1f}")
        lines.append(
            f"{'total':<10s} {'':<14s} {'':>9s} {'':>7s} {'':>7s} "
            f"{self.total_wall_s:>8.3f} {self.kips:>8.1f}")
        lines.append(f"peak RSS: {self.peak_rss_kb} kB   "
                     f"({self.python}, {self.platform})")
        return "\n".join(lines)


def peak_rss_kb() -> int:
    """Peak resident set size of this process in kB (0 if unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kB, macOS bytes.
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        peak //= 1024
    return int(peak)


def _prepare_point(runner: Runner, bench: str, selector: str):
    """Build the record stream for one point (not timed)."""
    trace = runner.trace(bench)
    if selector == "none" or selector in OBSERVED_SELECTORS:
        return trace.packed()
    from ..minigraph.transform import fold_trace
    sel = _selector_by_name(selector)
    plan = runner.plan(bench, sel)
    return fold_trace(trace, plan)


def _make_core(runner: Runner, bench: str, selector: str, records,
               config: MachineConfig) -> OoOCore:
    """The core for one timed run; observed modes attach a collector."""
    if selector not in OBSERVED_SELECTORS:
        return OoOCore(config, records, warm_caches=True)
    from ..minigraph.slack import SlackCollector
    collector = SlackCollector(runner._bench(bench).program("train"),
                               config_name=config.name, input_name="train")
    core = OoOCore(config, records, collector=collector, warm_caches=True)
    if selector == "observed-py":
        core._ctrace = None
        core._want_tap = False
    return core


def _selector_by_name(name: str):
    from ..minigraph.selectors import (
        SlackProfileSelector, StructAll, StructBounded, StructNone,
    )
    table = {"struct-all": StructAll, "struct-none": StructNone,
             "struct-bounded": StructBounded,
             "slack-profile": SlackProfileSelector}
    try:
        return table[name]()
    except KeyError:
        raise ValueError(f"unknown bench selector {name!r} "
                         f"(choose from none, {', '.join(sorted(table))})") \
            from None


def run_bench(benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
              selectors: Sequence[str] = DEFAULT_SELECTORS,
              config: Optional[MachineConfig] = None,
              label: str = "local",
              repeat: int = 1,
              runner: Optional[Runner] = None,
              log: Optional[Callable[[str], None]] = None,
              telemetry=None) -> BenchReport:
    """Run the matrix and return a :class:`BenchReport`.

    ``repeat`` times each point's ``OoOCore.run()`` that many times and
    keeps the *fastest* wall time (simulated results are deterministic,
    so repeats only tighten the clock; cycles/IPC/coverage come from the
    first run and are asserted identical across repeats).

    ``telemetry`` optionally takes a
    :class:`~repro.obs.telemetry.TelemetryWriter`: every point's timed
    region becomes a ``bench`` span and the report embeds the writer's
    manifest (without a writer a fresh manifest is built directly).
    """
    from ..obs.telemetry import run_manifest
    if config is None:
        config = config_by_name("reduced")
    if runner is None:
        runner = Runner()
    report = BenchReport(
        label=label,
        created=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        python=platform.python_version(),
        platform=f"{platform.system()}-{platform.machine()}",
        config=config.name, repeat=repeat,
        manifest=(telemetry.manifest if telemetry is not None
                  else run_manifest(config=config, label=label)))
    for bench in benchmarks:
        for selector in selectors:
            records = _prepare_point(runner, bench, selector)
            best: Optional[Tuple[float, int, float, float, int]] = None
            for _ in range(max(1, repeat)):
                core = _make_core(runner, bench, selector, records, config)
                start = time.perf_counter()
                stats = core.run()
                wall = time.perf_counter() - start
                point = (wall, stats.cycles, stats.ipc, stats.coverage,
                         stats.original_committed)
                if best is not None and point[1:] != best[1:]:
                    raise RuntimeError(
                        f"{bench}/{selector}: non-deterministic rerun "
                        f"({point[1:]} vs {best[1:]})")
                if best is None or wall < best[0]:
                    best = point
            wall, cycles, ipc, coverage, insts = best
            if telemetry is not None:
                telemetry.event(
                    f"{bench}/{selector}", "bench", "X",
                    ts=max(0, telemetry.now_us() - int(wall * 1e6)),
                    dur=int(wall * 1e6),
                    args={"cycles": cycles, "ipc": ipc,
                          "instructions": insts,
                          "kips": insts / wall / 1e3 if wall else 0.0})
            report.points.append(BenchPoint(
                bench=bench, selector=selector, config=config.name,
                records=len(records), instructions=insts, cycles=cycles,
                ipc=ipc, coverage=coverage, wall_s=wall,
                kips=insts / wall / 1e3 if wall else 0.0))
            if log is not None:
                p = report.points[-1]
                log(f"[bench] {bench}/{selector}: {p.kips:.1f} KIPS "
                    f"({p.cycles} cycles, ipc {p.ipc:.3f})")
    report.finalize()
    return report


def write_report(report, out_dir: Path = Path(".")) -> Path:
    """Write any bench report (timing, batch or plan) as
    ``BENCH_<label>.json`` and return its path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{report.label}.json"
    with open(path, "w") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_report(path) -> BenchReport:
    """Load a ``BENCH_*.json`` back into a :class:`BenchReport`."""
    with open(path) as handle:
        data = json.load(handle)
    points = [BenchPoint(**p) for p in data.pop("points", [])]
    known = {f for f in BenchReport.__dataclass_fields__}
    report = BenchReport(**{k: v for k, v in data.items() if k in known})
    report.points = points
    return report


# -- batched-dispatch bench ---------------------------------------------------
#
# ``repro bench --batch`` measures what the batched native dispatcher
# buys over the pre-existing per-point process dispatch: the same
# benchmark x config matrix is run once as one-task-per-point through a
# ProcessPoolExecutor (spec pickling, worker-side trace rehydration,
# result round-trip — the real ``--jobs N`` cost per timing point) and
# once as a single ``repro_run_batch`` call over the same number of C
# threads. Both sides simulate identical work (asserted on committed
# instruction counts), so aggregate KIPS is directly comparable and the
# ratio is pure dispatch overhead. CI gates the committed
# ``BENCH_batch.json`` with :func:`check_batch_report`.

BATCH_SCHEMA_VERSION = 1

#: Both record-stream shapes the batch path serves: plain singleton
#: timing runs, and tap-observed profiling runs (SlackCollector riding
#: the kernel's event tap).
BATCH_MODES = ("unobserved", "observed")


@dataclass
class BatchBenchMode:
    """One mode's per-point-vs-batched comparison."""

    mode: str
    points: int
    instructions: int
    perpoint_wall_s: float
    batch_wall_s: float
    perpoint_kips: float
    batch_kips: float
    speedup: float


@dataclass
class BatchBenchReport:
    """Serialized to ``BENCH_batch.json``."""

    label: str = "batch"
    schema: int = BATCH_SCHEMA_VERSION
    created: str = ""
    python: str = ""
    platform: str = ""
    threads: int = 0
    modes: List[BatchBenchMode] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return asdict(self)

    def render(self) -> str:
        lines = [f"{'mode':<12s} {'points':>6s} {'perpoint':>10s} "
                 f"{'batched':>10s} {'speedup':>8s}   (KIPS, "
                 f"{self.threads} threads)"]
        for m in self.modes:
            lines.append(f"{m.mode:<12s} {m.points:>6d} "
                         f"{m.perpoint_kips:>10.1f} {m.batch_kips:>10.1f} "
                         f"{m.speedup:>7.1f}x")
        return "\n".join(lines)


#: Per-worker runner cache (mirrors ``repro.exec.tasks._RUNNERS``): the
#: per-point baseline gets the same intra-worker memoization the real
#: process path enjoys, so the comparison is not rigged against it.
_DISPATCH_RUNNERS: Dict[str, Runner] = {}


def _dispatch_point(spec: Dict) -> int:
    """One per-point dispatch unit: rebuild state, run, return insts."""
    cache_dir = spec["cache_dir"]
    runner = _DISPATCH_RUNNERS.get(cache_dir)
    if runner is None:
        from ..exec.store import ArtifactStore
        runner = Runner(store=ArtifactStore(cache_dir))
        _DISPATCH_RUNNERS[cache_dir] = runner
    config = config_by_name(spec["config"])
    records = _prepare_point(runner, spec["bench"], spec["selector"])
    core = _make_core(runner, spec["bench"], spec["selector"], records,
                      config)
    return core.run().original_committed


def run_batch_bench(benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
                    threads: int = 0,
                    label: str = "batch",
                    log: Optional[Callable[[str], None]] = None
                    ) -> BatchBenchReport:
    """Per-point process dispatch vs one batched native call."""
    import os
    import tempfile
    from concurrent.futures import ProcessPoolExecutor

    from ..pipeline import ckern
    if not ckern.available():
        raise RuntimeError("batch bench needs the compiled kernel "
                           "(C compiler available, REPRO_PURE_PY unset)")
    if threads <= 0:
        threads = max(1, min(8, (os.cpu_count() or 2) - 1))
    report = BatchBenchReport(
        label=label,
        created=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        python=platform.python_version(),
        platform=f"{platform.system()}-{platform.machine()}",
        threads=threads)
    configs = ("reduced", "full")
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as scratch:
        from ..exec.store import ArtifactStore
        runner = Runner(store=ArtifactStore(scratch))
        for bench in benchmarks:
            runner.trace(bench)  # shared persistent prewarm (both sides)
        for mode in BATCH_MODES:
            selector = "none" if mode == "unobserved" else "observed"
            specs = [{"cache_dir": scratch, "bench": bench,
                      "config": config, "selector": selector}
                     for bench in benchmarks for config in configs]

            start = time.perf_counter()
            with ProcessPoolExecutor(max_workers=threads) as pool:
                perpoint_insts = sum(pool.map(_dispatch_point, specs))
            perpoint_wall = time.perf_counter() - start

            cores = [_make_core(runner, spec["bench"], spec["selector"],
                                _prepare_point(runner, spec["bench"],
                                               spec["selector"]),
                                config_by_name(spec["config"]))
                     for spec in specs]
            entries = [core.kernel_batch_entry(200_000_000)
                       for core in cores]
            start = time.perf_counter()
            results = ckern.run_batch(entries, threads)
            batch_wall = time.perf_counter() - start
            batch_insts = 0
            for core, point in zip(cores, results):
                stats = core.apply_kernel_result(*point)
                if stats is None:
                    raise RuntimeError("batched point fell back mid-bench")
                batch_insts += stats.original_committed
            if batch_insts != perpoint_insts:
                raise RuntimeError(
                    f"{mode}: batched work diverged from per-point "
                    f"({batch_insts} != {perpoint_insts} instructions)")

            entry = BatchBenchMode(
                mode=mode, points=len(specs), instructions=batch_insts,
                perpoint_wall_s=perpoint_wall, batch_wall_s=batch_wall,
                perpoint_kips=perpoint_insts / perpoint_wall / 1e3
                if perpoint_wall else 0.0,
                batch_kips=batch_insts / batch_wall / 1e3
                if batch_wall else 0.0,
                speedup=perpoint_wall / batch_wall if batch_wall else 0.0)
            report.modes.append(entry)
            if log is not None:
                log(f"[bench] batch/{mode}: {entry.batch_kips:.1f} KIPS "
                    f"batched vs {entry.perpoint_kips:.1f} per-point "
                    f"({entry.speedup:.1f}x, {len(specs)} points)")
    return report


def load_batch_report(path) -> BatchBenchReport:
    """Load a batch report back from JSON."""
    with open(path) as handle:
        data = json.load(handle)
    modes = [BatchBenchMode(**m) for m in data.pop("modes", [])]
    known = set(BatchBenchReport.__dataclass_fields__)
    report = BatchBenchReport(
        **{k: v for k, v in data.items() if k in known})
    report.modes = modes
    return report


def check_batch_report(report: BatchBenchReport,
                       min_speedup: float = 3.0) -> List[str]:
    """Gate: batched dispatch must beat per-point by ``min_speedup``.

    Applied to both modes — the tap-observed batch pays event-buffer
    allocation and post-hoc decode, and must still clear the bar.
    """
    failures: List[str] = []
    if not report.modes:
        return ["batch report has no modes"]
    for mode in report.modes:
        if mode.speedup < min_speedup:
            failures.append(
                f"{mode.mode}: batched dispatch only {mode.speedup:.2f}x "
                f"per-point (gate {min_speedup:.1f}x, "
                f"{mode.batch_kips:.1f} vs {mode.perpoint_kips:.1f} KIPS)")
    return failures


def check_against(current: BenchReport, baseline: BenchReport,
                  tolerance: float = 0.20) -> List[str]:
    """Regression-gate ``current`` against a committed ``baseline``.

    Returns a list of failures (empty = pass):

    * fidelity — every point present in both reports must agree exactly
      on cycles, IPC, and coverage (the simulated results are
      deterministic; any drift is a correctness bug, not noise);
    * throughput — aggregate KIPS must not fall more than ``tolerance``
      below the baseline (per-point KIPS is reported but not gated: it
      is too noisy on shared CI runners).
    """
    failures: List[str] = []
    base_points = {(p.bench, p.selector, p.config): p
                   for p in baseline.points}
    compared = 0
    for point in current.points:
        base = base_points.get((point.bench, point.selector, point.config))
        if base is None:
            continue
        compared += 1
        for fld in ("cycles", "ipc", "coverage", "instructions"):
            got, want = getattr(point, fld), getattr(base, fld)
            if got != want:
                failures.append(
                    f"{point.bench}/{point.selector}: {fld} diverged "
                    f"from baseline ({got!r} != {want!r})")
    if not compared:
        failures.append("no overlapping matrix points with the baseline")
        return failures
    if baseline.kips > 0:
        floor = baseline.kips * (1.0 - tolerance)
        if current.kips < floor:
            failures.append(
                f"aggregate KIPS regressed: {current.kips:.1f} < "
                f"{floor:.1f} (baseline {baseline.kips:.1f} "
                f"- {tolerance:.0%})")
    return failures


# ---------------------------------------------------------------------
# Plan-construction bench (``repro bench --plan``)
# ---------------------------------------------------------------------
#
# The plan-kernel counterpart of the batch bench above: instead of the
# cycle loop, it times the plan-construction stage the compiled kernel
# accelerates — the post-hoc slack-profile build from the event tap —
# native against the pure-Python reference (forced in-process via
# ``REPRO_PURE_PY``; both sides run the same entry point, so the
# comparison is the real fallback path, not a strawman). Every point
# asserts bit-identical pickled profiles before its timings count, so a
# plan-bench report doubles as a parity check.

PLAN_SCHEMA_VERSION = 2

#: Stages timed per point, in report order.
PLAN_STAGES = ("profile",)


@dataclass
class PlanBenchPoint:
    """One benchmark's native-vs-Python plan-construction comparison."""

    bench: str
    n_static: int
    tap_words: int
    profile_py_ms: float
    profile_native_ms: float
    speedup: float


@dataclass
class PlanBenchReport:
    """Serialized to ``BENCH_<label>.json`` (label default ``plankern``)."""

    label: str = "plankern"
    schema: int = PLAN_SCHEMA_VERSION
    created: str = ""
    python: str = ""
    platform: str = ""
    config: str = "reduced"
    repeat: int = 3
    points: List[PlanBenchPoint] = field(default_factory=list)
    total_py_ms: float = 0.0
    total_native_ms: float = 0.0
    speedup: float = 0.0

    def finalize(self) -> None:
        self.total_py_ms = sum(p.profile_py_ms for p in self.points)
        self.total_native_ms = sum(p.profile_native_ms for p in self.points)
        self.speedup = (self.total_py_ms / self.total_native_ms
                        if self.total_native_ms else 0.0)

    def to_dict(self) -> Dict:
        return asdict(self)

    def render(self) -> str:
        lines = [f"{'bench':<10s} {'static':>6s} {'tap words':>10s} "
                 f"{'profile':>13s} {'speedup':>8s}   (py/native ms)"]
        for p in self.points:
            lines.append(
                f"{p.bench:<10s} {p.n_static:>6d} {p.tap_words:>10d} "
                f"{p.profile_py_ms:>6.1f}/{p.profile_native_ms:<6.2f} "
                f"{p.speedup:>7.1f}x")
        lines.append(f"{'total':<10s} {'':>6s} {'':>10s} "
                     f"{self.total_py_ms:>6.1f}/"
                     f"{self.total_native_ms:<6.2f} {self.speedup:>7.1f}x")
        lines.append(f"({self.python}, {self.platform}, "
                     f"repeat {self.repeat}, keep fastest)")
        return "\n".join(lines)


class _PurePy:
    """Force the pure-Python reference path inside a ``with`` block.

    ``ckern.available()`` re-reads ``REPRO_PURE_PY`` on every call, so
    flipping the environment variable in-process is enough to route
    every plan entry point (profile build, tap fold, global fold)
    through its reference implementation.
    """

    def __enter__(self):
        import os
        self._prior = os.environ.get("REPRO_PURE_PY")
        os.environ["REPRO_PURE_PY"] = "1"
        return self

    def __exit__(self, *exc):
        import os
        if self._prior is None:
            del os.environ["REPRO_PURE_PY"]
        else:
            os.environ["REPRO_PURE_PY"] = self._prior
        return False


def _best_of(fn: Callable[[], object], repeat: int) -> float:
    """Fastest-of-N wall milliseconds for ``fn()`` (N >= 1)."""
    best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def run_plan_bench(benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
                   label: str = "plankern",
                   repeat: int = 3,
                   log: Optional[Callable[[str], None]] = None
                   ) -> PlanBenchReport:
    """Native vs pure-Python slack-profile build over the golden matrix.

    For each benchmark, one kernel profiling run captures the event-tap
    log (not timed); the stopwatch then covers rebuilding the slack
    profile from that log. Parity between the legs is asserted before
    any timing is recorded.
    """
    import pickle
    import tempfile

    from ..exec.store import ArtifactStore
    from ..minigraph.slack import SlackCollector
    from ..pipeline import ckern

    if not ckern.available():
        raise RuntimeError("plan bench needs the compiled kernel "
                           "(C compiler available, REPRO_PURE_PY unset)")
    config = config_by_name("reduced")
    report = PlanBenchReport(
        label=label,
        created=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        python=platform.python_version(),
        platform=f"{platform.system()}-{platform.machine()}",
        config=config.name, repeat=repeat)
    with tempfile.TemporaryDirectory(prefix="repro-planbench-") as scratch:
        runner = Runner(store=ArtifactStore(scratch))
        for name in benchmarks:
            bench = runner._bench(name)
            program = bench.program("train")

            # -- capture one tap event log (not timed) ------------------
            core, _finalize = runner.profile_prepared(bench, config,
                                                      "train")
            entry = core.kernel_batch_entry(200_000_000)
            if entry is None:
                raise RuntimeError(f"{name}: profiling core is not "
                                   f"kernel-eligible")
            (rc, out, events, n_words, overflowed), = \
                ckern.run_batch([entry], 1)
            if rc != ckern.RC_OK or overflowed:
                raise RuntimeError(f"{name}: tap capture failed (rc={rc})")
            committed = out[ckern.OUT_SLOTS_COMMITTED]
            packed = core.records

            # -- profile build from the event log -----------------------
            def build_profile():
                collector = SlackCollector(program,
                                           config_name=config.name,
                                           input_name="train")
                collector.ingest_ckern_tap(packed, events, n_words,
                                           committed)
                return collector.profile()

            profile_native = build_profile()
            profile_ms = _best_of(build_profile, repeat)
            with _PurePy():
                profile_py = build_profile()
                profile_py_ms = _best_of(build_profile, repeat)
            if pickle.dumps(profile_native) != pickle.dumps(profile_py):
                raise RuntimeError(f"{name}: native profile diverged "
                                   f"from the Python reference")

            point = PlanBenchPoint(
                bench=name, n_static=len(program), tap_words=n_words,
                profile_py_ms=profile_py_ms, profile_native_ms=profile_ms,
                speedup=profile_py_ms / profile_ms if profile_ms else 0.0)
            report.points.append(point)
            if log is not None:
                log(f"[bench] plan/{name}: {point.speedup:.1f}x "
                    f"({profile_py_ms:.1f} -> {profile_ms:.2f} ms, "
                    f"{n_words} tap words)")
    report.finalize()
    return report


def load_plan_report(path) -> PlanBenchReport:
    """Load a plan report back from JSON (current schema only)."""
    with open(path) as handle:
        data = json.load(handle)
    if data.get("schema") != PLAN_SCHEMA_VERSION:
        raise ValueError(f"{path}: plan report schema {data.get('schema')!r}"
                         f", expected {PLAN_SCHEMA_VERSION}")
    points = [PlanBenchPoint(**p) for p in data.pop("points", [])]
    known = set(PlanBenchReport.__dataclass_fields__)
    report = PlanBenchReport(
        **{k: v for k, v in data.items() if k in known})
    report.points = points
    return report


def check_plan_report(report: PlanBenchReport,
                      min_speedup: float = 3.0) -> List[str]:
    """Gate: the native profile build must beat Python per point.

    Per point rather than in aggregate so a large benchmark cannot
    amortize a regression on a small one; the profile build scales with
    the dynamic event log, so every point clears the bar on its own.
    """
    failures: List[str] = []
    if not report.points:
        return ["plan report has no points"]
    for point in report.points:
        if point.speedup < min_speedup:
            failures.append(
                f"{point.bench}: native profile build only "
                f"{point.speedup:.2f}x the Python reference "
                f"(gate {min_speedup:.1f}x, {point.profile_py_ms:.1f} vs "
                f"{point.profile_native_ms:.2f} ms)")
    return failures

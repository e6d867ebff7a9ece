"""One benchmark op in a fresh process: the cold unit of measurement.

Usage (spawned by ``run.py``; the spec is one JSON argument)::

    python3 perfbench/child.py '{"workload": "fig6-cold", "mode": "serial", ...}'

A fresh interpreter per op is what makes a run *cold*: the simulator
keeps per-process memos (built program images, packed static listings,
marshalled traces, the scheduler's per-process runners) that an
in-process repeat would silently reuse. The op prints one JSON line:
its set-up and wall time, the simulated statistics of every point it
produced, and (when traced) its per-layer sums.

Modes: ``serial`` (in-process, memory-only store), ``threads``
(``--jobs threads:2``), ``dispatch`` (the workload's 2-way out-of-process
path: local process pool, ``repro worker`` fleet with a ledger, or the
``repro serve`` daemon) and ``warm`` (replay from the store the
dispatch op left behind, with a fresh runner).
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import calibrate

THREADS = 2         # in-process batch threads (nproc on the reference host)
FANOUT = 2          # worker processes / serve clients

#: Statistics checked per point: simulated cycles, committed original
#: instructions and coverage (ipc and coverage for served points, which
#: is all a served result document carries).
def point_stats(stats) -> list:
    return [stats.cycles, stats.original_committed, stats.coverage]


class Op:
    """Shared plumbing: timing, latency capture and result assembly."""

    def __init__(self, spec: Dict):
        self.spec = spec
        self.workdir = Path(spec["workdir"])
        self.result: Dict = {"mode": spec["mode"]}
        self.runner = None
        self.tracer = None
        self.policies: List = []
        self.counter = None
        self.latencies: List[float] = []
        self.sim_insts = 0
        self.t0 = 0.0

    # -- instrumentation -------------------------------------------------

    def instrument(self) -> None:
        from layers import ComputeCounter, install
        from spans import Tracer
        self.counter = ComputeCounter()
        self.counter.install()
        if self.spec.get("trace"):
            self.tracer = Tracer(f"{self.spec['workload']}/"
                                 f"{self.spec['mode']}/{self.spec['round']}")
            self.policies = install(self.tracer)
        self._count_sim()

    def _count_sim(self) -> None:
        """Committed original-program instructions of every timing run
        (serial-path cores; batched points are counted by the kernel)."""
        from repro.pipeline import core
        from spans import patch
        op = self

        def run_wrapper(fn):
            def wrapper(self, *args, **kwargs):
                stats = fn(self, *args, **kwargs)
                op.sim_insts += stats.original_committed
                return stats
            return wrapper
        patch(core.OoOCore, "run", run_wrapper)

    def time_points(self, owner, names) -> None:
        """Record the latency of each outermost call of ``owner.names``
        that computed something (store misses advanced), in ms."""
        from spans import patch
        op = self
        depth = [0]

        def wrapper_for(fn):
            def wrapper(*args, **kwargs):
                if depth[0]:
                    return fn(*args, **kwargs)
                store = op.runner.store
                misses = store.stats.misses
                depth[0] += 1
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
                    if store.stats.misses != misses:
                        op.latencies.append(
                            1e3 * (time.perf_counter() - start))
            return wrapper
        for name in names:
            patch(owner, name, wrapper_for)

    # -- timing ----------------------------------------------------------

    def start(self) -> None:
        self.result["setup_s"] = time.time() - self.spec["spawned_at"]
        # Dispatch ops compute in other processes, on every CPU.
        self.cpus = sorted(os.sched_getaffinity(0)) \
            if self.spec["mode"] == "dispatch" else ()
        self.speed_before = calibrate.probe_times(cpus=self.cpus)
        calibrate.release()
        reset_peak_rss()
        self.t0 = time.perf_counter()

    def stop(self) -> None:
        t1 = time.perf_counter()
        self.result["wall_s"] = t1 - self.t0
        self.self_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.result["scale"] = calibrate.speed_scale(
            [self.speed_before, calibrate.probe_times(cpus=self.cpus)])
        calibrate.release()
        if self.counter is not None:
            self.counter.enabled = False
        if self.tracer is not None:
            from layers import op_layers
            from repro.pipeline import ckern
            layers = op_layers(self.tracer, self.t0, t1, self.policies)
            layers["pipeline.batch_fallbacks"] = \
                ckern.counters["batch_fallbacks"]
            self.result["layers"] = layers
            self.tracer = None

    def reduce(self, fn, *args):
        """The figure driver after prewarm, under a ``harness.reduce``
        span when traced."""
        if self.tracer is None:
            return fn(*args)
        index = self.tracer.open("harness.reduce")
        try:
            return fn(*args)
        finally:
            self.tracer.close(index)

    def finish(self) -> Dict:
        self.result["sim_insts"] = self.sim_insts
        self.result["latencies_ms"] = self.latencies
        if self.counter is not None:
            self.result["computes"] = self.counter.summary()
        kids_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.result["rss_mb"] = (self.self_rss_kb + kids_kb) / 1024.0
        from repro.exec.store import code_version
        from repro.pipeline import ckern
        self.result["env"] = {
            "kernel_loaded": ckern.available(),
            "pure_py": bool(os.environ.get("REPRO_PURE_PY")),
            "source_digest": code_version(),
        }
        return self.result


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark (Linux ``clear_refs``), so
    the calibration buffer allocated before the timed region is not
    reported as the op's peak. Elsewhere the mark simply keeps it."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Figure workloads (fig6-cold, store-durable)
# ---------------------------------------------------------------------------

def figure_points(runner, name: str, benches) -> Dict[str, list]:
    """Statistics of every grid point behind figure ``name``, read back
    from the runner (store hits once the figure has run)."""
    from repro.exec.grid import point_to_doc
    from repro.exec.tasks import selector_from_spec
    from repro.harness.experiments import grid_points
    from repro.pipeline.config import config_by_name
    out = {}
    for point in grid_points(name, benches):
        config = config_by_name(point.config)
        if point.kind == "baseline":
            stats = runner.baseline(point.bench, config, point.input_name)
        elif point.kind == "slack-dynamic":
            stats = runner.run_slack_dynamic(
                point.bench, config, input_name=point.input_name,
                **dict(point.policy)).stats
        else:
            stats = runner.run_selector(
                point.bench, selector_from_spec(dict(point.selector)),
                config, input_name=point.input_name).stats
        key = json.dumps(point_to_doc(point), sort_keys=True)
        out[key] = point_stats(stats)
    return out


def run_figure(op: Op) -> None:
    from repro.exec import ArtifactStore, grid
    from repro.harness import experiments
    from repro.harness.runner import Runner
    from repro.workloads.suite import benchmark

    spec = op.spec
    name = spec["figure"]
    mode = spec["mode"]
    benches = [benchmark(b) for b in spec["programs"]]
    store_dir = spec["store_dir"]
    driver = experiments.EXPERIMENTS[name]
    op.instrument()
    fleet = None
    if mode == "dispatch" and spec["workload"] == "store-durable":
        fleet = Fleet(op.workdir, store_dir)
    try:
        if mode == "serial":
            op.runner = Runner()
            op.time_points(Runner, ("baseline", "run_selector",
                                    "run_slack_dynamic"))
        elif mode == "threads":
            op.runner = Runner()
        else:
            op.runner = Runner(store=ArtifactStore(store_dir))
        points = experiments.grid_points(name, benches)
        if mode == "warm":
            render = warm_replays(op, lambda: driver(
                Runner(store=ArtifactStore(store_dir)), benches).render(
                    full_tables=True))
            op.result["points"] = figure_points(op.runner, name, benches)
            op.result["render"] = render
            return
        op.start()
        if mode == "threads":
            grid.run_points(op.runner, points, jobs=1, threads=THREADS)
        elif mode == "dispatch" and fleet is None:
            grid.run_points(op.runner, points, jobs=FANOUT)
        elif mode == "dispatch":
            from repro.dist.resume import open_ledger, workload_for_points
            ledger = open_ledger(
                str(op.workdir / "run.jsonl"), op.runner,
                workload_for_points(points, label=name),
                extra={"jobs": FANOUT})
            try:
                grid.run_points(op.runner, points, jobs=FANOUT,
                                ledger=ledger, dispatch=fleet.backend())
            finally:
                ledger.close()
        result = op.reduce(driver, op.runner, benches)
        render = result.render(full_tables=True)
        op.stop()
    finally:
        if fleet is not None:
            fleet.close()
    op.result["points"] = figure_points(op.runner, name, benches)
    op.result["render"] = render


#: Replays per warm op: each builds a fresh runner and memory layer over
#: the same store, so every replay reads every artifact back from disk.
WARM_REPLAYS = 15


def warm_replays(op: Op, replay):
    """Time ``replay()`` WARM_REPLAYS times; the op's wall is the median.
    Returns the first replay's output for the checks."""
    from stats import median
    walls = []
    output = None
    op.start()
    for _ in range(WARM_REPLAYS):
        start = time.perf_counter()
        value = op.reduce(replay)
        walls.append(time.perf_counter() - start)
        if output is None:
            output = value
    op.stop()
    op.result["wall_s"] = median(walls)
    return output


class Fleet:
    """A socket coordinator plus 2 ``repro worker`` processes on one
    store; booted before the op's timer starts."""

    def __init__(self, workdir: Path, store_dir: str):
        from repro.dist.remote import SocketCoordinator
        # A relative socket path keeps under the unix-socket length limit
        # however deep the checkout sits; workers share our cwd.
        self.address = os.path.relpath(workdir / "c.sock")
        self.coordinator = SocketCoordinator(self.address)
        self.coordinator.start()
        self.procs = [subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--connect",
             self.address, "--store", store_dir, "--once",
             "--dial-timeout", "60", "--quiet"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            for _ in range(FANOUT)]
        deadline = time.monotonic() + 60
        while self.coordinator.worker_count() < FANOUT:
            if time.monotonic() > deadline or any(
                    p.poll() is not None for p in self.procs):
                self.close()
                raise RuntimeError("repro worker fleet failed to join")
            time.sleep(0.01)

    def backend(self):
        from repro.dist.remote import SocketDispatchBackend
        return SocketDispatchBackend(self.coordinator, jobs=FANOUT)

    def close(self) -> None:
        self.coordinator.stop()
        stop_all(self.procs)


def stop_all(procs, timeout: float = 30.0) -> None:
    """Wait for every process, escalating to SIGKILL after ``timeout``."""
    deadline = time.monotonic() + timeout
    for proc in procs:
        try:
            proc.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ---------------------------------------------------------------------------
# fig8-limit
# ---------------------------------------------------------------------------

def run_limit(op: Op) -> None:
    from repro.analysis import limit_study
    from repro.exec import ArtifactStore
    from repro.harness.runner import Runner

    spec = op.spec
    mode = spec["mode"]
    bench, input_name = spec["limit"]["bench"], spec["limit"]["input"]
    op.instrument()

    def study_with(runner, jobs=1):
        return limit_study.run_limit_study(runner, bench, input_name,
                                           jobs=jobs)

    if mode == "warm":
        study = warm_replays(op, lambda: study_with(
            Runner(store=ArtifactStore(spec["store_dir"]))))
    else:
        if mode == "dispatch":
            op.runner = Runner(store=ArtifactStore(spec["store_dir"]),
                               jobs=FANOUT)
        else:
            # `experiments fig8 --jobs threads:2` parses to one process:
            # the limit study has no batched path and runs serially.
            op.runner = Runner()
        if mode == "serial":
            op.time_points(limit_study, ("evaluate_subset_cached",))
        op.start()
        study = op.reduce(study_with, op.runner, op.runner.jobs)
        op.stop()
    points = {f"mask{p.mask}": [p.coverage, p.relative_ipc]
              for p in study.points}
    points.update({f"selector:{name}": [p.mask, p.coverage, p.relative_ipc]
                   for name, p in study.selector_points.items()})
    op.result["points"] = points
    op.result["render"] = study.render()


# ---------------------------------------------------------------------------
# serve-closed
# ---------------------------------------------------------------------------

def point_key(doc: Dict) -> str:
    return json.dumps(doc, sort_keys=True)


def served_stats(runner, doc: Dict) -> list:
    """``[ipc, coverage]`` of one job point computed directly."""
    from repro.exec.tasks import selector_from_spec
    from repro.pipeline.config import config_by_name
    config = config_by_name(doc["config"])
    if doc["kind"] == "baseline":
        stats = runner.baseline(doc["bench"], config)
        return [stats.ipc, 0.0]
    run = runner.run_selector(doc["bench"],
                              selector_from_spec(doc["selector"]), config)
    return [run.ipc, run.coverage]


def run_serve(op: Op) -> None:
    from repro.exec import ArtifactStore, grid
    from repro.harness.runner import Runner
    from repro.serve.jobs import parse_points

    spec = op.spec
    mode = spec["mode"]
    sequences = spec["jobs"]
    distinct: Dict[str, Dict] = {}
    for jobs in sequences:
        for doc in jobs:
            distinct.setdefault(point_key(doc), doc)
    op.instrument()
    if mode == "dispatch":
        run_closed_loop(op, sequences)
        return
    def replay(runner):
        return {key: served_stats(runner, doc)
                for key, doc in distinct.items()}

    if mode == "warm":
        cache = str(Path(spec["state_dir"]) / "cache")
        op.result["points"] = warm_replays(
            op, lambda: replay(Runner(store=ArtifactStore(cache))))
        op.result["render"] = ""
        return
    op.runner = Runner()
    if mode == "serial":
        op.time_points(Runner, ("baseline", "run_selector"))
    points = parse_points({"points": list(distinct.values())})
    op.start()
    if mode == "threads":
        grid.run_points(op.runner, points, jobs=1, threads=THREADS)
    out = op.reduce(replay, op.runner)
    op.stop()
    op.result["points"] = out
    op.result["render"] = ""


def run_closed_loop(op: Op, sequences: List[List[Dict]]) -> None:
    """Boot ``repro serve``, drive 2 closed-loop clients, stop it."""
    import asyncio

    from repro.serve.client import ServeClient, ServeError

    state = Path(op.spec["state_dir"])
    address_path = os.path.relpath(state / "s.sock")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--state-dir", str(state),
         "--socket", address_path, "--quiet"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    address = f"unix:{address_path}"
    try:
        probe = ServeClient(address, client_id="probe")
        deadline = time.monotonic() + 60
        while True:
            try:
                asyncio.run(probe.health())
                break
            except (OSError, ServeError):
                if daemon.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("repro serve failed to start")
                time.sleep(0.02)
        served: List = []
        submit_ms: List[float] = []
        first_ms: List[float] = []

        async def client(index: int, jobs: List[Dict]) -> None:
            conn = ServeClient(address, client_id=f"bench{index}")
            for doc in jobs:
                start = time.perf_counter()
                try:
                    summary = await conn.submit("experiment",
                                                {"points": [doc]})
                except ServeError as error:     # refused: counts as failed
                    served.append((point_key(doc), None, str(error)))
                    continue
                submitted = time.perf_counter()
                submit_ms.append(1e3 * (submitted - start))
                first = None
                async for record in conn.events(summary["id"]):
                    if first is None and record.get("cat") != "manifest" \
                            and "ph" in record:
                        first = time.perf_counter()
                doc_out = await conn.result(summary["id"])
                done = time.perf_counter()
                if op.tracer is not None:
                    op.tracer.record("serve.job", start, done)
                first_ms.append(1e3 * ((first or done) - start))
                op.latencies.append(1e3 * (done - start))
                result = doc_out.get("result") or {}
                rows = result.get("points") or [{}]
                row = rows[0]
                served.append((point_key(doc),
                               [row.get("ipc"), row.get("coverage", 0.0)],
                               doc_out.get("error")))

        async def drive() -> None:
            await asyncio.gather(*(client(i, jobs)
                                   for i, jobs in enumerate(sequences)))

        op.start()
        asyncio.run(drive())
        op.stop()
        stats = asyncio.run(probe.stats())
    finally:
        daemon.send_signal(signal.SIGTERM)
        stop_all([daemon])
    from stats import percentile
    server = stats.get("server", stats)
    op.result["served"] = served
    op.result["serve"] = {
        "serve.submit_ms.p50": percentile(submit_ms, 50),
        "serve.submit_ms.p95": percentile(submit_ms, 95),
        "serve.first_event_ms.p50": percentile(first_ms, 50),
        "serve.first_event_ms.p95": percentile(first_ms, 95),
        "serve.warm_ratio": float(server.get("warm_hit_ratio", 0.0)),
        "serve.nodes_scheduled": float(server.get("nodes_scheduled", 0)),
    }
    op.result["points"] = {}
    op.result["render"] = ""


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((argv or sys.argv[1:])[0])
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from repro.pipeline import ckern
    ckern.available()           # kernel load is set-up, not op time
    op = Op(spec)
    {"fig6-cold": run_figure, "store-durable": run_figure,
     "fig8-limit": run_limit, "serve-closed": run_serve}[
        spec["workload"]](op)
    print(json.dumps(op.finish()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

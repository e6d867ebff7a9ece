"""End-to-end benchmark of the reproduction: cold paper-figure runs in
every dispatch mode, a durable store round trip, and serve latency.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig6-cold --seed 0 --seconds 10 --trace 0

The last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced round with ``--trace 1``. A line before it
records the environment (CPU count, Python, whether the compiled kernel
loaded, the simulator source digest); a full report with every op goes
to ``.bench_build/perfbench/``.

Each op (``serial``, ``threads``, ``dispatch``, ``warm``) runs in a
fresh interpreter (``child.py``) so every run is cold; rounds of the
four ops repeat while another round fits in ``--seconds`` (a traced run
makes at least one plain and one traced round) and times are medians
over rounds. Every op's simulated statistics are checked against the
serial op and, for the default seed, against ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import sample  # noqa: E402
from stats import (compare_points, error_rate, median,  # noqa: E402
                   output_digest, tail_percentile)

#: Workload → the figure driver its ops run (None: not a figure). See
#: BENCHMARK.json for why each workload exists. serve-closed is runnable
#: but left out of BENCHMARK.json: concurrent serve jobs can return wrong
#: statistics (README, "Known defect").
WORKLOADS = {
    "fig6-cold": "fig6",
    "fig8-limit": None,
    "store-durable": "fig1",
    "serve-closed": None,
}
MODES = ("serial", "threads", "dispatch", "warm")

#: End-to-end metric → unit (BENCHMARK.json holds direction and bound).
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "wall_s.threads": "s",
    "wall_s.dispatch": "s", "warm_s": "s", "sim_kips": "kinst/s",
    "peak_rss_mb": "MB",
}
#: Job-latency figures, reported with the per-layer metrics and so
#: without a regression bound: which programs a seed draws sets the
#: latency distribution (not just its sum), so they spread by 15-30%
#: across seeds.
JOB_FIGURES = ("job_p50_ms", "job_p95_ms", "jobs_per_s")
WALLS = {"serial": "wall_s", "threads": "wall_s.threads",
         "dispatch": "wall_s.dispatch", "warm": "warm_s"}

DEFAULT_SEED = 0
OP_TIMEOUT = 60.0


def workload_inputs(workload: str, seed: int) -> Dict:
    """The generated inputs the program sees for (workload, seed)."""
    catalog = sample.load_catalog()
    if workload == "fig8-limit":
        return {"limit": sample.limit_program(seed, catalog)}
    programs = sample.figure_sample(workload, seed, catalog)
    if workload == "serve-closed":
        return {"programs": programs,
                "jobs": sample.serve_jobs(programs, seed)}
    return {"programs": programs, "figure": WORKLOADS[workload]}


def child_env(root: Path, run_dir: Path) -> Dict[str, str]:
    """Environment of every op: sources from the checkout, the compiled
    kernel cached under ``.bench_build``, temp files under the run dir,
    and no inherited artifact-store settings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["XDG_CACHE_HOME"] = str(root / ".bench_build" / "xdg")
    env["TMPDIR"] = str(run_dir / "tmp")
    for name in ("REPRO_CACHE_DIR", "REPRO_STORE_BACKEND"):
        env.pop(name, None)
    return env


def run_op(root: Path, env: Dict, spec: Dict) -> Dict:
    """Spawn one op; its JSON result (raw host seconds), or
    ``{"error": ...}``."""
    spec = dict(spec, spawned_at=time.time())
    # Own process group: a hung op is killed with every worker, daemon
    # or pool process it started, and all of them are reaped.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=OP_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"mode": spec["mode"], "error": "timeout"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-3:]
        return {"mode": spec["mode"],
                "error": f"rc={proc.returncode}: {' | '.join(tail)}"}
    return json.loads(lines[-1])


def build_kernel(root: Path, env: Dict) -> None:
    """Compile (or find cached) the timing kernel before any timing."""
    subprocess.run([sys.executable, "-c",
                    "from repro.pipeline import ckern; ckern.available()"],
                   cwd=root, env=env, check=True, timeout=600)


def check_round(ops: List[Dict], reference: Optional[Dict],
                expected_digest: Optional[str], workload: str) -> Dict:
    """Units attempted/failed for one round against the reference op.

    ``reference`` is the first serial op of the run; every op (serial
    ones included) must reproduce its per-point statistics and render.
    Served jobs are checked one by one against the same points computed
    directly by a runner.
    """
    attempted = failed = 0
    mismatches: List[str] = []
    for op in ops:
        if op["mode"] == "dispatch" and workload == "serve-closed" \
                and "error" not in op:
            for key, stats, error in op["served"]:
                attempted += 1
                if error or reference is None \
                        or reference["points"].get(key) != stats:
                    failed += 1
                    mismatches.append(f"serve job {key}: {error or stats}")
            continue
        units = len(reference["points"]) if reference else 1
        attempted += units
        if "error" in op or reference is None:
            failed += units
            mismatches.append(f"{op['mode']}: {op.get('error')}")
            continue
        bad = compare_points(reference["points"], op["points"])
        if op["render"] != reference["render"]:
            bad = sorted(reference["points"])
        if op["mode"] == "serial" and expected_digest is not None and \
                output_digest(op["points"], op["render"]) != expected_digest:
            bad = sorted(reference["points"])
            mismatches.append("serial: differs from reference.json")
        failed += len(bad)
        mismatches.extend(f"{op['mode']}: {key}" for key in bad[:5])
    return {"attempted": attempted, "failed": failed,
            "mismatches": mismatches}


def end_to_end(rounds: List[List[Dict]], workload: str) -> tuple:
    """End-to-end and job-latency metrics from the untraced rounds, and
    the tail percentile used. Each op's times are scaled to
    reference-host seconds by its own speed readings (see calibrate.py)
    before medians are taken."""
    ops = [scaled(op) for ops in rounds for op in ops if "error" not in op]
    by_mode = {mode: [op for op in ops if op["mode"] == mode]
               for mode in MODES}
    metrics: Dict[str, float] = {}
    for mode, name in WALLS.items():
        metrics[name] = median([op["wall_s"] for op in by_mode[mode]])
    metrics["setup_s"] = median([op["setup_s"] for op in ops])
    serial = by_mode["serial"]
    metrics["sim_kips"] = median([op["sim_insts"] / op["wall_s"] / 1e3
                                  for op in serial])
    metrics["peak_rss_mb"] = max(median([op["rss_mb"] for op in group])
                                 for group in by_mode.values())
    job_ops = by_mode["dispatch"] if workload == "serve-closed" else serial
    latencies = [x for op in job_ops for x in op["latencies_ms"]]
    metrics["job_p50_ms"] = median(latencies)
    pct, metrics["job_p95_ms"] = tail_percentile(latencies, 95.0)
    metrics["jobs_per_s"] = median([len(op["latencies_ms"]) / op["wall_s"]
                                    for op in job_ops])
    return metrics, {"percentile": pct, "samples": len(latencies)}


def scaled(op: Dict) -> Dict:
    """``op`` with its times in reference-host seconds."""
    scale = op["scale"]
    return dict(op, wall_s=op["wall_s"] * scale,
                setup_s=op["setup_s"] * scale,
                latencies_ms=[x * scale for x in op["latencies_ms"]])


def environment(rounds: List[List[Dict]]) -> Dict:
    envs = [op["env"] for ops in rounds for op in ops if "env" in op]
    native = bool(envs) and all(e["kernel_loaded"] for e in envs)
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "kernel_loaded": native,
        "pure_py": any(e["pure_py"] for e in envs),
        "source_digest": envs[0]["source_digest"] if envs else None,
        # Runs on the Python timing loop are a different program for
        # timing purposes: tag them so they are never compared with
        # kernel runs as if equal.
        "engine": "native" if native else "pure-python",
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    run_dir = root / ".bench_build" / "perfbench" / \
        f"{args.workload}-{args.seed}-{os.getpid()}"
    (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
    env = child_env(root, run_dir)
    try:
        return _run(args, root, run_dir, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, root: Path, run_dir: Path, env: Dict) -> int:
    build_kernel(root, env)
    inputs = workload_inputs(args.workload, args.seed)
    expected = None
    if args.seed == DEFAULT_SEED:
        refs = json.loads((HERE / "reference.json").read_text())
        expected = refs.get(args.workload)
    started = time.monotonic()
    deadline = started + 1.1 * args.seconds
    rounds: List[List[Dict]] = []
    traced: List[bool] = []
    reference = None
    checks = []
    index = 0
    while True:
        trace = bool(args.trace) and index % 2 == 1
        round_dir = run_dir / f"r{index}"
        ops = []
        for mode in MODES:
            spec = dict(inputs, workload=args.workload, mode=mode,
                        round=index, trace=trace,
                        workdir=str(round_dir),
                        store_dir=str(round_dir / "store"),
                        state_dir=str(round_dir / "serve"))
            op = run_op(root, env, spec)
            if reference is None and mode == "serial" and "error" not in op:
                reference = op
            ops.append(op)
        shutil.rmtree(round_dir, ignore_errors=True)
        rounds.append(ops)
        traced.append(trace)
        checks.append(check_round(ops, reference, expected, args.workload))
        index += 1
        # Start another round only if it should end by the deadline
        # (10% grace), so a run measures for about --seconds whatever a
        # round costs on this host.
        per_round = (time.monotonic() - started) / index
        if index >= (2 if args.trace else 1) and \
                time.monotonic() + per_round > deadline:
            break

    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    untraced = [ops for ops, t in zip(rounds, traced) if not t]
    report = {"workload": args.workload, "seed": args.seed,
              "inputs": inputs, "env": environment(rounds),
              "rounds": [[{key: op.get(key) for key in (
                  "mode", "error", "wall_s", "setup_s", "scale", "rss_mb")}
                  for op in ops] for ops in rounds],
              "traced": traced, "checks": checks}
    try:
        e2e, report["job_tail"] = end_to_end(untraced, args.workload)
    except (ValueError, ZeroDivisionError, KeyError) as error:
        print(f"perfbench: no complete round: {error}; "
              f"{[c['mismatches'][:3] for c in checks]}", file=sys.stderr)
        return 1
    if args.trace:
        from layers import LAYER_MAP, PER_LAYER, derive
        per_round = [derive(ops) for ops, t in zip(rounds, traced) if t]
        walls = {t: median([sum(scaled(op)["wall_s"] for op in ops
                                if "error" not in op)
                            for ops, tt in zip(rounds, traced) if tt == t])
                 for t in (False, True)}
        values = {name: median([r[name] for r in per_round])
                  for name, _ in PER_LAYER}
        values["harness.trace_overhead"] = walls[True] / walls[False] - 1
        values["harness.error_rate"] = error_rate(failed, attempted)
        values.update({name: e2e[name] for name in JOB_FIGURES})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
        report["layer_map"] = LAYER_MAP
        report["per_op_layers"] = [
            {"mode": op["mode"], "layers": op.get("layers", {}),
             "computes": op.get("computes"), "serve": op.get("serve")}
            for ops, t in zip(rounds, traced) if t for op in ops]
        report["traced_scope"] = (
            "dispatch ops trace the parent side only: pool workers, "
            "repro worker processes and the serve daemon are not traced")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    if reference is not None:
        report["reference_digest"] = output_digest(reference["points"],
                                                   reference["render"])
    report["computes"] = {op["mode"]: op.get("computes")
                          for op in rounds[0]}
    report["metrics"] = metrics
    out_dir = root / ".bench_build" / "perfbench"
    (out_dir / f"report-{args.workload}-{args.seed}-{args.trace}.json"
     ).write_text(json.dumps(report, indent=1, default=str))
    env_line = report["env"]
    if env_line["engine"] != "native":
        print("perfbench: WARNING compiled kernel not in use; these times "
              "are not comparable with kernel runs", file=sys.stderr)
    for check in checks:
        for line in check["mismatches"][:10]:
            print(f"perfbench: mismatch {line}", file=sys.stderr)
    print(json.dumps({"env": env_line}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

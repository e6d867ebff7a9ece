"""Top-level command-line interface.

Subcommands::

    python -m repro list                       # benchmark population
    python -m repro run crc32 --selector slack-profile
    python -m repro trace crc32 --first 20 --last 45
    python -m repro validate all
    python -m repro experiments fig1 ...       # figure regeneration
    python -m repro limit-study --jobs 4       # Figure 8
    python -m repro cache stats                # artifact store maintenance
    python -m repro metrics crc32 --format prom   # metrics registry export
    python -m repro attribution --benchmarks crc32 # predicted-vs-observed
    python -m repro telemetry trace.jsonl      # validate a telemetry file
    python -m repro serve --state-dir .serve   # persistent job daemon
    python -m repro submit experiment spec.json --wait  # talk to it
    python -m repro loadtest --clients 200     # hammer a running daemon

`experiments` forwards to :mod:`repro.harness.experiments`; everything
else is a thin veneer over the library API so each command doubles as a
usage example. Commands that simulate accept ``--cache-dir`` (or honor
``$REPRO_CACHE_DIR``) to persist intermediates in the content-addressed
artifact store of :mod:`repro.exec`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .exec import ArtifactStore, resolve_cache_dir
from .harness.runner import Runner
from .isa.interp import ExecutionLimitExceeded, MemoryFault
from .isa.validate import ValidationError
from .minigraph.selectors import (
    ReadPortAwareSelector, SlackProfileSelector, StructAll, StructBounded,
    StructNone,
)
from .pipeline.config import config_by_name
from .workloads.suite import all_benchmarks, benchmark

SELECTORS = {
    "struct-all": StructAll,
    "struct-none": StructNone,
    "struct-bounded": StructBounded,
    "slack-profile": SlackProfileSelector,
    "read-port": ReadPortAwareSelector,
}


def _cmd_list(args) -> int:
    benches = all_benchmarks(suites=args.suites or None)
    print(f"{'name':<14s} {'suite':<9s} {'inputs':<18s} description")
    print("-" * 72)
    for bench in benches:
        print(f"{bench.name:<14s} {bench.suite:<9s} "
              f"{','.join(bench.inputs):<18s} {bench.description}")
    print(f"\n{len(benches)} benchmarks")
    return 0


def _store_for(args) -> ArtifactStore:
    cache_dir = resolve_cache_dir(getattr(args, "cache_dir", None),
                                  getattr(args, "no_cache", False))
    return ArtifactStore(cache_dir)


def _add_cache_flags(parser) -> None:
    parser.add_argument("--cache-dir", default=None,
                        help="persistent artifact store directory "
                             "(default: $REPRO_CACHE_DIR, else none)")
    parser.add_argument("--no-cache", action="store_true",
                        help="memory-only memoization")


def _cmd_run(args) -> int:
    runner = Runner(store=_store_for(args))
    config = config_by_name(args.config)
    full = config_by_name("full")
    base_full = runner.baseline(args.benchmark, full, args.input)
    base = runner.baseline(args.benchmark, config, args.input)
    print(f"{args.benchmark} on {config.name} ({args.input} input)")
    print(f"  no mini-graphs : IPC {base.ipc:.3f} "
          f"({base.ipc / base_full.ipc:.3f}x of full baseline)")
    if args.selector == "none":
        return 0
    if args.selector == "slack-dynamic":
        run = runner.run_slack_dynamic(args.benchmark, config,
                                       input_name=args.input)
    else:
        selector = SELECTORS[args.selector]()
        run = runner.run_selector(args.benchmark, selector, config,
                                  input_name=args.input)
    stats = run.stats
    print(f"  {run.selector:<15s}: IPC {stats.ipc:.3f} "
          f"({stats.ipc / base_full.ipc:.3f}x), "
          f"coverage {stats.coverage:.1%}, "
          f"{stats.handles_committed} handles, "
          f"{run.plan.n_templates} templates")
    if stats.mg_serialized_instances:
        print(f"  serialization  : {stats.mg_serialized_instances} "
              f"serialized instances, {stats.mg_consumer_delays} "
              f"propagated to consumers")
    return 0


def _cmd_trace(args) -> int:
    from .pipeline.pipetrace import pipetrace
    runner = Runner()
    config = config_by_name(args.config)
    if args.selector == "none":
        records = runner.trace(args.benchmark, args.input).records
    else:
        from .minigraph.transform import fold_trace
        selector = SELECTORS[args.selector]()
        plan = runner.plan(args.benchmark, selector, input_name=args.input)
        records = fold_trace(runner.trace(args.benchmark, args.input), plan)
    print(pipetrace(config, records, first=args.first, last=args.last))
    return 0


def _cmd_validate(args) -> int:
    from .isa.validate import ValidationError, check
    names = [b.name for b in all_benchmarks()] \
        if args.benchmark == "all" else [args.benchmark]
    failures = 0
    for name in names:
        program = benchmark(name).program("train")
        try:
            warnings = check(program)
        except ValidationError as error:
            failures += 1
            print(f"{name}: ERROR {error}")
            continue
        status = f"{len(warnings)} warnings" if warnings else "clean"
        print(f"{name}: {status}")
    return 1 if failures else 0


def _cmd_report(args) -> int:
    from .analysis.report import suite_report
    selector = SELECTORS[args.selector]()
    report = suite_report(Runner(), selector,
                          limit_per_suite=args.limit_per_suite)
    print(report.render())
    return 0


def _cmd_limit_study(args) -> int:
    from .analysis.limit_study import run_limit_study
    store = _store_for(args)
    if args.ledger and not store.persistent:
        print("limit-study: --ledger needs a persistent store; pass "
              "--cache-dir or set $REPRO_CACHE_DIR", file=sys.stderr)
        return 2
    telemetry = None
    if getattr(args, "telemetry", None):
        from .obs.telemetry import (
            TelemetryWriter, attach_store_telemetry, run_manifest,
        )
        telemetry = TelemetryWriter(args.telemetry,
                                    run_manifest(label="limit-study"))

    def study(runner):
        ledger = None
        progress = None
        if args.ledger:
            from .dist.resume import open_ledger, workload_for_limit_study
            ledger = open_ledger(
                args.ledger, runner,
                workload_for_limit_study("adpcm", "tiny", "reduced", 10,
                                         args.cap),
                extra={"jobs": args.jobs})
            progress = ledger.sink(None)
        try:
            if telemetry is not None:
                attach_store_telemetry(runner.store, telemetry)
                with telemetry.span("limit-study", "experiment",
                                    args={"jobs": args.jobs}):
                    result = run_limit_study(runner, subset_cap=args.cap,
                                             jobs=args.jobs,
                                             progress=progress)
            else:
                result = run_limit_study(runner, subset_cap=args.cap,
                                         jobs=args.jobs, progress=progress)
            if ledger is not None:
                ledger.complete(len(result.points), 0)
            return result
        finally:
            if ledger is not None:
                ledger.close()

    try:
        if args.jobs > 1 and not store.persistent:
            import tempfile
            with tempfile.TemporaryDirectory(
                    prefix="repro-exec-") as scratch:
                result = study(Runner(store=ArtifactStore(scratch)))
        else:
            result = study(Runner(store=store))
    finally:
        if telemetry is not None:
            telemetry.close()
            print(f"[telemetry] {telemetry.events_written} events -> "
                  f"{telemetry.path}", file=sys.stderr)
    print(result.render())
    return 0


def _parse_duration(text: str) -> float:
    """``"60"``, ``"60s"``, ``"2m"`` → seconds."""
    text = text.strip().lower()
    scale = 1.0
    if text.endswith("ms"):
        text, scale = text[:-2], 0.001
    elif text.endswith("s"):
        text = text[:-1]
    elif text.endswith("m"):
        text, scale = text[:-1], 60.0
    try:
        seconds = float(text) * scale
    except ValueError:
        raise ValueError(f"bad duration {text!r} (try 60s, 90, or 2m)") \
            from None
    if seconds <= 0:
        raise ValueError("duration must be positive")
    return seconds


def _fuzz_selectors(names):
    from .check.fuzz import default_selectors
    if not names:
        return None
    by_name = {s.name: s for s in default_selectors()}
    missing = [n for n in names if n not in by_name]
    if missing:
        raise ValueError(
            f"unknown selector(s) {', '.join(missing)} "
            f"(choose from {', '.join(sorted(by_name))})")
    return [by_name[n] for n in names]


def _cmd_fuzz(args) -> int:
    from .check.fuzz import replay, run_fuzz
    selectors = _fuzz_selectors(args.selectors)
    if args.replay is not None:
        failure = replay(args.replay, selectors=selectors)
        if failure is None:
            print(f"replay {args.replay}: no failure")
            return 0
        print(f"replay {args.replay}: {failure.render()}")
        return 1
    report = run_fuzz(budget=_parse_duration(args.budget),
                      seed=args.seed, max_programs=args.programs,
                      selectors=selectors,
                      artifacts_dir=args.artifacts,
                      shrink=not args.no_shrink,
                      log=lambda line: print(line, file=sys.stderr))
    print(report.render())
    return 0 if report.ok else 1


def _cmd_lint_plan(args) -> int:
    from .check.lint import lint_plan
    runner = Runner(budget=args.budget, store=_store_for(args))
    if args.selector == "slack-dynamic":
        from .minigraph.selectors import SlackDynamicSelector
        selector = SlackDynamicSelector()
    else:
        selector = SELECTORS[args.selector]()
    names = [b.name for b in all_benchmarks()] \
        if args.benchmark == "all" else [args.benchmark]
    failures = 0
    for name in names:
        plan = runner.plan(name, selector, input_name=args.input)
        program = benchmark(name).program(args.input)
        issues = lint_plan(program, plan, max_size=runner.max_mg_size,
                           budget=runner.budget)
        if issues:
            failures += 1
            print(f"{name}/{selector.name}: {len(issues)} issue(s)")
            for issue in issues:
                print(f"  {issue.render()}")
        else:
            print(f"{name}/{selector.name}: OK "
                  f"({len(plan.sites)} sites, {plan.n_templates} "
                  f"templates)")
    return 1 if failures else 0


def _cmd_gen(args) -> int:
    from .isa.validate import check
    from .workloads.generator import synth_program
    program = synth_program(
        args.seed, args.input, profile=args.profile,
        n_loops=args.n_loops, trips=args.trips, ops=args.ops,
        array_sizes=args.array_sizes)
    check(program)
    print(f"# {program.name}: {len(program)} instructions, "
          f"{len(program.data)} data words (seed {args.seed}, "
          f"{args.input} input)")
    print(program.listing())
    return 0


def _cmd_bench(args) -> int:
    from .harness.bench import (
        DEFAULT_BENCHMARKS, DEFAULT_SELECTORS, QUICK_BENCHMARKS,
        QUICK_SELECTORS, check_against, load_report, run_bench, write_report,
    )
    if args.plan:
        from .harness.bench import check_plan_report, run_plan_bench
        benchmarks = list(args.benchmarks or
                          (QUICK_BENCHMARKS if args.quick
                           else DEFAULT_BENCHMARKS))
        label = "plankern" if args.label == "local" else args.label
        report = run_plan_bench(
            benchmarks, label=label, repeat=max(3, args.repeat),
            log=lambda line: print(line, file=sys.stderr))
        print(report.render())
        path = write_report(report, args.out)
        print(f"wrote {path}")
        failures = check_plan_report(report,
                                     min_speedup=args.min_speedup)
        if failures:
            for failure in failures:
                print(f"bench: FAIL {failure}", file=sys.stderr)
            return 1
        return 0
    if args.batch:
        from .harness.bench import check_batch_report, run_batch_bench
        benchmarks = list(args.benchmarks or
                          (QUICK_BENCHMARKS if args.quick
                           else DEFAULT_BENCHMARKS))
        label = "batch" if args.label == "local" else args.label
        report = run_batch_bench(
            benchmarks, threads=args.batch_threads, label=label,
            log=lambda line: print(line, file=sys.stderr))
        print(report.render())
        path = write_report(report, args.out)
        print(f"wrote {path}")
        failures = check_batch_report(report,
                                      min_speedup=args.min_speedup)
        if failures:
            for failure in failures:
                print(f"bench: FAIL {failure}", file=sys.stderr)
            return 1
        return 0
    if args.quick:
        benchmarks = list(args.benchmarks or QUICK_BENCHMARKS)
        selectors = list(args.selectors or QUICK_SELECTORS)
    else:
        benchmarks = list(args.benchmarks or DEFAULT_BENCHMARKS)
        selectors = list(args.selectors or DEFAULT_SELECTORS)
    runner = Runner(store=_store_for(args))
    telemetry = None
    if args.telemetry:
        from .obs.telemetry import (
            TelemetryWriter, attach_store_telemetry, run_manifest,
        )
        telemetry = TelemetryWriter(
            args.telemetry,
            run_manifest(config=config_by_name(args.config),
                         label=args.label))
        attach_store_telemetry(runner.store, telemetry)
    try:
        report = run_bench(benchmarks, selectors,
                           config=config_by_name(args.config),
                           label=args.label, repeat=args.repeat,
                           runner=runner, telemetry=telemetry,
                           log=lambda line: print(line, file=sys.stderr))
    finally:
        if telemetry is not None:
            telemetry.close()
            print(f"[telemetry] {telemetry.events_written} events -> "
                  f"{telemetry.path}", file=sys.stderr)
    print(report.render())
    path = write_report(report, args.out)
    print(f"wrote {path}")
    if args.check_against is not None:
        baseline = load_report(args.check_against)
        failures = check_against(report, baseline,
                                 tolerance=args.tolerance)
        if failures:
            for failure in failures:
                print(f"bench: FAIL {failure}", file=sys.stderr)
            return 1
        print(f"bench: OK against {args.check_against} "
              f"(KIPS {report.kips:.1f} vs baseline {baseline.kips:.1f})")
    return 0


def _cmd_metrics(args) -> int:
    import json as _json

    from .minigraph.transform import fold_trace
    from .obs.attribution import AttributionCollector
    from .obs.metrics import run_registry, validate_metrics
    from .pipeline.core import OoOCore

    if getattr(args, "server", None):
        # Proxy a running daemon's registry instead of simulating.
        from .serve.client import SyncClient
        payload = SyncClient(_serve_address(args)).metrics(args.format)
        if args.format == "json":
            validate_metrics(payload)
            text = _json.dumps(payload, indent=2, sort_keys=True) + "\n"
        else:
            text = payload
        if args.out:
            from pathlib import Path
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        return 0

    runner = Runner(store=_store_for(args))
    config = config_by_name(args.config)
    if args.selector == "none":
        records = runner.trace(args.benchmark, args.input).packed()
    else:
        selector = SELECTORS[args.selector]()
        plan = runner.plan(args.benchmark, selector, input_name=args.input)
        records = fold_trace(runner.trace(args.benchmark, args.input), plan)
    # Attach an (empty-handed for selector=none) attribution collector.
    # Whichever path the core picks — the compiled kernel writes every
    # cache/TLB/branch/store-set counter back, the Python loop counts in
    # place — the structures hold real per-run counts for the harvest.
    core = OoOCore(config, records, warm_caches=True,
                   attribution=AttributionCollector())
    stats = core.run()
    stats.program_name = args.benchmark
    registry = run_registry(core=core, store=runner.store)
    if args.format == "prom":
        text = registry.to_prometheus()
    else:
        doc = registry.to_json()
        validate_metrics(doc)
        text = _json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        from pathlib import Path
        Path(args.out).write_text(text)
        print(f"wrote {len(registry)} metrics to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_attribution(args) -> int:
    from .harness.bench import DEFAULT_BENCHMARKS
    from .obs.attribution import (
        ATTRIBUTION_SELECTORS, render_table, run_attribution,
    )
    runner = Runner(budget=args.budget, store=_store_for(args))
    benchmarks = list(args.benchmarks or DEFAULT_BENCHMARKS)
    selectors = list(args.selectors or ATTRIBUTION_SELECTORS)
    points = run_attribution(
        runner, benchmarks, selectors, config=config_by_name(args.config),
        log=lambda line: print(line, file=sys.stderr))
    print(render_table(points, per_template=args.per_template))
    return 0


def _cmd_telemetry(args) -> int:
    from .obs.telemetry import validate_file
    summary = validate_file(args.file)
    manifest = summary["manifest"]
    print(f"{args.file}: OK ({summary['events']} events, "
          f"{summary['spans']} spans, {summary['instants']} instants)")
    print(f"manifest: git {manifest['git_sha'][:12]} "
          f"config {manifest['config_digest']} salt {manifest['salt']} "
          f"label {manifest['label']!r} created {manifest['created']}")
    if summary["cats"]:
        print("categories: " + ", ".join(
            f"{cat}={count}"
            for cat, count in sorted(summary["cats"].items())))
    return 0


def _cmd_tune(args) -> int:
    from .exec.grid import parse_jobs
    from .tune import SearchSpace, run_tune
    from .tune.ledger import TuneLedgerError
    from .tune.report import tune_doc, write_doc, write_plot
    if args.resume and not args.ledger:
        raise ValueError("--resume needs --ledger")
    if args.space:
        space = SearchSpace.from_file(args.space)
    else:
        space = SearchSpace.from_cli(
            args.selectors or ["struct-all", "read-port"],
            args.configs or ["full", "reduced"],
            benchmarks=args.benchmarks or None,
            input_name=args.input)
    jobs, threads = parse_jobs(args.jobs)
    log = None if args.quiet \
        else (lambda line: print(line, file=sys.stderr))
    try:
        result = run_tune(
            space, strategy=args.strategy, trials=args.trials,
            seed=args.seed, store=_store_for(args), budget=args.budget,
            jobs=jobs, threads=threads, max_insts=args.max_insts,
            halving_eta=args.halving_eta,
            halving_min_insts=args.halving_min_insts,
            ledger_path=args.ledger, resume=args.resume, log=log)
    except TuneLedgerError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    print(result.render())
    if args.out:
        doc = tune_doc(space, result.evals, result.frontier,
                       stats=result.stats.as_dict())
        print(f"wrote {write_doc(args.out, doc)}")
    if args.metrics:
        import json as _json
        from pathlib import Path

        from .obs.metrics import MetricsRegistry, collect_tune
        registry = MetricsRegistry()
        collect_tune(registry, result.stats)
        Path(args.metrics).write_text(
            _json.dumps(registry.to_json(), indent=2) + "\n")
        print(f"wrote {len(registry)} metrics to {args.metrics}")
    if args.plot:
        try:
            print(f"wrote {write_plot(args.plot, result.evals, result.frontier)}")
        except ValueError as error:
            print(f"repro: plot skipped: {error}", file=sys.stderr)
    return 0


def _cmd_cache(args) -> int:
    cache_dir = resolve_cache_dir(args.cache_dir)
    if cache_dir is None:
        print("no cache directory: pass --cache-dir or set "
              "$REPRO_CACHE_DIR", file=sys.stderr)
        return 1
    if args.action == "migrate":
        from .dist.sqlite_store import SqliteManifestBackend
        backend = SqliteManifestBackend(cache_dir)
        count = backend.reindex(force=True)
        backend.close()
        print(f"indexed {count} artifacts into "
              f"{cache_dir}/manifest.sqlite")
        return 0
    store = ArtifactStore(cache_dir, backend=args.backend)
    if args.action == "stats":
        summary = store.disk_summary()
        total_count = sum(e["count"] for e in summary.values())
        total_bytes = sum(e["bytes"] for e in summary.values())
        print(f"artifact store at {store.root} "
              f"({store.backend_name} backend)")
        print(f"{'kind':<12s} {'count':>7s} {'bytes':>12s}")
        for kind in sorted(summary):
            entry = summary[kind]
            print(f"{kind:<12s} {entry['count']:>7d} {entry['bytes']:>12d}")
        print(f"{'total':<12s} {total_count:>7d} {total_bytes:>12d}")
        print(f"code-version salt: {store.salt}")
        if args.compare or args.bench_out:
            from .dist.sqlite_store import compare_backends
            timing = compare_backends(store.root)
            print(f"stats timing: dir {timing['dir_stats_s'] * 1e3:.2f}ms "
                  f"sqlite {timing['sqlite_stats_s'] * 1e3:.2f}ms "
                  f"({timing['speedup']:.1f}x, "
                  f"{timing['artifacts']} artifacts)")
            if args.bench_out:
                import json as _json
                from pathlib import Path
                doc = {k: v for k, v in timing.items() if k != "summary"}
                Path(args.bench_out).write_text(
                    _json.dumps(doc, indent=2, sort_keys=True) + "\n")
                print(f"wrote {args.bench_out}")
    elif args.action == "clear":
        print(f"removed {store.clear()} artifacts from {store.root}")
    elif args.action == "dedup":
        result = store.dedup()
        print(f"deduplicated {store.root}: {result['groups']} duplicate "
              f"groups, {result['linked']} payloads hard-linked, "
              f"{result['bytes_saved']} bytes saved")
    else:  # prune
        max_age = args.max_age_days * 86400.0 \
            if args.max_age_days is not None else None
        removed = store.prune(max_age=max_age, kinds=args.kinds or None)
        print(f"pruned {removed} artifacts from {store.root}")
    return 0


def _cmd_resume(args) -> int:
    from .dist.ledger import LedgerError
    from .dist.resume import resume_run
    from .exec import ProgressPrinter
    dispatch = None
    if args.dispatch:
        from .dist.dispatch import make_dispatch
        dispatch = make_dispatch(args.dispatch, jobs=args.jobs or 1)
    try:
        summary = resume_run(
            args.ledger, jobs=args.jobs,
            on_event=None if args.quiet else ProgressPrinter(),
            dispatch=dispatch, allow_stale=args.force)
    except LedgerError as error:
        print(f"repro: resume: {error}", file=sys.stderr)
        return 1
    print(f"resumed {summary['kind']} run from {args.ledger}: "
          f"{summary['skipped']} nodes already durable, "
          f"{summary['scheduled']} scheduled, "
          f"{summary['completed']} completed, "
          f"{summary['failed']} failed")
    return 1 if summary["failed"] else 0


def _cmd_serve(args) -> int:
    import asyncio
    from pathlib import Path

    from .exec.journal import JournalError
    from .serve.server import ServerConfig, serve_forever
    config = ServerConfig(
        state_dir=Path(args.state_dir),
        socket_path=Path(args.socket) if args.socket else None,
        host=args.host, port=args.port,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        job_slots=args.job_slots, pool_workers=args.pool,
        max_queued=args.max_queued, max_running=args.max_running,
        budget=args.budget, quiet=args.quiet,
        max_results=args.max_results, result_ttl=args.result_ttl,
        max_job_events=args.max_job_events, dispatch=args.dispatch,
        batch_threads=args.batch_threads)
    try:
        return asyncio.run(serve_forever(config))
    except JournalError as error:    # e.g. a journal from another format
        print(f"repro: serve: {error}", file=sys.stderr)
        return 2


def _serve_address(args) -> str:
    from .serve.client import resolve_address
    return resolve_address(args.server)


def _cmd_submit(args) -> int:
    import json as _json

    from .serve.client import ServeError, SyncClient
    if args.spec == "-":
        spec = _json.load(sys.stdin)
    elif args.spec.lstrip().startswith("{"):
        spec = _json.loads(args.spec)
    else:
        from pathlib import Path
        spec = _json.loads(Path(args.spec).read_text())
    client = SyncClient(_serve_address(args), client_id=args.client)
    try:
        summary = client.submit(args.kind, spec, priority=args.priority)
    except ServeError as error:
        print(f"repro: submit rejected: {error}", file=sys.stderr)
        return 1
    print(f"submitted {summary['id']} ({summary['state']})")
    if args.follow:
        client.follow(summary["id"],
                      lambda rec: print(_json.dumps(rec, sort_keys=True)))
    if args.wait or args.follow:
        doc = client.wait(summary["id"])
        print(_json.dumps(doc, indent=2, sort_keys=True))
        return 0 if doc["state"] == "done" else 1
    return 0


def _cmd_loadtest(args) -> int:
    import asyncio
    import json as _json

    from .serve.loadtest import run_loadtest
    report = asyncio.run(run_loadtest(
        _serve_address(args), clients=args.clients,
        jobs_per_client=args.jobs_per_client, mix=args.mix,
        stagger=args.stagger, timeout=args.timeout,
        warmup=not args.no_warmup))
    print(report.render())
    if args.out:
        from pathlib import Path
        Path(args.out).write_text(
            _json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    problems = report.check(
        max_failed=args.gate_max_failed,
        min_warm_ratio=args.gate_min_warm_ratio,
        max_first_event_p95=args.gate_first_event_p95)
    for problem in problems:
        print(f"loadtest: FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "experiments":
        from .harness.experiments import main as experiments_main
        return experiments_main(argv[1:])
    if argv and argv[0] == "worker":
        from .dist.worker import main as worker_main
        return worker_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Serialization-aware mini-graphs (MICRO 2006 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list the benchmark population")
    p_list.add_argument("--suites", nargs="*")
    p_list.set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="run one benchmark")
    p_run.add_argument("benchmark")
    p_run.add_argument("--config", default="reduced")
    p_run.add_argument("--input", default="train")
    p_run.add_argument("--selector", default="slack-profile",
                       choices=sorted(SELECTORS) + ["slack-dynamic",
                                                    "none"])
    _add_cache_flags(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_trace = sub.add_parser("trace", help="pipetrace a benchmark window")
    p_trace.add_argument("benchmark")
    p_trace.add_argument("--config", default="reduced")
    p_trace.add_argument("--input", default="train")
    p_trace.add_argument("--selector", default="none",
                         choices=sorted(SELECTORS) + ["none"])
    p_trace.add_argument("--first", type=int, default=0)
    p_trace.add_argument("--last", type=int, default=32)
    p_trace.set_defaults(fn=_cmd_trace)

    p_val = sub.add_parser("validate", help="statically validate programs")
    p_val.add_argument("benchmark", help="a benchmark name or 'all'")
    p_val.set_defaults(fn=_cmd_validate)

    p_report = sub.add_parser("report",
                              help="per-suite headline breakdown")
    p_report.add_argument("--selector", default="slack-profile",
                          choices=sorted(SELECTORS))
    p_report.add_argument("--limit-per-suite", type=int, default=None)
    p_report.set_defaults(fn=_cmd_report)

    p_limit = sub.add_parser("limit-study",
                             help="Figure 8 exhaustive study")
    p_limit.add_argument("--cap", type=int, default=None,
                         help="truncate the subset sweep")
    p_limit.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the subset sweep")
    p_limit.add_argument("--telemetry", default=None, metavar="PATH",
                         help="write run telemetry JSONL to PATH")
    p_limit.add_argument("--ledger", default=None, metavar="PATH",
                         help="journal subset completion to PATH; a "
                              "killed study resumes with "
                              "`repro resume PATH`")
    _add_cache_flags(p_limit)
    p_limit.set_defaults(fn=_cmd_limit_study)

    p_fuzz = sub.add_parser(
        "fuzz", help="property-based fuzz of the mini-graph pipeline")
    p_fuzz.add_argument("--budget", default="60s",
                        help="time budget, e.g. 60s, 90, 2m (default 60s)")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed (disjoint spec streams)")
    p_fuzz.add_argument("--programs", type=int, default=None,
                        help="stop after N programs even under budget")
    p_fuzz.add_argument("--selectors", nargs="*", default=None,
                        help="restrict to these selectors "
                             "(default: all five)")
    p_fuzz.add_argument("--artifacts", default=None, metavar="DIR",
                        help="write shrunk reproducers here")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="skip delta-debugging minimization")
    p_fuzz.add_argument("--replay", type=int, default=None, metavar="SEED",
                        help="re-check one spec seed instead of fuzzing")
    p_fuzz.set_defaults(fn=_cmd_fuzz)

    p_lint = sub.add_parser(
        "lint-plan", help="audit a selection plan against the paper's "
                          "structural contract")
    p_lint.add_argument("benchmark", help="a benchmark name or 'all'")
    p_lint.add_argument("--selector", default="slack-profile",
                        choices=sorted(SELECTORS) + ["slack-dynamic"])
    p_lint.add_argument("--input", default="train")
    p_lint.add_argument("--budget", type=int, default=512,
                        help="MGT template budget")
    _add_cache_flags(p_lint)
    p_lint.set_defaults(fn=_cmd_lint_plan)

    p_gen = sub.add_parser(
        "gen", help="print one synthetic generator program")
    p_gen.add_argument("--seed", type=int, required=True,
                       help="generator seed (exact reproducer)")
    p_gen.add_argument("--input", default="train",
                       choices=["train", "ref"])
    p_gen.add_argument("--profile", default=None,
                       choices=["compute", "memory", "branchy", "serial"])
    p_gen.add_argument("--n-loops", type=int, default=None)
    p_gen.add_argument("--trips", type=int, default=None)
    p_gen.add_argument("--ops", type=int, default=None)
    p_gen.add_argument("--array-sizes", type=int, nargs="*", default=None,
                       help="power-of-two array sizes")
    p_gen.set_defaults(fn=_cmd_gen)

    p_bench = sub.add_parser(
        "bench", help="simulator throughput benchmark (KIPS) over a "
                      "benchmark x selector matrix")
    p_bench.add_argument("--quick", action="store_true",
                         help="small matrix for CI smoke runs")
    p_bench.add_argument("--benchmarks", nargs="*", default=None,
                         help="override the benchmark list")
    p_bench.add_argument("--selectors", nargs="*", default=None,
                         help="override the selector list "
                              "(none struct-all struct-none struct-bounded "
                              "slack-profile)")
    p_bench.add_argument("--config", default="reduced")
    p_bench.add_argument("--label", default="local",
                         help="writes BENCH_<label>.json")
    p_bench.add_argument("--out", default=".",
                         help="directory for the BENCH json "
                              "(default: current directory)")
    p_bench.add_argument("--repeat", type=int, default=1,
                         help="time each point N times, keep the fastest")
    p_bench.add_argument("--check-against", default=None, metavar="FILE",
                         help="fail on fidelity drift or aggregate KIPS "
                              "regression vs this BENCH json")
    p_bench.add_argument("--tolerance", type=float, default=0.20,
                         help="allowed fractional KIPS regression "
                              "(default 0.20)")
    p_bench.add_argument("--telemetry", default=None, metavar="PATH",
                         help="write run telemetry JSONL to PATH "
                              "(bench spans + runner phases)")
    p_bench.add_argument("--batch", action="store_true",
                         help="benchmark batched native dispatch against "
                              "per-point process dispatch; writes "
                              "BENCH_batch.json")
    p_bench.add_argument("--batch-threads", type=int, default=0,
                         help="C threads for --batch (default: auto)")
    p_bench.add_argument("--plan", action="store_true",
                         help="benchmark the native slack-profile build "
                              "against the pure-Python reference; writes "
                              "BENCH_plankern.json")
    p_bench.add_argument("--min-speedup", type=float, default=3.0,
                         help="--batch/--plan gate: the native path must "
                              "beat the reference by this factor "
                              "(default 3.0)")
    _add_cache_flags(p_bench)
    p_bench.set_defaults(fn=_cmd_bench)

    p_metrics = sub.add_parser(
        "metrics", help="run one point and export the unified metrics "
                        "registry (JSON or Prometheus text)")
    p_metrics.add_argument("benchmark", nargs="?", default="crc32")
    p_metrics.add_argument("--config", default="reduced")
    p_metrics.add_argument("--input", default="train")
    p_metrics.add_argument("--selector", default="none",
                           choices=sorted(SELECTORS) + ["none"])
    p_metrics.add_argument("--format", default="json",
                           choices=["json", "prom"],
                           help="export format (default json)")
    p_metrics.add_argument("--out", default=None, metavar="PATH",
                           help="write the export here instead of stdout")
    p_metrics.add_argument("--server", default=None, metavar="ADDR",
                           help="export a running daemon's registry "
                                "(unix:/path, host:port, or a serve "
                                "state dir) instead of simulating")
    _add_cache_flags(p_metrics)
    p_metrics.set_defaults(fn=_cmd_metrics)

    p_attr = sub.add_parser(
        "attribution",
        help="predicted-vs-observed mini-graph serialization delay "
             "(all five selectors; see docs/observability.md)")
    p_attr.add_argument("--benchmarks", nargs="*", default=None,
                        help="override the default benchmark suite")
    p_attr.add_argument("--selectors", nargs="*", default=None,
                        help="override the selector list (struct-all "
                             "struct-none struct-bounded slack-profile "
                             "slack-dynamic)")
    p_attr.add_argument("--config", default="reduced")
    p_attr.add_argument("--budget", type=int, default=512,
                        help="MGT template budget")
    p_attr.add_argument("--per-template", action="store_true",
                        help="append the worst-templates detail section")
    _add_cache_flags(p_attr)
    p_attr.set_defaults(fn=_cmd_attribution)

    p_tele = sub.add_parser(
        "telemetry", help="validate a telemetry JSONL file against the "
                          "documented schema and summarize it")
    p_tele.add_argument("file", help="path to a --telemetry output file")
    p_tele.set_defaults(fn=_cmd_telemetry)

    p_tune = sub.add_parser(
        "tune", help="design-space autotuner: search selector families x "
                     "machine configs, report Pareto frontiers "
                     "(see docs/tuning.md)")
    p_tune.add_argument("--space", default=None, metavar="FILE",
                        help="search-space spec file (.json, or .toml on "
                             "Python >= 3.11)")
    p_tune.add_argument("--selectors", nargs="*", metavar="KIND",
                        help="selector families when no --space file "
                             "(default grids apply; default: struct-all "
                             "read-port)")
    p_tune.add_argument("--configs", nargs="*", metavar="SPEC",
                        help="config specs: names or base@knob=value,... "
                             "(default: full reduced)")
    p_tune.add_argument("--benchmarks", nargs="*")
    p_tune.add_argument("--input", default="train")
    p_tune.add_argument("--strategy", default="grid",
                        choices=["grid", "random", "halving"])
    p_tune.add_argument("--trials", type=int, default=None,
                        help="trial cap (the random sample size; an "
                             "optional truncation for grid/halving)")
    p_tune.add_argument("--seed", type=int, default=0,
                        help="random-strategy sampling seed")
    p_tune.add_argument("--jobs", default="1",
                        help="N processes or threads:N batched native "
                             "dispatch (as in repro experiments)")
    p_tune.add_argument("--budget", type=int, default=512,
                        help="MGT entries per plan")
    p_tune.add_argument("--max-insts", type=int, default=2_000_000,
                        help="full-evaluation trace length")
    p_tune.add_argument("--halving-eta", type=int, default=2,
                        help="successive-halving promotion factor")
    p_tune.add_argument("--halving-min-insts", type=int, default=50_000,
                        help="shortest successive-halving rung")
    p_tune.add_argument("--ledger", default=None, metavar="FILE",
                        help="JSONL tuning ledger (enables --resume)")
    p_tune.add_argument("--resume", action="store_true",
                        help="skip trials already journaled in --ledger")
    p_tune.add_argument("--out", default=None, metavar="FILE",
                        help="write the benchmarks/-style JSON artifact")
    p_tune.add_argument("--plot", default=None, metavar="PNG",
                        help="coverage-vs-IPC scatter (needs matplotlib)")
    p_tune.add_argument("--metrics", default=None, metavar="FILE",
                        help="export tune.* metrics as JSON")
    p_tune.add_argument("--quiet", action="store_true",
                        help="suppress progress on stderr")
    _add_cache_flags(p_tune)
    p_tune.set_defaults(fn=_cmd_tune)

    p_cache = sub.add_parser("cache",
                             help="artifact store maintenance")
    p_cache.add_argument("action", choices=["stats", "clear", "prune",
                                            "migrate", "dedup"])
    p_cache.add_argument("--cache-dir", default=None,
                         help="store directory (default: $REPRO_CACHE_DIR)")
    p_cache.add_argument("--backend", default=None,
                         choices=["dir", "sqlite"],
                         help="store index backend (default: "
                              "$REPRO_STORE_BACKEND, else dir)")
    p_cache.add_argument("--max-age-days", type=float, default=None,
                         help="prune: drop artifacts older than this")
    p_cache.add_argument("--kinds", nargs="*", default=None,
                         help="prune: restrict to artifact kinds "
                              "(trace profile candidates plan baseline "
                              "run run-dynamic subset)")
    p_cache.add_argument("--compare", action="store_true",
                         help="stats: time the dir walk against the "
                              "sqlite manifest on this store")
    p_cache.add_argument("--bench-out", default=None, metavar="PATH",
                         help="stats: write the backend timing comparison "
                              "JSON here (implies --compare)")
    p_cache.set_defaults(fn=_cmd_cache)

    p_serve = sub.add_parser(
        "serve", help="persistent job daemon: submit experiments over a "
                      "local socket, warm-path reuse across jobs "
                      "(see docs/serving.md)")
    p_serve.add_argument("--state-dir", default=".repro-serve",
                         help="journal, socket and default cache live "
                              "here (default .repro-serve)")
    p_serve.add_argument("--socket", default=None, metavar="PATH",
                         help="unix socket path "
                              "(default <state-dir>/serve.sock)")
    p_serve.add_argument("--host", default=None,
                         help="serve TCP on this host instead of a "
                              "unix socket")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (0 = ephemeral; requires --host)")
    p_serve.add_argument("--cache-dir", default=None,
                         help="artifact store directory "
                              "(default <state-dir>/cache)")
    p_serve.add_argument("--job-slots", type=int, default=4,
                         help="jobs running concurrently (default 4)")
    p_serve.add_argument("--pool", type=int, default=0,
                         help="shared worker-process pool size "
                              "(0 = per-job pools)")
    p_serve.add_argument("--max-queued", type=int, default=32,
                         help="per-client queued-job quota (default 32)")
    p_serve.add_argument("--max-running", type=int, default=2,
                         help="per-client running-job quota (default 2)")
    p_serve.add_argument("--budget", type=int, default=512,
                         help="MGT template budget for served runs")
    p_serve.add_argument("--quiet", action="store_true",
                         help="suppress progress lines on stderr")
    p_serve.add_argument("--max-results", type=int, default=256,
                         help="terminal jobs retained in the job table "
                              "before LRU eviction (default 256)")
    p_serve.add_argument("--result-ttl", type=float, default=3600.0,
                         help="seconds a finished job's result stays "
                              "queryable (default 3600)")
    p_serve.add_argument("--max-job-events", type=int, default=10_000,
                         help="per-job event-log window; older events "
                              "are truncated (default 10000)")
    p_serve.add_argument("--dispatch", default=None, metavar="SPEC",
                         help="run DAGs on a worker fleet: workers:HOST"
                              ":PORT (workers join with 'repro worker')")
    p_serve.add_argument("--batch-threads", type=int, default=0,
                         help="batched native dispatch for single-process "
                              "jobs: each wave of timing points runs as "
                              "one C call over N threads (0 = off)")
    p_serve.set_defaults(fn=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit one job to a running daemon")
    p_submit.add_argument("kind",
                          choices=["experiment", "bench", "fuzz",
                                   "limit-study"])
    p_submit.add_argument("spec",
                          help="inline JSON, a spec file path, or '-' "
                               "for stdin")
    p_submit.add_argument("--server", default=".repro-serve",
                          help="daemon address or state dir "
                               "(default .repro-serve)")
    p_submit.add_argument("--client", default="cli",
                          help="client id for quota accounting")
    p_submit.add_argument("--priority", default="normal",
                          choices=["interactive", "normal", "batch"])
    p_submit.add_argument("--wait", action="store_true",
                          help="block until terminal, print the result")
    p_submit.add_argument("--follow", action="store_true",
                          help="stream the job's telemetry events "
                               "(implies --wait)")
    p_submit.set_defaults(fn=_cmd_submit)

    p_load = sub.add_parser(
        "loadtest", help="drive concurrent clients against a running "
                         "daemon and gate on the report")
    p_load.add_argument("--server", default=".repro-serve",
                        help="daemon address or state dir "
                             "(default .repro-serve)")
    p_load.add_argument("--clients", type=int, default=100,
                        help="concurrent simulated clients (default 100)")
    p_load.add_argument("--jobs-per-client", type=int, default=2,
                        help="jobs each client submits (default 2)")
    p_load.add_argument("--mix", action="store_true",
                        help="mix short fuzz jobs into the stream")
    p_load.add_argument("--stagger", type=float, default=0.0,
                        help="per-client start offset in seconds")
    p_load.add_argument("--timeout", type=float, default=120.0,
                        help="per-job completion timeout (default 120s)")
    p_load.add_argument("--no-warmup", action="store_true",
                        help="skip the pilot warm pass (measure the "
                             "cold stampede)")
    p_load.add_argument("--out", default=None, metavar="PATH",
                        help="also write the report JSON here")
    p_load.add_argument("--gate-max-failed", type=int, default=0,
                        help="fail if more jobs fail (default 0)")
    p_load.add_argument("--gate-min-warm-ratio", type=float, default=None,
                        help="fail if the server warm-hit ratio is lower")
    p_load.add_argument("--gate-first-event-p95", type=float, default=None,
                        metavar="SECONDS",
                        help="fail if submit-to-first-event p95 exceeds "
                             "this")
    p_load.set_defaults(fn=_cmd_loadtest)

    p_resume = sub.add_parser(
        "resume", help="resume a killed run from its --ledger journal, "
                       "scheduling only nodes whose durable artifacts "
                       "are missing (see docs/distributed.md)")
    p_resume.add_argument("ledger", help="ledger path from --ledger")
    p_resume.add_argument("--jobs", type=int, default=None,
                          help="override the dead run's fan-out")
    p_resume.add_argument("--dispatch", default=None, metavar="SPEC",
                          help="dispatch backend: 'local' or "
                               "'workers:ADDR' (repro worker fleet)")
    p_resume.add_argument("--force", action="store_true",
                          help="proceed even if the code-version salt "
                               "changed (re-runs everything)")
    p_resume.add_argument("--quiet", action="store_true",
                          help="suppress the scheduler progress stream")
    p_resume.set_defaults(fn=_cmd_resume)

    # "experiments" and "worker" are documented here even though they are
    # dispatched above.
    sub.add_parser("experiments",
                   help="regenerate paper figures "
                        "(see repro.harness.experiments)")
    sub.add_parser("worker",
                   help="join a dispatch coordinator and execute leased "
                        "DAG nodes (see repro.dist.worker)")

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `python -m repro list | head`
        return 0
    except (ValidationError, MemoryFault, ExecutionLimitExceeded,
            ValueError) as error:
        # Anticipated failures (bad benchmark/selector names, assembler
        # and validation errors, runaway or faulting programs) get a
        # one-line diagnostic, not a traceback.
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate ``catalog.json``: the relative host cost of each program.

The sampler (``sample.py``) draws seeded program samples whose summed
cost stays within a narrow band, so that every seed loads the host
about equally and run-to-run spread reflects the program, not the draw.
Only the *relative* costs matter. Each is the median of three serial
runs scaled to the reference host speed (``calibrate.py``), with the
program image rebuilt each time, on a 2-CPU x86-64 Linux container::

    PYTHONPATH=src python3 perfbench/catalog.py > perfbench/catalog.json

Regenerate after a change that reshapes per-program costs (a new
workload builder, a port that speeds up one stage by a large factor).
"""

from __future__ import annotations

import json
import platform
import sys
import time


#: Timings per program and figure; the catalog keeps their median.
REPEATS = 3


def _cold(bench) -> None:
    bench._cache.clear()        # rebuild the program image, as a cold run


def _cost(run) -> float:
    """Median host-speed-scaled seconds of ``run()`` (see calibrate.py)."""
    import calibrate
    costs = []
    for _ in range(REPEATS):
        before = calibrate.probe_times(3)
        start = time.perf_counter()
        run()
        seconds = time.perf_counter() - start
        costs.append(seconds * calibrate.speed_scale(
            [before, calibrate.probe_times(3)]))
    return round(sorted(costs)[REPEATS // 2], 4)


def main() -> int:
    from repro.analysis.limit_study import (
        run_limit_study, top_nonoverlapping_sites,
    )
    from repro.harness.experiments import fig1, fig6
    from repro.harness.runner import Runner
    from repro.workloads.suite import all_benchmarks

    programs = []
    limit = []
    for bench in all_benchmarks():
        costs = {}
        for name, driver in (("fig6_s", fig6), ("fig1_s", fig1)):
            def run(driver=driver):
                _cold(bench)
                driver(Runner(), [bench])
            costs[name] = _cost(run)
        runner = Runner()
        programs.append({"name": bench.name, "suite": bench.suite,
                         "trace_insts": len(runner.trace(bench)), **costs})
        for input_name in bench.inputs:
            sites = top_nonoverlapping_sites(runner, bench.name, input_name)
            insts = len(runner.trace(bench, input_name))
            # Full 1024-subset studies cost seconds each: time only the
            # short traces, from which the limit workload draws.
            if len(sites) < 10 or insts > 2600:
                continue
            def study(name=bench.name, input_name=input_name):
                _cold(bench)
                run_limit_study(Runner(), bench=name, input_name=input_name)
            limit.append({"bench": bench.name, "input": input_name,
                          "trace_insts": insts, "limit_s": _cost(study)})
    json.dump({"host": f"{platform.machine()} {platform.system()}, "
                       f"Python {platform.python_version()}",
               "programs": programs, "limit": limit},
              sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

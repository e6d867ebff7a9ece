"""Seeded workload inputs: program samples and the serve job sequence.

Every draw is a pure function of the workload seed and ``catalog.json``,
so one seed always yields the same inputs, and the program under test
only ever sees the generated names and job specs.

Figure samples are stratified by suite (one program per listed suite)
and cost-balanced: draws are rejected until the summed catalog cost is
within ``BAND`` of a fixed target, so seeds differ in *which* programs
run but not in how much host work they make.
"""

from __future__ import annotations

import json
import random
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence

CATALOG = Path(__file__).with_name("catalog.json")

#: Accepted relative distance of a sample's summed cost from the target.
BAND = 0.03

#: Per-workload (cost column, suites drawn, share of the per-suite
#: median cost summed into the target, RNG stream tag). Distinct tags
#: give store-durable a different sample than fig6-cold for one seed.
FIGURE_SAMPLES = {
    "fig6-cold": ("fig6_s", ("spec", "media", "comm", "embedded",
                             "synth") * 2, 0.6, "fig6"),
    "store-durable": ("fig1_s", ("spec", "media", "comm", "embedded",
                                 "synth") * 2, 0.8, "store"),
    "serve-closed": ("fig6_s", ("spec", "media", "comm", "embedded",
                                "synth", "synth"), 0.6, "serve"),
}

#: Limit-study draws: programs whose catalog cost is within this share
#: of the cheapest eligible (program, input) pair.
LIMIT_BAND = 0.05

#: Share of serve jobs that repeat a point the same client has finished.
SERVE_REPEAT_SHARE = 0.4

#: Selector specs and machines of the serve job points.
SERVE_SELECTORS = ({"kind": "struct-all"}, {"kind": "struct-none"},
                   {"kind": "struct-bounded"}, {"kind": "slack-profile"})
SERVE_CONFIGS = ("reduced", "full")


def load_catalog(path: Path = CATALOG) -> Dict:
    return json.loads(Path(path).read_text())


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{tag}:{seed}")


def stratified_sample(programs: Sequence[Dict], suites: Sequence[str],
                      costs: Sequence[str], seed: int, tag: str,
                      share: float = 0.8, band: float = BAND,
                      tries: int = 50000) -> List[str]:
    """One program per entry of ``suites`` (a suite may repeat; repeats
    draw distinct programs) whose sums of every column in ``costs`` are
    within ``band`` of their targets: ``share`` x the sum of per-suite
    median values.

    Host time is balanced through the measured cost; trace length is
    balanced too because it sets what a warm replay reads back. No
    single program may carry more than 40% of a target, so a 2-way
    fan-out is never bound by one long program. Falls back to the
    closest draw seen if ``tries`` draws miss the band (never happens
    with the shipped catalog).
    """
    by_suite: Dict[str, List[Dict]] = {}
    for entry in programs:
        by_suite.setdefault(entry["suite"], []).append(entry)
    for entries in by_suite.values():
        entries.sort(key=lambda e: e["name"])
    targets = {cost: share * sum(statistics.median(e[cost]
                                                   for e in by_suite[s])
                                 for s in suites)
               for cost in costs}
    rng = _rng(seed, tag)
    best: Optional[List[Dict]] = None
    best_gap = float("inf")
    for _ in range(tries):
        picked: List[Dict] = []
        for suite in suites:
            pool = [e for e in by_suite[suite] if e not in picked
                    and all(e[c] <= 0.4 * t for c, t in targets.items())]
            picked.append(rng.choice(pool))
        gap = max(abs(sum(e[c] for e in picked) - t) / t
                  for c, t in targets.items())
        if gap < best_gap:
            best, best_gap = picked, gap
        if gap <= band:
            break
    return [e["name"] for e in best]


def figure_sample(workload: str, seed: int,
                  catalog: Optional[Dict] = None) -> List[str]:
    """The program names a figure-style workload runs for ``seed``."""
    catalog = catalog or load_catalog()
    cost, suites, share, tag = FIGURE_SAMPLES[workload]
    return stratified_sample(catalog["programs"], suites,
                             (cost, "trace_insts"), seed, tag, share=share)


def limit_program(seed: int, catalog: Optional[Dict] = None) -> Dict:
    """``{"bench", "input"}`` of the seeded limit-study program."""
    catalog = catalog or load_catalog()
    entries = sorted(catalog["limit"], key=lambda e: (e["bench"],
                                                      e["input"]))
    cheapest = min(e["limit_s"] for e in entries)
    pool = [e for e in entries if e["limit_s"] <= cheapest * (1 + LIMIT_BAND)]
    entry = _rng(seed, "limit").choice(pool)
    return {"bench": entry["bench"], "input": entry["input"]}


def serve_points(programs: Sequence[str]) -> List[Dict]:
    """Every distinct experiment point the serve workload may submit."""
    points = []
    for bench in programs:
        for config in SERVE_CONFIGS:
            points.append({"kind": "baseline", "bench": bench,
                           "config": config})
            for selector in SERVE_SELECTORS:
                points.append({"kind": "selector", "bench": bench,
                               "config": config, "selector": selector})
    return points


def serve_jobs(programs: Sequence[str], seed: int, clients: int = 2
               ) -> List[List[Dict]]:
    """Per-client closed-loop job sequences of single-point specs.

    The distinct points are shuffled and dealt round-robin to clients;
    each client then interleaves its new points with repeats of points
    it has already finished (so a repeat always takes the warm path),
    at ``SERVE_REPEAT_SHARE`` of its jobs.
    """
    rng = _rng(seed, "serve-jobs")
    points = serve_points(programs)
    rng.shuffle(points)
    sequences: List[List[Dict]] = []
    for client in range(clients):
        fresh = points[client::clients]
        n_repeats = round(len(fresh) * SERVE_REPEAT_SHARE
                          / (1 - SERVE_REPEAT_SHARE))
        jobs: List[Dict] = [fresh[0]]
        done = [fresh[0]]
        pending = list(fresh[1:])
        repeats_left = n_repeats
        while pending or repeats_left:
            left = len(pending) + repeats_left
            if repeats_left and rng.random() < repeats_left / left:
                jobs.append(rng.choice(done))
                repeats_left -= 1
            else:
                point = pending.pop(0)
                jobs.append(point)
                done.append(point)
        sequences.append(jobs)
    return sequences

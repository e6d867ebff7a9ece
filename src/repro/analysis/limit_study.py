"""Figure 8: exhaustive limit study over 10 mini-graph candidates.

Mini-graph selection is non-decomposable, so a full limit study is
infeasible (§5.4); the paper instead takes the 10 most frequent
non-overlapping static mini-graph candidates of the ADPCM coder, evaluates
all 2^10 = 1024 subsets exhaustively on the reduced machine, and places
each selector's choice on the resulting coverage/performance scatter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..minigraph.dynamic import SlackDynamicPolicy
from ..minigraph.selectors import (
    FixedSetSelector, Selector, SlackProfileSelector, StructAll,
    StructBounded, StructNone, make_plan,
)
from ..minigraph.templates import MGSite, build_templates
from ..minigraph.transform import fold_trace
from ..pipeline.config import MachineConfig, reduced_config
from ..pipeline.core import OoOCore
from ..harness.runner import Runner


@dataclass
class SubsetPoint:
    """One evaluated mini-graph subset."""

    mask: int
    coverage: float
    relative_ipc: float

    def members(self) -> List[int]:
        """Candidate indices present in this subset's bitmask."""
        return [i for i in range(10) if self.mask & (1 << i)]


@dataclass
class LimitStudyResult:
    """Scatter points plus each selector's position."""

    bench: str
    input_name: str
    candidate_sites: List[MGSite] = field(default_factory=list)
    points: List[SubsetPoint] = field(default_factory=list)
    selector_points: Dict[str, SubsetPoint] = field(default_factory=dict)

    @property
    def best(self) -> SubsetPoint:
        return max(self.points, key=lambda p: p.relative_ipc)

    @property
    def empty_set(self) -> SubsetPoint:
        return next(p for p in self.points if p.mask == 0)

    def render(self) -> str:
        """Text table: the exhaustive best plus each selector's point."""
        lines = [f"=== FIG8 limit study: {self.bench}/{self.input_name} ===",
                 f"{len(self.points)} subsets evaluated over "
                 f"{len(self.candidate_sites)} candidates",
                 f"{'set':>22s} {'mask':>12s} {'coverage':>9s} "
                 f"{'rel perf':>9s}"]
        best = self.best
        lines.append(f"{'exhaustive best':>22s} {best.members()!s:>12s} "
                     f"{best.coverage:9.3f} {best.relative_ipc:9.3f}")
        for name, point in self.selector_points.items():
            lines.append(f"{name:>22s} {point.members()!s:>12s} "
                         f"{point.coverage:9.3f} {point.relative_ipc:9.3f}")
        return "\n".join(lines)


def top_nonoverlapping_sites(runner: Runner, bench: str, input_name: str,
                             count: int = 10) -> List[MGSite]:
    """The ``count`` most frequent, mutually non-overlapping candidates."""
    bench_obj = runner._bench(bench)
    program = bench_obj.program(input_name)
    trace = runner.trace(bench, input_name)
    candidates = runner.candidates(bench, input_name)
    templates = build_templates(candidates, trace.dynamic_count_of())
    sites = [site for template in templates for site in template.sites]
    sites.sort(key=lambda s: (-s.score_contribution, s.start))
    chosen: List[MGSite] = []
    for site in sites:
        if len(chosen) == count:
            break
        if any(site.start < c.end and c.start < site.end for c in chosen):
            continue
        if site.frequency == 0:
            continue
        chosen.append(site)
    chosen.sort(key=lambda s: s.start)
    return chosen


def _evaluate_subset(runner: Runner, bench: str, input_name: str,
                     config: MachineConfig, sites: List[MGSite], mask: int,
                     baseline_ipc: float,
                     policy=None) -> SubsetPoint:
    allowed = {site.id for i, site in enumerate(sites) if mask & (1 << i)}
    bench_obj = runner._bench(bench)
    program = bench_obj.program(input_name)
    trace = runner.trace(bench, input_name)
    plan = make_plan(program, trace.dynamic_count_of(),
                     FixedSetSelector(allowed),
                     budget=runner.budget,
                     candidates=runner.candidates(bench, input_name))
    records = fold_trace(trace, plan)
    core = OoOCore(config, records, policy=policy,
                   warm_caches=runner.warm_caches)
    stats = core.run()
    return SubsetPoint(mask, stats.coverage, stats.ipc / baseline_ipc)


def evaluate_subset_cached(runner: Runner, bench: str, input_name: str,
                           config: MachineConfig, n_candidates: int,
                           mask: int, baseline_ipc: float,
                           sites: Optional[List[MGSite]] = None
                           ) -> SubsetPoint:
    """Store-backed subset evaluation: the durable form of one Figure 8
    scatter point.

    Keyed via :meth:`Runner.subset_params` (full machine sizing, mask,
    candidate count, normalization baseline, runner knobs), so completed
    masks survive process death — which is what lets ``repro resume``
    skip them after a killed limit study — and repeated sweeps over the
    same cache directory are free. ``sites`` skips the candidate ranking
    when the caller already holds it.
    """
    params = runner.subset_params(bench, input_name, config, n_candidates,
                                  mask, baseline_ipc)

    def compute() -> SubsetPoint:
        ranked = sites if sites is not None else top_nonoverlapping_sites(
            runner, bench, input_name, n_candidates)
        return _evaluate_subset(runner, bench, input_name, config, ranked,
                                mask, baseline_ipc)

    return runner.store.get_or_compute("subset", params, compute)


def _selector_mask(plan_sites: List[MGSite], sites: List[MGSite]) -> int:
    chosen_ids = {site.id for site in plan_sites}
    mask = 0
    for i, site in enumerate(sites):
        if site.id in chosen_ids:
            mask |= 1 << i
    return mask


def _parallel_subset_points(runner: Runner, bench: str, input_name: str,
                            config: MachineConfig, n_candidates: int,
                            n_subsets: int, baseline_ipc: float,
                            jobs: int,
                            progress=None) -> List[SubsetPoint]:
    """Fan the exhaustive subset sweep out over worker processes.

    Each mask evaluation is one task; trace and candidate enumeration
    are shared through the runner's persistent artifact store. Results
    are ordered by mask, so the outcome is independent of ``jobs``.
    """
    from ..exec.dag import Scheduler, Task
    from ..exec.shm import ShmRegistry
    from ..exec.tasks import run_subset, runner_params

    base = runner_params(runner)
    # The driver has already materialized the trace (site ranking reads
    # it), so ship it to the workers zero-copy instead of having every
    # process unpickle the same multi-megabyte artifact.
    registry = ShmRegistry()
    descriptor = registry.publish(runner.trace(bench, input_name),
                                  bench, input_name, runner.max_insts)
    if descriptor is not None:
        base = dict(base, shm_traces=[descriptor])
    tasks = [
        Task(id=f"subset/{bench}/{input_name}/{mask}", fn=run_subset,
             args=(dict(base, bench=bench, input=input_name,
                        config=config.name, n_candidates=n_candidates,
                        mask=mask, baseline_ipc=baseline_ipc),),
             stage="subset")
        for mask in range(n_subsets)
    ]
    try:
        report = Scheduler(jobs=jobs, on_event=progress,
                           runner=runner).run(tasks)
    finally:
        registry.release_all()
    points = [SubsetPoint(r["mask"], r["coverage"], r["relative_ipc"])
              for r in report.results.values()]
    points.sort(key=lambda p: p.mask)
    return points


def run_limit_study(runner: Optional[Runner] = None, bench: str = "adpcm",
                    input_name: str = "tiny",
                    config: Optional[MachineConfig] = None,
                    n_candidates: int = 10,
                    subset_cap: Optional[int] = None,
                    jobs: int = 1,
                    progress=None) -> LimitStudyResult:
    """Exhaustively evaluate mini-graph subsets and place the selectors.

    ``subset_cap`` truncates the exhaustive sweep (tests use small caps);
    the full Figure 8 sweep needs ``2 ** n_candidates`` evaluations.
    With ``jobs > 1`` (and a persistent artifact store on ``runner`` and
    a *named* machine configuration) the sweep fans out over worker
    processes; results are identical to the serial path. ``progress``
    receives the scheduler's per-task event stream (see
    :class:`~repro.exec.dag.Scheduler`); callers that render progress —
    the CLI, the serve daemon's per-job event logs — attach their own
    sink instead of sharing one process-wide stderr stream.
    """
    runner = runner or Runner()
    config = config or reduced_config()
    sites = top_nonoverlapping_sites(runner, bench, input_name,
                                     n_candidates)
    result = LimitStudyResult(bench, input_name, candidate_sites=sites)

    # Normalize against the fully-provisioned machine without mini-graphs.
    from ..pipeline.config import NAMED_CONFIGS, full_config
    baseline_ipc = runner.baseline(bench, full_config(), input_name).ipc

    n_subsets = 1 << len(sites)
    if subset_cap is not None:
        n_subsets = min(n_subsets, subset_cap)
    parallel_ok = (jobs > 1 and runner.store.persistent
                   and config.name in NAMED_CONFIGS)
    if parallel_ok:
        result.points.extend(_parallel_subset_points(
            runner, bench, input_name, config, n_candidates, n_subsets,
            baseline_ipc, jobs, progress=progress))
    else:
        for mask in range(n_subsets):
            result.points.append(evaluate_subset_cached(
                runner, bench, input_name, config, n_candidates, mask,
                baseline_ipc, sites=sites))

    # Place each static selector: its pool restricted to the 10 candidates.
    profile = runner.slack_profile(bench, config, input_name)
    static_selectors: List[Selector] = [
        StructAll(), StructNone(), StructBounded(), SlackProfileSelector()]
    by_mask = {p.mask: p for p in result.points}
    for selector in static_selectors:
        pool = selector.build_pool(sites, profile)
        mask = _selector_mask(pool, sites)
        point = by_mask.get(mask)
        if point is None:
            point = evaluate_subset_cached(runner, bench, input_name,
                                           config, n_candidates, mask,
                                           baseline_ipc, sites=sites)
        result.selector_points[selector.name] = point

    # Slack-Dynamic starts from the full set and disables at run time.
    policy = SlackDynamicPolicy()
    full_mask = (1 << len(sites)) - 1
    dynamic_point = _evaluate_subset(runner, bench, input_name, config,
                                     sites, full_mask, baseline_ipc,
                                     policy=policy)
    enabled_mask = 0
    for i, site in enumerate(sites):
        if policy.enabled(site):
            enabled_mask |= 1 << i
    result.selector_points["slack-dynamic"] = SubsetPoint(
        enabled_mask, dynamic_point.coverage, dynamic_point.relative_ipc)
    return result

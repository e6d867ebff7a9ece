"""Tests of the benchmark's own logic (no simulator needed).

Run with ``python3 -m pytest perfbench/tests``.
"""

import statistics

import pytest

import run
import sample
from spans import Span, root_coverage, self_times, union_length
from stats import (compare_points, error_rate, output_digest, percentile,
                   tail_percentile)


# -- tail percentile rule --------------------------------------------------

@pytest.mark.parametrize("n, pct", [(1000, 95.0), (200, 95.0),
                                    (150, 93.3), (100, 90.0), (60, 83.3),
                                    (11, 50.0), (5, 50.0)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    got, _ = tail_percentile(list(range(n)), 95.0)
    assert got == pct
    if n > 10 and got > 50.0:
        beyond = n * (1 - got / 100)
        assert beyond >= 10 - 1e-9
        # One step higher would leave fewer than ten samples beyond.
        assert n * (1 - (got + 0.1) / 100) < 10 or got == 95.0


def test_tail_percentile_value_interpolates():
    values = list(range(1, 201))              # 1..200
    pct, value = tail_percentile(values, 95.0)
    assert pct == 95.0
    assert value == pytest.approx(percentile(values, 95.0))
    assert value == pytest.approx(190.05)


# -- self time -------------------------------------------------------------

def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, "run", 1)


def test_self_time_subtracts_nested_children():
    spans = [_span("root", 0.0, 10.0),
             _span("a", 1.0, 4.0, parent=0),
             _span("b", 2.0, 3.0, parent=1),
             _span("c", 5.0, 6.0, parent=0)]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # Two children overlapping on [3, 4] (e.g. two threads) cover 4 s of
    # the parent, not 5 s.
    spans = [_span("root", 0.0, 10.0),
             _span("a", 1.0, 4.0, parent=0),
             _span("b", 3.0, 5.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(6.0)


def test_self_time_clips_children_to_parent_and_never_negative():
    spans = [_span("root", 0.0, 2.0),
             _span("late", 1.0, 5.0, parent=0)]
    assert self_times(spans) == pytest.approx([1.0, 4.0])
    spans = [_span("root", 0.0, 1.0),
             _span("a", 0.0, 1.0, parent=0), _span("b", 0.0, 1.0, parent=0)]
    assert self_times(spans)[0] == 0.0


def test_root_coverage_and_union():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    spans = [_span("r1", 0.0, 2.0), _span("r2", 1.0, 3.0),
             _span("child", 0.5, 0.7, parent=0)]
    assert root_coverage(spans, 0.0, 10.0) == pytest.approx(3.0)
    assert root_coverage(spans, 2.5, 10.0) == pytest.approx(0.5)


# -- seeded, suite-stratified sampler --------------------------------------

def test_sampler_is_deterministic_per_seed():
    for workload in sample.FIGURE_SAMPLES:
        assert sample.figure_sample(workload, 7) == \
            sample.figure_sample(workload, 7)
    assert sample.limit_program(3) == sample.limit_program(3)
    assert sample.serve_jobs(["gcc", "fft"], 5) == \
        sample.serve_jobs(["gcc", "fft"], 5)


def test_sampler_is_stratified_by_suite_and_cost_balanced():
    catalog = sample.load_catalog()
    entries = {e["name"]: e for e in catalog["programs"]}
    for workload, (cost, suites, share, _) in sample.FIGURE_SAMPLES.items():
        draws = set()
        totals = {cost: [], "trace_insts": []}
        for seed in range(20):
            names = sample.figure_sample(workload, seed, catalog)
            assert len(set(names)) == len(names)
            assert [entries[n]["suite"] for n in names] == list(suites)
            for column, values in totals.items():
                values.append(sum(entries[n][column] for n in names))
            draws.add(tuple(names))
        assert len(draws) > 10                 # seeds do vary the sample
        for values in totals.values():
            middle = statistics.median(values)
            assert all(abs(v - middle) <= 2 * sample.BAND * middle
                       for v in values)


def test_limit_program_has_ten_candidates_and_similar_cost():
    catalog = sample.load_catalog()
    costs = {(e["bench"], e["input"]): e["limit_s"]
             for e in catalog["limit"]}
    picks = {tuple(sample.limit_program(s, catalog).values())
             for s in range(30)}
    cheapest = min(costs.values())
    assert all(costs[p] <= cheapest * (1 + sample.LIMIT_BAND) for p in picks)


def test_serve_repeats_only_finished_points():
    sequences = sample.serve_jobs(["gcc", "fft", "sha"], 11)
    total = sum(len(s) for s in sequences)
    repeats = 0
    for jobs in sequences:
        seen = []
        for doc in jobs:
            if doc in seen:
                repeats += 1
            seen.append(doc)
    assert repeats / total == pytest.approx(sample.SERVE_REPEAT_SHARE,
                                            abs=0.05)
    distinct = {str(d) for jobs in sequences for d in jobs}
    assert len(distinct) == len(sample.serve_points(["gcc", "fft", "sha"]))


# -- output check -> error_rate ---------------------------------------------

def _op(mode, points, render="fig"):
    return {"mode": mode, "points": points, "render": render}


def test_perturbed_stat_fails_digest_and_raises_error_rate():
    points = {"p1": [1000, 800, 0.25], "p2": [900, 800, 0.0]}
    reference = _op("serial", points)
    digest = output_digest(points, "fig")
    clean = run.check_round([reference, _op("threads", dict(points))],
                            reference, digest, "fig6-cold")
    assert clean["failed"] == 0
    assert error_rate(clean["failed"], clean["attempted"]) == 0.0

    perturbed = dict(points, p2=[901, 800, 0.0])     # one cycle off
    assert output_digest(perturbed, "fig") != digest
    assert compare_points(points, perturbed) == ["p2"]
    bad = run.check_round([reference, _op("threads", perturbed)],
                          reference, digest, "fig6-cold")
    assert bad["failed"] == 1
    assert error_rate(bad["failed"], bad["attempted"]) > 0.0

    # A serial run that drifted from the committed digest fails every
    # point, even when all modes agree with each other.
    drifted = _op("serial", perturbed)
    round_ = run.check_round([drifted], drifted, digest, "fig6-cold")
    assert round_["failed"] == len(points)


def test_served_job_mismatch_and_refusal_count_as_failed():
    reference = _op("serial", {"a": [1.5, 0.2], "b": [1.1, 0.0]}, "")
    served = {"mode": "dispatch", "served": [
        ("a", [1.5, 0.2], None),           # matches
        ("b", [1.1000001, 0.0], None),     # perturbed ipc
        ("a", None, "HTTP 429: quota"),    # refused
    ]}
    result = run.check_round([served], reference, None, "serve-closed")
    assert (result["attempted"], result["failed"]) == (3, 2)


# -- host-speed scaling -----------------------------------------------------

def test_speed_scale_is_reference_over_median_reading():
    import calibrate
    ref = dict(calibrate.REFERENCE_S)
    slow = {name: 2 * value for name, value in ref.items()}
    assert calibrate.speed_scale([ref, ref]) == pytest.approx(1.0)
    assert calibrate.speed_scale([slow, slow, ref]) == pytest.approx(0.5)
    # One outlying reading does not move the median.
    fast = {name: value / 4 for name, value in ref.items()}
    assert calibrate.speed_scale([ref, ref, fast]) == pytest.approx(1.0)

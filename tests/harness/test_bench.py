"""``repro bench`` harness: measurement, serialization, regression gate."""

import dataclasses
import json

import pytest

from repro.harness.bench import (
    BenchPoint, check_against, load_report, run_bench, write_report,
)


@pytest.fixture(scope="module")
def report(runner_module):
    return run_bench(benchmarks=("crc32",),
                     selectors=("none", "struct-all"),
                     label="test", repeat=2, runner=runner_module)


@pytest.fixture(scope="module")
def runner_module():
    from repro.harness import Runner
    return Runner()


def test_report_shape(report):
    assert [(p.bench, p.selector) for p in report.points] == \
        [("crc32", "none"), ("crc32", "struct-all")]
    for point in report.points:
        assert point.cycles > 0
        assert point.instructions > 0
        assert point.kips > 0
        assert 0.0 <= point.coverage <= 1.0
    assert report.total_instructions == \
        sum(p.instructions for p in report.points)
    assert report.kips > 0
    assert report.repeat == 2


def test_fidelity_fields_are_deterministic(report, runner_module):
    """Cycles/IPC/coverage must not depend on the measurement run."""
    again = run_bench(benchmarks=("crc32",), selectors=("none",),
                      label="again", runner=runner_module)
    first = next(p for p in report.points if p.selector == "none")
    assert (again.points[0].cycles, again.points[0].ipc,
            again.points[0].coverage, again.points[0].instructions) == \
        (first.cycles, first.ipc, first.coverage, first.instructions)


def test_write_and_load_roundtrip(report, tmp_path):
    path = write_report(report, tmp_path)
    assert path.name == "BENCH_test.json"
    loaded = load_report(path)
    assert loaded.label == report.label
    assert loaded.schema == report.schema
    assert loaded.points == report.points
    # The file is plain sorted JSON, diffable in review.
    data = json.loads(path.read_text())
    assert list(data) == sorted(data)


def test_check_against_passes_itself(report):
    assert check_against(report, report) == []


def test_check_against_flags_fidelity_drift(report):
    drifted = dataclasses.replace(report)
    drifted.points = [dataclasses.replace(p) for p in report.points]
    drifted.points[0].cycles += 1
    failures = check_against(drifted, report)
    assert len(failures) == 1
    assert "cycles diverged" in failures[0]


def test_check_against_gates_aggregate_kips(report):
    slow = dataclasses.replace(report)
    slow.points = list(report.points)
    slow.kips = report.kips * 0.5
    failures = check_against(slow, report, tolerance=0.20)
    assert len(failures) == 1
    assert "KIPS regressed" in failures[0]
    # Within tolerance is not a failure; per-point KIPS is never gated.
    slow.kips = report.kips * 0.85
    assert check_against(slow, report, tolerance=0.20) == []


def test_check_against_requires_overlap(report):
    other = dataclasses.replace(report)
    other.points = [dataclasses.replace(p, bench="fft")
                    for p in report.points]
    failures = check_against(other, report)
    assert failures == ["no overlapping matrix points with the baseline"]


def test_render_mentions_every_point(report):
    text = report.render()
    assert "crc32" in text and "struct-all" in text
    assert "KIPS" in text


def test_unknown_selector_rejected(runner_module):
    with pytest.raises(ValueError, match="unknown bench selector"):
        run_bench(benchmarks=("crc32",), selectors=("bogus",),
                  runner=runner_module)


def test_point_is_serializable():
    point = BenchPoint(bench="b", selector="s", config="c", records=1,
                       instructions=1, cycles=1, ipc=1.0, coverage=0.0,
                       wall_s=0.001, kips=1.0)
    assert json.loads(json.dumps(dataclasses.asdict(point)))


def test_report_embeds_run_manifest(report, tmp_path):
    """Every BENCH json carries git SHA / config digest / salt."""
    from repro.exec.store import code_version
    manifest = report.manifest
    for key in ("git_sha", "config_digest", "salt", "created", "label"):
        assert key in manifest, key
    assert manifest["salt"] == code_version()
    loaded = load_report(write_report(report, tmp_path))
    assert loaded.manifest == manifest


def test_load_report_pre_manifest_files(report, tmp_path):
    """BENCH files written before the manifest field still load."""
    path = write_report(report, tmp_path)
    data = json.loads(path.read_text())
    del data["manifest"]
    data["future_field"] = "ignored"  # unknown fields are dropped, not fatal
    path.write_text(json.dumps(data))
    loaded = load_report(path)
    assert loaded.manifest == {}
    assert loaded.points == report.points


def test_bench_with_telemetry_spans_points(runner_module, tmp_path):
    from repro.obs.telemetry import TelemetryWriter, validate_file

    writer = TelemetryWriter(tmp_path / "bench.jsonl")
    traced = run_bench(benchmarks=("crc32",), selectors=("none",),
                       label="traced", runner=runner_module,
                       telemetry=writer)
    writer.close()
    assert traced.manifest is writer.manifest
    summary = validate_file(writer.path)
    assert summary["cats"].get("bench") == 1
    with open(writer.path) as handle:
        lines = [json.loads(line) for line in handle]
    span = next(l for l in lines[1:] if l.get("cat") == "bench")
    assert span["name"] == "crc32/none" and span["ph"] == "X"
    assert span["args"]["cycles"] == traced.points[0].cycles


def test_plan_bench_report_round_trip(tmp_path):
    from repro.harness.bench import (
        PLAN_SCHEMA_VERSION, check_plan_report, load_plan_report,
        run_plan_bench, write_report,
    )
    from repro.pipeline import ckern

    if not ckern.available():
        pytest.skip("plan bench needs the compiled kernel")
    plan = run_plan_bench(("crc32",), label="plantest", repeat=1)
    assert plan.schema == PLAN_SCHEMA_VERSION == 2
    assert [p.bench for p in plan.points] == ["crc32"]
    assert check_plan_report(plan) == []
    path = write_report(plan, tmp_path)
    assert load_plan_report(path) == plan
    stale = json.loads(path.read_text())
    stale["schema"] = 1
    path.write_text(json.dumps(stale))
    with pytest.raises(ValueError, match="schema 1"):
        load_plan_report(path)

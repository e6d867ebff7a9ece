"""Plan-kernel parity: native plan construction vs the Python reference.

The compiled kernel carries two plan-construction entry points —
``repro_profile_build`` (packed SoA slack profiles straight from the
event-tap log) and ``repro_global_fold`` (the global-slack decode and
backward DP). Python keeps the reference implementation of each,
selected by the same ``REPRO_PURE_PY`` / no-compiler contract as the
timing kernel. These tests pin the bit-identity of the two paths across
the golden-matrix workloads, and the degrade paths (pure-Python forced,
kernel-ineligible shapes, library loss).
"""

import pickle
from array import array

import pytest

from repro.minigraph.slack import SlackCollector
from repro.pipeline import ckern
from repro.pipeline.config import config_by_name
from repro.pipeline.core import OoOCore
from repro.harness.runner import Runner
from repro.workloads import benchmark

needs_kernel = pytest.mark.skipif(
    not ckern.available(),
    reason="compiled kernel unavailable (no C compiler or REPRO_PURE_PY)")

#: Profiling runs happen on the reduced machine (§5.5 self-training).
PROFILE_CONFIG = "reduced"

WORKLOADS = ["crc32", "adpcm", "fft", "gzip"]

#: Shared memoizing runner: traces are input-deterministic, so one
#: per-module instance keeps the golden sweeps fast.
RUNNER = Runner()


def _program(name):
    return benchmark(name).program("train")


def _profile_pair(name, monkeypatch):
    """(native, pure-python) profiles rebuilt from one tap event log."""
    program = _program(name)
    config = config_by_name(PROFILE_CONFIG)
    packed = RUNNER.trace(name, "train").packed()

    def capture():
        collector = SlackCollector(program, config_name=config.name,
                                   input_name="train")
        core = OoOCore(config, packed, collector=collector,
                       warm_caches=True)
        core.run()
        return collector.profile()

    native = capture()
    monkeypatch.setenv("REPRO_PURE_PY", "1")
    reference = capture()
    monkeypatch.delenv("REPRO_PURE_PY")
    return native, reference


# ---------------------------------------------------------------------
# Packed profile build
# ---------------------------------------------------------------------

@needs_kernel
@pytest.mark.parametrize("name", WORKLOADS)
def test_packed_profile_build_bit_identical(name, monkeypatch):
    """Native SoA profile build == Python observer path, pickle bytes."""
    native, reference = _profile_pair(name, monkeypatch)
    assert native.entries.keys() == reference.entries.keys()
    for pc, entry in native.entries.items():
        want = reference.entries[pc]
        assert (entry.count, entry.rel_issue, entry.src_ready,
                entry.out_ready, entry.slack, entry.min_slack) == \
            (want.count, want.rel_issue, want.src_ready,
             want.out_ready, want.slack, want.min_slack), f"{name} pc={pc}"
    assert pickle.dumps(native) == pickle.dumps(reference)


@needs_kernel
@pytest.mark.parametrize("name", ["crc32", "gzip"])
def test_packed_profile_entry_order_preserved(name, monkeypatch):
    """The order[] column preserves first-commit insertion order."""
    native, reference = _profile_pair(name, monkeypatch)
    assert list(native.entries) == list(reference.entries)


# ---------------------------------------------------------------------
# Degrade paths
# ---------------------------------------------------------------------

def test_pure_python_env_disables_every_plan_kernel(monkeypatch):
    """REPRO_PURE_PY routes every entry point to the reference path."""
    monkeypatch.setenv("REPRO_PURE_PY", "1")
    assert ckern.profile_build(None, 0, 0, None, None, 0, 0, 64) is None
    assert ckern.global_fold(None, 0, 0, None, 0, 64) is None


@needs_kernel
def test_oversize_shapes_degrade_to_python():
    """Pcs outside the packed profile columns fall back cleanly."""
    packed = RUNNER.trace("crc32", "train").packed()
    before = ckern.counters["plan_fallbacks"]
    # One static column: every committed pc past 0 is out of bounds.
    acc = ckern.profile_build(array("q", [0, 0, 0]), 0, packed.n, packed,
                              array("b", [0]), 1, 0, 64)
    assert acc is None
    assert ckern.counters["plan_fallbacks"] == before + 1


@needs_kernel
def test_library_loss_degrades_to_python(monkeypatch):
    """available() flipping false mid-session falls back, not crashes."""
    native, _ = _profile_pair("crc32", monkeypatch)
    monkeypatch.setattr(ckern, "available", lambda: False)
    before = dict(ckern.counters)
    program = _program("crc32")
    config = config_by_name(PROFILE_CONFIG)
    collector = SlackCollector(program, config_name=config.name,
                               input_name="train")
    OoOCore(config, RUNNER.trace("crc32", "train").packed(),
            collector=collector, warm_caches=True).run()
    assert pickle.dumps(collector.profile()) == pickle.dumps(native)
    assert ckern.counters["profiles_built_native"] == \
        before["profiles_built_native"]


@needs_kernel
def test_plan_kernel_counters_advance(monkeypatch):
    """collect_ckern's plan-side counters move when the kernels run."""
    before = dict(ckern.counters)
    _profile_pair("crc32", monkeypatch)
    assert ckern.counters["profiles_built_native"] > \
        before.get("profiles_built_native", 0)


# ---------------------------------------------------------------------
# Global-slack fold
# ---------------------------------------------------------------------

@needs_kernel
@pytest.mark.parametrize("name", ["crc32", "fft"])
def test_global_fold_bit_identical(name, monkeypatch):
    """repro_global_fold == the Python tap decode, profile for profile."""
    from repro.analysis.global_slack import GlobalSlackCollector

    program = _program(name)
    config = config_by_name(PROFILE_CONFIG)
    packed = RUNNER.trace(name, "train").packed()

    def capture():
        collector = GlobalSlackCollector(program, config_name=config.name,
                                         input_name="train")
        core = OoOCore(config, packed, collector=collector,
                       warm_caches=True)
        core.run()
        return collector.profile(), collector.global_profile()

    native_local, native_global = capture()
    monkeypatch.setenv("REPRO_PURE_PY", "1")
    ref_local, ref_global = capture()
    monkeypatch.delenv("REPRO_PURE_PY")
    assert pickle.dumps(native_local) == pickle.dumps(ref_local)
    assert pickle.dumps(native_global) == pickle.dumps(ref_global)

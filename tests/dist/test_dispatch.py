"""Socket dispatch end to end: a 2-worker fleet over a unix socket must
produce a store byte-for-byte equivalent to the serial run.

Workers are real ``repro worker`` subprocesses (own interpreters, own
store connections) — the same topology as multi-host dispatch, minus
the network. Exact per-worker task counts are never asserted (leasing
and stealing are timing-dependent); only totals and results are.
"""

import base64
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dist.dispatch import (
    DispatchStats, LocalPoolBackend, make_dispatch,
)
from repro.dist.remote import SocketCoordinator, decode_args, encode_args
from repro.exec.grid import baseline_point, run_points, selector_point
from repro.exec.store import ArtifactBackend, ArtifactStore
from repro.harness.runner import Runner
from repro.minigraph.selectors import StructAll

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _points():
    return [baseline_point("crc32", "reduced"),
            baseline_point("adpcm", "reduced"),
            selector_point("crc32", StructAll(), "reduced")]


def _spawn_workers(address, cache, count=2):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return [subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--connect", str(address), "--store", str(cache),
         "--name", f"w{i}", "--once", "--dial-timeout", "30", "--quiet"],
        env=env) for i in range(count)]


def _ipc_by_artifact(cache):
    """Content-addressed view of a store's timing results."""
    out = {}
    for key, meta in ArtifactBackend(cache).entries():
        if meta.get("kind") in ("baseline", "run"):
            out[key] = meta.get("kind")
    return out


class TestMakeDispatch:
    def test_local_specs_resolve_to_default_pool(self):
        assert make_dispatch(None, jobs=2) is None
        assert make_dispatch("local", jobs=2) is None

    def test_workers_spec_resolves_to_socket_backend(self, tmp_path):
        backend = make_dispatch(f"workers:{tmp_path}/coord.sock", jobs=2)
        assert backend.name == "workers"
        assert isinstance(backend.stats, DispatchStats)
        backend.close([])

    def test_unknown_spec_refused(self):
        with pytest.raises(ValueError, match="unknown dispatch"):
            make_dispatch("carrier-pigeon", jobs=2)


class TestLocalPoolBackend:
    def test_local_backend_matches_default_path(self, tmp_path):
        """run_points with an explicit LocalPoolBackend is the same run
        as the historical jobs>1 path."""
        store = ArtifactStore(tmp_path / "cache")
        report = run_points(Runner(store=store), _points(), jobs=2,
                            dispatch=LocalPoolBackend(jobs=2))
        assert not report.failures
        serial = ArtifactStore(tmp_path / "serial")
        run_points(Runner(store=serial), _points(), jobs=1)
        assert _ipc_by_artifact(tmp_path / "cache") == \
            _ipc_by_artifact(tmp_path / "serial")


class TestSocketDispatch:
    def test_two_worker_fleet_matches_serial_bit_for_bit(self, tmp_path):
        serial_cache = tmp_path / "serial"
        report = run_points(Runner(store=ArtifactStore(serial_cache)),
                            _points(), jobs=1)
        assert not report.failures

        dist_cache = tmp_path / "dist"
        address = tmp_path / "coord.sock"
        backend = make_dispatch(f"workers:{address}", jobs=2)
        workers = _spawn_workers(address, dist_cache)
        try:
            report = run_points(Runner(store=ArtifactStore(dist_cache)),
                                _points(), jobs=2, dispatch=backend)
        finally:
            for proc in workers:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
        assert not report.failures
        assert not report.degraded
        assert backend.stats.completed == backend.stats.submitted
        assert backend.stats.workers_joined >= 1

        # Identical artifact sets under identical content addresses —
        # the keys cover every parameter, so key equality IS result
        # equality; payload bytes are checked on top.
        serial_keys = dict(ArtifactBackend(serial_cache).entries())
        dist_keys = dict(ArtifactBackend(dist_cache).entries())
        assert sorted(serial_keys) == sorted(dist_keys)
        serial_store = ArtifactStore(serial_cache)
        dist_store = ArtifactStore(dist_cache)
        for key, meta in serial_keys.items():
            assert serial_store.get(key, meta.get("kind", "?")) is not None
            assert serial_store.backend.read(key) == \
                dist_store.backend.read(key), key

    def test_workerless_fleet_degrades_to_serial(self, tmp_path):
        """No workers ever join: the grace expiry surfaces WorkerLost
        and the scheduler finishes the graph in-process."""
        from repro.dist.remote import SocketDispatchBackend
        backend = SocketDispatchBackend(
            str(tmp_path / "empty.sock"), jobs=2, grace=0.5)
        store = ArtifactStore(tmp_path / "cache")
        report = run_points(Runner(store=store),
                            [baseline_point("crc32", "reduced")],
                            jobs=2, dispatch=backend)
        assert not report.failures
        assert report.degraded
        assert store.disk_summary().get("baseline", {}).get("count") == 1


class _MakesDirWhenUnpickled:
    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (os.mkdir, (self.path,))


class TestWireCodec:
    """Task args and results cross the socket as plain JSON only."""

    def test_args_round_trip_as_a_json_list(self):
        spec = {"bench": "crc32", "budget": 4, "cache_dir": None,
                "selector": {"kind": "struct-all", "allowed": [1, 2]}}
        wire = encode_args((spec,))
        assert wire == [spec]
        assert decode_args(wire) == (spec,)

    @pytest.mark.parametrize("arg", [
        {"policy": ("full", True)},       # tuple would arrive as a list
        {1: "int key"},                   # key would arrive as "1"
        {"x": float("nan")},              # NaN != NaN after the trip
        {"obj": object()},                # not JSON at all
    ], ids=["tuple", "int-key", "nan", "object"])
    def test_args_json_would_alter_are_refused(self, arg):
        with pytest.raises(ValueError, match="task args"):
            encode_args((arg,))

    def test_decode_refuses_anything_but_a_list(self):
        with pytest.raises(TypeError, match="JSON list"):
            decode_args("gASVAAAAAAAAAA==")

    def test_pickled_args_fail_the_task_unread(self, tmp_path):
        """A lease whose ``args`` is a base64 pickle (the old wire
        format) is reported ``failed``; the payload, which would create
        a directory if unpickled, is never loaded."""
        marker = tmp_path / "unpickled"
        blob = base64.b64encode(pickle.dumps(
            (_MakesDirWhenUnpickled(marker),))).decode("ascii")
        coordinator = SocketCoordinator(str(tmp_path / "coord.sock"))
        coordinator.start()
        workers = _spawn_workers(tmp_path / "coord.sock",
                                 tmp_path / "cache", count=1)
        try:
            coordinator.submit("evil", "repro.exec.tasks:run_trace", blob)
            assert coordinator.wait_any(["evil"], 60) == ["evil"]
            outcome = coordinator.take_result("evil")
        finally:
            coordinator.stop()
            for proc in workers:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
        assert not marker.exists()
        assert outcome[0] == "err"
        assert outcome[1] == "TypeError"
        assert "JSON list" in outcome[2]
        assert coordinator.stats.failed == 1

"""Artifact store: addressing, hit/miss accounting, corruption recovery."""

import pickle

import pytest

from repro.exec.store import MISS, ArtifactStore, code_version


def test_key_is_deterministic_and_order_insensitive(tmp_path):
    store = ArtifactStore(tmp_path)
    a = store.key("trace", {"bench": "crc32", "max_insts": 100})
    b = store.key("trace", {"max_insts": 100, "bench": "crc32"})
    assert a == b
    assert len(a) == 64


def test_key_sensitive_to_every_parameter(tmp_path):
    store = ArtifactStore(tmp_path)
    base = {"bench": "crc32", "input": "train", "max_insts": 100}
    key = store.key("trace", base)
    assert store.key("trace", dict(base, max_insts=200)) != key
    assert store.key("trace", dict(base, input="ref")) != key
    assert store.key("baseline", base) != key


def test_key_sensitive_to_salt(tmp_path):
    base = {"bench": "crc32"}
    a = ArtifactStore(tmp_path, salt="v1").key("trace", base)
    b = ArtifactStore(tmp_path, salt="v2").key("trace", base)
    assert a != b


def test_default_salt_is_code_version(tmp_path):
    assert ArtifactStore(tmp_path).salt == code_version()


def test_memory_only_roundtrip():
    store = ArtifactStore()
    assert not store.persistent
    key = store.key("x", {"p": 1})
    assert store.get(key) is MISS
    value = {"payload": [1, 2, 3]}
    store.put(key, value)
    assert store.get(key) is value  # identity, not equality
    assert store.stats.misses == 1
    assert store.stats.memory_hits == 1


def test_disk_roundtrip_across_instances(tmp_path):
    first = ArtifactStore(tmp_path)
    key = first.key("x", {"p": 1})
    first.put(key, {"payload": 42}, kind="x", params={"p": 1})
    second = ArtifactStore(tmp_path)
    assert second.get(key, "x") == {"payload": 42}
    assert second.stats.disk_hits == 1
    # Once read from disk, the memory layer serves identity.
    assert second.get(key) is second.get(key)


def test_get_or_compute_memoizes(tmp_path):
    store = ArtifactStore(tmp_path)
    calls = []

    def compute():
        calls.append(1)
        return "value"

    assert store.get_or_compute("k", {"a": 1}, compute) == "value"
    assert store.get_or_compute("k", {"a": 1}, compute) == "value"
    assert len(calls) == 1
    # A changed parameter is a different artifact.
    assert store.get_or_compute("k", {"a": 2}, compute) == "value"
    assert len(calls) == 2


def test_corrupted_payload_recovers_as_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    key = store.key("x", {"p": 1})
    store.put(key, [1, 2, 3], kind="x")
    payload = store._payload_path(key)
    payload.write_bytes(b"not a pickle at all")

    fresh = ArtifactStore(tmp_path)
    assert fresh.get(key, "x") is MISS
    assert fresh.stats.corrupt_dropped == 1
    assert not payload.exists()  # dropped, not left to fail again
    # Recomputation repopulates the slot.
    assert fresh.get_or_compute("x", {"p": 1}, lambda: [1, 2, 3]) == [1, 2, 3]
    assert ArtifactStore(tmp_path).get(key) == [1, 2, 3]


def test_truncated_payload_recovers_as_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    key = store.key("x", {"p": 1})
    store.put(key, list(range(1000)), kind="x")
    payload = store._payload_path(key)
    payload.write_bytes(payload.read_bytes()[:10])  # torn write
    fresh = ArtifactStore(tmp_path)
    assert fresh.get(key) is MISS
    assert fresh.stats.corrupt_dropped == 1


def test_disk_summary_clear_and_prune(tmp_path):
    store = ArtifactStore(tmp_path)
    for i in range(3):
        store.put(store.key("trace", {"i": i}), i, kind="trace",
                  params={"i": i})
    store.put(store.key("plan", {"i": 0}), "p", kind="plan")
    summary = store.disk_summary()
    assert summary["trace"]["count"] == 3
    assert summary["plan"]["count"] == 1
    assert summary["trace"]["bytes"] > 0

    assert store.prune(kinds=["plan"]) == 1
    assert "plan" not in store.disk_summary()
    # Recent artifacts survive an age-based prune.
    assert store.prune(max_age=3600.0) == 0
    # What killed writers leave in a shard: a torn _atomic_write temp
    # file, a dedup link never renamed into place, and a sidecar whose
    # payload a kill mid-delete already removed.
    shard = store.backend.payload_path(store.key("trace", {"i": 0})).parent
    (shard / ".tmp-x1y2z3.part").write_bytes(b"torn")
    (shard / f".lnk-{'e' * 64}").write_bytes(b"link")
    (shard / f"{'f' * 64}.json").write_text("{}")
    removed = store.clear()
    assert [path for path in tmp_path.rglob("*") if path.is_file()] == []
    assert removed == 3
    assert store.disk_summary() == {}
    assert store.get(store.key("trace", {"i": 0})) is MISS


def test_orphan_payload_is_an_artifact_to_maintenance(tmp_path,
                                                      monkeypatch):
    """A kill between the payload and the sidecar publish leaves a
    payload without a sidecar. The payload is the commit point: reads
    hit it, so ``stats`` must count it and ``prune`` must reach it."""
    from repro.exec import store as store_mod

    store = ArtifactStore(tmp_path)
    key = store.key("trace", {"i": 0})
    publish = store_mod._atomic_write

    def killed_before_sidecar(path, data):
        if path.suffix == ".json":
            raise KeyboardInterrupt("killed between the two publishes")
        publish(path, data)

    monkeypatch.setattr(store_mod, "_atomic_write", killed_before_sidecar)
    with pytest.raises(KeyboardInterrupt):
        store.put(key, list(range(50)), kind="trace")
    monkeypatch.undo()
    payload = store.backend.payload_path(key)
    assert payload.exists()
    assert not store.backend.sidecar_path(key).exists()

    fresh = ArtifactStore(tmp_path)
    assert fresh.contains(key)
    assert fresh.get(key) == list(range(50))
    assert fresh.disk_summary() == {
        "?": {"count": 1, "bytes": payload.stat().st_size}}
    # Kind-filtered prunes cannot know its kind and leave it alone...
    assert fresh.prune(max_age=0.0, kinds=["trace"]) == 0
    # ...but its age falls back to the payload's mtime.
    assert fresh.prune(max_age=3600.0) == 0
    assert fresh.prune(max_age=0.0) == 1
    assert not payload.exists()
    assert not ArtifactStore(tmp_path).contains(key)


def test_dedup_hard_links_identical_payloads(tmp_path):
    store = ArtifactStore(tmp_path)
    a = store.key("plan", {"config": "a"})
    b = store.key("plan", {"config": "b"})
    c = store.key("plan", {"config": "c"})
    value = {"sites": list(range(100))}
    store.put(a, value, kind="plan")
    store.put(b, dict(value), kind="plan")
    store.put(c, {"sites": []}, kind="plan")
    path_a, path_b = (store.backend.payload_path(k) for k in (a, b))
    assert path_a.stat().st_ino != path_b.stat().st_ino

    report = store.dedup()
    assert report == {"groups": 1, "linked": 1,
                      "bytes_saved": path_a.stat().st_size}
    assert path_a.stat().st_ino == path_b.stat().st_ino
    assert path_a.stat().st_nlink == 2
    assert store.backend.payload_path(c).stat().st_nlink == 1
    fresh = ArtifactStore(tmp_path)
    assert fresh.get(a) == value and fresh.get(b) == value
    assert fresh.get(c) == {"sites": []}
    assert fresh.stats.corrupt_dropped == 0
    assert list(tmp_path.glob("??/.lnk-*")) == []
    # Already linked: a second pass links nothing.
    assert store.dedup() == {"groups": 0, "linked": 0, "bytes_saved": 0}


def test_put_writes_the_pinned_blob_layout(tmp_path):
    """Stores are shared across checkouts: a put writes the pickled
    payload and a sorted-key JSON sidecar, byte for byte."""
    import hashlib
    import json

    store = ArtifactStore(tmp_path, salt="s" * 16)
    params = {"bench": "crc32", "max_insts": 100}
    key = store.key("trace", params)
    assert key == hashlib.sha256(
        b'trace|ssssssssssssssss|{"bench":"crc32","max_insts":100}'
    ).hexdigest()
    value = {"records": [1, 2, 3]}
    store.put(key, value, kind="trace", params=params)

    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    assert (tmp_path / key[:2] / f"{key}.pkl").read_bytes() == payload
    sidecar = (tmp_path / key[:2] / f"{key}.json").read_text()
    created = json.loads(sidecar)["created"]
    assert sidecar == json.dumps({
        "kind": "trace", "params": params, "created": created,
        "size": len(payload), "sha": hashlib.sha256(payload).hexdigest(),
        "salt": "s" * 16}, sort_keys=True)
    assert sorted(path.name for path in tmp_path.rglob("*")) == \
        sorted([key[:2], f"{key}.pkl", f"{key}.json"])


def test_put_leaves_no_partial_files(tmp_path):
    store = ArtifactStore(tmp_path)
    for i in range(5):
        store.put(store.key("x", {"i": i}), list(range(100)), kind="x")
    assert list(tmp_path.glob("**/.tmp-*")) == []
    assert list(tmp_path.glob("**/*.part")) == []


def test_stats_render_mentions_rate(tmp_path):
    store = ArtifactStore(tmp_path)
    key = store.key("x", {"p": 1})
    store.get(key, "x")
    store.put(key, 1, "x")
    store.get(key, "x")
    text = store.stats.render()
    assert "1 hits / 2 lookups" in text
    assert "x 1/2" in text


def test_layout_version_3_invalidates_version_2_artifacts(tmp_path,
                                                          monkeypatch):
    """Version 3 (observed runs execute on the compiled kernel's event
    tap) must never serve artifacts recorded under version 2's
    Python-observer engine."""
    from repro.exec import store as store_mod

    assert store_mod.LAYOUT_VERSION == 3
    monkeypatch.setattr(store_mod, "_code_version", None)
    monkeypatch.setattr(store_mod, "LAYOUT_VERSION", 2)
    v2_salt = code_version()
    v2_store = ArtifactStore(tmp_path, salt=v2_salt)
    key = v2_store.key("profile", {"bench": "crc32", "config": "reduced"})
    v2_store.put(key, {"entries": 16}, kind="profile")

    monkeypatch.setattr(store_mod, "_code_version", None)
    monkeypatch.setattr(store_mod, "LAYOUT_VERSION", 3)
    v3_salt = code_version()
    assert v3_salt != v2_salt
    v3_store = ArtifactStore(tmp_path, salt=v3_salt)
    v3_key = v3_store.key("profile", {"bench": "crc32", "config": "reduced"})
    assert v3_key != key
    assert v3_store.get(v3_key) is MISS


def test_layout_version_invalidates_cached_artifacts(tmp_path, monkeypatch):
    """Bumping LAYOUT_VERSION changes the code salt, so artifacts cached
    under the old trace/record layout can never be served again."""
    from repro.exec import store as store_mod

    monkeypatch.setattr(store_mod, "_code_version", None)
    old_salt = code_version()
    store = ArtifactStore(tmp_path, salt=old_salt)
    key = store.key("baseline", {"bench": "crc32"})
    store.put(key, {"cycles": 123}, kind="baseline")
    assert store.get(key) == {"cycles": 123}

    monkeypatch.setattr(store_mod, "_code_version", None)
    monkeypatch.setattr(store_mod, "LAYOUT_VERSION",
                        store_mod.LAYOUT_VERSION + 1)
    new_salt = code_version()
    assert new_salt != old_salt
    fresh = ArtifactStore(tmp_path, salt=new_salt)
    assert fresh.get(fresh.key("baseline", {"bench": "crc32"})) is MISS
    # Same parameters, same kind — only the layout version differs.
    assert fresh.key("baseline", {"bench": "crc32"}) != key


def test_source_digest_covers_native_kernel_sources(tmp_path):
    """Editing a ``.c`` source changes the salt like a ``.py`` edit does.

    The plan kernels live in ``pipeline/_ckern.c``; the code-version
    salt globs ``*.c`` next to the Python sources, so shipping new C
    code invalidates every cached artifact automatically.
    """
    from repro.exec.store import source_digest

    root = tmp_path / "repro"
    pkg = root / "pipeline"
    pkg.mkdir(parents=True)
    (pkg / "core.py").write_text("python = 1\n")
    (pkg / "_ckern.c").write_text("int kernel(void) { return 1; }\n")
    baseline = source_digest(root, packages=("pipeline",))
    assert baseline == source_digest(root, packages=("pipeline",))

    (pkg / "_ckern.c").write_text("int kernel(void) { return 2; }\n")
    assert source_digest(root, packages=("pipeline",)) != baseline

    # A .py edit moves it too (sanity: the digest is not .c-only).
    (pkg / "core.py").write_text("python = 2\n")
    moved = source_digest(root, packages=("pipeline",))
    assert moved != baseline


def test_code_version_matches_source_digest_of_tree():
    """code_version() is exactly the digest of the shipped tree."""
    from pathlib import Path

    import repro
    from repro.exec.store import source_digest

    root = Path(repro.__file__).resolve().parent
    assert code_version() == source_digest(root)

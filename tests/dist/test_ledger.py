"""Run-ledger format tests: replay, torn tails, and the durability lint."""

import json

import pytest

from repro.dist.ledger import LedgerError, RunLedger, assert_skippable


def _create(path, workload=None):
    return RunLedger.create(
        path, workload=workload or {"kind": "experiments", "points": []},
        runner_params={"max_insts": 1}, salt="s" * 16,
        cache_dir="/tmp/cache")


class TestRoundTrip:
    def test_header_nodes_complete(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = _create(path)
        ledger.record("trace/crc32", "trace", "done")
        ledger.record("baseline/crc32", "baseline", "failed")
        ledger.complete(1, 1)
        ledger.close()
        header, status, completed = RunLedger.load(path)
        assert header["salt"] == "s" * 16
        assert header["cache_dir"] == "/tmp/cache"
        assert "store_backend" not in header
        assert status == {"trace/crc32": "done",
                          "baseline/crc32": "failed"}
        assert completed is True

    def test_repeated_records_last_status_wins(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = _create(path)
        ledger.record("t1", "trace", "failed")
        ledger.record("t1", "trace", "done")
        ledger.close()
        _, status, completed = RunLedger.load(path)
        assert status == {"t1": "done"}
        assert completed is False

    def test_skipped_durable_records_are_done(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = _create(path)
        ledger.record_skipped_durable(["t1", "t2"])
        ledger.close()
        _, status, _ = RunLedger.load(path)
        assert status == {"t1": "done", "t2": "done"}
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert all(r.get("resumed") for r in lines if r["type"] == "node")

    def test_append_to_extends_without_truncating(self, tmp_path):
        path = tmp_path / "run.jsonl"
        first = _create(path)
        first.record("t1", "trace", "done")
        first.close()
        header, _, _ = RunLedger.load(path)
        second = RunLedger.append_to(path, header)
        second.record("t2", "baseline", "done")
        second.close()
        _, status, _ = RunLedger.load(path)
        assert status == {"t1": "done", "t2": "done"}


class TestReplayTolerance:
    def test_torn_tail_is_ignored(self, tmp_path):
        """The half-written line a SIGKILL leaves behind must not poison
        replay — everything before it still counts."""
        path = tmp_path / "run.jsonl"
        ledger = _create(path)
        ledger.record("t1", "trace", "done")
        ledger.close()
        with open(path, "a") as handle:
            handle.write('{"type": "node", "task": "t2", "sta')
        _, status, completed = RunLedger.load(path)
        assert status == {"t1": "done"}
        assert completed is False

    def test_missing_header_refused(self, tmp_path):
        path = tmp_path / "notaledger.jsonl"
        path.write_text('{"type": "node", "task": "t1", "status": "done"}\n')
        with pytest.raises(LedgerError, match="no run header"):
            RunLedger.load(path)

    def test_version_skew_refused(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps({"type": "run", "version": 99}) + "\n")
        with pytest.raises(LedgerError, match="version"):
            RunLedger.load(path)

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(LedgerError, match="cannot read"):
            RunLedger.load(tmp_path / "absent.jsonl")


class _Task:
    def __init__(self, task_id, stage):
        self.id = task_id
        self.stage = stage


class TestDurabilityLint:
    def test_skipping_durable_nodes_passes(self):
        tasks = [_Task("t1", "trace"), _Task("c1", "check")]
        assert_skippable(tasks, durable_ids=["t1"], skip_ids=["t1"])

    def test_skipping_non_durable_node_refused(self):
        """The invariant: a step skippable on resume must have durable
        outputs. Check nodes have none, so a journal claiming one is
        done must not make resume skip it."""
        tasks = [_Task("t1", "trace"), _Task("c1", "check")]
        with pytest.raises(LedgerError, match="durable outputs"):
            assert_skippable(tasks, durable_ids=["t1"],
                             skip_ids=["t1", "c1"])


class TestSink:
    def test_sink_journals_terminal_events_and_forwards(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = _create(path)
        seen = []
        on_event = ledger.sink(seen.append)
        on_event({"kind": "submit", "task": "t1", "stage": "trace"})
        on_event({"kind": "done", "task": "t1", "stage": "trace"})
        on_event({"kind": "progress"})   # no task id: forwarded, not journaled
        ledger.close()
        assert [e["kind"] for e in seen] == ["submit", "done", "progress"]
        _, status, _ = RunLedger.load(path)
        assert status == {"t1": "done"}

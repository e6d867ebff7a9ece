"""The shared JSONL journal: torn tails, the replay rule, refusals.

Each journal-backed caller (run ledger, tuning ledger, serve queue) is
driven through the same scenarios, so one rule is tested once per
caller rather than once per private copy of the file handling.
"""

import json

import pytest

from repro.dist.ledger import RunLedger
from repro.exec.journal import Journal, JournalError, compact, replay
from repro.serve.queue import JobQueue
from repro.tune.evaluate import TrialEval
from repro.tune.ledger import TuneLedger

RUNNER = {"budget": 512, "max_insts": 200_000}


class _Run:
    """RunLedger: records are node ids."""

    @staticmethod
    def start(path, name):
        with RunLedger.create(path, workload={"kind": "experiments"},
                              runner_params=RUNNER, salt="s" * 16,
                              cache_dir=None) as ledger:
            ledger.record(name, "trace", "done")

    @staticmethod
    def reopen_and_add(path, name):
        header, _, _ = RunLedger.load(path)
        with RunLedger.append_to(path, header) as ledger:
            ledger.record(name, "trace", "done")

    @staticmethod
    def names(path):
        return set(RunLedger.load(path)[1])


class _Tune:
    """TuneLedger: records are trial ids."""

    @staticmethod
    def _entry(name):
        return TrialEval(
            trial_id=name, selector={"kind": "struct-all"},
            display_name="struct-all", config="reduced", rung=200_000,
            coverage=0.4, ipc_norm=1.0, read_ports=1.0, per_bench=[])

    @classmethod
    def start(cls, path, name):
        with TuneLedger.create(path, "d1", "salt", RUNNER) as ledger:
            ledger.record(cls._entry(name))

    @classmethod
    def reopen_and_add(cls, path, name):
        ledger, _ = TuneLedger.resume(path, "d1", "salt", RUNNER)
        with ledger:
            ledger.record(cls._entry(name))

    @staticmethod
    def names(path):
        ledger, completed = TuneLedger.resume(path, "d1", "salt", RUNNER)
        ledger.close()
        return {trial_id for trial_id, _rung in completed}


class _Serve:
    """JobQueue: records are queued jobs, named by their spec."""

    @staticmethod
    def start(path, name):
        queue = JobQueue(journal=path)
        queue.submit("a", "fuzz", {"name": name})
        queue.close()

    @staticmethod
    def reopen_and_add(path, name):
        queue = JobQueue(journal=path)
        queue.recover()
        queue.submit("a", "fuzz", {"name": name})
        queue.close()

    @staticmethod
    def names(path):
        queue = JobQueue(journal=path)
        names = {job.spec["name"] for job in queue.recover()}
        queue.close()
        return names


CALLERS = pytest.mark.parametrize("caller", [_Run, _Tune, _Serve],
                                  ids=["run", "tune", "serve"])


@CALLERS
def test_record_after_a_torn_tail_survives_replay(tmp_path, caller):
    """A SIGKILL mid-write leaves a torn last line. The next append must
    start on a fresh line, not extend the fragment into garbage."""
    path = tmp_path / "journal.jsonl"
    caller.start(path, "first")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"type": "node", "task": "lo')      # torn
    caller.reopen_and_add(path, "second")
    assert caller.names(path) == {"first", "second"}


@CALLERS
@pytest.mark.parametrize("junk", [b"\n", b"   \n", b"garbage\n", b"\xff\n",
                                  b"[]\n", b"42\n", b'"text"\n'],
                         ids=["blank", "spaces", "garbage", "binary", "list",
                              "number", "string"])
def test_non_record_lines_are_skipped(tmp_path, caller, junk):
    path = tmp_path / "journal.jsonl"
    caller.start(path, "first")
    with open(path, "ab") as handle:
        handle.write(junk)
    caller.reopen_and_add(path, "second")
    assert caller.names(path) == {"first", "second"}


def test_append_to_a_missing_file_starts_with_the_header(tmp_path):
    path = tmp_path / "sub" / "journal.jsonl"
    journal = Journal.append_to(path, {"type": "k", "version": 3})
    journal.append({"n": 1})
    journal.close()
    assert replay(path, "k", 3) == ({"type": "k", "version": 3},
                                    [{"n": 1}])


def test_append_to_a_lone_torn_header_starts_afresh(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_text('{"type": "k", "ver')
    Journal.append_to(path, {"type": "k", "version": 3}).close()
    assert replay(path, "k", 3) == ({"type": "k", "version": 3}, [])


def test_compact_keeps_header_and_given_records(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = Journal.start(path, {"type": "k", "version": 1})
    for n in range(4):
        journal.append({"n": n})
    journal.close()
    compact(path, {"type": "k", "version": 1}, [{"n": 3}])
    assert path.read_text().splitlines() == [
        json.dumps({"type": "k", "version": 1}, sort_keys=True),
        json.dumps({"n": 3})]
    assert [p.name for p in tmp_path.iterdir()] == ["journal.jsonl"]


class TestRefusals:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"type": "node", "task": "t1"}\n')
        with pytest.raises(JournalError, match="no run header"):
            replay(path, "run", 1)

    def test_empty_file_has_no_header(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("")
        with pytest.raises(JournalError, match="no run header"):
            replay(path, "run", 1)

    def test_version_skew(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"type": "run", "version": 2}\n')
        with pytest.raises(JournalError, match="version 2 != 1"):
            replay(path, "run", 1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            replay(tmp_path / "absent.jsonl", "run", 1)

    def test_serve_journal_without_header(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text('{"kind": "submit", "job": {"id": "j000001"}}\n')
        with pytest.raises(JournalError, match="no serve header"):
            JobQueue(journal=path).recover()

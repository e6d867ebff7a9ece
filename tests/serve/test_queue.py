"""Job-queue semantics: priorities, quotas, cancellation, recovery."""

import threading

import pytest

from repro.serve.queue import (
    Job, JobQueue, JobState, PRIORITIES, Quota, QuotaExceeded,
)


def _drain(queue):
    jobs = []
    while True:
        job = queue.next_ready()
        if job is None:
            return jobs
        jobs.append(job)


class TestPriorities:
    def test_priority_classes_dispatch_in_order(self):
        queue = JobQueue(Quota(max_queued=10, max_running=10))
        batch = queue.submit("a", "fuzz", {}, priority="batch")
        normal = queue.submit("b", "fuzz", {}, priority="normal")
        urgent = queue.submit("c", "fuzz", {}, priority="interactive")
        assert [j.id for j in _drain(queue)] \
            == [urgent.id, normal.id, batch.id]

    def test_fifo_within_a_class(self):
        queue = JobQueue(Quota(max_queued=10, max_running=10))
        first = queue.submit("a", "fuzz", {})
        second = queue.submit("b", "fuzz", {})
        third = queue.submit("c", "fuzz", {})
        assert [j.id for j in _drain(queue)] \
            == [first.id, second.id, third.id]

    def test_unknown_priority_rejected(self):
        queue = JobQueue()
        with pytest.raises(ValueError, match="unknown priority"):
            queue.submit("a", "fuzz", {}, priority="urgent")


class TestQuotas:
    def test_max_queued_rejects_outright(self):
        queue = JobQueue(Quota(max_queued=2, max_running=1))
        queue.submit("a", "fuzz", {})
        queue.submit("a", "fuzz", {})
        with pytest.raises(QuotaExceeded):
            queue.submit("a", "fuzz", {})
        # Another client is unaffected.
        queue.submit("b", "fuzz", {})

    def test_dispatch_frees_queued_quota(self):
        queue = JobQueue(Quota(max_queued=1, max_running=5))
        queue.submit("a", "fuzz", {})
        with pytest.raises(QuotaExceeded):
            queue.submit("a", "fuzz", {})
        assert queue.next_ready() is not None
        queue.submit("a", "fuzz", {})   # no longer queued → admitted

    def test_max_running_skips_not_rejects(self):
        queue = JobQueue(Quota(max_queued=10, max_running=1))
        first_a = queue.submit("a", "fuzz", {})
        second_a = queue.submit("a", "fuzz", {})
        only_b = queue.submit("b", "fuzz", {})
        # a's first job dispatches, a's second is skipped, b's runs.
        assert queue.next_ready().id == first_a.id
        assert queue.next_ready().id == only_b.id
        assert queue.next_ready() is None          # a is saturated
        queue.finish(queue.jobs[first_a.id], JobState.DONE)
        assert queue.next_ready().id == second_a.id  # now eligible

    def test_saturated_client_does_not_block_lower_priority_peer(self):
        queue = JobQueue(Quota(max_queued=10, max_running=1))
        running = queue.submit("a", "fuzz", {}, priority="interactive")
        queue.submit("a", "fuzz", {}, priority="interactive")
        peer = queue.submit("b", "fuzz", {}, priority="batch")
        assert queue.next_ready().id == running.id
        assert queue.next_ready().id == peer.id


class TestCancellation:
    def test_cancel_queued_is_immediate(self):
        queue = JobQueue()
        job = queue.submit("a", "fuzz", {})
        queue.cancel(job.id)
        assert job.state == JobState.CANCELLED
        assert queue.next_ready() is None
        assert queue.depth == 0

    def test_cancel_running_sets_the_flag(self):
        queue = JobQueue()
        job = queue.submit("a", "fuzz", {})
        job.cancel_requested = threading.Event()
        assert queue.next_ready() is job
        queue.cancel(job.id)
        assert job.state == JobState.RUNNING        # cooperative
        assert job.cancel_requested.is_set()

    def test_cancel_terminal_is_a_noop(self):
        queue = JobQueue()
        job = queue.submit("a", "fuzz", {})
        queue.next_ready()
        queue.finish(job, JobState.DONE)
        queue.cancel(job.id)
        assert job.state == JobState.DONE

    def test_cancel_unknown_id(self):
        assert JobQueue().cancel("j999999") is None


class TestJournalRecovery:
    def test_queued_jobs_survive_restart(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        queue = JobQueue(journal=journal)
        done = queue.submit("a", "fuzz", {"budget": 1})
        kept = queue.submit("b", "experiment", {"points": [1]},
                            priority="batch")
        queue.next_ready()
        queue.finish(done, JobState.DONE)
        queue.close()

        fresh = JobQueue(journal=journal)
        recovered = fresh.recover()
        assert [j.id for j in recovered] == [kept.id]
        job = recovered[0]
        assert job.client == "b"
        assert job.kind == "experiment"
        assert job.spec == {"points": [1]}
        assert job.priority == PRIORITIES["batch"]
        assert fresh.depth == 1

    def test_running_jobs_requeue_on_restart(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        queue = JobQueue(journal=journal)
        job = queue.submit("a", "fuzz", {})
        assert queue.next_ready() is job    # running when the crash hits
        queue.close()
        fresh = JobQueue(journal=journal)
        assert [j.id for j in fresh.recover()] == [job.id]

    def test_ids_continue_after_restart(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        queue = JobQueue(journal=journal)
        old = queue.submit("a", "fuzz", {})
        queue.close()
        fresh = JobQueue(journal=journal)
        fresh.recover()
        assert fresh.submit("a", "fuzz", {}).id > old.id

    def test_recovery_compacts_the_journal(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        queue = JobQueue(journal=journal)
        for _ in range(5):
            job = queue.submit("a", "fuzz", {})
            queue.next_ready()
            queue.finish(job, JobState.DONE)
        queue.close()
        fresh = JobQueue(journal=journal)
        assert fresh.recover() == []
        # Nothing live to keep: the header line only.
        assert journal.read_text() == '{"type": "serve", "version": 1}\n'

    def test_torn_tail_line_is_ignored(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        queue = JobQueue(journal=journal)
        job = queue.submit("a", "fuzz", {})
        queue.close()
        with open(journal, "a") as handle:
            handle.write('{"kind": "sub')    # crash mid-write
        fresh = JobQueue(journal=journal)
        assert [j.id for j in fresh.recover()] == [job.id]

"""JobQueue admission control, per-tenant fairness, and the pool bridge."""

import threading
import time

import pytest

from repro.flow import FlowJob
from repro.service.queue import JobQueue, PoolBridge, QueueFull, QueuedJob

_IDS = iter(range(1, 10_000))


def _entry(tenant="t", priority=0, name="job"):
    return QueuedJob(
        id=next(_IDS), tenant=tenant, priority=priority, key=name,
        job=FlowJob(source="int main(void){return 0;}", name=name),
    )


class TestAdmission:
    def test_bounded_queue_rejects_not_buffers(self):
        q = JobQueue(maxsize=2)
        q.put(_entry())
        q.put(_entry())
        with pytest.raises(QueueFull):
            q.put(_entry())
        assert q.depth() == 2

    def test_closed_queue_refuses_producers(self):
        q = JobQueue()
        q.close()
        with pytest.raises(RuntimeError):
            q.put(_entry())

    def test_get_batch_timeout_returns_empty(self):
        q = JobQueue()
        assert q.get_batch(4, timeout=0.01) == []

    def test_closed_and_drained_returns_none(self):
        q = JobQueue()
        q.put(_entry(name="last"))
        q.close()
        batch = q.get_batch(4, timeout=0.5)
        assert [e.key for e in batch] == ["last"]   # drain first
        assert q.get_batch(4, timeout=0.5) is None  # then end-of-stream


class TestFairness:
    def test_round_robin_across_tenants(self):
        q = JobQueue()
        for i in range(4):
            q.put(_entry(tenant="hog", name=f"hog-{i}"))
        for i in range(2):
            q.put(_entry(tenant="mouse", name=f"mouse-{i}"))
        batch = q.get_batch(6, timeout=1)
        # the mouse's 2 jobs interleave instead of waiting behind the hog
        assert [e.key for e in batch] == [
            "hog-0", "mouse-0", "hog-1", "mouse-1", "hog-2", "hog-3",
        ]

    def test_priority_orders_within_a_tenant(self):
        q = JobQueue()
        q.put(_entry(priority=5, name="bulk"))
        q.put(_entry(priority=0, name="urgent"))
        q.put(_entry(priority=5, name="bulk-2"))
        batch = q.get_batch(3, timeout=1)
        # lower priority value dispatches first; ties stay FIFO
        assert [e.key for e in batch] == ["urgent", "bulk", "bulk-2"]

    def test_tenants_listing(self):
        q = JobQueue()
        q.put(_entry(tenant="b"))
        q.put(_entry(tenant="a"))
        assert q.tenants() == ["a", "b"]
        q.get_batch(2, timeout=1)
        assert q.tenants() == []


class TestCancel:
    def test_cancelled_entry_is_skipped_at_dispatch(self):
        q = JobQueue()
        victim = _entry(name="victim")
        keeper = _entry(name="keeper")
        q.put(victim)
        q.put(keeper)
        assert q.cancel(victim.id) is True
        assert victim.state == "cancelled"
        batch = q.get_batch(4, timeout=1)
        assert [e.key for e in batch] == ["keeper"]

    def test_cancel_unknown_or_running_is_false(self):
        q = JobQueue()
        entry = _entry()
        q.put(entry)
        [running] = q.get_batch(1, timeout=1)
        assert running.state == "running"
        assert q.cancel(running.id) is False      # too late
        assert q.cancel(999_999) is False         # never existed

    def test_timeout_state_variant(self):
        q = JobQueue()
        entry = _entry()
        q.put(entry)
        assert q.cancel(entry.id, state="timeout") is True
        assert entry.state == "timeout"


class TestBridge:
    """The dispatcher thread end of the queue, against real flow runs."""

    def _run_bridge(self, entries, max_workers=1, batch_limit=4):
        q = JobQueue()
        running, results = [], []
        done = threading.Event()
        lock = threading.Lock()

        def on_running(entry):
            with lock:
                running.append(entry.key)

        def on_result(entry, status, value):
            with lock:
                results.append((entry.key, status, value))
                if len(results) == len(entries):
                    done.set()

        bridge = PoolBridge(q, on_running, on_result,
                            max_workers=max_workers, batch_limit=batch_limit)
        bridge.start()
        for entry in entries:
            q.put(entry)
        assert done.wait(timeout=60), "bridge never delivered all results"
        bridge.stop()
        return running, results

    def test_results_flow_back_per_job(self):
        source = "int main(void){int i;int s;s=0;" \
                 "for(i=0;i<8;i=i+1){s=s+i;}return s;}"
        entries = [
            QueuedJob(id=next(_IDS), tenant="t", priority=0, key=f"k{i}",
                      job=FlowJob(source=source, name=f"k{i}"))
            for i in range(3)
        ]
        running, results = self._run_bridge(entries)
        assert sorted(running) == ["k0", "k1", "k2"]
        assert len(results) == 3
        for _key, status, value in results:
            assert status == "ok"
            assert value.recovered

    def test_one_bad_job_cannot_poison_batchmates(self):
        good = "int main(void){return 3;}"
        entries = [
            QueuedJob(id=next(_IDS), tenant="t", priority=0, key="good-1",
                      job=FlowJob(source=good, name="good-1")),
            QueuedJob(id=next(_IDS), tenant="t", priority=0, key="bad",
                      job=FlowJob(source="int main(void){", name="bad")),
            QueuedJob(id=next(_IDS), tenant="t", priority=0, key="good-2",
                      job=FlowJob(source=good, name="good-2")),
        ]
        _, results = self._run_bridge(entries, batch_limit=3)
        by_key = {key: (status, value) for key, status, value in results}
        assert by_key["good-1"][0] == "ok"
        assert by_key["good-2"][0] == "ok"
        status, message = by_key["bad"]
        assert status == "error"
        assert message  # human-readable reason, not a traceback object

    def test_before_batch_runs_before_every_drain(self):
        # the server's hook lets its event loop fire due timeouts; here
        # the hook cancels a queued entry, which must never start
        q = JobQueue()
        entries = [_entry(name=f"j{i}") for i in range(3)]
        for entry in entries:
            q.put(entry)
        calls, results = [], []
        done = threading.Event()

        def before_batch():
            calls.append(len(results))
            if len(calls) == 2:
                assert q.cancel(entries[2].id)

        def on_result(entry, status, value):
            results.append(entry.key)
            if len(results) == 2:
                done.set()

        bridge = PoolBridge(q, lambda e: None, on_result, max_workers=1,
                            batch_limit=1, before_batch=before_batch)
        bridge.start()
        assert done.wait(timeout=60), "bridge never delivered the results"
        bridge.stop(timeout=10)
        assert results == ["j0", "j1"]
        assert calls == [0, 1, 2]

    def test_stop_unblocks_an_idle_bridge(self):
        q = JobQueue()
        bridge = PoolBridge(q, lambda e: None, lambda e, s, v: None,
                            max_workers=1)
        bridge.start()
        time.sleep(0.05)         # bridge is parked in get_batch
        bridge.stop(timeout=10)
        assert not bridge._thread.is_alive()

"""Bounded per-tenant fair priority queue + the process-pool bridge.

The asyncio front-end produces jobs; CPU-bound flow runs must happen in
worker *processes* (pure-Python compute does not scale on threads).  The
two are joined by:

* :class:`JobQueue` -- thread-safe, bounded (admission control: a full
  queue rejects instead of buffering unboundedly), with one FIFO-per-
  priority heap per tenant and round-robin service across tenants, so one
  tenant submitting 10k jobs cannot starve another submitting 2.  Jobs can
  be cancelled while queued; a cancelled entry is skipped at dispatch.
* :class:`PoolBridge` -- one dispatcher thread that drains fair batches
  from the queue and runs each batch through the existing
  :func:`repro.flow.run_jobs` process pool.  Job *errors* are captured
  inside the worker (one bad source must not poison its batchmates), and
  pool-infrastructure failures reuse ``run_jobs``'s serial fallback, so
  the service keeps serving on hosts that forbid subprocesses.

Queue-depth and wait/latency instruments land on the ``repro.obs``
registry (``service.queue_depth``, ``service.job_wait_seconds``,
``service.batches_total``, ...).
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.flow import FlowJob, run_jobs

__all__ = ["JobQueue", "PoolBridge", "QueueFull", "QueuedJob"]


class QueueFull(Exception):
    """The queue is at capacity; the submission was rejected."""


@dataclass
class QueuedJob:
    """One admitted job, from enqueue to resolution."""

    id: int
    tenant: str
    priority: int
    key: str
    job: FlowJob
    enqueued_at: float = field(default_factory=time.monotonic)
    #: "queued" -> "running" -> one of "done"/"error"; or "cancelled"/
    #: "timeout" straight from "queued"
    state: str = "queued"


def _execute_service_job(job: FlowJob) -> tuple:
    """Worker-side wrapper: job failures become data, never exceptions.

    ``run_jobs`` re-raises the first job exception and abandons the rest
    of the batch -- right for sweeps, wrong for a service where batchmates
    belong to unrelated clients.
    """
    from repro.flow import execute_flow_job

    try:
        return ("ok", execute_flow_job(job))
    except Exception as exc:  # noqa: BLE001 -- any job failure is data
        return ("error", f"{type(exc).__name__}: {exc}")


class JobQueue:
    """Thread-safe bounded queue: priority within a tenant, round-robin
    across tenants."""

    def __init__(self, maxsize: int = 1024):
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        #: tenant -> heap of (priority, seq, QueuedJob)
        self._tenants: dict[str, list] = {}
        #: round-robin order over tenants that currently have queued jobs
        self._order: deque[str] = deque()
        self._by_id: dict[int, QueuedJob] = {}
        self._seq = itertools.count()
        self._size = 0
        self._closed = False

    # -- producers (event loop) ----------------------------------------

    def put(self, entry: QueuedJob) -> None:
        """Admit *entry* or raise :class:`QueueFull`/:class:`RuntimeError`."""
        with self._ready:
            if self._closed:
                raise RuntimeError("queue is closed")
            if self._size >= self.maxsize:
                # the server's _finish() owns the rejected counter
                raise QueueFull(
                    f"queue full ({self._size}/{self.maxsize} jobs)"
                )
            heap = self._tenants.get(entry.tenant)
            if heap is None:
                heap = self._tenants[entry.tenant] = []
                self._order.append(entry.tenant)
            heapq.heappush(heap, (entry.priority, next(self._seq), entry))
            self._by_id[entry.id] = entry
            self._size += 1
            obs.gauge("service.queue_depth").set_max(self._size)
            self._ready.notify()

    def cancel(self, job_id: int, state: str = "cancelled") -> bool:
        """Mark a *queued* job cancelled (lazily removed at dispatch);
        ``False`` when the job is unknown, running, or already resolved."""
        with self._lock:
            entry = self._by_id.get(job_id)
            if entry is None or entry.state != "queued":
                return False
            entry.state = state
            return True

    # -- consumer (bridge thread) --------------------------------------

    def get_batch(self, max_jobs: int, timeout: float | None = None
                  ) -> list[QueuedJob] | None:
        """Up to *max_jobs* entries in fair order; ``None`` once the queue
        is closed and drained.  Blocks until at least one live entry (or
        *timeout*, returning ``[]``)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._ready:
            while True:
                batch = self._drain_locked(max_jobs)
                if batch:
                    return batch
                if self._closed:
                    return None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return []
                    self._ready.wait(remaining)
                else:
                    self._ready.wait()

    def _drain_locked(self, max_jobs: int) -> list[QueuedJob]:
        batch: list[QueuedJob] = []
        while self._size and len(batch) < max_jobs:
            tenant = self._order[0]
            heap = self._tenants[tenant]
            _, _, entry = heapq.heappop(heap)
            self._size -= 1
            del self._by_id[entry.id]
            if heap:
                self._order.rotate(-1)  # next tenant gets the next slot
            else:
                del self._tenants[tenant]
                self._order.popleft()
            if entry.state != "queued":
                continue  # cancelled/timed out while waiting: skip
            entry.state = "running"
            obs.histogram("service.job_wait_seconds").observe(
                time.monotonic() - entry.enqueued_at
            )
            batch.append(entry)
        return batch

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        with self._ready:
            self._closed = True
            self._ready.notify_all()

    def depth(self) -> int:
        with self._lock:
            return self._size

    def tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)


class PoolBridge:
    """The thread-side bridge from the queue onto the ``run_jobs`` pool.

    One dispatcher thread pulls fair batches (up to *batch_limit* jobs,
    default = pool width) and maps them over worker processes; per-job
    outcomes flow back through *on_running* / *on_result* callbacks, which
    are invoked **on the bridge thread** -- the server wraps them with
    ``loop.call_soon_threadsafe``.  *before_batch*, when given, runs on
    the bridge thread before each drain; the server uses it to let the
    event loop catch up (see :meth:`PartitionServer._yield_to_loop`).
    """

    def __init__(
        self,
        queue: JobQueue,
        on_running: Callable[[QueuedJob], None],
        on_result: Callable[[QueuedJob, str, object], None],
        max_workers: int | None = None,
        batch_limit: int | None = None,
        before_batch: Callable[[], None] | None = None,
    ):
        import os

        self.queue = queue
        self.on_running = on_running
        self.on_result = on_result
        self.before_batch = before_batch
        self.max_workers = max_workers
        self.batch_limit = batch_limit or max_workers or os.cpu_count() or 1
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-service-bridge", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        self.queue.close()
        if self._thread is not None:
            self._thread.join(timeout)

    def _run(self) -> None:
        while True:
            if self.before_batch is not None:
                self.before_batch()
            batch = self.queue.get_batch(self.batch_limit)
            if batch is None:
                return
            if not batch:
                continue
            for entry in batch:
                self.on_running(entry)
            obs.counter("service.batches_total").inc()
            obs.histogram("service.batch_jobs").observe(len(batch))
            try:
                outcomes = run_jobs(
                    _execute_service_job,
                    [entry.job for entry in batch],
                    max_workers=self.max_workers,
                )
            except Exception as exc:  # noqa: BLE001 -- keep the bridge alive
                # _execute_service_job never raises, so this is pool
                # plumbing failing in a way run_jobs could not absorb;
                # fail the batch, keep serving
                outcomes = [("error", f"{type(exc).__name__}: {exc}")] * len(batch)
            for entry, (status, value) in zip(batch, outcomes):
                entry.state = "done" if status == "ok" else "error"
                self.on_result(entry, status, value)

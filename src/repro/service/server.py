"""The asyncio partitioning server: NDJSON front-end over TCP or a unix
socket, streaming per-job status events.

Lifecycle of a submission::

    submit --> accepted --> done (cached=true)             # store hit
    submit --> accepted --> coalesced --> done             # identical job in flight
    submit --> accepted --> queued --> running --> done    # worker execution
                        \\-> rejected (queue full)  \\-> error / cancelled / timeout

Every event for a job carries a monotonically increasing per-job ``seq``,
so clients can assert ordering.  Batches additionally get a ``batch_done``
summary event once every member resolved.

Concurrency model: all protocol state (records, coalescer, batches) is
confined to the event loop thread.  The :class:`~repro.service.queue.PoolBridge`
dispatcher thread reports back via ``loop.call_soon_threadsafe``; each
connection has a single writer task draining an outbound queue, so event
order per connection is the order they were emitted.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro import flow_cache, obs
from repro.flow import FlowReport
from repro.service import protocol
from repro.service.dedupe import Coalescer
from repro.service.queue import JobQueue, PoolBridge, QueueFull, QueuedJob

__all__ = ["PartitionServer", "ServiceConfig", "ServerHandle",
           "run_server", "serve_in_thread"]


@dataclass
class ServiceConfig:
    """Everything ``python -m repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = protocol.DEFAULT_PORT
    socket_path: str | None = None   # unix socket; overrides host/port
    queue_size: int = 1024
    max_workers: int | None = None   # run_jobs pool width (None = CPU count)
    batch_limit: int | None = None   # jobs per pool batch (None = pool width)
    use_cache: bool | None = None    # None = defer to REPRO_CACHE


def _result_row(report: FlowReport) -> dict:
    row = report.summary_row()
    row["platform"] = report.platform.name
    if not report.recovered:
        row["failure_reason"] = report.failure_reason
    return row


class _Connection:
    """One client connection: reader loop plus a serializing writer task."""

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.outbound: asyncio.Queue = asyncio.Queue()
        self.alive = True

    def send(self, payload: dict) -> None:
        if self.alive:
            self.outbound.put_nowait(protocol.encode(payload))

    async def drain_forever(self) -> None:
        try:
            while True:
                line = await self.outbound.get()
                if line is None:
                    break
                self.writer.write(line)
                await self.writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.alive = False


@dataclass
class _JobRecord:
    """Loop-side view of one submission (leader, follower, or cached)."""

    id: int
    spec: protocol.SubmitSpec
    key: str
    conn: _Connection
    batch: Optional["_Batch"] = None
    seq: int = 0
    finished: bool = False
    leader: bool = False
    submitted_at: float = field(default_factory=time.monotonic)

    def emit(self, event: str, **fields) -> None:
        payload = {"event": event, "job": self.id, "seq": self.seq}
        payload.update(fields)
        self.seq += 1
        self.conn.send(payload)


@dataclass
class _Batch:
    id: int
    job_ids: list[int] = field(default_factory=list)
    remaining: int = 0
    ok: int = 0
    cached: int = 0
    failed: int = 0
    done_emitted: bool = False

    def maybe_done(self, conn: "_Connection") -> None:
        if self.remaining == 0 and not self.done_emitted:
            self.done_emitted = True
            conn.send({"event": "batch_done", "batch": self.id,
                       "jobs": self.job_ids, "ok": self.ok,
                       "cached": self.cached, "failed": self.failed})


class PartitionServer:
    """The service: queue + bridge + coalescer behind an asyncio server."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.queue = JobQueue(self.config.queue_size)
        self.coalescer = Coalescer()
        self._records: dict[int, _JobRecord] = {}
        #: leader records by job key, for follower resolution
        self._leaders: dict[str, _JobRecord] = {}
        self._next_job = iter(range(1, 1 << 62)).__next__
        self._next_batch = iter(range(1, 1 << 62)).__next__
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown = asyncio.Event()
        self._started_at = time.monotonic()
        self.bridge = PoolBridge(
            self.queue,
            on_running=self._threadsafe(self._on_running),
            on_result=self._threadsafe(self._on_result),
            max_workers=self.config.max_workers,
            batch_limit=self.config.batch_limit,
            before_batch=self._yield_to_loop,
        )

    # -- lifecycle -----------------------------------------------------

    def _yield_to_loop(self) -> None:
        """Block the bridge thread until the event loop has run two more
        iterations.

        Batches of one job (and ``max_workers=1``) run in-process on the
        bridge thread and hold the GIL, so the loop thread gets a turn
        only every switch interval -- too rarely to fire a queued job's
        timeout or read a cancel request before the next drain.  Waiting
        here lets timers that fell due and requests already received
        take effect first.
        """
        loop = self._loop
        if loop is None:
            return
        done = threading.Event()
        try:
            loop.call_soon_threadsafe(loop.call_soon, done.set)
        except RuntimeError:
            return  # loop closed: shutting down
        done.wait(timeout=1.0)

    def _threadsafe(self, fn):
        def call(*args):
            loop = self._loop
            if loop is not None and not loop.is_closed():
                loop.call_soon_threadsafe(fn, *args)
        return call

    @property
    def use_cache(self) -> bool:
        if self.config.use_cache is not None:
            return self.config.use_cache
        return flow_cache.cache_enabled()

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.bridge.start()
        if self.config.socket_path:
            self._server = await asyncio.start_unix_server(
                self._handle, path=self.config.socket_path,
                limit=protocol.MAX_LINE_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle, host=self.config.host, port=self.config.port,
                limit=protocol.MAX_LINE_BYTES,
            )
            # port 0 means "pick one"; expose what the kernel chose
            self.config.port = self._server.sockets[0].getsockname()[1]

    def where(self) -> str:
        if self.config.socket_path:
            return f"unix:{self.config.socket_path}"
        return f"{self.config.host}:{self.config.port}"

    async def wait_shutdown(self) -> None:
        await self._shutdown.wait()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await asyncio.get_running_loop().run_in_executor(None, self.bridge.stop)

    # -- connection handling -------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer)
        writer_task = asyncio.ensure_future(conn.drain_forever())
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, ValueError):
                    break  # ValueError: line over the reader limit
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    request = protocol.decode(line)
                    self._dispatch(conn, request)
                except protocol.ProtocolError as exc:
                    conn.send({"event": "protocol_error", "message": str(exc)})
        finally:
            conn.alive = False
            conn.outbound.put_nowait(None)
            await writer_task
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    # -- request dispatch (event loop only) ----------------------------

    def _dispatch(self, conn: _Connection, request: dict) -> None:
        op = request.get("op")
        if op == "submit":
            self._submit(conn, request, batch=None)
        elif op == "batch":
            self._submit_batch(conn, request)
        elif op == "cancel":
            self._cancel(conn, request)
        elif op == "stats":
            self._stats(conn)
        elif op == "ping":
            conn.send({"event": "pong", "uptime_s":
                       round(time.monotonic() - self._started_at, 3)})
        else:
            raise protocol.ProtocolError(f"unknown op {op!r}")

    def _submit_batch(self, conn: _Connection, request: dict) -> None:
        jobs = request.get("jobs")
        if not isinstance(jobs, list) or not jobs:
            raise protocol.ProtocolError("'jobs' must be a non-empty list")
        tenant = request.get("tenant", "anonymous")
        batch = _Batch(id=self._next_batch(), remaining=len(jobs))
        conn.send({"event": "batch_accepted", "batch": batch.id,
                   "jobs": len(jobs)})
        for payload in jobs:
            # a bad entry must not orphan its batchmates' batch_done event
            try:
                if not isinstance(payload, dict):
                    raise protocol.ProtocolError("batch entries must be objects")
                payload.setdefault("tenant", tenant)
                self._submit(conn, payload, batch=batch)
            except protocol.ProtocolError as exc:
                batch.remaining -= 1
                batch.failed += 1
                conn.send({"event": "protocol_error", "batch": batch.id,
                           "message": str(exc)})
        batch.maybe_done(conn)

    def _submit(self, conn: _Connection, payload: dict,
                batch: _Batch | None) -> None:
        spec = protocol.parse_submit(payload)
        key = flow_cache.job_key(spec.job)
        record = _JobRecord(id=self._next_job(), spec=spec, key=key,
                            conn=conn, batch=batch)
        self._records[record.id] = record
        if batch is not None:
            batch.job_ids.append(record.id)
        obs.counter("service.submitted_total").inc()
        self._tenant_counter(spec.tenant, "submitted_total").inc()
        record.emit("accepted", name=spec.job.name, tenant=spec.tenant,
                    key=key, batch=batch.id if batch else None)

        if self.use_cache and spec.use_cache:
            report = self.coalescer.check_cache(spec.job)
            if report is not None:
                self._tenant_counter(spec.tenant, "cache_served_total").inc()
                self._finish(record, "done", cached=True,
                             result=_result_row(report))
                return

        if not self.coalescer.admit(key):
            self.coalescer.attach(key, lambda *args: self._follower_done(record, *args))
            self._tenant_counter(spec.tenant, "coalesced_total").inc()
            leader = self._leaders.get(key)
            record.emit("coalesced",
                        leader=leader.id if leader is not None else None)
            self._arm_timeout(record)
            return

        entry = QueuedJob(id=record.id, tenant=spec.tenant,
                          priority=spec.priority, key=key, job=spec.job)
        try:
            self.queue.put(entry)
        except (QueueFull, RuntimeError) as exc:
            self.coalescer.abandon(key)
            self._finish(record, "rejected", reason=str(exc))
            return
        record.leader = True
        self._leaders[key] = record
        record.emit("queued", depth=self.queue.depth())
        self._arm_timeout(record)

    def _cancel(self, conn: _Connection, request: dict) -> None:
        job_id = request.get("job")
        record = self._records.get(job_id) if isinstance(job_id, int) else None
        if record is None or record.finished:
            conn.send({"event": "cancel_result", "job": job_id, "ok": False})
            return
        ok = self._abort(record, "cancelled")
        conn.send({"event": "cancel_result", "job": job_id, "ok": ok})

    def _stats(self, conn: _Connection) -> None:
        conn.send({
            "event": "stats",
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "queue_depth": self.queue.depth(),
            "inflight": self.coalescer.in_flight(),
            "metrics": obs.snapshot(),
        })

    # -- timeouts and cancellation -------------------------------------

    def _arm_timeout(self, record: _JobRecord) -> None:
        if record.spec.timeout is not None and self._loop is not None:
            self._loop.call_later(record.spec.timeout, self._expire, record)

    def _expire(self, record: _JobRecord) -> None:
        if not record.finished:
            self._abort(record, "timeout")

    def _abort(self, record: _JobRecord, state: str) -> bool:
        """Cancel/timeout *record*; leaders take their followers with them
        (the computation they were all waiting on is not going to run)."""
        if record.leader:
            if not self.queue.cancel(record.id, state):
                return False  # already running; results will arrive
            del self._leaders[record.key]
            self._finish(record, state)
            self.coalescer.resolve(record.key, state, None)
            return True
        # followers (and cache-raced records) just stop listening
        self._finish(record, state)
        return True

    # -- results (bridge thread -> loop via call_soon_threadsafe) ------

    def _on_running(self, entry: QueuedJob) -> None:
        record = self._records.get(entry.id)
        if record is not None and not record.finished:
            record.emit("running")

    def _on_result(self, entry: QueuedJob, status: str, value) -> None:
        record = self._records.get(entry.id)
        if record is None:
            return
        self._leaders.pop(record.key, None)
        if status == "ok":
            report: FlowReport = value
            if self.use_cache and record.spec.use_cache:
                flow_cache.store_report(record.spec.job, report)
            row = _result_row(report)
            if not record.finished:
                self._finish(record, "done", cached=False, result=row)
            self.coalescer.resolve(record.key, "done", row)
        else:
            if not record.finished:
                self._finish(record, "error", message=str(value))
            self.coalescer.resolve(record.key, "error", str(value))

    def _follower_done(self, record: _JobRecord, state: str, payload) -> None:
        if record.finished:
            return  # timed out / cancelled while coalesced
        if state == "done":
            self._finish(record, "done", cached=False, coalesced=True,
                         result=payload)
        elif state == "error":
            self._finish(record, "error", coalesced=True, message=payload)
        else:
            self._finish(record, state, coalesced=True)

    # -- bookkeeping ---------------------------------------------------

    @staticmethod
    def _tenant_counter(tenant: str, name: str):
        return obs.counter(f"service.tenant.{tenant}.{name}")

    def _finish(self, record: _JobRecord, event: str, **fields) -> None:
        if record.finished:
            return
        record.finished = True
        elapsed = time.monotonic() - record.submitted_at
        tenant = record.spec.tenant
        if event == "done":
            obs.counter("service.completed_total").inc()
            self._tenant_counter(tenant, "completed_total").inc()
            obs.histogram("service.job_seconds").observe(elapsed)
        elif event == "error":
            obs.counter("service.failed_total").inc()
            self._tenant_counter(tenant, "failed_total").inc()
        else:
            obs.counter(f"service.{event}_total").inc()
        record.emit(event, elapsed_ms=round(elapsed * 1e3, 3), **fields)
        self._records.pop(record.id, None)
        batch = record.batch
        if batch is not None:
            batch.remaining -= 1
            if event == "done":
                batch.ok += 1
                if fields.get("cached"):
                    batch.cached += 1
            else:
                batch.failed += 1
            batch.maybe_done(record.conn)


async def run_server(config: ServiceConfig | None = None,
                     ready: threading.Event | None = None,
                     holder: dict | None = None) -> PartitionServer:
    """Start a server and run until :meth:`PartitionServer.request_shutdown`.

    *ready*/*holder* let a launching thread learn the bound address and
    keep handles for a clean cross-thread shutdown (see
    :func:`serve_in_thread`).
    """
    server = PartitionServer(config)
    await server.start()
    if holder is not None:
        holder["server"] = server
        holder["loop"] = asyncio.get_running_loop()
    if ready is not None:
        ready.set()
    try:
        await server.wait_shutdown()
    finally:
        await server.stop()
    return server


class ServerHandle:
    """A server running in a daemon thread (tests, benchmarks)."""

    def __init__(self, thread: threading.Thread, holder: dict):
        self._thread = thread
        self._holder = holder

    @property
    def server(self) -> PartitionServer:
        return self._holder["server"]

    @property
    def config(self) -> ServiceConfig:
        return self.server.config

    def stop(self, timeout: float = 10.0) -> None:
        loop = self._holder.get("loop")
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout)


def serve_in_thread(config: ServiceConfig | None = None,
                    ready_timeout: float = 30.0) -> ServerHandle:
    """Run a :class:`PartitionServer` on a fresh event loop in a daemon
    thread; returns once the socket is bound."""
    ready = threading.Event()
    holder: dict = {}

    def runner() -> None:
        asyncio.run(run_server(config, ready=ready, holder=holder))

    thread = threading.Thread(target=runner, name="repro-service", daemon=True)
    thread.start()
    if not ready.wait(ready_timeout):
        raise RuntimeError("service did not come up in time")
    return ServerHandle(thread, holder)

#!/usr/bin/env python3
"""Load generator for the partitioning service.

Boots a :class:`~repro.service.server.PartitionServer` in-process (daemon
thread, loopback TCP, isolated cache directory) and drives it with
concurrent clients through three phases:

* ``cold``  -- every job unique and uncached: measures the full queue ->
  bridge -> worker-pool -> event-stream path;
* ``warm``  -- the same jobs again: measures the cache-served fast path
  (no queue, no worker);
* ``burst`` -- many clients submit one *identical* fresh job at once:
  measures admission-time coalescing (one worker execution fans out to
  every caller).

Each phase reports jobs/s plus p50/p99 per-job client-observed latency,
and the run lands as the top-level ``service`` section of
``BENCH_sim.json`` (the trajectory file ``bench_sim_throughput.py``
maintains; it carries ``service`` forward, at top level, when it rolls
its own latest entry into ``history``).

``--smoke`` is the CI gate: a small cold+warm+burst run that *asserts*
the service's core economics -- every warm job answered from the cache
(``service.cache_served_total``), the burst coalesced onto at most a
couple of executions, and per-job event streams arriving in order (the
client raises on any ``seq`` regression).  Exit 1 on any violation, no
BENCH_sim.json update.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import obs  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.server import ServiceConfig, serve_in_thread  # noqa: E402

COLD_JOBS = 24
CLIENTS = 4
BURST_CLIENTS = 8


def _source(salt: int, iters: int = 2000) -> str:
    """A distinct mini-C program per salt (identical sources coalesce)."""
    return (
        "int main(void){int i;int s;s=0;"
        f"for(i=0;i<{iters};i=i+1){{s=s+i+{salt};}}"
        "return s;}"
    )


def percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile; q in [0, 100]."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(q / 100 * (len(ordered) - 1))))
    return ordered[rank]


def drive(port: int, payloads: list, clients: int) -> dict:
    """Submit *payloads* through *clients* concurrent connections.

    Returns jobs/s, latency percentiles, and the per-job final events.
    """
    shares = [payloads[i::clients] for i in range(clients)]
    shares = [s for s in shares if s]
    latencies: list[float] = []
    finals: list[dict] = []
    errors: list[str] = []
    lock = threading.Lock()
    barrier = threading.Barrier(len(shares))

    def worker(share: list) -> None:
        try:
            with ServiceClient(port=port).connect() as client:
                barrier.wait()
                for payload in share:
                    begin = time.perf_counter()
                    final = client.submit(**payload)
                    elapsed = time.perf_counter() - begin
                    with lock:
                        latencies.append(elapsed)
                        finals.append(final)
        except Exception as exc:  # noqa: BLE001 -- surface, don't hang
            with lock:
                errors.append(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=worker, args=(share,))
               for share in shares]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - begin
    if errors:
        raise SystemExit(f"load generator failed: {errors[0]}")

    done = sum(final.get("event") == "done" for final in finals)
    return {
        "jobs": len(finals),
        "ok": done,
        "clients": len(shares),
        "wall_seconds": round(wall, 4),
        "jobs_per_second": round(len(finals) / wall, 2) if wall else 0.0,
        "p50_ms": round(percentile(latencies, 50) * 1e3, 3),
        "p99_ms": round(percentile(latencies, 99) * 1e3, 3),
        "finals": finals,
    }


def run_load(jobs: int, clients: int, burst_clients: int) -> dict:
    """The three-phase run against a fresh in-process service."""
    handle = serve_in_thread(ServiceConfig(port=0))
    try:
        port = handle.config.port
        payloads = [{"source": _source(i), "name": f"load-{i}",
                     "tenant": f"tenant-{i % clients}"} for i in range(jobs)]

        cold = drive(port, payloads, clients)
        print(f"cold  {cold['jobs_per_second']:8.2f} jobs/s  "
              f"p50 {cold['p50_ms']:8.2f} ms  p99 {cold['p99_ms']:8.2f} ms  "
              f"({cold['jobs']} jobs, {cold['clients']} clients)")

        warm = drive(port, payloads, clients)
        print(f"warm  {warm['jobs_per_second']:8.2f} jobs/s  "
              f"p50 {warm['p50_ms']:8.2f} ms  p99 {warm['p99_ms']:8.2f} ms")

        burst_payload = {"source": _source(10_000, iters=20_000),
                         "name": "burst", "tenant": "burst"}
        burst = drive(port, [dict(burst_payload)] * burst_clients,
                      burst_clients)
        print(f"burst {burst['jobs_per_second']:8.2f} jobs/s  "
              f"p50 {burst['p50_ms']:8.2f} ms  p99 {burst['p99_ms']:8.2f} ms  "
              f"({burst_clients} identical submissions)")

        with ServiceClient(port=port).connect() as client:
            metrics = client.stats()["metrics"]
    finally:
        handle.stop()

    def count(name: str) -> int:
        return metrics.get(name, {}).get("value", 0)

    warm_cached = sum(bool(f.get("cached")) for f in warm["finals"])
    burst_coalesced = sum(bool(f.get("coalesced")) for f in burst["finals"])
    burst_cached = sum(bool(f.get("cached")) for f in burst["finals"])
    for phase in (cold, warm, burst):
        phase.pop("finals")
    return {
        "cold": cold,
        "warm": dict(warm, cached=warm_cached),
        "burst": dict(burst, coalesced=burst_coalesced, cached=burst_cached),
        "counters": {
            name: count(name) for name in (
                "service.submitted_total", "service.completed_total",
                "service.failed_total", "service.cache_served_total",
                "service.coalesced_total", "cache.hits_total",
                "cache.stores_total",
            )
        },
    }


def run_smoke() -> int:
    """CI gate: small run, hard assertions on the service's economics."""
    results = run_load(jobs=6, clients=2, burst_clients=4)
    failures = []
    if results["cold"]["ok"] != results["cold"]["jobs"]:
        failures.append(
            f"cold phase: {results['cold']['ok']}/{results['cold']['jobs']} ok"
        )
    if results["warm"]["cached"] != results["warm"]["jobs"]:
        failures.append(
            f"warm phase: only {results['warm']['cached']}/"
            f"{results['warm']['jobs']} jobs served from cache"
        )
    if results["counters"]["service.cache_served_total"] \
            < results["warm"]["jobs"]:
        failures.append("service.cache_served_total below warm job count")
    # every burst submission after the leader must ride the leader's
    # execution (coalesced) or its freshly stored result (cached)
    burst = results["burst"]
    if burst["coalesced"] + burst["cached"] < burst["jobs"] - 1:
        failures.append(
            f"burst phase: {burst['jobs']} identical submissions but only "
            f"{burst['coalesced']} coalesced + {burst['cached']} cache-served"
        )
    if failures:
        print(f"smoke FAILED: {'; '.join(failures)}")
        return 1
    print("smoke passed")
    return 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o", "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_sim.json"),
    )
    parser.add_argument("--jobs", type=int, default=COLD_JOBS)
    parser.add_argument("--clients", type=int, default=CLIENTS)
    parser.add_argument("--burst-clients", type=int, default=BURST_CLIENTS)
    parser.add_argument("--smoke", action="store_true",
                        help="quick correctness gate; no BENCH_sim.json "
                             "update")
    args = parser.parse_args()

    # isolated cache + live metrics: the numbers measure the service,
    # not whatever ~/.cache/repro happens to contain
    scratch = tempfile.mkdtemp(prefix="repro-bench-service-")
    os.environ["REPRO_CACHE_DIR"] = scratch
    os.environ.pop("REPRO_CACHE", None)
    os.environ.pop("REPRO_CACHE_BUDGET", None)
    obs.enable(metrics=True, tracing=False)

    if args.smoke:
        sys.exit(run_smoke())

    results = run_load(args.jobs, args.clients, args.burst_clients)
    results["host"] = {
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
    }

    output = Path(args.output)
    write_service(output, results)
    print(f"wrote service section to {output}")


def write_service(output: Path, results: dict) -> None:
    """Replace the top-level ``service`` section of *output*; the file's
    history mechanics belong to ``bench_sim_throughput.py``."""
    payload: dict = {}
    if output.exists():
        try:
            payload = json.loads(output.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(
                f"{output} exists but is unreadable ({exc}); refusing to "
                "overwrite the perf trajectory -- fix or remove it first"
            )
    payload["service"] = results
    output.write_text(json.dumps(payload, indent=2) + "\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Simulator throughput benchmark: raw instr/s and whole-suite sweep time.

Writes ``BENCH_sim.json`` next to the repo root so perf changes leave a
trajectory future PRs can regress against:

    python benchmarks/bench_sim_throughput.py [-o BENCH_sim.json]

Reported numbers:

* ``single_run`` -- raw simulation throughput (million instr/s) on a few
  representative benchmarks, profiled and unprofiled, best of N runs
  (``reps`` records N; the engines under comparison are interleaved
  rep-by-rep so host drift cancels out of the speedup ratios).  The
  headline numbers are the default superblock engine; each entry also
  carries the threaded throughput and the resulting speedup, so dispatch
  regressions are visible without digging through history.
* ``sweep`` -- wall-clock seconds for the full 20-benchmark single-platform
  flow sweep (compile + simulate + decompile + partition + synthesize),
  serial and through the parallel runner.  The on-disk flow cache is
  bypassed so the numbers measure computation, not pickle loading.

``--smoke`` runs a fast host-independent regression gate instead: it
compares the superblock engine against threaded dispatch on the same
machine and fails (exit 1) below a 2x margin, then checks that the two
engines produce bit-identical profiled results on ``brev``.  CI runs
this on every push; absolute instr/s vary wildly across shared runners,
the engine-vs-engine ratio does not.

Earlier entries are preserved under ``history`` so the file carries the
whole perf trajectory; sections other harnesses own (``service``, from
``bench_service_load.py``) stay at top level across runs.  Trajectory: seed (~0.96M instr/s on ``brev``, ~5.8 s serial
sweep with the string-dispatch interpreter) -> PR 1 threaded code (~7.8M
instr/s) -> PR 4 superblock dispatch (~2-3x threaded) -> onward.  Future
perf PRs must keep the trajectory monotonic.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.compiler.driver import compile_source
from repro.flow import FlowJob, run_flows
from repro.programs import ALL_BENCHMARKS, get_benchmark
from repro.sim.cpu import Cpu

SINGLE_RUN_BENCHMARKS = ["brev", "crc", "fir", "adpcm"]
REPEATS = 9  # best-of-N; raised from 5 to damp shared-host noise

#: --smoke fails below this superblock/threaded ratio; the real margin
#: is ~3x, so 2.0 only trips on a genuine regression
SMOKE_MIN_SPEEDUP = 2.0

#: the two dispatch engines the harness compares
ENGINES = {
    "threaded": {"engine": "threaded"},
    "superblock": {"engine": "superblock"},
}


def time_configs(name: str, configs: dict[str, dict],
                 repeats: int = REPEATS) -> dict[str, dict]:
    """Interleaved best-of-N wall clock for one benchmark across configs.

    Each round runs every config back-to-back (fresh Cpu per run, timing
    ``run()`` only), so a host slowdown window hits all configs equally
    and the engine-vs-engine *ratios* stay honest even when absolute
    instr/s drift -- consecutive same-config reps would let drift land
    on one side of a ratio.
    """
    exe = compile_source(get_benchmark(name).source)
    best = {key: float("inf") for key in configs}
    steps = {key: 0 for key in configs}
    for _ in range(repeats):
        for key, cpu_kwargs in configs.items():
            cpu = Cpu(exe, **cpu_kwargs)
            start = time.perf_counter()
            result = cpu.run()
            best[key] = min(best[key], time.perf_counter() - start)
            steps[key] = result.steps
    return {
        key: {
            "steps": steps[key],
            "seconds": round(best[key], 6),
            "mips": round(steps[key] / best[key] / 1e6, 3),
            "reps": repeats,
        }
        for key in configs
    }


def host_fingerprint() -> dict:
    """Where these numbers came from: absolute instr/s are meaningless
    without the host, and the trajectory file outlives any one machine."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }


def time_sweep(max_workers: int | None) -> float:
    jobs = [FlowJob(source=bench.source, name=bench.name) for bench in ALL_BENCHMARKS]
    start = time.perf_counter()
    run_flows(jobs, max_workers=max_workers, cache=False)
    return round(time.perf_counter() - start, 3)


def time_dynamic_sweep(max_workers: int | None) -> float:
    """Whole-suite *dynamic* (online-partitioning) sweep; uncached by
    nature, so serial-vs-parallel measures pure computation."""
    from repro.dynamic.flow import DynamicFlowJob, run_dynamic_flows

    jobs = [DynamicFlowJob(source=bench.source, name=bench.name)
            for bench in ALL_BENCHMARKS]
    start = time.perf_counter()
    run_dynamic_flows(jobs, max_workers=max_workers)
    return round(time.perf_counter() - start, 3)


def run_smoke() -> int:
    """Fast engine-vs-engine regression gate for CI; returns an exit code."""
    failures = []
    for name in ("brev", "crc"):
        timed = time_configs(
            name, {"fast": ENGINES["superblock"], "slow": ENGINES["threaded"]},
            repeats=3,
        )
        fast, slow = timed["fast"], timed["slow"]
        speedup = fast["mips"] / slow["mips"] if slow["mips"] else 0.0
        status = "ok" if speedup >= SMOKE_MIN_SPEEDUP else "REGRESSED"
        print(f"{name:8s} superblock {fast['mips']:7.2f}M  threaded "
              f"{slow['mips']:7.2f}M  ({speedup:.2f}x) {status}")
        if speedup < SMOKE_MIN_SPEEDUP:
            failures.append(name)
    # the fast engine must also agree with threaded dispatch bit for bit
    exe = compile_source(get_benchmark("brev").source)
    superblock = Cpu(exe, profile=True, **ENGINES["superblock"]).run()
    threaded = Cpu(exe, profile=True, **ENGINES["threaded"]).run()
    if superblock != threaded:
        print("smoke FAILED: superblock and threaded results differ on brev")
        failures.append("brev-exactness")
    else:
        print(f"brev     superblock == threaded ({superblock.steps:,} "
              f"instructions, {superblock.cycles:,} cycles)")
    if failures:
        print(f"smoke FAILED ({', '.join(failures)}); gate is "
              f"{SMOKE_MIN_SPEEDUP}x over threaded")
        return 1
    print("smoke passed")
    return 0


def write_entry(output: Path, payload: dict) -> None:
    """Make *payload* the latest entry of *output*.

    The latest entry stays at top level (tools read it directly); the
    previous one moves under ``history``, oldest first, except for the
    ``service`` section ``bench_service_load.py`` owns, which moves to
    the new top level instead.
    """
    history: list[dict] = []
    if output.exists():
        try:
            previous = json.loads(output.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            # never clobber the perf trajectory: a truncated write or merge
            # marker must be repaired by hand, not silently erased
            raise SystemExit(
                f"{output} exists but is unreadable ({exc}); refusing to "
                "overwrite the perf trajectory -- fix or remove it first"
            )
        if isinstance(previous, dict):
            history = previous.pop("history", [])
            if "service" in previous:
                payload["service"] = previous.pop("service")
            if previous:
                history.append(previous)
    payload["history"] = history
    output.write_text(json.dumps(payload, indent=2) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o", "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_sim.json"),
    )
    parser.add_argument("--label", default="",
                        help="trajectory label for this entry (e.g. 'PR 4')")
    parser.add_argument("--smoke", action="store_true",
                        help="quick engine-vs-engine regression gate; "
                             "no BENCH_sim.json update")
    args = parser.parse_args()

    if args.smoke:
        sys.exit(run_smoke())

    single = {}
    for name in SINGLE_RUN_BENCHMARKS:
        row = time_configs(name, {
            "no_profile": ENGINES["superblock"],
            "profile": dict(ENGINES["superblock"], profile=True),
            "threaded_no_profile": ENGINES["threaded"],
        })
        row["speedup_vs_threaded"] = round(
            row["no_profile"]["mips"] / row["threaded_no_profile"]["mips"], 2
        )
        single[name] = row
        print(f"{name:8s} {row['no_profile']['mips']:7.2f}M instr/s "
              f"({row['profile']['mips']:.2f}M profiled, "
              f"{row['speedup_vs_threaded']:.2f}x over threaded)")

    serial = time_sweep(max_workers=1)
    print(f"sweep    {serial:7.2f}s serial (20 benchmarks, 200 MHz platform)")
    parallel = time_sweep(max_workers=None)
    workers = os.cpu_count() or 1
    print(f"sweep    {parallel:7.2f}s parallel ({workers} workers)")
    dyn_serial = time_dynamic_sweep(max_workers=1)
    print(f"dynamic  {dyn_serial:7.2f}s serial "
          f"({len(ALL_BENCHMARKS)} online-partitioning runs)")
    dyn_parallel = time_dynamic_sweep(max_workers=None)
    print(f"dynamic  {dyn_parallel:7.2f}s parallel ({workers} workers)")

    payload = {
        "benchmark": "sim_throughput",
        "cpu_count": workers,
        "host": host_fingerprint(),
        "engine": "superblock",
        "reps": REPEATS,
        "single_run": single,
        "sweep": {
            "benchmarks": len(ALL_BENCHMARKS),
            "serial_seconds": serial,
            "parallel_seconds": parallel,
            "parallel_workers": workers,
        },
        "dynamic_sweep": {
            "benchmarks": len(ALL_BENCHMARKS),
            "serial_seconds": dyn_serial,
            "parallel_seconds": dyn_parallel,
            "parallel_workers": workers,
        },
    }
    if args.label:
        payload["label"] = args.label

    output = Path(args.output)
    write_entry(output, payload)
    print(f"wrote {output}")


if __name__ == "__main__":
    main()

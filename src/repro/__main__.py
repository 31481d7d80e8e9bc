"""Command-line interface: the platform vendor's partitioning tool.

The paper's deployment story is a back-end tool that operates on the final
software binary, after any compiler.  This CLI is that tool:

    # compile a mini-C file to a binary (the "software side")
    python -m repro compile kernel.c -O1 -o kernel.sxe

    # run the binary on the simulated MIPS
    python -m repro run kernel.sxe

    # partition the binary onto the hypothetical MIPS/Virtex-II platform
    python -m repro partition kernel.sxe --cpu-mhz 200

    # inspect what the decompiler recovers
    python -m repro decompile kernel.sxe --function main

    # dump synthesized VHDL for the hottest loop
    python -m repro vhdl kernel.sxe -o kernel.vhd

    # sweep the built-in benchmark suite across platforms, in parallel
    python -m repro sweep --cpu-mhz 40 200 400

    # online (warp-style) partitioning: static vs dynamic, hard + soft cores
    python -m repro dynamic

    # partitioning as a service: start the async job server, submit to it
    python -m repro serve --port 8752
    python -m repro submit brev crc --platform mips200 --tenant alice
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro import obs
from repro.binary.image import Executable
from repro.compiler.driver import CompilerOptions, compile_source
from repro.decompile.decompiler import DecompilationOptions, decompile
from repro.decompile.structure import render_pseudocode
from repro.flow import (
    FlowJob,
    pool_fallbacks,
    run_flow_on_executable,
    run_flows,
)
from repro.platform.platform import NAMED_PLATFORMS, Platform
from repro.service.protocol import DEFAULT_PORT
from repro.sim.cpu import run_executable
from repro.synth.fpga import VIRTEX2_DEVICES
from repro.synth.synthesizer import Synthesizer


def _load(path: str) -> Executable:
    return Executable.from_bytes(Path(path).read_bytes())


def cmd_compile(args) -> int:
    source = Path(args.source).read_text()
    options = CompilerOptions.from_level(args.opt_level)
    exe = compile_source(source, options)
    out = args.output or (Path(args.source).stem + ".sxe")
    Path(out).write_bytes(exe.to_bytes())
    print(f"{out}: {len(exe.text_words)} instructions, "
          f"{len(exe.data)} data bytes, entry {exe.entry:#x} (-O{args.opt_level})")
    return 0


def cmd_run(args) -> int:
    exe = _load(args.binary)
    cpu, result = run_executable(exe, profile=args.profile, engine=args.engine)
    print(f"halted: {result.halted}  instructions: {result.steps:,}  "
          f"cycles: {result.cycles:,}  CPI: {result.cpi:.2f}")
    if args.read:
        for symbol in args.read:
            print(f"  {symbol} = {cpu.read_word_global_signed(symbol)}")
    return 0


def cmd_decompile(args) -> int:
    exe = _load(args.binary)
    options = DecompilationOptions(recover_jump_tables=args.jump_tables)
    program = decompile(exe, options)
    for failure in program.failures:
        print(f"RECOVERY FAILED: {failure.function} @ {failure.address:#x}: "
              f"{failure.reason}")
    names = [args.function] if args.function else sorted(program.functions)
    for name in names:
        func = program.functions.get(name)
        if func is None:
            print(f"(function {name!r} not recovered)")
            continue
        print(render_pseudocode(func.cfg, func.structure))
        print()
    stats = program.total_stats()
    print(f"ops: {stats.lifted_ops} lifted -> {stats.final_ops} recovered; "
          f"{stats.moves_recovered} moves, {stats.stack_ops_removed} stack ops, "
          f"{stats.muls_promoted} muls promoted, {stats.loops_rerolled} loops rerolled")
    return 0 if program.recovered else 1


def _parse_devices(tokens, platform):
    """``KIND:GATES[@MHZ]`` tokens -> a DeviceSpec list (CPU implied).

    Examples: ``fabric:60000``, ``fabric:40000@210``, ``cgra:30000@150``.
    """
    from repro.platform.devices import cgra_device, cpu_device, fabric_device

    makers = {"fabric": fabric_device, "cgra": cgra_device}
    devices = [cpu_device(platform.cpu_clock_mhz)]
    index = {"fabric": 0, "cgra": 0}
    for token in tokens:
        kind, _, rest = token.partition(":")
        if kind not in makers or not rest:
            raise SystemExit(
                f"bad device spec {token!r}: expected KIND:GATES[@MHZ] with "
                f"KIND in {sorted(makers)}"
            )
        gates_s, _, clock_s = rest.partition("@")
        try:
            gates = float(gates_s)
            clock = float(clock_s) if clock_s else None
        except ValueError:
            raise SystemExit(f"bad device spec {token!r}: non-numeric field")
        if kind == "fabric":
            device = fabric_device(
                index[kind], gates, clock or platform.device.max_clock_mhz,
                platform.device.bram_bytes,
            )
        else:
            device = cgra_device(index[kind], gates, *(
                [clock] if clock else []
            ))
        index[kind] += 1
        devices.append(device)
    return tuple(devices)


def _parse_passes(spec, algorithm):
    """A ``--passes`` list like ``filter,annotate,place,legalize,report``
    (``place`` resolves to --algorithm's placement pass)."""
    from repro.partition.api import default_passes, make_placement
    from repro.partition.passes import (
        AnnotatePass, FilterPass, LegalizePass, ReportPass,
    )

    if not spec:
        return default_passes(algorithm)
    known = {
        "filter": FilterPass,
        "annotate": AnnotatePass,
        "place": lambda: make_placement(algorithm),
        "legalize": LegalizePass,
        "report": ReportPass,
    }
    passes = []
    for name in spec.split(","):
        name = name.strip()
        if name not in known:
            raise SystemExit(
                f"unknown pass {name!r} (known: {sorted(known)})"
            )
        passes.append(known[name]())
    return passes


def cmd_partition(args) -> int:
    exe = _load(args.binary)
    platform = Platform(
        name=f"MIPS-{args.cpu_mhz:.0f}MHz + {args.device}",
        cpu_clock_mhz=args.cpu_mhz,
        device=VIRTEX2_DEVICES[args.device],
    )
    options = DecompilationOptions(recover_jump_tables=args.jump_tables)
    devices = _parse_devices(args.devices, platform) if args.devices else None
    passes = None
    if args.devices or args.passes or args.algorithm != "90-10":
        passes = _parse_passes(args.passes, args.algorithm)
    report = run_flow_on_executable(
        exe, Path(args.binary).stem, platform=platform,
        decompile_options=options, devices=devices, partition_passes=passes,
    )
    if not report.recovered:
        print(f"CDFG recovery failed ({report.failure_reason}); "
              "software-only implementation")
        return 1
    partition = report.partition
    print(f"platform            : {platform.name}")
    if devices is not None:
        specs = ", ".join(
            f"{d.name} ({d.capacity_gates:,.0f} gates @ {d.clock_mhz:.0f} MHz)"
            for d in devices if not d.is_cpu
        )
        print(f"devices             : cpu + {specs}")
    print(f"algorithm           : {partition.algorithm}")
    print(f"software cycles     : {report.run.cycles:,}")
    for kernel in report.metrics.kernels:
        where = partition.placements.get(kernel.name, "fabric0")
        print(f"  step {kernel.partition_step}: {kernel.name:32s} "
              f"{kernel.speedup:6.1f}x  {kernel.area_gates:9,.0f} gates  "
              f"{'BRAM' if kernel.localized else 'bus':4s} -> {where}")
    print(f"application speedup : {report.app_speedup:.2f}x")
    print(f"kernel speedup      : {report.kernel_speedup:.1f}x")
    print(f"energy savings      : {100 * report.energy_savings:.1f}%")
    print(f"area                : {partition.area_used:,.0f} / "
          f"{partition.area_budget:,.0f} gates")
    if partition.pass_seconds:
        timing = "  ".join(
            f"{name} {seconds * 1e3:.2f}ms"
            for name, seconds in partition.pass_seconds.items()
        )
        print(f"pipeline            : {timing}")
    return 0


def cmd_vhdl(args) -> int:
    exe = _load(args.binary)
    options = DecompilationOptions(recover_jump_tables=args.jump_tables)
    program = decompile(exe, options)
    if not program.recovered:
        print("CDFG recovery failed; no hardware to emit", file=sys.stderr)
        return 1
    # hottest loop by static op count of the innermost loops
    best = None
    for func in program.functions.values():
        for loop in func.loops:
            size = sum(len(func.cfg.blocks[i].ops) for i in loop.body)
            if best is None or loop.depth > best[1].depth or (
                loop.depth == best[1].depth and size > best[3]
            ):
                best = (func, loop, func.name, size)
    if best is None:
        print("no loops found", file=sys.stderr)
        return 1
    func, loop, _, _ = best
    kernel = Synthesizer().synthesize_loop(func, loop, exe)
    out = args.output or (Path(args.binary).stem + ".vhd")
    Path(out).write_text(kernel.vhdl)
    print(f"{out}: {kernel.name} -- {kernel.area_gates:,.0f} gates, "
          f"{kernel.clock_mhz:.0f} MHz, II={kernel.ii}")
    return 0


def _dynamic_config(args):
    from repro.dynamic.controller import DynamicConfig

    return DynamicConfig(
        sample_interval=args.interval,
        repartition_samples=args.repartition_samples,
        concurrent_cad=args.concurrent_cad,
        cad_latency_samples=args.cad_latency,
        max_fabric_share=args.max_share,
        adaptive_sampling=args.adaptive,
    )


def _dynamic_platforms(args):
    platforms = [NAMED_PLATFORMS[name] for name in args.platform]
    if args.regions:
        platforms = [platform.with_regions(args.regions) for platform in platforms]
    return platforms


def _print_dynamic_rows(rows):
    header = (f"  {'benchmark':10s} {'static':>7s} {'dynamic':>8s} "
              f"{'warm':>7s} {'gap %':>6s} {'energy %':>9s} "
              f"{'kernels':>7s} {'events':>6s}")
    print(header)
    print("  " + "-" * (len(header) - 2))
    for report in rows:
        print(f"  {report.name:10s} {report.static_speedup:7.2f} "
              f"{report.dynamic_speedup:8.2f} {report.warm_speedup:7.2f} "
              f"{100 * report.warm_gap:6.1f} {100 * report.energy_savings:9.1f} "
              f"{len(report.timeline.final_resident):7d} "
              f"{len(report.timeline.events):6d}")
    ok = [r for r in rows if r.recovered]
    if ok:
        print(f"  {'AVERAGE':10s} "
              f"{sum(r.static_speedup for r in ok) / len(ok):7.2f} "
              f"{sum(r.dynamic_speedup for r in ok) / len(ok):8.2f} "
              f"{sum(r.warm_speedup for r in ok) / len(ok):7.2f} "
              f"{100 * sum(r.warm_gap for r in ok) / len(ok):6.1f} "
              f"{100 * sum(r.energy_savings for r in ok) / len(ok):9.1f}")


def cmd_dynamic(args) -> int:
    from repro.dynamic.flow import DynamicFlowJob, run_dynamic_flows
    from repro.dynamic.multi import AppSpec, MultiAppJob, run_multi_app_flows
    from repro.programs import ALL_BENCHMARKS, get_benchmark

    config = _dynamic_config(args)
    platforms = _dynamic_platforms(args)
    max_workers = 1 if args.serial else args.jobs
    scenario = (f"-O{args.opt_level}, sample every {config.sample_interval} "
                f"instrs, CAD {'concurrent' if config.concurrent_cad else 'inline'}"
                + (f", {args.regions} PR regions" if args.regions else ""))

    if args.apps:
        # multi-application mode: the named benchmarks time-share one fabric
        specs = tuple(
            AppSpec(get_benchmark(name).source, name, opt_level=args.opt_level)
            for name in args.apps
        )
        jobs = [MultiAppJob(apps=specs, platform=platform, config=config)
                for platform in platforms]
        results = run_multi_app_flows(jobs, max_workers=max_workers)
        for platform, result in zip(platforms, results):
            print(f"===== {platform.name} ({scenario}; "
                  f"{len(specs)} apps sharing one fabric) =====")
            _print_dynamic_rows(result.reports)
            print(f"  peak fabric use: {result.peak_area_gates:,.0f} gates"
                  + (f", {result.peak_regions} regions" if args.regions else ""))
        _extend_modeled_trace(args, config,
                              [r for res in results for r in res.reports])
        _print_pool_notes()
        return 0

    if args.benchmarks:
        benches = [get_benchmark(name) for name in args.benchmarks]
    else:
        benches = list(ALL_BENCHMARKS)
    jobs = [
        DynamicFlowJob(source=bench.source, name=bench.name,
                       opt_level=args.opt_level, platform=platform,
                       config=config)
        for platform in platforms
        for bench in benches
    ]
    reports = run_dynamic_flows(jobs, max_workers=max_workers)
    all_reports = reports
    worst_gap = 0.0
    for platform in platforms:
        chunk, reports = reports[: len(benches)], reports[len(benches):]
        print(f"===== {platform.name} ({scenario}) =====")
        _print_dynamic_rows(chunk)
        worst_gap = max([worst_gap] + [r.warm_gap for r in chunk])
    print(f"worst warm gap vs static partition: {100 * worst_gap:.1f}%")
    _extend_modeled_trace(args, config, all_reports)
    _print_pool_notes()
    return 0


def _extend_modeled_trace(args, config, reports) -> None:
    """Append each timeline's modeled-time events to the trace buffer, so
    the ``--trace-out`` file shows what the dynamic system *modeled* (on
    its own clock) next to what the tool *did* (on wall clock)."""
    if not getattr(args, "trace_out", None):
        return
    latency = config.cad_latency_samples if config.concurrent_cad else 0
    for report in reports:
        obs.extend_trace(obs.timeline_trace_events(
            report.name, report.timeline,
            cad_latency_samples=latency,
            pid=f"modeled: {report.platform.name}",
        ))


def _print_pool_notes() -> None:
    """Surface serial fallbacks: a sweep that quietly ran on one core is a
    perf mystery the user should not have to debug from timings."""
    for fallback in pool_fallbacks():
        print(f"  NOTE: process pool unavailable ({fallback.cause}: "
              f"{fallback.message}); {fallback.jobs} jobs ran serially")


def cmd_stats(args) -> int:
    payload = obs.load_stats(args.file)
    if payload is None:
        where = args.file or obs.stats_path()
        print(f"no saved telemetry at {where} "
              "(run a command with --metrics first)", file=sys.stderr)
        return 1
    print(obs.format_stats(payload))
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.service.server import ServiceConfig

    # a service wants its telemetry on: the stats op, per-tenant counters
    # and cache hit/miss proof all read the obs registry, and pool workers
    # inherit the env flag so their deltas merge back in
    os.environ[obs.ENABLE_ENV] = "1"
    obs.enable(metrics=True, tracing=False)
    config = ServiceConfig(
        host=args.host,
        port=DEFAULT_PORT if args.port is None else args.port,
        socket_path=args.socket,
        queue_size=args.queue_size,
        max_workers=args.jobs,
        batch_limit=args.batch_limit,
        use_cache=False if args.no_cache else None,
    )

    async def _serve() -> None:
        from repro.service.server import PartitionServer

        server = PartitionServer(config)
        await server.start()
        print(f"serving partitioning jobs on {server.where()} "
              f"(queue {config.queue_size}, "
              f"pool {config.max_workers or os.cpu_count() or 1} workers); "
              "Ctrl-C to stop", flush=True)
        try:
            await server.wait_shutdown()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nservice stopped")
    return 0


def _service_client(args):
    from repro.service.client import ServiceClient

    port = DEFAULT_PORT if args.port is None else args.port
    return ServiceClient(host=args.host, port=port,
                         socket_path=args.socket, timeout=args.net_timeout)


def _print_submit_event(event: dict) -> None:
    kind = event.get("event")
    job = event.get("job")
    if kind == "done":
        row = event.get("result") or {}
        src = "cache" if event.get("cached") else (
            "coalesced" if event.get("coalesced") else "worker")
        if row.get("recovered"):
            print(f"  job {job}: {row.get('benchmark', '?'):12s} "
                  f"speedup {row.get('app_speedup', 0):6.2f}x  "
                  f"energy {row.get('energy_savings_pct', 0):5.1f}%  "
                  f"[{src}, {event.get('elapsed_ms', 0):.0f} ms]")
        else:
            print(f"  job {job}: {row.get('benchmark', '?'):12s} "
                  f"RECOVERY FAILED ({row.get('failure_reason', '?')}) "
                  f"[{src}]")
    elif kind in ("error", "rejected", "cancelled", "timeout"):
        print(f"  job {job}: {kind.upper()} "
              f"{event.get('message') or event.get('reason') or ''}".rstrip())
    elif kind == "batch_done":
        print(f"batch {event.get('batch')}: {event.get('ok')} ok "
              f"({event.get('cached')} from cache), "
              f"{event.get('failed')} failed")


def cmd_submit(args) -> int:
    from repro.service.client import ServiceError

    try:
        with _service_client(args).connect(wait_ready=args.wait_ready) as client:
            if args.ping:
                pong = client.ping()
                print(f"service at {client.where()} is up "
                      f"(uptime {pong.get('uptime_s', 0):.1f}s)")
                return 0
            if args.stats:
                payload = client.stats()
                print(f"service at {client.where()}: "
                      f"queue depth {payload.get('queue_depth')}, "
                      f"{payload.get('inflight')} jobs in flight, "
                      f"uptime {payload.get('uptime_s', 0):.1f}s")
                print(obs.format_stats({"metrics": payload.get("metrics", {})}))
                return 0
            jobs = []
            for name in args.benchmarks:
                jobs.append({"bench": name, "platform": args.platform,
                             "opt_level": args.opt_level})
            for path in args.file or []:
                jobs.append({"source": Path(path).read_text(),
                             "name": Path(path).stem,
                             "platform": args.platform,
                             "opt_level": args.opt_level})
            if not jobs:
                print("nothing to submit (give benchmark names or --file)",
                      file=sys.stderr)
                return 2
            for job in jobs:
                if args.timeout:
                    job["timeout"] = args.timeout
                if args.priority:
                    job["priority"] = args.priority
                if args.no_cache:
                    job["no_cache"] = True
            finals = client.submit_batch(
                jobs, tenant=args.tenant,
                on_event=_print_submit_event if not args.quiet else None,
            )
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1
    failed = sum(1 for event in finals.values()
                 if event.get("event") != "done")
    return 1 if failed else 0


def cmd_sweep(args) -> int:
    from repro.programs import ALL_BENCHMARKS, get_benchmark

    if args.benchmarks:
        benches = [get_benchmark(name) for name in args.benchmarks]
    else:
        benches = list(ALL_BENCHMARKS)
    device = VIRTEX2_DEVICES[args.device]
    platforms = [
        Platform(name=f"MIPS-{mhz:.0f}MHz + {args.device}",
                 cpu_clock_mhz=mhz, device=device)
        for mhz in args.cpu_mhz
    ]
    jobs = [
        FlowJob(source=bench.source, name=bench.name,
                opt_level=args.opt_level, platform=platform)
        for platform in platforms
        for bench in benches
    ]
    reports = run_flows(
        jobs,
        max_workers=1 if args.serial else args.jobs,
        cache=False if args.no_cache else None,
    )
    failed = 0
    for platform in platforms:
        print(f"===== {platform.name} (-O{args.opt_level}) =====")
        chunk, reports = reports[: len(benches)], reports[len(benches):]
        for report in chunk:
            if report.recovered:
                print(f"  {report.name:10s} speedup {report.app_speedup:6.2f}x  "
                      f"kernel {report.kernel_speedup:6.1f}x  "
                      f"energy {100 * report.energy_savings:5.1f}%  "
                      f"{report.area_gates:8,.0f} gates")
            else:
                failed += 1
                print(f"  {report.name:10s} RECOVERY FAILED "
                      f"({report.failure_reason})")
        ok = [r for r in chunk if r.recovered]
        if ok:
            print(f"  {'AVERAGE':10s} speedup "
                  f"{sum(r.app_speedup for r in ok) / len(ok):6.2f}x  "
                  f"energy {100 * sum(r.energy_savings for r in ok) / len(ok):5.1f}%  "
                  f"({len(ok)}/{len(chunk)} recovered)")
    _print_pool_notes()
    return 1 if failed == len(jobs) else 0


def _add_telemetry_flags(p) -> None:
    p.add_argument("--metrics", action="store_true",
                   help="record telemetry metrics (engine/cache/pool/... "
                        "counters); the merged registry is saved for "
                        "`python -m repro stats`")
    p.add_argument("--trace-out", metavar="FILE",
                   help="write a Chrome trace_event JSON of the run "
                        "(load in chrome://tracing or ui.perfetto.dev)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="decompilation-based binary-level HW/SW partitioning "
                    "(Stitt & Vahid, DATE'05 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile mini-C to a MIPS binary (.sxe)")
    p.add_argument("source")
    p.add_argument("-O", dest="opt_level", type=int, default=1, choices=[0, 1, 2, 3])
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("run", help="execute a binary on the cycle simulator")
    p.add_argument("binary")
    p.add_argument("--profile", action="store_true")
    p.add_argument("--engine", default="superblock",
                   choices=["superblock", "threaded"],
                   help="dispatch engine (superblock is ~2-3x faster; "
                        "both are differentially tested against the "
                        "reference interpreter)")
    p.add_argument("--read", nargs="*", help="data symbols to print after the run")
    _add_telemetry_flags(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("decompile", help="show the recovered CDFG")
    p.add_argument("binary")
    p.add_argument("--function")
    p.add_argument("--jump-tables", action="store_true",
                   help="enable the jump-table recovery extension")
    p.set_defaults(fn=cmd_decompile)

    p = sub.add_parser("partition", help="partition a binary onto the platform")
    p.add_argument("binary")
    p.add_argument("--cpu-mhz", type=float, default=200.0)
    p.add_argument("--device", default="xc2v250", choices=sorted(VIRTEX2_DEVICES))
    p.add_argument("--jump-tables", action="store_true")
    p.add_argument("--algorithm", default="90-10",
                   choices=["90-10", "greedy", "gclp", "annealing",
                            "exhaustive"],
                   help="placement pass for the partitioning pipeline")
    p.add_argument("--devices", nargs="+", metavar="KIND:GATES[@MHZ]",
                   help="explicit device list beyond the CPU, e.g. "
                        "'fabric:40000 fabric:40000 cgra:30000@150' "
                        "(default: one monolithic fabric)")
    p.add_argument("--passes", metavar="NAME[,NAME...]",
                   help="ordered pipeline passes (default: "
                        "filter,annotate,place,legalize,report)")
    _add_telemetry_flags(p)
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("vhdl", help="emit RT-level VHDL for the hottest loop")
    p.add_argument("binary")
    p.add_argument("-o", "--output")
    p.add_argument("--jump-tables", action="store_true")
    p.set_defaults(fn=cmd_vhdl)

    p = sub.add_parser("sweep", help="run the benchmark suite across platforms "
                                     "using all cores")
    p.add_argument("benchmarks", nargs="*",
                   help="benchmark names (default: the full 20-benchmark suite)")
    p.add_argument("--cpu-mhz", type=float, nargs="+", default=[200.0])
    p.add_argument("-O", dest="opt_level", type=int, default=1, choices=[0, 1, 2, 3])
    p.add_argument("--device", default="xc2v250", choices=sorted(VIRTEX2_DEVICES))
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: CPU count)")
    p.add_argument("--serial", action="store_true",
                   help="disable the process pool")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the on-disk flow-report cache")
    _add_telemetry_flags(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("dynamic",
                       help="online (warp-style) partitioning: static vs "
                            "dynamic across hard- and soft-core platforms")
    p.add_argument("benchmarks", nargs="*",
                   help="benchmark names (default: the full 20-benchmark suite)")
    p.add_argument("--platform", nargs="+", default=["mips200", "softcore85"],
                   choices=sorted(NAMED_PLATFORMS),
                   help="platforms to evaluate (default: mips200 softcore85)")
    p.add_argument("-O", dest="opt_level", type=int, default=1, choices=[0, 1, 2, 3])
    p.add_argument("--interval", type=int, default=4_000,
                   help="instructions between profiler samples")
    p.add_argument("--repartition-samples", type=int, default=2,
                   help="profiler samples between re-partition decisions")
    p.add_argument("--concurrent-cad", action="store_true",
                   help="model a CAD co-processor: lift results arrive "
                        "--cad-latency samples after the decision and CAD "
                        "cycles are never billed to application time")
    p.add_argument("--cad-latency", type=int, default=2,
                   help="sampling intervals between a re-partition decision "
                        "and its kernels arriving (with --concurrent-cad)")
    p.add_argument("--regions", type=int, default=0,
                   help="split the fabric into N partial-reconfiguration "
                        "regions; reconfiguration is charged per changed "
                        "region instead of per kernel (0 = monolithic)")
    p.add_argument("--adaptive", action="store_true",
                   help="phase-adaptive sampling: coarsen the sample "
                        "interval once placement is stable")
    p.add_argument("--max-share", type=float, default=1.0,
                   help="cap on one application's share of the fabric "
                        "(multi-application arbitration, 0 < share <= 1)")
    p.add_argument("--apps", nargs="+", metavar="BENCH",
                   help="multi-application mode: these benchmarks time-share "
                        "one fabric per platform (positional benchmark "
                        "arguments are ignored)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for the sweep (default: CPU count)")
    p.add_argument("--serial", action="store_true",
                   help="disable the process pool")
    _add_telemetry_flags(p)
    p.set_defaults(fn=cmd_dynamic)

    p = sub.add_parser("serve", help="run the partitioning service "
                                     "(asyncio front-end over the worker pool)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help=f"TCP port (default {DEFAULT_PORT}; 0 picks a free one)")
    p.add_argument("--socket", metavar="PATH",
                   help="serve on a unix socket instead of TCP")
    p.add_argument("--queue-size", type=int, default=1024,
                   help="max queued jobs before submissions are rejected")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: CPU count)")
    p.add_argument("--batch-limit", type=int, default=None,
                   help="max jobs per pool batch (default: pool width)")
    p.add_argument("--no-cache", action="store_true",
                   help="never consult or fill the shared flow store")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("submit", help="submit partitioning jobs to a "
                                      "running service and stream results")
    p.add_argument("benchmarks", nargs="*",
                   help="built-in benchmark names to partition")
    p.add_argument("--file", nargs="+", metavar="SRC.c",
                   help="mini-C source files to partition")
    p.add_argument("--platform", default="mips200",
                   choices=sorted(NAMED_PLATFORMS))
    p.add_argument("-O", dest="opt_level", type=int, default=1,
                   choices=[0, 1, 2, 3])
    p.add_argument("--tenant", default="cli",
                   help="tenant name for fairness and per-tenant stats")
    p.add_argument("--priority", type=int, default=0,
                   help="lower runs first within a tenant")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-job timeout in seconds (while queued)")
    p.add_argument("--no-cache", action="store_true",
                   help="force recomputation for these jobs")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help=f"TCP port of the service (default {DEFAULT_PORT})")
    p.add_argument("--socket", metavar="PATH",
                   help="connect to a unix-socket service")
    p.add_argument("--wait-ready", type=float, default=0.0, metavar="SECONDS",
                   help="retry the connection this long (lets scripts race "
                        "a just-started server)")
    p.add_argument("--net-timeout", type=float, default=300.0,
                   help="socket timeout in seconds")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-event progress lines")
    p.add_argument("--stats", action="store_true",
                   help="print the live service stats (telemetry registry "
                        "included) instead of submitting")
    p.add_argument("--ping", action="store_true",
                   help="check the service is up, then exit")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("stats", help="pretty-print the telemetry registry "
                                     "saved by the last --metrics run")
    p.add_argument("--file", help="stats JSON to read (default: "
                                  "<obs dir>/last_stats.json)")
    p.set_defaults(fn=cmd_stats)

    args = parser.parse_args(argv)
    want_metrics = getattr(args, "metrics", False)
    trace_out = getattr(args, "trace_out", None)
    if want_metrics or trace_out:
        # workers of a forthcoming process pool inherit the environment,
        # so their flows record telemetry too (shipped back and merged by
        # run_jobs)
        os.environ[obs.ENABLE_ENV] = "1"
        obs.enable(metrics=want_metrics, tracing=bool(trace_out))
    rc = args.fn(args)
    if args.command != "stats" and obs.metrics_enabled():
        saved = obs.save_stats(obs.snapshot())
        if saved is not None:
            print(f"telemetry: metrics saved to {saved} "
                  "(view with `python -m repro stats`)")
    if trace_out:
        path = obs.export_chrome(trace_out)
        print(f"telemetry: trace written to {path} "
              "(load in chrome://tracing or ui.perfetto.dev)")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())

"""One pass of the study benchmark: the workload's 20 flows, serially, in
one process.

``run.py`` starts this file once per pass in a fresh interpreter, so every
pass starts cold: no flow cache, no persistent trace cache and no
in-process state left by an earlier pass.  It prints one JSON object on
standard output.  The pass can also run in-process through
:func:`load` and :func:`run_pass`, which is how the benchmark's own tests
drive it.

The host's speed is measured around every flow by :func:`probe`, a fixed
piece of pure-Python work, and each flow's wall time is also reported in
reference seconds: scaled by how much slower or faster than
:data:`PROBE_REF_SECONDS` the probes either side of the flow ran.  On a
shared host whose speed drifts with its neighbours' load, reference
seconds follow the program's own work and not the neighbours.

Outputs are checked after each flow's timed region: the program halted,
the simulated checksum equals the benchmark's independent Python model,
and CDFG recovery succeeded or failed exactly as the benchmark expects
(``tblook`` and ``ttsprk`` must fail on an indirect jump).
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import time

import study_trace

#: workload -> (flow kind, optimisation level, platform name); every
#: workload runs the whole 20-program suite, so only these settings differ
WORKLOADS = {
    "study_o1": ("static", 1, "MIPS_200MHZ"),
    "study_o3": ("static", 3, "MIPS_200MHZ"),
    "dynamic_soft85": ("dynamic", 1, "SOFTCORE_85MHZ"),
}


#: loop iterations of one :func:`probe` call: fixed work, which took
#: 4.5-12 ms on the shared 2.1 GHz Xeon the benchmark was tuned on
#: (Python 3.11) as its neighbours' load came and went
PROBE_ITERATIONS = 15000
#: a fixed probe time; reference seconds are wall seconds on a host that
#: runs the probe in exactly this time
PROBE_REF_SECONDS = 0.0065


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def probe() -> float:
    """Wall seconds of a fixed piece of interpreter-bound work: object
    creation, attribute and dict access, small lists, integer arithmetic,
    the operations the flows spend their time in."""
    started = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(PROBE_ITERATIONS):
        pair = _Pair(i & 255, i * 7)
        table[pair.key] = table.get(pair.key, 0) + pair.value
        row = [pair.value, pair.key, i]
        acc = (acc + (row[1] ^ row[2])) & 0xFFFFFF
    sorted(table.values())
    return time.perf_counter() - started


def load(workload: str):
    """Import what *workload* needs; returns (run one benchmark, benchmarks).

    Everything here is set-up: it runs before the first flow can start.
    """
    kind, opt_level, platform_name = WORKLOADS[workload]
    from repro.platform import platform as platforms
    from repro.programs import ALL_BENCHMARKS

    platform = getattr(platforms, platform_name)
    if kind == "dynamic":
        from repro.dynamic.flow import run_dynamic_flow

        def run_one(bench):
            return run_dynamic_flow(
                bench.source, bench.name, opt_level=opt_level, platform=platform
            ).static
    else:
        from repro.flow import run_flow

        def run_one(bench):
            return run_flow(
                bench.source, bench.name, opt_level=opt_level, platform=platform
            )

    return run_one, list(ALL_BENCHMARKS)


def check(bench, report, cpus: list) -> list[str]:
    """What is wrong with one flow's outputs (empty when nothing is)."""
    problems = []
    if not report.run.halted:
        problems.append("simulation did not halt")
    if len(cpus) != 1:
        problems.append(f"expected one simulation, saw {len(cpus)}")
    else:
        got = cpus[0].read_word_global_signed(bench.checksum_symbol)
        want = bench.expected_checksum()
        if got != want:
            problems.append(f"checksum {got} != reference {want}")
    if bench.expect_recovery_failure:
        if report.recovered or "indirect jump" not in report.failure_reason:
            problems.append(
                "expected recovery to fail on an indirect jump, got "
                f"recovered={report.recovered} {report.failure_reason!r}"
            )
    elif not report.recovered:
        problems.append(f"recovery failed: {report.failure_reason}")
    return problems


def run_pass(run_one, benchmarks, order_seed: int, traced: bool) -> dict:
    """Run every benchmark once, in an order shuffled by *order_seed*.

    Untraced, each flow's wall time is taken around the flow call alone.
    A :func:`probe` runs before every flow and after the last one, outside
    the timed regions; a flow's ``ref_seconds`` is its wall time times
    :data:`PROBE_REF_SECONDS` over the mean of the two probes beside it.
    Traced, the layer wrappers of :mod:`study_trace` are installed for the
    pass, each flow is a root span, and the pass also reports per-layer
    metrics and its spans.  Either way every wrapper is removed on return.
    """
    from repro import obs

    order = list(benchmarks)
    random.Random(order_seed).shuffle(order)
    cpus: list = []
    undo: list = []
    tracer = study_trace.Tracer() if traced else None
    was_on = (obs.metrics_enabled(), obs.tracing_enabled())
    flows = []
    probes = []
    try:
        study_trace.install_recorder(cpus, undo)
        if traced:
            study_trace.install(tracer, undo)
            obs.clear_metrics()
            obs.clear_trace()
            obs.enable()
        for bench in order:
            cpus.clear()
            probes.append(probe())
            report = error = None
            root = tracer.open(study_trace.FLOW, benchmark=bench.name) if traced else None
            started = time.perf_counter()
            try:
                report = run_one(bench)
            except Exception as exc:  # a failed flow is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - started
            if traced:
                tracer.close(root)
                seconds = root.end - root.start
            problems = [error] if error else check(bench, report, cpus)
            flows.append({"benchmark": bench.name, "seconds": seconds,
                          "problems": problems})
        probes.append(probe())
        for flow, before, after in zip(flows, probes, probes[1:]):
            flow["ref_seconds"] = flow["seconds"] * PROBE_REF_SECONDS * 2 / (before + after)
        result = {"traced": traced, "order_seed": order_seed, "flows": flows,
                  "probes": probes,
                  "pass_seconds": sum(f["seconds"] for f in flows),
                  "ref_pass_seconds": sum(f["ref_seconds"] for f in flows)}
        if traced:
            result["layers"] = study_trace.layer_metrics(
                tracer.spans, obs.snapshot(), obs.trace_events()
            )
            result["spans"] = [span.as_row() for span in tracer.spans]
        return result
    finally:
        study_trace.restore(undo)
        if traced:
            obs.disable()
            obs.clear_metrics()
            obs.clear_trace()
            obs.enable(*was_on)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--order-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() just before spawning")
    args = parser.parse_args(argv)
    run_one, benchmarks = load(args.workload)
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's reading
    # before the spawn and this one bracket the whole process start
    setup_seconds = time.monotonic() - args.spawned_at
    result = run_pass(run_one, benchmarks, args.order_seed, bool(args.trace))
    result["setup_seconds"] = setup_seconds
    # set-up is scaled by the pass's mean probe: it ran before any of them
    result["ref_setup_seconds"] = (
        setup_seconds * PROBE_REF_SECONDS * len(result["probes"]) / sum(result["probes"])
    )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()

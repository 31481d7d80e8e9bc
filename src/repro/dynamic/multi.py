"""Multi-application dynamic partitioning: N binaries, one fabric.

Warp's deployment story is not one benchmark owning the FPGA -- it is a
platform where whatever happens to be running gets its hot loops lifted,
and several concurrently-running applications compete for one fabric.
This module models that scenario:

* every application gets its **own** processor (the platform's CPU spec),
  on-chip profiler, dynamic partition controller and
  :class:`~repro.dynamic.controller.DynamicTimeline`,
* all controllers hold placements on **one shared**
  :class:`~repro.dynamic.fabric.FabricState` -- the free pool (gates, or
  partial-reconfiguration regions) is what arbitrates between them, and
  ``DynamicConfig.max_fabric_share`` caps any single application's slice,
* execution interleaves **round-robin at sampling-interval granularity**:
  a driver advances each application's :meth:`~repro.sim.cpu.Cpu.run_sampled`
  generator one interval at a time, so controller decisions see the fabric
  exactly as their neighbours left it one interval ago.  The interleave is
  a deterministic approximation of concurrent execution (sample index
  stands in for wall time); each application's own timeline accounting is
  exact for its own processor.

Per-application results reuse :class:`~repro.flow.DynamicFlowReport`: the
static (oracle-profile, whole-fabric-to-itself) partition is the natural
baseline for what sharing cost each application.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.compiler.driver import CompilerOptions, compile_source
from repro.decompile.decompiler import DecompilationOptions
from repro.dynamic.controller import DynamicConfig, DynamicPartitionController
from repro.dynamic.fabric import FabricState
from repro.flow import DynamicFlowReport, run_flow_on_executable, run_jobs
from repro.platform.platform import MIPS_200MHZ, Platform
from repro.sim.cpu import Cpu
from repro.synth.synthesizer import SynthesisOptions


@dataclass(frozen=True)
class AppSpec:
    """One application of a multi-application scenario."""

    source: str
    name: str
    opt_level: int = 1


@dataclass
class MultiAppReport:
    """Everything one shared-fabric scenario produced."""

    platform: Platform
    config: DynamicConfig
    reports: list[DynamicFlowReport] = field(default_factory=list)
    #: high-water marks of the shared fabric across all applications
    peak_area_gates: float = 0.0
    peak_regions: int = 0

    @property
    def names(self) -> list[str]:
        return [report.name for report in self.reports]

    @property
    def total_area_used(self) -> float:
        return sum(report.timeline.area_used for report in self.reports)

    def summary_rows(self) -> list[dict]:
        return [report.summary_row() for report in self.reports]


def run_multi_app_flow(
    apps: list[AppSpec],
    platform: Platform = MIPS_200MHZ,
    config: DynamicConfig | None = None,
    decompile_options: DecompilationOptions | None = None,
    synthesis_options: SynthesisOptions | None = None,
    max_steps: int = 200_000_000,
) -> MultiAppReport:
    """Run several applications time-sharing one fabric on *platform*."""
    if not apps:
        raise ValueError("run_multi_app_flow needs at least one application")
    config = config or DynamicConfig()
    fabric = FabricState(platform)

    class _App:
        def __init__(self, spec: AppSpec):
            self.spec = spec
            options = CompilerOptions.from_level(spec.opt_level)
            self.exe = compile_source(spec.source, options)
            self.cpu = Cpu(self.exe, cpi=platform.cpi, profile=True)
            self.controller = DynamicPartitionController(
                self.cpu,
                self.exe,
                platform,
                config,
                synthesis_options=synthesis_options,
                decompile_options=decompile_options,
                fabric=fabric,
                name=spec.name,
            )
            self.generator = self.cpu.run_sampled(
                max_steps=max_steps,
                sample_interval=config.sample_interval,
            )
            self.next_interval: int | None = None
            self.started = False
            self.result = None
            self.timeline = None

    obs.counter("dynamic.multi_app_scenarios_total").inc()
    obs.counter("dynamic.multi_app_apps_total").inc(len(apps))
    runners = [_App(spec) for spec in apps]
    active = list(runners)
    while active:
        still_running: list[_App] = []
        for app in active:
            try:
                if not app.started:
                    app.started = True
                    payload = next(app.generator)
                else:
                    payload = app.generator.send(app.next_interval)
            except StopIteration as stop:
                app.result = stop.value
                # seal the timeline while the fabric still shows this
                # application's kernels, then hand their gates/regions back
                # to the survivors -- an exited application must not block
                # placements (or silently absorb static-power share) for
                # the rest of the scenario
                app.timeline = app.controller.finish()
                fabric.release(app.controller)
                continue
            app.next_interval = app.controller.on_sample(*payload)
            still_running.append(app)
        active = still_running

    reports: list[DynamicFlowReport] = []
    for app in runners:
        timeline = app.timeline
        static = run_flow_on_executable(
            app.exe,
            name=app.spec.name,
            opt_level=app.spec.opt_level,
            platform=platform,
            decompile_options=decompile_options,
            synthesis_options=synthesis_options,
            max_steps=max_steps,
            run=app.result,
            program=app.controller.program,
        )
        reports.append(DynamicFlowReport(
            name=app.spec.name,
            platform=platform,
            static=static,
            timeline=timeline,
            config=config,
        ))
    return MultiAppReport(
        platform=platform,
        config=config,
        reports=reports,
        peak_area_gates=fabric.peak_area_gates,
        peak_regions=fabric.peak_regions,
    )


@dataclass(frozen=True)
class MultiAppJob:
    """One shared-fabric scenario for :func:`run_multi_app_flows`."""

    apps: tuple[AppSpec, ...]
    platform: Platform = MIPS_200MHZ
    config: DynamicConfig | None = None
    max_steps: int = 200_000_000


def _execute_multi_app_job(job: MultiAppJob) -> MultiAppReport:
    return run_multi_app_flow(
        list(job.apps),
        platform=job.platform,
        config=job.config,
        max_steps=job.max_steps,
    )


def run_multi_app_flows(
    jobs, max_workers: int | None = None
) -> list[MultiAppReport]:
    """Run many independent shared-fabric scenarios through the pool."""
    return run_jobs(_execute_multi_app_job, jobs, max_workers)

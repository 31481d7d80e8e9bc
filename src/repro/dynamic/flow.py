"""End-to-end dynamic (run-time) partitioning flow.

One simulation and one decompile serve both sides of the comparison: the
application runs once on the simulator (superblock dispatch; the sampling
hook fires at identical instruction counts on every engine) with the hook
driving the online profiler and dynamic partition controller, and the very
same profiled :class:`~repro.sim.cpu.RunResult` then feeds the ordinary
static flow.  The static flow also reuses the program the controller's
on-chip CAD decompiled (it decompiles only when the CAD never ran).  The
resulting :class:`~repro.flow.DynamicFlowReport` holds the static (oracle
profile, no overheads) partition next to the dynamic timeline (online
profile, CAD/reconfiguration charged), which is exactly the comparison the
Lysecky & Vahid soft-core study reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.binary.image import Executable
from repro.compiler.driver import CompilerOptions, compile_source
from repro.decompile.decompiler import DecompilationOptions
from repro.dynamic.controller import DynamicConfig, DynamicPartitionController
from repro.flow import DynamicFlowReport, run_flow_on_executable, run_jobs
from repro.platform.platform import MIPS_200MHZ, Platform
from repro.sim.cpu import Cpu
from repro.synth.synthesizer import SynthesisOptions


def run_dynamic_flow(
    source: str,
    name: str = "benchmark",
    opt_level: int = 1,
    platform: Platform = MIPS_200MHZ,
    config: DynamicConfig | None = None,
    compiler_options: CompilerOptions | None = None,
    decompile_options: DecompilationOptions | None = None,
    synthesis_options: SynthesisOptions | None = None,
    max_steps: int = 200_000_000,
) -> DynamicFlowReport:
    """Compile *source* and run the online-partitioning flow on *platform*."""
    if compiler_options is None:
        compiler_options = CompilerOptions.from_level(opt_level)
    exe = compile_source(source, compiler_options)
    return run_dynamic_flow_on_executable(
        exe,
        name=name,
        opt_level=compiler_options.opt_level,
        platform=platform,
        config=config,
        decompile_options=decompile_options,
        synthesis_options=synthesis_options,
        max_steps=max_steps,
    )


def run_dynamic_flow_on_executable(
    exe: Executable,
    name: str = "benchmark",
    opt_level: int = 1,
    platform: Platform = MIPS_200MHZ,
    config: DynamicConfig | None = None,
    decompile_options: DecompilationOptions | None = None,
    synthesis_options: SynthesisOptions | None = None,
    max_steps: int = 200_000_000,
) -> DynamicFlowReport:
    """Online-partitioning flow starting from an already-built binary."""
    config = config or DynamicConfig()
    cpu = Cpu(exe, cpi=platform.cpi, profile=True)
    controller = DynamicPartitionController(
        cpu,
        exe,
        platform,
        config,
        synthesis_options=synthesis_options,
        decompile_options=decompile_options,
    )
    result = cpu.run(
        max_steps=max_steps,
        sample_interval=config.sample_interval,
        on_sample=controller.on_sample,
    )
    timeline = controller.finish()
    static = run_flow_on_executable(
        exe,
        name=name,
        opt_level=opt_level,
        platform=platform,
        decompile_options=decompile_options,
        synthesis_options=synthesis_options,
        max_steps=max_steps,
        run=result,
        program=controller.program,
    )
    return DynamicFlowReport(
        name=name,
        platform=platform,
        static=static,
        timeline=timeline,
        config=config,
    )


@dataclass(frozen=True)
class DynamicFlowJob:
    """One unit of dynamic-sweep work for :func:`run_dynamic_flows`."""

    source: str
    name: str = "benchmark"
    opt_level: int = 1
    platform: Platform = MIPS_200MHZ
    config: DynamicConfig | None = None
    max_steps: int = 200_000_000


def _execute_dynamic_job(job: DynamicFlowJob) -> DynamicFlowReport:
    return run_dynamic_flow(
        job.source,
        job.name,
        opt_level=job.opt_level,
        platform=job.platform,
        config=job.config,
        max_steps=job.max_steps,
    )


def run_dynamic_flows(
    jobs, max_workers: int | None = None
) -> list[DynamicFlowReport]:
    """Run many independent dynamic flows through the process pool.

    Same contract as :func:`repro.flow.run_flows`: reports come back in job
    order, *max_workers* defaults to the CPU count (pass ``1`` to force
    serial in-process execution), and pool-infrastructure failures degrade
    to a serial retry.  Dynamic flows are deterministic, so the parallel
    and serial paths produce identical timelines.
    """
    return run_jobs(_execute_dynamic_job, jobs, max_workers)

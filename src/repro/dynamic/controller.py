"""The dynamic partition controller: online decisions, honest accounting.

The controller is the "warp CAD" of the modeled system.  It consumes the
simulator's periodic samples (cumulative per-site counters), and

* **accounts** each sampling interval's wall-clock time and energy under the
  hardware configuration that was active *during* that interval: cycles of
  loops currently in hardware run at the kernel's clock, everything else at
  the CPU's, plus invocation overheads,
* **re-partitions** at a configurable cadence using *only* information the
  on-chip profiler has seen so far: hot loop headers are lifted through the
  existing ``repro.decompile`` -> ``repro.synth`` pipeline, placed greedily
  subject to the FPGA capacity left next to a soft core, and evicted again
  once they cool down,
* **charges** the costs the static flow never pays: on-chip
  decompilation/CAD cycles per lifted kernel, reconfiguration stalls, and
  per-placement data-migration time for localized kernels.

Deployment-story extensions (all config-selectable, all off by default so
the PR 3 single-scenario numbers stay reproducible):

* **concurrent on-chip CAD** (``DynamicConfig.concurrent_cad``) -- warp runs
  CAD on a separate lean processor, so the application never stalls for it:
  a re-partition decision's kernels arrive ``cad_latency_samples`` sampling
  intervals later, CAD cycles are recorded but never billed, and only the
  reconfiguration/migration stall is charged when the bitstream lands,
* **partial reconfiguration** (``Platform.fabric_regions``) -- the fabric is
  split into regions; kernels occupy whole regions and reconfiguration is
  charged per *changed region* instead of per kernel (see
  :mod:`repro.dynamic.fabric`),
* **multi-application sharing** -- several controllers (one per running
  application) may hold placements on one shared :class:`FabricState`;
  ``max_fabric_share`` caps any one application's slice,
* **phase-adaptive sampling** (``adaptive_sampling``) -- once placement is
  stable the sample interval coarsens geometrically (warp's profiler
  duty-cycling) and snaps back to the base interval on any change.

Everything is deterministic: the same binary, platform and config always
produce the same timeline, so dynamic-vs-static tables are reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs
from repro.binary.image import Executable
from repro.decompile.decompiler import (
    DecompilationOptions,
    DecompiledFunction,
    DecompiledProgram,
    decompile,
)
from repro.dynamic.fabric import FabricState
from repro.dynamic.profiler import OnlineProfiler, ProfilerConfig
from repro.errors import SynthesisError
from repro.partition.costmodels import cost_model_for
from repro.partition.estimator import kernel_fpga_cycles
from repro.partition.profiles import LoopProfile, _block_ranges
from repro.platform.platform import Platform
from repro.synth.synthesizer import HwKernel, SynthesisOptions, Synthesizer


@dataclass(frozen=True)
class DynamicConfig:
    """Cadence and cost knobs of the online partitioning system."""

    #: executed instructions between profiler samples
    sample_interval: int = 4_000
    #: samples between re-partition decisions
    repartition_samples: int = 2
    #: CPU cycles charged per lifted kernel for on-chip decompile+CAD.
    #: Real warp CAD takes on the order of seconds; the benchmark traces
    #: here run for milliseconds, so the defaults are scaled to the trace
    #: length -- the *shape* (warm-up cost, then convergence) is what the
    #: study reproduces, not the absolute CAD seconds.
    cad_cycles_base: int = 8_000
    #: additional CAD cycles per 1000 gates of synthesized hardware
    cad_cycles_per_kgate: float = 250.0
    #: CPU stall cycles to (re)configure one kernel region onto the fabric
    reconfig_cycles: int = 3_000
    #: placed kernels whose hotness share drops below this are evicted
    evict_fraction: float = 0.002
    #: minimum online-estimated local speedup to place a kernel
    min_speedup: float = 1.0
    #: at most this many kernels resident at once
    max_kernels: int = 12
    #: replace resident kernels of a nest when a different granularity now
    #: saves at least this factor more (hysteresis against churn)
    upgrade_margin: float = 1.15
    #: model a CAD co-processor (warp's separate lean processor): lift and
    #: synthesis results arrive ``cad_latency_samples`` sampling intervals
    #: after the decision and the application never stalls for CAD cycles.
    #: Off by default: PR 3's inline-stall accounting.
    concurrent_cad: bool = False
    #: sampling intervals between a re-partition decision and its kernels
    #: arriving, when ``concurrent_cad`` is on; while a CAD job is in
    #: flight, no new decisions are taken (one co-processor)
    cad_latency_samples: int = 2
    #: at most this share of the fabric's capacity may be held by this
    #: application (the arbitration knob for multi-application fabrics)
    max_fabric_share: float = 1.0
    #: phase-adaptive sampling: coarsen the sample interval geometrically
    #: once placement is stable, reset to ``sample_interval`` on any change
    adaptive_sampling: bool = False
    #: change-free samples before the interval doubles (adaptive mode)
    settle_samples: int = 4
    #: ceiling on the adaptive interval, as a multiple of sample_interval
    max_interval_factor: int = 8
    profiler: ProfilerConfig = field(default_factory=ProfilerConfig)

    def __post_init__(self):
        if self.sample_interval < 1:
            raise ValueError(
                f"sample_interval must be >= 1, got {self.sample_interval} "
                "(a non-positive interval would disable online profiling "
                "entirely)"
            )
        if self.repartition_samples < 1:
            raise ValueError(
                f"repartition_samples must be >= 1, got "
                f"{self.repartition_samples}"
            )
        if self.cad_latency_samples < 1:
            raise ValueError(
                f"cad_latency_samples must be >= 1, got "
                f"{self.cad_latency_samples}"
            )
        if not 0.0 < self.max_fabric_share <= 1.0:
            raise ValueError(
                f"max_fabric_share must be in (0, 1], got "
                f"{self.max_fabric_share}"
            )
        if self.settle_samples < 1:
            raise ValueError(
                f"settle_samples must be >= 1, got {self.settle_samples}"
            )
        if self.max_interval_factor < 1:
            raise ValueError(
                f"max_interval_factor must be >= 1, got "
                f"{self.max_interval_factor}"
            )


@dataclass
class RepartitionEvent:
    """One re-partition decision (or arrival) and what it cost."""

    sample: int
    placed: list[str] = field(default_factory=list)
    evicted: list[str] = field(default_factory=list)
    cad_cycles: int = 0
    reconfig_cycles: int = 0
    migration_cycles: int = 0
    area_used: float = 0.0
    #: fabric regions rewritten by this event's placements (one per kernel
    #: on a monolithic fabric)
    regions_changed: int = 0
    #: True when CAD ran on the co-processor: ``cad_cycles`` are recorded
    #: for reporting but never billed to application time
    concurrent: bool = False

    @property
    def overhead_cycles(self) -> int:
        return self.cad_cycles + self.reconfig_cycles + self.migration_cycles

    @property
    def charged_cycles(self) -> int:
        """Cycles actually billed to the application's timeline."""
        if self.concurrent:
            return self.reconfig_cycles + self.migration_cycles
        return self.overhead_cycles


@dataclass
class IntervalStats:
    """Accounting of one sampling interval."""

    index: int
    steps: int
    cycles: int               # software cycles executed in the interval
    moved_cycles: int         # of which: cycles covered by resident kernels
    overhead_cycles: int      # CAD/reconfig/migration charged in the interval
    wall_seconds: float       # dynamic-system wall clock
    sw_only_seconds: float    # the same work, all-software
    fpga_seconds: float
    energy_mj: float
    sw_energy_mj: float
    resident: list[str] = field(default_factory=list)


@dataclass
class DynamicTimeline:
    """The whole run: per-interval stats, decisions, and totals."""

    intervals: list[IntervalStats] = field(default_factory=list)
    events: list[RepartitionEvent] = field(default_factory=list)
    final_resident: list[str] = field(default_factory=list)
    area_used: float = 0.0

    @property
    def dynamic_seconds(self) -> float:
        return sum(interval.wall_seconds for interval in self.intervals)

    @property
    def software_seconds(self) -> float:
        return sum(interval.sw_only_seconds for interval in self.intervals)

    @property
    def overhead_seconds(self) -> float:
        wall = self.dynamic_seconds
        if wall <= 0.0:
            return 0.0
        cycles = sum(interval.overhead_cycles for interval in self.intervals)
        total_cycles = sum(interval.cycles for interval in self.intervals)
        if total_cycles <= 0:
            return 0.0
        # overhead cycles were charged at CPU clock inside wall_seconds
        sw = self.software_seconds
        return cycles * (sw / total_cycles)

    @property
    def dynamic_energy_mj(self) -> float:
        return sum(interval.energy_mj for interval in self.intervals)

    @property
    def software_energy_mj(self) -> float:
        return sum(interval.sw_energy_mj for interval in self.intervals)

    @property
    def speedup(self) -> float:
        wall = self.dynamic_seconds
        return self.software_seconds / wall if wall > 0 else 1.0

    @property
    def energy_savings(self) -> float:
        sw = self.software_energy_mj
        if sw <= 0.0:
            return 0.0
        return 1.0 - self.dynamic_energy_mj / sw

    def warm_window(self) -> list[IntervalStats]:
        """The steady-state window: the longest contiguous overhead-free run
        of intervals after the first configuration change (ties resolved
        toward the latest run, i.e. the most-settled configuration).  Falls
        back to the last interval when the controller never stopped
        adapting, and to the whole run when nothing was ever placed."""
        intervals = self.intervals
        if not intervals:
            return []
        first_change = next(
            (i for i, interval in enumerate(intervals) if interval.overhead_cycles),
            None,
        )
        if first_change is None:
            return list(intervals)   # all-software run: already steady
        best: tuple[int, int] | None = None   # (length, start)
        start: int | None = None
        for i in range(first_change + 1, len(intervals)):
            if intervals[i].overhead_cycles:
                start = None
                continue
            if start is None:
                start = i
            length = i - start + 1
            if best is None or length >= best[0]:
                best = (length, start)
        if best is None:
            return intervals[-1:]
        length, begin = best
        return intervals[begin:begin + length]

    @property
    def warm_speedup(self) -> float:
        """Speedup over the steady-state suffix of the run."""
        window = self.warm_window()
        wall = sum(interval.wall_seconds for interval in window)
        sw = sum(interval.sw_only_seconds for interval in window)
        return sw / wall if wall > 0 else 1.0


@dataclass
class LoopSite:
    """Static description of one liftable loop, built by on-chip CAD."""

    function: DecompiledFunction
    loop: object
    header_address: int
    header_index: int
    body_indices: list[int]
    block_start_indices: dict[int, int]   # block start address -> site index
    back_branch_sites: list[int]
    back_jump_sites: list[int]
    kernel: HwKernel | None = None
    synth_failed: bool = False
    cad_charged: bool = False

    @property
    def name(self) -> str:
        if self.kernel is not None:
            return self.kernel.name
        return f"{self.function.name}@{self.header_address:#x}"

    @property
    def body_index_set(self) -> set[int]:
        if not hasattr(self, "_body_index_set"):
            self._body_index_set = set(self.body_indices)
        return self._body_index_set

    def overlaps(self, other: "LoopSite") -> bool:
        if self.function.name != other.function.name:
            return False
        return bool(self.body_index_set & other.body_index_set)


@dataclass
class PlannedPlacement:
    """One placement a re-partition decision committed to.

    In inline-CAD mode the plan is applied in the same sample it was made;
    with a concurrent CAD co-processor it is applied
    ``cad_latency_samples`` samples later (and re-validated against the
    fabric, which may have moved under a multi-application workload).
    """

    site: LoopSite
    evict: list[int]          # resident header addresses to displace first
    cad_cycles: int           # 0 when this kernel's CAD already ran earlier


class DynamicPartitionController:
    """Consumes simulator samples; produces a :class:`DynamicTimeline`."""

    def __init__(
        self,
        cpu,
        exe: Executable,
        platform: Platform,
        config: DynamicConfig | None = None,
        synthesis_options: SynthesisOptions | None = None,
        decompile_options: DecompilationOptions | None = None,
        fabric: FabricState | None = None,
        name: str = "app",
    ):
        self.cpu = cpu
        self.exe = exe
        self.platform = platform
        self.config = config or DynamicConfig()
        self.name = name
        self.synthesis_options = synthesis_options or SynthesisOptions(
            device=platform.device
        )
        self.decompile_options = decompile_options
        self.profiler = OnlineProfiler(cpu, self.config.profiler)
        self.timeline = DynamicTimeline()
        #: the fabric ledger; pass one FabricState to several controllers to
        #: model applications time-sharing a single FPGA
        self.fabric = fabric if fabric is not None else FabricState(platform)

        self._costs = cpu.site_costs
        self._text_len = len(self._costs)
        self._taken_penalty = platform.cpi.taken_penalty
        self._prev_counts = [0] * self._text_len
        self._prev_taken = [0] * self._text_len
        self._samples = 0
        self._carry_overhead = 0          # cycles charged to the next interval
        self._resident: dict[int, LoopSite] = {}   # header address -> site
        #: decayed per-interval back-edge activity of *resident* sites; the
        #: guard against evicting a kernel the capacity-bounded profiler
        #: table crowded out while its loop is still iterating
        self._recent_heat: dict[int, float] = {}
        #: in-flight concurrent-CAD job: (activation sample, plan)
        self._pending: tuple[int, list[PlannedPlacement]] | None = None
        self._base_interval = self.config.sample_interval
        self._interval = self.config.sample_interval
        self._stable_samples = 0
        self._sites: dict[int, LoopSite] | None = None   # lazy on-chip CAD
        #: what the on-chip CAD decompiled; ``None`` until it first runs.
        #: The dynamic flows hand it to the static side, so each binary
        #: is decompiled once
        self.program: DecompiledProgram | None = None
        self._synthesizer = Synthesizer(self.synthesis_options)
        self._unrecoverable = False
        #: online hardware-time estimates go through the same per-device
        #: cost-model registry as static placement, so the controller's
        #: accounting can never drift from the partitioning pipeline's
        self._fabric_cost_model = cost_model_for("fabric")

    # -- on-chip CAD --------------------------------------------------------

    def _ensure_sites(self) -> dict[int, LoopSite]:
        """Decompile the running binary once (the on-chip CAD's first job)
        and index every natural loop by its header address."""
        if self._sites is not None:
            return self._sites
        self._sites = {}
        with obs.span("cad.decompile", app=self.name):
            program = self.program = decompile(self.exe, self.decompile_options)
        if program.failures:
            # same policy as the static flow: indirect jumps defeat CDFG
            # recovery, the application stays all-software
            self._unrecoverable = True
            return self._sites
        text_base = self.exe.text_base
        branch_edges = self.cpu.branch_edges
        jump_edges = self.cpu.jump_edges
        for func in program.functions.values():
            ranges = _block_ranges(func, self.exe)
            for loop in func.loops:
                header_address = func.cfg.blocks[loop.header].start
                body_ranges = [ranges[index] for index in sorted(loop.body)]
                body_indices: list[int] = []
                block_start_indices: dict[int, int] = {}
                for start, end in body_ranges:
                    block_start_indices[start] = (start - text_base) >> 2
                    body_indices.extend(range((start - text_base) >> 2,
                                              (end - text_base) >> 2))

                def _in_body(pc: int) -> bool:
                    return any(s <= pc < e for s, e in body_ranges)

                back_branch = [
                    index for index, (src, dst) in branch_edges.items()
                    if dst == header_address and _in_body(src)
                ]
                back_jump = [
                    index for index, (src, dst) in jump_edges.items()
                    if dst == header_address and _in_body(src)
                ]
                site = LoopSite(
                    function=func,
                    loop=loop,
                    header_address=header_address,
                    header_index=(header_address - text_base) >> 2,
                    body_indices=body_indices,
                    block_start_indices=block_start_indices,
                    back_branch_sites=back_branch,
                    back_jump_sites=back_jump,
                )
                # innermost definition wins on header collisions (rare)
                existing = self._sites.get(header_address)
                if existing is None or loop.depth > existing.loop.depth:
                    self._sites[header_address] = site
        return self._sites

    def _ensure_kernel(self, site: LoopSite) -> HwKernel | None:
        if site.kernel is not None or site.synth_failed:
            return site.kernel
        try:
            with obs.span("cad.synthesize", app=self.name, site=site.name):
                site.kernel = self._synthesizer.synthesize_loop(
                    site.function, site.loop, self.exe
                )
        except SynthesisError:
            site.synth_failed = True
        return site.kernel

    # -- online profile arithmetic ------------------------------------------

    def _site_profile(
        self, site: LoopSite, counts: list[int], taken: list[int],
        base_counts: list[int] | None = None, base_taken: list[int] | None = None,
    ) -> tuple[LoopProfile, int]:
        """Loop profile over a counter window, plus its software cycles.

        With *base* arrays this is the interval delta; without, cumulative.
        """
        costs = self._costs
        cycles = 0
        if base_counts is None:
            for i in site.body_indices:
                c = counts[i]
                if c:
                    cycles += c * costs[i] + self._taken_penalty * taken[i]
            iterations = sum(taken[i] for i in site.back_branch_sites)
            iterations += sum(counts[i] for i in site.back_jump_sites)
            header_count = counts[site.header_index]
            block_counts = {
                start: counts[i] for start, i in site.block_start_indices.items()
            }
        else:
            for i in site.body_indices:
                c = counts[i] - base_counts[i]
                if c:
                    cycles += c * costs[i]
                t = taken[i] - base_taken[i]
                if t:
                    cycles += self._taken_penalty * t
            iterations = sum(
                taken[i] - base_taken[i] for i in site.back_branch_sites
            )
            iterations += sum(
                counts[i] - base_counts[i] for i in site.back_jump_sites
            )
            header_count = counts[site.header_index] - base_counts[site.header_index]
            block_counts = {
                start: counts[i] - base_counts[i]
                for start, i in site.block_start_indices.items()
            }
        profile = LoopProfile(
            function=site.function.name,
            header_address=site.header_address,
            depth=getattr(site.loop, "depth", 1),
            block_starts=sorted(site.block_start_indices),
            sw_cycles=cycles,
            iterations=iterations,
            invocations=max(0, header_count - iterations),
            block_counts=block_counts,
        )
        return profile, cycles

    def _kernel_busy_seconds(self, site: LoopSite, profile: LoopProfile) -> float:
        """FPGA-busy seconds for the window's iterations (no CPU overhead)."""
        kernel = site.kernel
        assert kernel is not None
        return kernel_fpga_cycles(kernel, profile) / (kernel.clock_mhz * 1e6)

    # -- interval energy ----------------------------------------------------

    def _interval_energy_mj(
        self, cpu_seconds: float, fpga_seconds: float,
        fpga_dynamic_mj: float = 0.0,
    ) -> float:
        """Energy of one accounted slice under the current configuration.

        Shared by :meth:`on_sample` and :meth:`finish` so the two can never
        drift: CPU active power for the CPU-side seconds, CPU idle power
        while waiting on the fabric, kernel dynamic energy, and the
        fabric's static burn over the slice's whole wall time whenever this
        application holds configured kernels.  An empty fabric is
        power-gated; on a shared fabric the static burn is apportioned by
        area share so concurrent applications never double-bill one fabric.
        """
        platform = self.platform
        active_mw = platform.cpu_power.active_mw(platform.cpu_clock_mhz)
        idle_mw = platform.cpu_power.idle_mw(platform.cpu_clock_mhz)
        wall_seconds = cpu_seconds + fpga_seconds
        fpga_static_mj = (
            platform.fpga_power.static_mw * wall_seconds
            * self.fabric.static_share(self)
        )
        return (
            active_mw * cpu_seconds
            + idle_mw * fpga_seconds
            + fpga_dynamic_mj
            + fpga_static_mj
        )

    # -- the sampling callback ----------------------------------------------

    def on_sample(self, counts: list[int], taken: list[int]) -> int | None:
        """Account the interval just finished, then maybe re-partition.

        Returns the next sample interval when phase-adaptive sampling is
        enabled (the simulator's chunked dispatch honours the return
        value), ``None`` otherwise.
        """
        platform = self.platform
        cpu_hz = platform.cpu_clock_mhz * 1e6
        text_len = self._text_len
        costs = self._costs
        prev_counts = self._prev_counts
        prev_taken = self._prev_taken

        steps = 0
        cycles = 0
        for i in range(text_len):
            c = counts[i] - prev_counts[i]
            if c:
                steps += c
                cycles += c * costs[i]
            t = taken[i] - prev_taken[i]
            if t:
                cycles += self._taken_penalty * t

        # age decayed state once per base-interval-worth of *executed*
        # instructions: under adaptive sampling the chunk is a multiple of
        # the base interval, except the final (halt) sample, which may be
        # partial -- deriving periods from the interval's own step count
        # keeps aging a function of executed instructions there too
        periods = max(1, steps // self._base_interval)
        recent_decay = self.config.profiler.decay ** periods

        moved_cycles = 0
        fpga_seconds = 0.0
        fpga_dynamic_mj = 0.0
        invocation_cycles = 0.0
        for address, site in self._resident.items():
            profile, loop_cycles = self._site_profile(
                site, counts, taken, prev_counts, prev_taken
            )
            self._recent_heat[address] = (
                self._recent_heat.get(address, 0.0) * recent_decay
                + profile.iterations
            )
            if loop_cycles <= 0:
                continue
            moved_cycles += loop_cycles
            busy = self._kernel_busy_seconds(site, profile)
            fpga_seconds += busy
            invocation_cycles += (
                profile.invocations * platform.invocation_overhead_cycles
            )
            kernel = site.kernel
            dynamic_mw = platform.fpga_power.power_mw(
                kernel.area_gates, kernel.clock_mhz
            ) - platform.fpga_power.static_mw
            fpga_dynamic_mj += dynamic_mw * busy

        overhead_cycles = self._carry_overhead
        self._carry_overhead = 0
        cpu_cycles = cycles - moved_cycles + invocation_cycles + overhead_cycles
        cpu_seconds = cpu_cycles / cpu_hz
        wall_seconds = cpu_seconds + fpga_seconds
        sw_only_seconds = cycles / cpu_hz

        active_mw = platform.cpu_power.active_mw(platform.cpu_clock_mhz)
        energy_mj = self._interval_energy_mj(
            cpu_seconds, fpga_seconds, fpga_dynamic_mj
        )
        sw_energy_mj = active_mw * sw_only_seconds

        self.timeline.intervals.append(IntervalStats(
            index=len(self.timeline.intervals),
            steps=steps,
            cycles=cycles,
            moved_cycles=moved_cycles,
            overhead_cycles=int(overhead_cycles),
            wall_seconds=wall_seconds,
            sw_only_seconds=sw_only_seconds,
            fpga_seconds=fpga_seconds,
            energy_mj=energy_mj,
            sw_energy_mj=sw_energy_mj,
            resident=[site.name for site in self._resident.values()],
        ))

        self.profiler.sample(counts, taken, decay_periods=periods)
        self._prev_counts = counts[:text_len]
        self._prev_taken = taken[:text_len]
        self._samples += 1

        changed = False
        if self._pending is not None and self._samples >= self._pending[0]:
            changed = self._activate_pending()
        if (
            self._pending is None
            and self._samples % self.config.repartition_samples == 0
        ):
            if obs.metrics_enabled():
                started = time.monotonic()
                changed = self._repartition(counts, taken) or changed
                obs.histogram("dynamic.repartition_seconds").observe(
                    max(time.monotonic() - started, 1e-9)
                )
                obs.counter("dynamic.repartitions_total").inc()
            else:
                changed = self._repartition(counts, taken) or changed
        return self._adapt_interval(changed)

    def _adapt_interval(self, changed: bool) -> int | None:
        """Phase-adaptive sampling: coarsen while stable, reset on change."""
        config = self.config
        if not config.adaptive_sampling:
            return None
        base = self._base_interval
        if changed:
            self._stable_samples = 0
            self._interval = base
            return self._interval
        self._stable_samples += 1
        ceiling = base * config.max_interval_factor
        if self._stable_samples >= config.settle_samples and self._interval < ceiling:
            self._interval = min(self._interval * 2, ceiling)
            self._stable_samples = 0
        return self._interval

    # -- re-partitioning ----------------------------------------------------

    def _site_heat(self, site: LoopSite) -> float:
        """Nest-aware hotness: every hot back-edge target inside the site's
        body counts toward it (an outer loop is as hot as its inner loops)."""
        text_base = self.exe.text_base
        body = site.body_index_set
        return sum(
            score
            for address, score in self.profiler.hotness.items()
            if (address - text_base) >> 2 in body
        )

    def _effective_heat(self, address: int, site: LoopSite) -> float:
        """Table hotness of the nest, floored by the site's own recent
        back-edge activity.  The profiler table holds only ``table_size``
        entries, so a resident kernel can be crowded out by hotter loops
        and read as stone-cold (heat 0.0) while its loop is still
        iterating every interval -- evicting on table hotness alone threw
        away profitable kernels.  Residents are few (``max_kernels``), so
        tracking their own interval deltas is hardware-plausible."""
        return max(self._site_heat(site), self._recent_heat.get(address, 0.0))

    def _family_best(
        self, site: LoopSite, counts: list[int], taken: list[int]
    ) -> tuple[LoopSite, float] | None:
        """Pick the lift granularity for a hot loop nest: among the nest's
        members (the site plus everything overlapping it), the one whose
        online-estimated time saving is largest.  This mirrors the static
        90-10 partitioner's family step -- e.g. an outer loop that absorbs
        its inner loop's invocation overheads usually beats the inner loop
        alone.  Returns (best site, saved seconds) or ``None``."""
        config = self.config
        cpu_hz = self.platform.cpu_clock_mhz * 1e6
        family = [
            candidate for candidate in self._sites.values()
            if candidate is site or candidate.overlaps(site)
        ]
        best: tuple[LoopSite, float] | None = None
        for member in family:
            if member.synth_failed:
                continue
            kernel = self._ensure_kernel(member)
            if kernel is None:
                continue
            cumulative, loop_cycles = self._site_profile(member, counts, taken)
            if cumulative.iterations <= 0 or loop_cycles <= 0:
                continue
            sw_seconds = loop_cycles / cpu_hz
            hw_seconds = self._fabric_cost_model.kernel_seconds(
                self.platform, kernel, cumulative
            )
            if hw_seconds <= 0 or sw_seconds / hw_seconds <= config.min_speedup:
                continue
            saved = sw_seconds - hw_seconds
            if best is None or saved > best[1]:
                best = (member, saved)
        return best

    def _site_saved(
        self, site: LoopSite, counts: list[int], taken: list[int]
    ) -> float:
        """Online-estimated seconds saved so far by having *site* in
        hardware (cumulative counters; 0.0 when unknown)."""
        if site.kernel is None:
            return 0.0
        cumulative, loop_cycles = self._site_profile(site, counts, taken)
        if cumulative.iterations <= 0 or loop_cycles <= 0:
            return 0.0
        sw_seconds = loop_cycles / (self.platform.cpu_clock_mhz * 1e6)
        hw_seconds = self._fabric_cost_model.kernel_seconds(
            self.platform, site.kernel, cumulative
        )
        return sw_seconds - hw_seconds

    def _evict(self, address: int, event: RepartitionEvent) -> None:
        """Remove one resident kernel everywhere it is tracked."""
        site = self._resident.pop(address)
        self.fabric.evict(self, address)
        self._recent_heat.pop(address, None)
        event.evicted.append(site.name)
        obs.counter("dynamic.evictions_total").inc()

    def _repartition(self, counts: list[int], taken: list[int]) -> bool:
        config = self.config
        hot = self.profiler.hot_targets()
        if not hot and not self._resident:
            return False
        self._ensure_sites()   # populate the site index (on-chip CAD)
        if self._unrecoverable:
            return False
        event = RepartitionEvent(sample=self._samples)

        # 1. evict kernels whose whole nest cooled down (frees fabric).
        #    Applied immediately even with a CAD co-processor: turning a
        #    kernel off needs no CAD.
        total_weight = self.profiler.total_weight()
        evict_below = config.evict_fraction * total_weight
        for address in list(self._resident):
            site = self._resident[address]
            table_heat = self._site_heat(site)
            effective = max(table_heat, self._recent_heat.get(address, 0.0))
            if effective < evict_below:
                self._evict(address, event)
            elif table_heat < evict_below:
                # the recent-heat floor just saved a kernel the profiler
                # table had crowded out -- the case _effective_heat exists
                # for; count it so the guard's value shows up in reports
                obs.counter("dynamic.eviction_guard_saves_total").inc()

        # 2. plan placements, hottest first, online-estimated-profitable
        #    only; a nest already covered by resident kernels is revisited
        #    in case a different granularity has become the better lift
        #    (e.g. the outer loop's back-edge had not executed yet when the
        #    inner loops were first placed)
        plan = self._plan(hot, counts, taken)

        changed = False
        if config.concurrent_cad:
            if event.evicted:
                event.area_used = self.fabric.area_used(self)
                self.timeline.events.append(event)
                changed = True
            if plan:
                # the co-processor starts lifting now; results land later
                self._pending = (
                    self._samples + config.cad_latency_samples, plan
                )
                changed = True
        else:
            self._apply_plan(plan, event)
            if event.placed or event.evicted:
                event.area_used = self.fabric.area_used(self)
                self.timeline.events.append(event)
                self._carry_overhead += event.charged_cycles
                changed = True
        return changed

    def _plan(
        self, hot: list[tuple[int, float]], counts: list[int], taken: list[int]
    ) -> list[PlannedPlacement]:
        """Decide placements against a shadow of the fabric.

        The shadow makes the decision logic identical whether the plan is
        applied in the same sample (inline CAD) or ``cad_latency_samples``
        later (concurrent CAD): each accepted placement updates the shadow
        so later candidates see its effect, exactly as the PR 3 in-place
        mutation did.
        """
        config = self.config
        fabric = self.fabric
        sites = self._sites
        shadow: dict[int, LoopSite] = dict(self._resident)
        shadow_units: dict[int, float] = {
            address: fabric.units_of(self, address) for address in shadow
        }
        free = fabric.free_units()
        own = fabric.owner_units(self)
        share_cap = config.max_fabric_share * fabric.total_units
        plan: list[PlannedPlacement] = []
        for address, _score in hot:
            if len(shadow) >= config.max_kernels:
                break
            hot_site = sites.get(address)
            if hot_site is None:
                continue
            choice = self._family_best(hot_site, counts, taken)
            if choice is None:
                continue
            site, saved = choice
            if site.header_address in shadow:
                continue
            kernel = site.kernel
            displaced = [
                resident_address
                for resident_address, resident in shadow.items()
                if site.overlaps(resident)
            ]
            if displaced:
                # granularity upgrade: only replace the nest's resident
                # kernels when the new choice clearly saves more
                resident_saved = sum(
                    self._site_saved(shadow[a], counts, taken)
                    for a in displaced
                )
                if saved <= resident_saved * config.upgrade_margin:
                    continue
            need = fabric.units_for(kernel)
            freed = sum(shadow_units[a] for a in displaced)
            to_evict = list(displaced)
            if free + freed < need or own - freed + need > share_cap:
                # try evicting colder unrelated nests to make room
                heat = self._effective_heat(site.header_address, site)
                by_heat = sorted(
                    (item for item in shadow.items()
                     if item[0] not in displaced),
                    key=lambda kv: self._effective_heat(kv[0], kv[1]),
                )
                for resident_address, resident in by_heat:
                    if self._effective_heat(resident_address, resident) >= heat:
                        break
                    to_evict.append(resident_address)
                    freed += shadow_units[resident_address]
                    if free + freed >= need and own - freed + need <= share_cap:
                        break
                if free + freed < need or own - freed + need > share_cap:
                    continue   # no fit even after evictions: leave as-is
            cad_cycles = 0
            if not site.cad_charged:
                site.cad_charged = True
                cad_cycles = config.cad_cycles_base + int(
                    config.cad_cycles_per_kgate * kernel.area_gates / 1000.0
                )
            for resident_address in to_evict:
                shadow.pop(resident_address)
                shadow_units.pop(resident_address)
            free = free + freed - need
            own = own - freed + need
            shadow[site.header_address] = site
            shadow_units[site.header_address] = need
            plan.append(PlannedPlacement(
                site=site, evict=to_evict, cad_cycles=cad_cycles
            ))
        return plan

    def _apply_plan(
        self, plan: list[PlannedPlacement], event: RepartitionEvent
    ) -> None:
        """Apply planned placements; re-validates against the live fabric
        (a concurrent-CAD result can be stale under multi-app sharing --
        stale entries are dropped *whole*: their displacement evictions
        must not run either, or a result that no longer fits would destroy
        the working kernels it meant to replace)."""
        config = self.config
        fabric = self.fabric
        share_cap = config.max_fabric_share * fabric.total_units
        for placement in plan:
            site = placement.site
            if site.header_address in self._resident:
                continue
            evict = [address for address in placement.evict
                     if address in self._resident]
            if len(self._resident) - len(evict) >= config.max_kernels:
                continue
            kernel = site.kernel
            need = fabric.units_for(kernel)
            freed = sum(fabric.units_of(self, address) for address in evict)
            if need > fabric.free_units() + freed:
                continue
            if fabric.owner_units(self) - freed + need > share_cap:
                continue
            for address in evict:
                self._evict(address, event)
            regions = fabric.place(self, site.header_address, kernel)
            self._resident[site.header_address] = site
            event.placed.append(site.name)
            obs.counter("dynamic.lifts_total").inc()
            event.regions_changed += regions
            # charge the overheads the static flow never pays
            event.cad_cycles += placement.cad_cycles
            event.reconfig_cycles += config.reconfig_cycles * regions
            if kernel.localized and kernel.bram_bytes:
                event.migration_cycles += int(
                    2 * (kernel.bram_bytes / 4)
                    * self.platform.migration_cycles_per_word
                )

    def _activate_pending(self) -> bool:
        """A concurrent-CAD job finished: configure its kernels now.

        Only the reconfiguration/migration stall is billed; the CAD cycles
        ran on the co-processor and are recorded for reporting only.
        """
        _activate_at, plan = self._pending
        self._pending = None
        event = RepartitionEvent(sample=self._samples, concurrent=True)
        self._apply_plan(plan, event)
        if event.placed or event.evicted:
            event.area_used = self.fabric.area_used(self)
            self.timeline.events.append(event)
            self._carry_overhead += event.charged_cycles
            return True
        return False

    # -- wrap-up ------------------------------------------------------------

    def finish(self) -> DynamicTimeline:
        """Flush trailing overhead and return the completed timeline."""
        if self._carry_overhead and self.timeline.intervals:
            last = self.timeline.intervals[-1]
            extra = self._carry_overhead
            self._carry_overhead = 0
            last.overhead_cycles += int(extra)
            extra_seconds = extra / (self.platform.cpu_clock_mhz * 1e6)
            last.wall_seconds += extra_seconds
            last.energy_mj += self._interval_energy_mj(extra_seconds, 0.0)
        # CAD results that never arrived cost nothing and change nothing
        self._pending = None
        self.timeline.final_resident = [
            site.name for site in self._resident.values()
        ]
        self.timeline.area_used = self.fabric.area_used(self)
        return self.timeline

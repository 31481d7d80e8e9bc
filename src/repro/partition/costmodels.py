"""Per-device cost models: one registry, looked up by device kind.

The estimator used to hard-code a single CPU-vs-FPGA cost comparison; the
pipeline instead asks the registry "what does this candidate cost on that
device?" so new device kinds (CGRA grids, soft-core slots) plug in without
touching any placement algorithm.  The dynamic controller's online
accounting goes through the same registry (see
:func:`repro.dynamic.controller`), so static placement and timeline
arithmetic can never drift apart.

All models are deterministic and derive from the numbers the flow already
computed (profiles + synthesized kernels); registering a model for an
unknown kind is how platform plugins extend the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.partition.estimator import kernel_fpga_cycles, kernel_hw_seconds
from repro.platform.devices import CGRA, CPU, FABRIC, DeviceSpec

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.partition.estimator import Candidate
    from repro.platform.platform import Platform


@dataclass(frozen=True)
class DeviceCost:
    """What one candidate costs when implemented on one device."""

    seconds: float     # wall-clock per program run on this device
    area_gates: float  # device area the implementation occupies

    def saved_vs(self, software: "DeviceCost") -> float:
        return software.seconds - self.seconds


class CostModel:
    """Base: cost of implementing a candidate on one device kind."""

    kind = "?"

    def cost(
        self, platform: "Platform", device: DeviceSpec, candidate: "Candidate"
    ) -> DeviceCost:
        raise NotImplementedError


class CpuCostModel(CostModel):
    """Software: the profiled cycles at the CPU clock; no fabric area."""

    kind = CPU

    def cost(self, platform, device, candidate) -> DeviceCost:
        return DeviceCost(
            seconds=platform.cpu_seconds(candidate.profile.sw_cycles),
            area_gates=0.0,
        )


class FabricCostModel(CostModel):
    """Fine-grained FPGA fabric: the synthesized kernel as-is.

    Identical arithmetic to the candidate estimate
    (:func:`repro.partition.estimator.kernel_hw_seconds`), so on a fabric
    device ``node.saved_on(device)`` equals ``candidate.saved_seconds``.
    """

    kind = FABRIC

    def cost(self, platform, device, candidate) -> DeviceCost:
        return DeviceCost(
            seconds=kernel_hw_seconds(platform, candidate.kernel,
                                      candidate.profile),
            area_gates=candidate.kernel.area_gates,
        )

    def kernel_seconds(self, platform, kernel, profile) -> float:
        """Online form used by the dynamic controller (kernel + cumulative
        profile, no Candidate wrapper)."""
        return kernel_hw_seconds(platform, kernel, profile)


class CgraCostModel(CostModel):
    """Coarse-grained reconfigurable array (Galanis et al. style).

    Word-level ALU grids amortize the per-bit LUT overhead of fine-grained
    fabric: the same kernel packs into fewer equivalent gates
    (``AREA_FACTOR``) but the grid clock is fixed by the word-level
    interconnect (``device.clock_mhz``) rather than the datapath, so a
    kernel that out-clocked the grid on LUTs slows down and a slow LUT
    datapath speeds up.  CPU-side invocation/migration overheads are
    unchanged -- the bus does not care what sits behind it.
    """

    kind = CGRA

    #: word-level packing: ~45% of the fine-grained equivalent-gate area
    AREA_FACTOR = 0.45

    def cost(self, platform, device, candidate) -> DeviceCost:
        kernel, profile = candidate.kernel, candidate.profile
        grid_hz = device.clock_mhz * 1e6
        cycles = kernel_fpga_cycles(kernel, profile)
        overhead_cycles = (
            profile.invocations * platform.invocation_overhead_cycles
        )
        migration_cycles = 0.0
        if kernel.localized and kernel.bram_bytes:
            migration_cycles = (
                2 * (kernel.bram_bytes / 4) * platform.migration_cycles_per_word
            )
        cpu_side = (overhead_cycles + migration_cycles) / (
            platform.cpu_clock_mhz * 1e6
        )
        return DeviceCost(
            seconds=cycles / grid_hz + cpu_side,
            area_gates=kernel.area_gates * self.AREA_FACTOR,
        )


_REGISTRY: dict[str, CostModel] = {}


def register_cost_model(model: CostModel) -> None:
    """Register (or replace) the cost model for ``model.kind``."""
    _REGISTRY[model.kind] = model


def cost_model_for(device: DeviceSpec | str) -> CostModel:
    kind = device if isinstance(device, str) else device.kind
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise KeyError(
            f"no cost model registered for device kind {kind!r} "
            f"(known: {sorted(_REGISTRY)}); register one with "
            "repro.partition.costmodels.register_cost_model"
        ) from None


def device_cost(
    platform: "Platform", device: DeviceSpec, candidate: "Candidate"
) -> DeviceCost:
    return cost_model_for(device).cost(platform, device, candidate)


register_cost_model(CpuCostModel())
register_cost_model(FabricCostModel())
register_cost_model(CgraCostModel())

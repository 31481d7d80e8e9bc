"""Property-style tests for every placement algorithm on one fabric.

Random (seeded) candidate sets drive every algorithm through the pipeline
over many shapes -- tight/loose area budgets, overlapping nests, kernels
that lose time -- asserting the two invariants every partitioner must
hold: never exceed the FPGA capacity, and never beat the exhaustive
reference on candidate sets small enough for it to be exact.

The stub candidates are costed by the same arithmetic as real ones
(:func:`~repro.partition.estimator.kernel_hw_seconds` and
``platform.cpu_seconds``), so a candidate's own estimate and the fabric
cost model agree; every shape is drawn through the kernel's clock,
initiation interval and schedule length.
"""

from __future__ import annotations

import random

import pytest

from repro.partition.api import partition
from repro.partition.estimator import Candidate, kernel_hw_seconds
from repro.partition.graph import build_graph
from repro.partition.passes import AnnotatePass
from repro.partition.placement import PLACEMENTS
from repro.partition.profiles import LoopProfile
from repro.platform.platform import Platform
from repro.synth.fpga import FpgaDevice
from repro.synth.synthesizer import HwKernel

HEURISTICS = ["greedy", "gclp", "annealing", "90-10"]


class _StubFunction:
    """Just enough of DecompiledFunction for the partitioners."""

    def __init__(self, name: str):
        self.name = name
        self.loop_footprints: dict = {}


def _candidate(
    rng: random.Random,
    index: int,
    functions: list[_StubFunction],
    platform: Platform,
    hw_ratio: tuple[float, float] = (0.05, 1.6),
) -> Candidate:
    """One stub loop whose hardware time is about ``hw_ratio`` times its
    software time (above 1: the kernel loses time)."""
    func = rng.choice(functions)
    # overlapping nests: block starts drawn from a tiny per-function pool
    starts = rng.sample(range(0x400000, 0x400040, 4), rng.randint(1, 3))
    sw_cycles = max(1, int(rng.uniform(1e-5, 1e-2) * 200e6))
    area = rng.uniform(500.0, 40_000.0)
    invocations = rng.randint(1, 50)
    kernel = HwKernel(
        name=f"cand{index}_{func.name}",
        header_address=starts[0],
        area_gates=area,
        clock_mhz=rng.uniform(50.0, 210.0),
        schedule_length=rng.randint(1, 12),
        ii=rng.randint(1, 3),
        localized=False,
        bram_bytes=0,
        iterations_multiplier=1,
        pipelined=True,
    )
    # choose the iteration count that lands the kernel near the drawn
    # hardware/software ratio, given its clock, II and pipeline fill
    target = platform.cpu_seconds(sw_cycles) * rng.uniform(*hw_ratio)
    cpu_side = platform.cpu_seconds(
        invocations * platform.invocation_overhead_cycles
    )
    fill = invocations * max(0, kernel.schedule_length - kernel.ii)
    fpga_cycles = max(0.0, target - cpu_side) * kernel.clock_mhz * 1e6
    iterations = max(1, round((fpga_cycles - fill) / kernel.ii))
    profile = LoopProfile(
        function=func.name,
        header_address=starts[0],
        depth=1,
        block_starts=sorted(starts),
        sw_cycles=sw_cycles,
        iterations=iterations,
        invocations=invocations,
    )
    return Candidate(
        function=func, profile=profile, kernel=kernel,
        hw_seconds=kernel_hw_seconds(platform, kernel, profile),
        sw_seconds=platform.cpu_seconds(sw_cycles),
    )


def _platform(seed: int) -> Platform:
    rng = random.Random(seed * 7919)
    capacity = rng.choice([9_000, 25_000, 60_000, 100_000])
    device = FpgaDevice(f"prop{capacity}", capacity, 48 * 1024, 210.0)
    return Platform(name=f"prop-{capacity}", cpu_clock_mhz=200.0, device=device)


def _random_candidates(
    seed: int, n: int, platform: Platform | None = None
) -> list[Candidate]:
    platform = platform or _platform(seed)
    rng = random.Random(seed)
    functions = [_StubFunction(f"f{i}") for i in range(rng.randint(1, 3))]
    return [_candidate(rng, i, functions, platform) for i in range(n)]


def _run(algorithm: str, platform: Platform, candidates, total_cycles: int):
    return partition(
        candidates, platform.devices, platform=platform,
        total_cycles=total_cycles, passes=algorithm,
    ).result


def _total_saved(result) -> float:
    return sum(c.saved_seconds for c in result.selected)


@pytest.mark.parametrize("seed", range(12))
class TestBaselineProperties:
    def test_stub_estimate_matches_cost_model(self, seed):
        platform = _platform(seed)
        candidates = _random_candidates(seed, rng_size(seed), platform)
        graph = build_graph(candidates, platform, total_cycles=1)
        AnnotatePass().run(graph)
        for node in graph.nodes:
            assert node.saved_on("fabric0") == node.candidate.saved_seconds

    def test_capacity_and_overlap_invariants(self, seed):
        platform = _platform(seed)
        candidates = _random_candidates(seed, rng_size(seed), platform)
        total_cycles = sum(c.profile.sw_cycles for c in candidates) or 1
        for algorithm in sorted(PLACEMENTS):
            result = _run(algorithm, platform, candidates, total_cycles)
            assert result.area_used <= platform.capacity_gates + 1e-9
            assert result.area_used == pytest.approx(
                sum(c.area for c in result.selected)
            )
            for i, a in enumerate(result.selected):
                for b in result.selected[i + 1:]:
                    assert not a.overlaps(b)

    def test_exhaustive_is_never_beaten(self, seed):
        # small sets only: exhaustive placement is exact up to 14 candidates
        platform = _platform(seed)
        candidates = _random_candidates(
            seed, min(rng_size(seed), 10), platform
        )
        total_cycles = sum(c.profile.sw_cycles for c in candidates) or 1
        best = _total_saved(
            _run("exhaustive", platform, candidates, total_cycles)
        )
        for algorithm in HEURISTICS:
            saved = _total_saved(
                _run(algorithm, platform, candidates, total_cycles)
            )
            assert saved <= best * (1 + 1e-9) + 1e-12, algorithm


def rng_size(seed: int) -> int:
    return random.Random(seed * 31).randint(2, 10)


def test_empty_candidate_list():
    platform = _platform(0)
    for algorithm in sorted(PLACEMENTS):
        result = _run(algorithm, platform, [], 1000)
        assert result.selected == []
        assert result.area_used == 0.0


def test_all_unprofitable_candidates():
    rng = random.Random(99)
    functions = [_StubFunction("f")]
    platform = _platform(3)
    candidates = [
        _candidate(rng, i, functions, platform, hw_ratio=(2.0, 3.0))
        for i in range(6)
    ]
    assert all(c.saved_seconds < 0 for c in candidates)  # always a loss
    for algorithm in ("greedy", "exhaustive"):
        result = _run(algorithm, platform, candidates, 100_000)
        assert _total_saved(result) <= 0.0 or not result.selected

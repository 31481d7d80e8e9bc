"""Placement algorithms as interchangeable pipeline passes.

Every algorithm the repo ever had -- the paper's 90-10 heuristic, greedy
value-density, GCLP, simulated annealing, and the exhaustive reference --
is a :class:`PlacementPass` now, parameterized by the graph's device list
instead of one hard-coded FPGA budget.  Placement targets are tried in
device-declaration order; a node goes to the hardware device that saves
the most time and still has room, or stays on the CPU.

With a single fabric device each pass makes the same decisions as the
pre-pipeline partitioners did on the candidates that fit the fabric: the
differential suite in ``tests/partition/test_reference_differential.py``
compares all five algorithms with a frozen copy of that code over every
recoverable benchmark on hard and soft platforms.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from repro.partition.graph import PartitionGraph, PartitionNode
from repro.partition.passes import PartitionPass
from repro.platform.devices import DeviceSpec


@dataclass(frozen=True)
class NinetyTenOptions:
    hot_fraction: float = 0.90   # the "90" of 90-10
    max_hot_loops: int = 8       # "the most frequent few loops"
    min_local_speedup: float = 1.0


class PlacementPass(PartitionPass):
    """Base for placement: tracks per-device area while deciding."""

    name = "place"
    algorithm = "?"

    def run(self, graph: PartitionGraph) -> None:
        raise NotImplementedError

    # -- shared device arithmetic -----------------------------------------

    @staticmethod
    def _fresh_usage(graph: PartitionGraph) -> dict[str, float]:
        return {device.name: 0.0 for device in graph.hw_devices}

    @staticmethod
    def _best_spot(
        graph: PartitionGraph, node: PartitionNode, used: dict[str, float]
    ) -> tuple[DeviceSpec, float] | None:
        """The hardware device saving the most time that still has room
        (declaration order breaks ties); None when nothing fits."""
        best: tuple[DeviceSpec, float] | None = None
        for device in graph.hw_devices:
            if used[device.name] + node.area_on(device) > device.capacity_gates:
                continue
            saved = node.saved_on(device)
            if best is None or saved > best[1]:
                best = (device, saved)
        return best

    @staticmethod
    def _best_saved(graph: PartitionGraph, node: PartitionNode) -> float:
        """Best time saving across hardware devices, room ignored."""
        return max(node.saved_on(device) for device in graph.hw_devices)

    @staticmethod
    def _best_density(graph: PartitionGraph, node: PartitionNode) -> float:
        return max(
            (node.saved_on(d) / node.area_on(d) if node.area_on(d) > 0 else 0.0)
            for d in graph.hw_devices
        )

    @staticmethod
    def _best_speedup(graph: PartitionGraph, node: PartitionNode) -> float:
        """Local speedup on the best device (sw seconds / hw seconds)."""
        best = 0.0
        for device in graph.hw_devices:
            cost = node.costs.get(device.name)
            cpu = node.costs.get("cpu")
            if cost is None or cpu is None:
                speedup = node.candidate.local_speedup
            else:
                speedup = (
                    cpu.seconds / cost.seconds if cost.seconds > 0 else 0.0
                )
            best = max(best, speedup)
        return best

    @staticmethod
    def _conflicts(graph: PartitionGraph, node: PartitionNode) -> bool:
        return any(
            node.candidate.overlaps(placed.candidate)
            for placed in graph.placed()
        )

    @staticmethod
    def _eligible(graph: PartitionGraph) -> list[int]:
        return [
            i for i, node in enumerate(graph.nodes) if not node.pruned
        ]

    def _place(
        self, graph: PartitionGraph, index: int, device: DeviceSpec,
        used: dict[str, float], step: int = 0,
    ) -> None:
        graph.place(index, device, step=step)
        used[device.name] += graph.nodes[index].area_on(device)


class GreedyPlacement(PlacementPass):
    """Greedy by time-saved per gate (classic knapsack value density)."""

    algorithm = "greedy"

    def run(self, graph: PartitionGraph) -> None:
        used = self._fresh_usage(graph)
        ranked = sorted(
            self._eligible(graph),
            key=lambda i: -self._best_density(graph, graph.nodes[i]),
        )
        for index in ranked:
            node = graph.nodes[index]
            spot = self._best_spot(graph, node, used)
            if spot is None or spot[1] <= 0:
                continue
            if self._conflicts(graph, node):
                continue
            self._place(graph, index, spot[0], used)


class ExhaustivePlacement(PlacementPass):
    """Optimal assignment by estimated time saved (reference, small n).

    Enumerates every CPU-or-device assignment of the top
    ``MAX_CANDIDATES`` savers; with D devices the pool shrinks so the
    (D+1)^n assignment space stays within the same ~2^16 evaluations.
    """

    algorithm = "exhaustive"

    MAX_CANDIDATES = 14

    def _pool(self, graph: PartitionGraph, width: int) -> list[int]:
        limit = self.MAX_CANDIDATES
        if width > 2:
            limit = min(limit, max(1, int(16 / math.log2(width))))
        return sorted(
            self._eligible(graph),
            key=lambda i: -self._best_saved(graph, graph.nodes[i]),
        )[:limit]

    def run(self, graph: PartitionGraph) -> None:
        devices = graph.hw_devices
        pool = self._pool(graph, len(devices) + 1)
        if not pool:
            return
        best_assign: tuple[int, ...] | None = None
        best_saved = 0.0
        capacity = [d.capacity_gates for d in devices]
        for assign in itertools.product(range(len(devices) + 1), repeat=len(pool)):
            area = [0.0] * len(devices)
            saved = 0.0
            placed: list[PartitionNode] = []
            feasible = True
            for slot, choice in enumerate(assign):
                if choice == 0:
                    continue
                node = graph.nodes[pool[slot]]
                device = devices[choice - 1]
                area[choice - 1] += node.area_on(device)
                if area[choice - 1] > capacity[choice - 1]:
                    feasible = False
                    break
                if any(node.candidate.overlaps(p.candidate) for p in placed):
                    feasible = False
                    break
                placed.append(node)
                saved += node.saved_on(device)
            if feasible and saved > best_saved:
                best_saved = saved
                best_assign = assign
        if best_assign is None:
            return
        used = self._fresh_usage(graph)
        for slot, choice in enumerate(best_assign):
            if choice:
                self._place(graph, pool[slot], devices[choice - 1], used)


class NinetyTenPlacement(PlacementPass):
    """The paper's three-step heuristic: hot loops, alias coupling, fill."""

    algorithm = "90-10"

    OPTIONS = NinetyTenOptions()

    def run(self, graph: PartitionGraph) -> None:
        options = self.OPTIONS
        used = self._fresh_usage(graph)
        ranked = sorted(
            self._eligible(graph),
            key=lambda i: -graph.nodes[i].candidate.profile.sw_cycles,
        )

        def fits(index: int) -> bool:
            return self._best_spot(graph, graph.nodes[index], used) is not None

        def select(index: int, step: int) -> None:
            node = graph.nodes[index]
            spot = self._best_spot(graph, node, used)
            assert spot is not None
            self._place(graph, index, spot[0], used, step=step)

        # --- step 1: the most frequent few loops (~90% of execution) -----
        # For each hot loop the best *granularity* within its nest (outer
        # vs inner) is the family member that saves the most time.
        covered = 0
        for index in ranked:
            node = graph.nodes[index]
            if covered >= options.hot_fraction * graph.total_cycles:
                break
            if len(graph.placement_order) >= options.max_hot_loops:
                break
            if self._conflicts(graph, node) or not fits(index):
                continue
            family = [
                j for j in ranked
                if j == index
                or graph.nodes[j].candidate.overlaps(node.candidate)
            ]
            family = [
                j for j in family
                if not self._conflicts(graph, graph.nodes[j]) and fits(j)
            ]
            if not family:
                continue
            best = max(
                family, key=lambda j: self._best_saved(graph, graph.nodes[j])
            )
            if self._best_speedup(graph, graph.nodes[best]) <= options.min_local_speedup:
                continue
            select(best, step=1)
            covered += graph.nodes[best].candidate.profile.sw_cycles

        # --- step 2: alias-coupled regions -------------------------------
        selected_symbols: set[str] = set()
        for node in graph.placed():
            footprint = node.candidate.function.loop_footprints.get(
                node.candidate.profile.header_address
            )
            if footprint is not None:
                selected_symbols |= footprint.symbols
        for index in ranked:
            node = graph.nodes[index]
            if self._conflicts(graph, node) or not fits(index):
                continue
            footprint = node.candidate.function.loop_footprints.get(
                node.candidate.profile.header_address
            )
            if footprint is None or not footprint.symbols:
                continue
            if footprint.symbols & selected_symbols:
                if self._best_speedup(graph, node) > options.min_local_speedup:
                    select(index, step=2)
                    selected_symbols |= footprint.symbols

        # --- step 3: greedy fill by profile x suitability ------------------
        remaining = [
            i for i in ranked
            if not self._conflicts(graph, graph.nodes[i])
        ]
        remaining.sort(
            key=lambda i: -(
                graph.nodes[i].candidate.profile.sw_cycles
                * max(0.0, self._best_speedup(graph, graph.nodes[i]))
            )
        )
        for index in remaining:
            node = graph.nodes[index]
            if self._conflicts(graph, node):
                continue
            if not fits(index):
                continue  # paper: "until the area constraint is violated"
            spot = self._best_spot(graph, node, used)
            if spot is None or spot[1] <= 0:
                continue
            select(index, step=3)


class GclpPlacement(PlacementPass):
    """GCLP-style placement after Kalavade & Lee (1994), adapted to loop
    granularity and an N-device budget.

    Each step computes a *global criticality* GC -- how far the current
    mapping is from the performance objective -- and maps the next unmapped
    region: time-critical steps (high GC) map the region with the largest
    time saving; relaxed steps use the local phase preference, area economy
    (saved seconds per gate).
    """

    algorithm = "gclp"

    def run(self, graph: PartitionGraph) -> None:
        platform = graph.platform
        used = self._fresh_usage(graph)
        objective = 0.5 * platform.cpu_seconds(graph.total_cycles)

        unmapped = [
            i for i in self._eligible(graph)
            if self._best_saved(graph, graph.nodes[i]) > 0
        ]
        current_time = platform.cpu_seconds(graph.total_cycles)
        while unmapped:
            gc = (current_time - objective) / max(current_time, 1e-12)
            if gc > 0.1:
                unmapped.sort(
                    key=lambda i: -self._best_saved(graph, graph.nodes[i])
                )
            else:
                unmapped.sort(
                    key=lambda i: -self._best_density(graph, graph.nodes[i])
                )
            index = unmapped.pop(0)
            node = graph.nodes[index]
            spot = self._best_spot(graph, node, used)
            if spot is None:
                continue
            if self._conflicts(graph, node):
                continue
            self._place(graph, index, spot[0], used)
            current_time -= spot[1]


class AnnealingPlacement(PlacementPass):
    """Simulated annealing after Henkel (1999), minimizing execution time
    with capacity-violation penalties.  Deterministic via a fixed seed.

    May end infeasible -- the legalize pass repairs it (the repair policy
    that used to live inside this algorithm, now shared by all of them).
    With one hardware device a move just flips a node between CPU and
    fabric (no second draw), so the random stream is the pre-pipeline
    single-budget annealer's.
    """

    algorithm = "annealing"

    ITERATIONS = 4000
    SEED = 12345

    def run(self, graph: PartitionGraph) -> None:
        pool = [
            i for i in self._eligible(graph)
            if self._best_saved(graph, graph.nodes[i]) != 0.0
        ]
        if not pool:
            return
        rng = random.Random(self.SEED)
        devices = graph.hw_devices
        nodes = [graph.nodes[i] for i in pool]
        baseline = graph.platform.cpu_seconds(graph.total_cycles)

        def cost(assign: list[int]) -> float:
            area = [0.0] * len(devices)
            saved = 0.0
            placed: list[PartitionNode] = []
            penalty = 0.0
            for node, choice in zip(nodes, assign):
                if choice < 0:
                    continue
                device = devices[choice]
                area[choice] += node.area_on(device)
                saved += node.saved_on(device)
                placed.append(node)
            for k, device in enumerate(devices):
                if area[k] > device.capacity_gates:
                    penalty += (
                        (area[k] - device.capacity_gates) / device.capacity_gates
                    )
            for a, b in itertools.combinations(placed, 2):
                if a.candidate.overlaps(b.candidate):
                    penalty += 1.0
            return (baseline - saved) / baseline + penalty

        assign = [-1] * len(pool)
        best_assign = list(assign)
        current = cost(assign)
        best = current
        temperature = 1.0
        for _step in range(self.ITERATIONS):
            index = rng.randrange(len(pool))
            previous = assign[index]
            proposal = rng.randrange(len(devices) + 1) - 1 if len(devices) > 1 else 0
            assign[index] = -1 if proposal == previous else proposal
            candidate_cost = cost(assign)
            delta = candidate_cost - current
            if delta <= 0 or rng.random() < pow(
                2.718281828, -delta / max(temperature, 1e-9)
            ):
                current = candidate_cost
                if current < best:
                    best = current
                    best_assign = list(assign)
            else:
                assign[index] = previous
            temperature *= 0.999

        used = self._fresh_usage(graph)
        for slot, choice in enumerate(best_assign):
            if choice >= 0:
                self._place(graph, pool[slot], devices[choice], used)


#: placement algorithms by CLI/API name
PLACEMENTS: dict[str, type[PlacementPass]] = {
    "90-10": NinetyTenPlacement,
    "greedy": GreedyPlacement,
    "gclp": GclpPlacement,
    "annealing": AnnealingPlacement,
    "exhaustive": ExhaustivePlacement,
}

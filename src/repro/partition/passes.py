"""The partitioning pass-manager: ordered, named, observable passes.

A partitioning run is a compiler-style pipeline over the
:class:`~repro.partition.graph.PartitionGraph`:

    filter -> annotate -> <placement> -> legalize -> report

Each pass is timed individually (``partition.pass_seconds`` histogram plus
the per-pipeline ``pass_seconds`` dict on the report), wrapped in an obs
span, and counted on ``partition.pass_runs_total``.  Placement algorithms
are just passes too (:mod:`repro.partition.placement`); anything that
mutates the graph can be inserted into the list.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs
from repro.partition import legalize as _legalize
from repro.partition.costmodels import device_cost
from repro.partition.graph import PartitionGraph, PartitionNode


class PartitionPass:
    """Base class: one named transformation of the partition graph."""

    #: stable pass name (obs span/counter suffix, ``--passes`` CLI token)
    name = "pass"

    def run(self, graph: PartitionGraph) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class FilterPass(PartitionPass):
    """Prune candidates no hardware device could ever hold.

    A node is kept if its cost-model area fits at least one non-CPU
    device.  Pruning pays beyond speed: annealing spends moves and
    penalty on kernels that can never be placed, and on ``jpegdct`` at
    -O1 on the soft core the unpruned annealer keeps nothing where the
    pruned one selects three kernels
    (``tests/partition/test_reference_differential.py``).
    """

    name = "filter"

    @staticmethod
    def _fits_somewhere(graph: PartitionGraph, node: PartitionNode) -> bool:
        # asks the cost-model registry, not the raw kernel area: a kernel
        # too big for any fabric region may still pack onto a CGRA slot
        return any(
            device_cost(graph.platform, device, node.candidate).area_gates
            <= device.capacity_gates
            for device in graph.hw_devices
        )

    def run(self, graph: PartitionGraph) -> None:
        pruned = 0
        for node in graph.nodes:
            if not self._fits_somewhere(graph, node):
                node.pruned = True
                pruned += 1
        if pruned:
            obs.counter("partition.nodes_pruned_total").inc(pruned)


class AnnotatePass(PartitionPass):
    """Fill per-device cost annotations from the cost-model registry."""

    name = "annotate"

    def run(self, graph: PartitionGraph) -> None:
        for node in graph.nodes:
            for device in graph.devices:
                node.costs[device.name] = device_cost(
                    graph.platform, device, node.candidate
                )


class LegalizePass(PartitionPass):
    """Validate per-device capacity and overlaps; repair if violated.

    The one shared budget/overlap check every placement algorithm runs
    through (previously three divergent copies).  Feasible placements pass
    through untouched; infeasible ones are repaired (keep by descending
    saved seconds, drop the rest to software).
    """

    name = "legalize"

    def run(self, graph: PartitionGraph) -> None:
        if _legalize.graph_feasible(graph):
            return
        dropped = _legalize.repair_graph(graph)
        if dropped:
            obs.counter("partition.legalize_drops_total").inc(dropped)


class ReportPass(PartitionPass):
    """Publish placement totals to obs (counters + per-device gauges)."""

    name = "report"

    def run(self, graph: PartitionGraph) -> None:
        if not obs.metrics_enabled():
            return
        obs.counter("partition.nodes_total").inc(len(graph.nodes))
        obs.counter("partition.nodes_placed_total").inc(len(graph.placed()))
        for device in graph.hw_devices:
            obs.gauge(f"partition.area_used.{device.name}").set(
                graph.area_used(device)
            )


@dataclass
class PipelineReport:
    """What the pass-manager observed while running one pipeline."""

    #: pass name -> wall-clock seconds, in run order (py3.7+ dicts are
    #: ordered); repeated pass names accumulate
    pass_seconds: dict[str, float] = field(default_factory=dict)
    passes_run: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(self.pass_seconds.values())


class PassManager:
    """Runs an ordered pass list over a graph, timing and tracing each."""

    def __init__(self, passes: list[PartitionPass]):
        self.passes = list(passes)

    @property
    def pass_names(self) -> list[str]:
        return [p.name for p in self.passes]

    def run(self, graph: PartitionGraph) -> PipelineReport:
        report = PipelineReport()
        histogram = obs.histogram("partition.pass_seconds")
        runs = obs.counter("partition.pass_runs_total")
        for pipeline_pass in self.passes:
            name = pipeline_pass.name
            started = time.perf_counter()
            with obs.span(f"partition.pass.{name}"):
                pipeline_pass.run(graph)
            elapsed = time.perf_counter() - started
            report.pass_seconds[name] = (
                report.pass_seconds.get(name, 0.0) + elapsed
            )
            report.passes_run += 1
            histogram.observe(elapsed)
            runs.inc()
            obs.counter(f"partition.pass.{name}.runs_total").inc()
        return report

"""The partitioning result type, shared by every placement algorithm.

It lives in its own module so the pass pipeline, the flow and the metrics
code can all build or read one without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.partition.estimator import Candidate
    from repro.partition.graph import PartitionGraph


@dataclass
class PartitionResult:
    selected: list["Candidate"] = field(default_factory=list)
    area_used: float = 0.0
    area_budget: float = 0.0
    partitioning_seconds: float = 0.0
    algorithm: str = "90-10"
    #: which step chose each kernel (1 = hot loops, 2 = alias coupling,
    #: 3 = greedy fill), by candidate name
    step_of: dict[str, int] = field(default_factory=dict)
    #: node -> device-name map covering *every* candidate ("cpu" = software)
    placements: dict[str, str] = field(default_factory=dict)
    #: wall-clock seconds of each pipeline pass, in run order
    pass_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def names(self) -> list[str]:
        return [candidate.name for candidate in self.selected]


def result_from_graph(
    graph: "PartitionGraph", algorithm: str, seconds: float,
    pass_seconds: dict[str, float] | None = None,
) -> PartitionResult:
    """Fold a placed graph into a :class:`PartitionResult`.

    ``selected`` keeps the placement order the algorithm chose, and
    ``area_used`` is summed in that order, so the float bits match an
    accumulation done while selecting; it starts from ``0.0``, so an empty
    selection also has a float area.
    """
    placed = [graph.nodes[i] for i in graph.placement_order]
    result = PartitionResult(
        selected=[node.candidate for node in placed],
        area_used=sum((node.area_on(node.device) for node in placed), 0.0),
        area_budget=sum(d.capacity_gates for d in graph.hw_devices),
        partitioning_seconds=seconds,
        algorithm=algorithm,
        placements=graph.assignment(),
        pass_seconds=dict(pass_seconds or {}),
    )
    for node in placed:
        result.step_of[node.name] = node.step
    return result

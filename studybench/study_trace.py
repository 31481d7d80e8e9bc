"""Outside-in tracing for the study benchmark.

The benchmark measures the program's layers without changing it: for a
traced pass it replaces the names the flow modules call (and two methods
of the dynamic controller) with wrappers that record one span per call,
then puts every original back.  Spans stay in memory with parent links;
a layer's self time is its spans' durations minus the parts covered by
child spans, so the self times of all layers plus the flow's own
orchestration time add up to the traced pass time.

Only :func:`install` and :func:`install_recorder` touch the program; both
record what they replaced in an undo list that :func:`restore` consumes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from importlib import import_module

#: span name of the root span the benchmark opens around each flow
FLOW = "flow"

#: (module, attribute or Class.method, span name); the module-level names
#: are the ones ``repro.flow`` and ``repro.compiler.driver`` look up when
#: they run, the methods are the simulator and the online controller
TARGETS = (
    ("repro.compiler.driver", "compile_to_asm", "compiler"),
    ("repro.compiler.driver", "assemble", "isa"),
    ("repro.sim.cpu", "Cpu.__init__", "sim"),
    ("repro.sim.cpu", "Cpu.run", "sim"),
    ("repro.flow", "decompile", "decompile"),
    ("repro.flow", "build_profile", "partition.profile"),
    ("repro.flow", "build_candidates", "synth"),
    ("repro.flow", "run_partition", "partition"),
    ("repro.flow", "evaluate_partition", "platform"),
    ("repro.dynamic.controller", "DynamicPartitionController.on_sample",
     "dynamic.on_sample"),
    ("repro.dynamic.controller", "DynamicPartitionController.finish",
     "dynamic.finish"),
)


def _text_bytes(exe) -> dict:
    return {"text_bytes": 4 * len(exe.text_words)}


def _decompiled(program) -> dict:
    stats = program.total_stats()
    return {
        "lifted_ops": stats.lifted_ops,
        "final_ops": stats.final_ops,
        "failed_functions": len(program.failures),
    }


def _candidates(candidates) -> dict:
    return {
        "kernels": len(candidates),
        "area_gates": sum(c.area for c in candidates),
    }


#: work counts read off a layer call's return value
COUNTS = {
    "assemble": _text_bytes,
    "Cpu.run": lambda result: {"instructions": result.steps},
    "decompile": _decompiled,
    "build_candidates": _candidates,
    "run_partition": lambda outcome: {"selected": len(outcome.result.selected)},
    "evaluate_partition": lambda metrics: {"app_speedup": metrics.app_speedup},
}


#: the per-layer metrics that are span self times; with
#: ``flow.other_seconds`` they sum to the traced pass time
SELF_TIMES = (
    "compiler.seconds", "isa.assemble_seconds", "sim.seconds",
    "decompile.seconds", "partition.profile_seconds", "partition.seconds",
    "synth.seconds", "platform.evaluate_seconds", "dynamic.on_sample_seconds",
    "dynamic.finish_seconds", "flow.other_seconds",
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    def as_row(self) -> list:
        return [self.id, self.parent, self.name, self.start, self.end, self.attrs]


class Tracer:
    """In-memory span recorder with an explicit stack for parent links."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def wrap(self, name: str, fn, counts=None):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                span.attrs.update(counts(result))
            return result

        traced.__wrapped__ = fn
        return traced


def _resolve(module: str, attr: str):
    owner = import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        original = owner.__dict__[attr]
    else:
        original = getattr(owner, attr)
    return owner, attr, original


def install(tracer: Tracer, undo: list) -> None:
    """Wrap every :data:`TARGETS` entry, recording each in *undo* as it
    goes, so a target that fails to resolve leaves nothing behind."""
    for module, attr, name in TARGETS:
        owner, short, original = _resolve(module, attr)
        setattr(owner, short, tracer.wrap(name, original, COUNTS.get(attr)))
        undo.append((owner, short, original))


def install_recorder(cpus: list, undo: list) -> None:
    """Keep every simulated :class:`~repro.sim.cpu.Cpu` in *cpus*, so the
    output check can read its memory after the timed region.  Reads no
    clock; this is the only change an untraced pass makes."""
    owner, short, original = _resolve("repro.sim.cpu", "Cpu.run")

    def run(self, *args, **kwargs):
        cpus.append(self)
        return original(self, *args, **kwargs)

    run.__wrapped__ = original
    setattr(owner, short, run)
    undo.append((owner, short, original))


def restore(undo: list) -> None:
    """Put back what :func:`install` / :func:`install_recorder` replaced."""
    for owner, short, original in reversed(undo):
        setattr(owner, short, original)
    undo.clear()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed duration minus time covered by child spans."""
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start)
        if span.parent is not None:
            parent = spans[span.parent].name
            totals[parent] = totals.get(parent, 0.0) - (span.end - span.start)
    return totals


def _attr_sum(spans: list[Span], name: str, key: str) -> float:
    return sum(s.attrs.get(key, 0) for s in spans if s.name == name)


def _obs_value(snapshot: dict, name: str, key: str = "value") -> float:
    entry = snapshot.get(name)
    return entry[key] if entry else 0


def _obs_span_seconds(events: list[dict], name: str) -> float:
    return sum(e.get("dur", 0.0) for e in events if e["name"] == name) / 1e6


def layer_metrics(spans: list[Span], snapshot: dict, events: list[dict]) -> dict:
    """Per-layer metrics of one traced pass.

    *snapshot* is the program's ``repro.obs`` registry snapshot for the
    pass and *events* its ``repro.obs`` trace events; both are read, never
    added to.
    """
    own = self_times(spans)
    sim_seconds = own.get("sim", 0.0)
    instructions = _attr_sum(spans, "sim", "instructions")
    codegen = _obs_value(snapshot, "engine.codegen_seconds", "total")
    in_total = _obs_value(snapshot, "engine.instructions_total")
    speedups = [s.attrs["app_speedup"] for s in spans
                if s.name == "platform" and s.attrs.get("app_speedup", 0) > 0]
    return {
        "compiler.seconds": own.get("compiler", 0.0),
        "isa.assemble_seconds": own.get("isa", 0.0),
        "binary.text_bytes": _attr_sum(spans, "isa", "text_bytes"),
        "sim.seconds": sim_seconds,
        "sim.instructions": instructions,
        "sim.mips": instructions / sim_seconds / 1e6 if sim_seconds else 0.0,
        "sim.codegen_seconds": codegen,
        "sim.execute_seconds": sim_seconds - codegen,
        "sim.codegen_units": _obs_value(snapshot, "engine.codegen_units_total"),
        "sim.trace_builds": _obs_value(snapshot, "engine.trace_builds_total"),
        "sim.trace_share": (
            _obs_value(snapshot, "engine.instructions_in_traces") / in_total
            if in_total else 0.0
        ),
        "decompile.seconds": own.get("decompile", 0.0),
        "decompile.lifted_ops": _attr_sum(spans, "decompile", "lifted_ops"),
        "decompile.final_ops": _attr_sum(spans, "decompile", "final_ops"),
        "decompile.failed_functions":
            _attr_sum(spans, "decompile", "failed_functions"),
        "partition.profile_seconds": own.get("partition.profile", 0.0),
        "partition.seconds": own.get("partition", 0.0),
        "partition.pass_seconds":
            _obs_value(snapshot, "partition.pass_seconds", "total"),
        "partition.selected": _attr_sum(spans, "partition", "selected"),
        "synth.seconds": own.get("synth", 0.0),
        "synth.kernels": _attr_sum(spans, "synth", "kernels"),
        "synth.area_gates": _attr_sum(spans, "synth", "area_gates"),
        "platform.evaluate_seconds": own.get("platform", 0.0),
        "platform.app_speedup_geomean": (
            math.exp(sum(map(math.log, speedups)) / len(speedups))
            if speedups else 0.0
        ),
        "dynamic.on_sample_seconds": own.get("dynamic.on_sample", 0.0),
        "dynamic.samples": sum(1 for s in spans if s.name == "dynamic.on_sample"),
        "dynamic.repartitions": _obs_value(snapshot, "dynamic.repartitions_total"),
        "dynamic.cad_decompile_seconds": _obs_span_seconds(events, "cad.decompile"),
        "dynamic.cad_synthesize_seconds":
            _obs_span_seconds(events, "cad.synthesize"),
        "dynamic.finish_seconds": own.get("dynamic.finish", 0.0),
        "flow.other_seconds": own.get(FLOW, 0.0),
    }

"""The benchmark harnesses share ``BENCH_sim.json`` without clobbering
each other's sections."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_service_section_survives_a_sim_bench_run(tmp_path):
    sim = _load("bench_sim_throughput")
    service = _load("bench_service_load")
    output = tmp_path / "BENCH_sim.json"
    sim.write_entry(output, {"benchmark": "sim_throughput", "label": "first"})
    service.write_service(output, {"warm": {"jobs_per_s": 1.0}})
    sim.write_entry(output, {"benchmark": "sim_throughput", "label": "second"})

    data = json.loads(output.read_text())
    assert data["label"] == "second"
    assert data["service"] == {"warm": {"jobs_per_s": 1.0}}
    # the rolled entry is the sim entry alone, under its own label
    assert data["history"] == [{"benchmark": "sim_throughput", "label": "first"}]


def test_sim_bench_keeps_history_oldest_first(tmp_path):
    sim = _load("bench_sim_throughput")
    output = tmp_path / "BENCH_sim.json"
    for label in ("a", "b", "c"):
        sim.write_entry(output, {"label": label})
    data = json.loads(output.read_text())
    assert data["label"] == "c"
    assert [entry["label"] for entry in data["history"]] == ["a", "b"]

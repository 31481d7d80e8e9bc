"""Tests of the study benchmark itself.

Run with the program on the path, from the repository root::

    PYTHONPATH=src python3 -m pytest studybench

Passes run in-process here on two or three small programs, so the tests
take seconds, not the minutes a benchmark run takes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench_run
import study_pass
import study_trace

HERE = Path(__file__).resolve().parent


@pytest.fixture(autouse=True)
def _cold_and_hermetic(monkeypatch):
    """No on-disk caches, and the in-memory trace cache left as found."""
    from repro.sim.superblock import persist

    monkeypatch.setenv("REPRO_CACHE", "off")
    monkeypatch.setenv("REPRO_TRACE_PERSIST", "off")
    saved = dict(persist._MEMORY)
    yield
    persist._MEMORY.clear()
    persist._MEMORY.update(saved)


def _bench(workload: str, names: list[str]):
    run_one, benchmarks = study_pass.load(workload)
    by_name = {b.name: b for b in benchmarks}
    return run_one, [by_name[name] for name in names]


def _originals() -> list:
    targets = [(m, a) for m, a, _ in study_trace.TARGETS]
    return [study_trace._resolve(m, a)[2] for m, a in targets + [("repro.sim.cpu", "Cpu.run")]]


def test_wrappers_are_removed_after_a_traced_pass():
    from repro import obs

    before = _originals()
    state = (obs.metrics_enabled(), obs.tracing_enabled())
    run_one, benches = _bench("dynamic_soft85", ["bcnt"])
    result = study_pass.run_pass(run_one, benches, order_seed=1, traced=True)
    assert result["layers"]["dynamic.samples"] > 0
    assert all(a is b for a, b in zip(_originals(), before))
    assert (obs.metrics_enabled(), obs.tracing_enabled()) == state


def test_wrappers_are_removed_when_a_flow_check_raises(monkeypatch):
    before = _originals()
    run_one, benches = _bench("study_o1", ["bcnt"])

    def broken_check(*args):
        raise RuntimeError("check failed to run")

    monkeypatch.setattr(study_pass, "check", broken_check)
    with pytest.raises(RuntimeError):
        study_pass.run_pass(run_one, benches, order_seed=1, traced=True)
    assert all(a is b for a, b in zip(_originals(), before))


def test_wrappers_are_removed_when_a_target_is_missing(monkeypatch):
    before = _originals()
    run_one, benches = _bench("study_o1", ["bcnt"])
    missing = ("repro.flow", "no_such_layer", "missing")
    monkeypatch.setattr(study_trace, "TARGETS", study_trace.TARGETS + (missing,))
    with pytest.raises(AttributeError):
        study_pass.run_pass(run_one, benches, order_seed=1, traced=True)
    monkeypatch.undo()
    assert all(a is b for a, b in zip(_originals(), before))


def test_checksum_mismatch_counts_in_fail_share():
    run_one, (good, tblook) = _bench("study_o1", ["bcnt", "tblook"])
    bad = dataclasses.replace(good, name="bcnt_wrong", reference=lambda: 12345)
    result = study_pass.run_pass(run_one, [good, bad, tblook], order_seed=3,
                                 traced=False)
    attempted, failed, problems = bench_run.outcome([result])
    assert (attempted, failed) == (3, 1)
    assert failed / attempted == pytest.approx(1 / 3)
    assert [name for name, _ in problems] == ["bcnt_wrong"]
    assert "checksum" in problems[0][1]


@pytest.mark.parametrize("workload", ["study_o1", "dynamic_soft85"])
def test_self_times_add_up_to_the_traced_pass_time(workload):
    run_one, benches = _bench(workload, ["bcnt", "tblook"])
    result = study_pass.run_pass(run_one, benches, order_seed=5, traced=True)
    layers = result["layers"]
    assert all(layers[name] >= 0 for name in study_trace.SELF_TIMES)
    assert sum(layers[name] for name in study_trace.SELF_TIMES) \
        == pytest.approx(result["pass_seconds"], rel=1e-9)
    assert not any(f["problems"] for f in result["flows"])
    if workload == "study_o1":
        assert layers["dynamic.samples"] == layers["dynamic.on_sample_seconds"] == 0


def test_reference_seconds_scale_wall_time_by_the_probes_beside_each_flow(monkeypatch):
    run_one, benches = _bench("study_o1", ["bcnt", "brev"])
    speeds = iter([1.0, 3.0, 2.0])
    monkeypatch.setattr(study_pass, "probe",
                        lambda: study_pass.PROBE_REF_SECONDS * next(speeds))
    result = study_pass.run_pass(run_one, benches, order_seed=2, traced=False)
    assert len(result["probes"]) == len(result["flows"]) + 1
    first, second = result["flows"]
    assert first["ref_seconds"] == pytest.approx(first["seconds"] / 2)
    assert second["ref_seconds"] == pytest.approx(second["seconds"] / 2.5)
    assert result["ref_pass_seconds"] == pytest.approx(
        first["ref_seconds"] + second["ref_seconds"])


def test_flow_order_follows_the_seed():
    run_one, benches = _bench("study_o1", ["bcnt", "tblook", "brev"])
    orders = [
        [f["benchmark"] for f in
         study_pass.run_pass(run_one, benches, seed, traced=False)["flows"]]
        for seed in (7, 7, 8)
    ]
    assert orders[0] == orders[1]
    assert sorted(orders[2]) == sorted(orders[0])


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "study_o1", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_declared_workloads_and_metrics_match_the_code():
    spec = json.loads(bench_run.SPEC.read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(study_pass.WORKLOADS)
    layers = study_trace.layer_metrics([], {}, [])
    assert [m["name"] for m in spec["per_layer"]] \
        == list(layers) + ["trace.overhead_share"]
    passes = [{"ref_pass_seconds": 1.0, "ref_setup_seconds": 0.1, "peak_rss_mb": 9.0,
               "flows": [{"ref_seconds": 0.05}] * 20}] * 5
    assert [m["name"] for m in spec["end_to_end"]] == list(bench_run.end_to_end(passes))

"""Differential suite: the partitioning pipeline vs the frozen reference.

``_legacy_reference.py`` is a verbatim copy of the pre-pipeline
partitioners.  On a single monolithic fabric every placement pass must
make the same decisions as its reference on the candidates that fit the
fabric: same kernels in the same selection order, same per-step
attribution, and float-equal area accounting.  The reference gets the
fitting candidates only because the pipeline's filter pass prunes the
rest before placement; :func:`test_pruning_pays_for_annealing` pins the
one benchmark where that pruning changes the outcome.

``partitioning_seconds`` is wall clock and excluded; ``placements`` and
``pass_seconds`` are pipeline fields the reference never filled.
"""

from __future__ import annotations

import pytest

from repro.compiler import compile_source
from repro.decompile import decompile
from repro.partition import build_candidates, build_profile, partition
from repro.platform import MIPS_200MHZ, SOFTCORE_85MHZ
from repro.programs import ALL_BENCHMARKS
from repro.sim import run_executable

from tests.partition.test_baseline_properties import (
    _platform,
    _random_candidates,
)
from tests.partition._legacy_reference import (
    LegacyNinetyTenPartitioner,
    legacy_annealing_partition,
    legacy_exhaustive_partition,
    legacy_gclp_partition,
    legacy_greedy_partition,
)

#: tblook/ttsprk fail CDFG recovery by design -- nothing to partition
_BENCHMARKS = [b for b in ALL_BENCHMARKS if not b.expect_recovery_failure]

_PLATFORMS = {"mips200": MIPS_200MHZ, "softcore85": SOFTCORE_85MHZ}

#: pipeline algorithm name -> frozen reference partitioner
_REFERENCES = {
    "90-10": lambda p, c, t: LegacyNinetyTenPartitioner(p).partition(c, t),
    "greedy": legacy_greedy_partition,
    "exhaustive": legacy_exhaustive_partition,
    "gclp": legacy_gclp_partition,
    "annealing": legacy_annealing_partition,
}

_cache: dict[str, tuple] = {}


def _candidates_for(name: str, platform_key: str):
    """(candidates, total_cycles) for one benchmark on one platform;
    compile/simulate once per benchmark, cost once per platform."""
    run_key = f"run:{name}"
    if run_key not in _cache:
        bench = next(b for b in _BENCHMARKS if b.name == name)
        exe = compile_source(bench.source, opt_level=1)
        program = decompile(exe)
        assert program.recovered, program.failures
        _, run = run_executable(exe, profile=True)
        profile = build_profile(exe, program, run)
        _cache[run_key] = (exe, program, profile)
    exe, program, profile = _cache[run_key]
    cand_key = f"cand:{name}:{platform_key}"
    if cand_key not in _cache:
        _cache[cand_key] = build_candidates(
            exe, program, profile, _PLATFORMS[platform_key]
        )
    return _cache[cand_key], profile.total_cycles


def _pipeline(platform, candidates, total_cycles, algorithm):
    return partition(
        candidates, platform.devices, platform=platform,
        total_cycles=total_cycles, passes=algorithm,
    ).result


def _assert_same_decisions(reference, result, context: str) -> None:
    assert result.names == reference.names, context
    assert result.step_of == reference.step_of, context
    assert result.area_used == reference.area_used, context  # float bits
    assert result.area_budget == reference.area_budget, context
    assert result.algorithm == reference.algorithm, context
    # the pipeline additionally reports a total placement map
    assert set(result.placements.values()) <= {"cpu", "fabric0"}, context
    placed = {n for n, d in result.placements.items() if d != "cpu"}
    assert placed == set(result.names), context


@pytest.mark.parametrize("platform_key", sorted(_PLATFORMS))
@pytest.mark.parametrize("bench", [b.name for b in _BENCHMARKS])
def test_pipeline_matches_frozen_reference(bench: str, platform_key: str):
    candidates, total_cycles = _candidates_for(bench, platform_key)
    platform = _PLATFORMS[platform_key]
    fitting = [c for c in candidates if c.area <= platform.capacity_gates]
    for algorithm, reference_fn in _REFERENCES.items():
        reference = reference_fn(platform, fitting, total_cycles)
        result = _pipeline(platform, candidates, total_cycles, algorithm)
        _assert_same_decisions(
            reference, result, f"{bench}/{platform_key}/{algorithm}"
        )


@pytest.mark.parametrize("seed", range(6))
def test_pipeline_matches_frozen_reference_on_large_random_sets(seed: int):
    """The benchmarks leave at most five fitting candidates, where
    annealing finds the optimum whatever its random stream; forty stub
    candidates under tight and loose budgets make the outcome depend on
    the stream, so this holds single-device annealing to the reference's
    exact move sequence."""
    platform = _platform(seed)
    candidates = _random_candidates(seed, 40, platform)
    total_cycles = sum(c.profile.sw_cycles for c in candidates)
    fitting = [c for c in candidates if c.area <= platform.capacity_gates]
    for algorithm, reference_fn in _REFERENCES.items():
        reference = reference_fn(platform, fitting, total_cycles)
        result = _pipeline(platform, candidates, total_cycles, algorithm)
        _assert_same_decisions(
            reference, result, f"random{seed}/{algorithm}"
        )


def test_pruning_pays_for_annealing():
    """The filter pass's documented win: on jpegdct at -O1 on the soft
    core, annealing over the unpruned list wastes its moves on kernels
    that can never fit and keeps nothing; after pruning it selects three
    kernels."""
    candidates, total_cycles = _candidates_for("jpegdct", "softcore85")
    platform = SOFTCORE_85MHZ
    assert any(c.area > platform.capacity_gates for c in candidates)
    result = _pipeline(platform, candidates, total_cycles, "annealing")
    assert sorted(result.names) == sorted([
        "main_loop_400600", "main_loop_40068c", "init_loop_400010",
    ])
    unpruned = legacy_annealing_partition(platform, candidates, total_cycles)
    assert unpruned.names == []


def test_pipeline_reports_pass_timings():
    candidates, total_cycles = _candidates_for(_BENCHMARKS[0].name, "mips200")
    result = _pipeline(MIPS_200MHZ, candidates, total_cycles, "greedy")
    assert list(result.pass_seconds) == [
        "filter", "annotate", "place", "legalize", "report"
    ]
    assert all(s >= 0 for s in result.pass_seconds.values())
    assert result.partitioning_seconds == sum(result.pass_seconds.values())

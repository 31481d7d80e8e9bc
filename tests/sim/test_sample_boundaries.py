"""Sample boundaries generate no code.

A sampled superblock run single-steps a chunk's tail when the next unit
does not fit in its budget, so a boundary may fall mid-block.  The next
chunk steps to that block's end through the threaded handlers and then
resumes unit dispatch; it never compiles a suffix unit for the boundary.
Only a dynamic jump into mid-block (a computed ``jr``) still
materializes one.

Each test drives a threaded and a superblock :meth:`Cpu.run_sampled`
generator in lockstep and compares the live ``(counts, taken)`` arrays at
every sample, so even interval 1 needs no per-sample copies.
"""

import pytest

from repro.compiler import compile_source
from repro.isa import assemble
from repro.programs import get_benchmark
from repro.sim import run_reference
from repro.sim.cpu import Cpu

from tests.sim.test_differential import assert_identical

INTERVALS = [1, 7, 97, 4000]
BENCHMARKS = ["blit", "mpegidct", "brev"]


def _lockstep(exe, interval):
    """Run *exe* sampled on both engines side by side.

    Returns ``(threaded result, superblock result, superblock cpu)``
    after asserting every sample snapshot is identical.
    """
    threaded = Cpu(exe, profile=True, engine="threaded")
    superblock = Cpu(exe, profile=True)
    generators = (
        threaded.run_sampled(sample_interval=interval),
        superblock.run_sampled(sample_interval=interval),
    )
    sample = 0
    while True:
        outcomes = []
        for generator in generators:
            try:
                outcomes.append(next(generator))
            except StopIteration as stop:
                outcomes.append(stop)
        want, got = outcomes
        if isinstance(want, StopIteration) or isinstance(got, StopIteration):
            assert type(want) is type(got), f"interval {interval}: sample counts differ"
            return want.value, got.value, superblock
        assert want == got, f"interval {interval}: sample {sample} diverged"
        sample += 1


def _units_emitted(cpu):
    return cpu._sb._cg.units_emitted


@pytest.fixture(scope="module")
def compiled():
    return {name: compile_source(get_benchmark(name).source, opt_level=1)
            for name in BENCHMARKS}


class TestBenchmarkBoundaries:
    @pytest.mark.parametrize("interval", INTERVALS)
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_samples_exact_and_no_boundary_codegen(self, compiled, name, interval):
        exe = compiled[name]
        unsampled = Cpu(exe, profile=True)
        unsampled_result = unsampled.run()
        want, got, cpu = _lockstep(exe, interval)
        assert_identical(got, want, f"{name} @ {interval}")
        assert_identical(got, unsampled_result, f"{name} @ {interval} vs unsampled")
        # leader units only: one per leader, built at construction
        assert _units_emitted(cpu) == _units_emitted(unsampled)
        assert _units_emitted(cpu) == len(cpu._sb.leaders)


class TestComputedJumpIntoMidBlock:
    #: a loop whose ``jr`` lands on the *second* instruction of a
    #: straight-line run -- a target no leader analysis can predict
    _ASM = """.text
_start:
    li $s1, 40
loop:
    la $t0, spot
    addiu $t0, $t0, 4
    jr $t0
spot:
    addiu $s0, $s0, 100
    addiu $s0, $s0, 10
    addiu $s0, $s0, 1
    addiu $s1, $s1, -1
    bne $s1, $zero, loop
    la $t1, total
    sw $s0, 0($t1)
    break
.data
total: .word 0
"""

    @pytest.mark.parametrize("interval", INTERVALS)
    def test_exact_at_every_interval(self, interval):
        exe = assemble(self._ASM)
        ref = run_reference(exe, profile=True)
        want, got, cpu = _lockstep(exe, interval)
        assert_identical(got, want, f"interval {interval}")
        assert_identical(got, ref, f"interval {interval} vs reference")
        assert cpu.read_word_global_signed("total") == 40 * 11

    @pytest.mark.parametrize("interval", [97, 4000])
    def test_jump_inside_a_chunk_materializes_a_suffix(self, interval):
        exe = assemble(self._ASM)
        entry_index = (exe.symbols["spot"].address - exe.text_base) // 4 + 1
        cpu = Cpu(exe, profile=True)
        assert entry_index not in cpu._sb.leaders, "test needs a mid-block target"
        leaders_only = _units_emitted(cpu)
        cpu.run(sample_interval=interval, on_sample=lambda counts, taken: None)
        assert cpu._sb.entries[entry_index][1] is not None
        assert _units_emitted(cpu) == leaders_only + 1

"""The decompiler on generated programs with real control flow.

``random_program`` (the simulator's differential fuzz generator) emits
loops, switches that compile to jump tables, sub-word memory traffic,
calls and division.  Each program goes through the whole decompiler with
jump-table recovery on, and the recovered CDFG, run by the CDFG
interpreter, must leave the same ``checksum`` as the simulator.  That
exercises rerolling, strength promotion, stack removal and constant
propagation on programs nobody wrote by hand.

With default options, the functions that fail recovery must be exactly
the ones that dispatch through a jump table, each with "indirect jump".

Every seed runs at one opt level (``seed % 4``); a few seeds run at all
four.  A failure reproduces from the printed seed and level.
"""

import pytest

from repro.compiler import compile_source
from repro.decompile import decompile
from repro.decompile.decompiler import DecompilationOptions
from repro.decompile.interp import CdfgInterpreter
from repro.decompile.microop import Opcode
from repro.sim import run_executable

from tests.sim.test_differential import random_program

SEEDS = range(24)
#: seeds also run at every opt level: straight loops, a switch, and the
#: generator's largest program in this range
ALL_LEVEL_SEEDS = (0, 1, 20)

CASES = sorted(
    {(seed, seed % 4) for seed in SEEDS}
    | {(seed, level) for seed in ALL_LEVEL_SEEDS for level in range(4)}
)


def _signed(value: int) -> int:
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


@pytest.mark.parametrize("seed,level", CASES, ids=lambda v: str(v))
def test_recovered_cdfg_matches_simulator(seed, level):
    source = random_program(seed)
    where = f"seed={seed} -O{level}\n{source}"
    exe = compile_source(source, opt_level=level)
    cpu, _ = run_executable(exe, max_steps=20_000_000)
    expected = cpu.read_word_global_signed("checksum")

    program = decompile(exe, DecompilationOptions(recover_jump_tables=True))
    assert program.recovered, f"{program.failures}\n{where}"
    interp = CdfgInterpreter(program)
    interp.run_main()
    got = _signed(interp.memory.read_u32(exe.symbols["checksum"].address))
    assert got == expected, f"CDFG checksum {got}, simulator {expected}\n{where}"

    dispatching = {
        name
        for name, func in program.functions.items()
        if any(op.opcode is Opcode.IJUMP for op in func.cfg.all_ops())
    }
    failures = decompile(exe).failures
    assert {f.function for f in failures} == dispatching, where
    assert all(f.reason == "indirect jump" for f in failures), where
    if dispatching:
        assert "switch" in source


def test_fuzz_range_covers_both_outcomes():
    # the seeds must keep exercising jump-table recovery as well as
    # programs the default flow recovers in full
    with_switch = [seed for seed in SEEDS if "switch" in random_program(seed)]
    assert 0 < len(with_switch) < len(SEEDS)

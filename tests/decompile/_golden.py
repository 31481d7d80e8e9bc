"""Digests of the decompiler's outputs, for the golden-file test.

The golden file pins, for every benchmark x opt level x pass configuration,
what the decompiler produced: per function a digest of its ``PassStats``,
of its final micro-op listing (with block ``succs``/``preds``), of its
control structure and natural loops, and of its loop footprints and
recovered unroll factors, plus the recovery failures.  Any change in
decompiler output -- including a pass that moves an op without changing a
statistic -- changes a digest.

Everything is rendered through ``str()``/plain values, never ``repr()`` of
the IR classes, so the digests survive a change of how locations or
operands are represented internally.

Regenerate (only when an output change is intended)::

    PYTHONPATH=src python -m tests.decompile._golden --write
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
from pathlib import Path

from repro.compiler import compile_source
from repro.decompile import decompile
from repro.decompile.decompiler import DecompilationOptions, DecompiledFunction
from repro.programs import ALL_BENCHMARKS

GOLDEN_PATH = Path(__file__).with_name("golden_decompile.json")

OPT_LEVELS = (0, 1, 2, 3)

CONFIGS: dict[str, DecompilationOptions] = {
    "default": DecompilationOptions(),
    "none": DecompilationOptions.none(),
    "jump_tables": DecompilationOptions(recover_jump_tables=True),
    "rounds1": DecompilationOptions(rounds=1),
}


def _digest(lines) -> str:
    text = "\n".join(str(line) for line in lines)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _render_op(op) -> str:
    return " ".join(
        str(part)
        for part in (
            op.opcode.value, op.dst, op.a, op.b, op.offset, op.size,
            op.signed, op.cond, op.target, op.pc, op.width, op.table_targets,
        )
    )


def function_digests(func: DecompiledFunction) -> dict[str, str]:
    cfg = func.cfg
    ops = []
    for block in cfg.blocks:
        ops.append(f"block {block.index} {block.start} {block.succs} {block.preds}")
        ops.extend(_render_op(op) for op in block.ops)
    structure = [
        f"loop {info.kind} {info.header_address} {info.blocks} "
        f"{info.loop.header} {sorted(info.loop.body)} {info.loop.latches}"
        for info in func.structure.loops
    ] + [
        f"branch {info.block} {info.address} {info.kind}"
        for info in func.structure.branches
    ] + [
        f"natural {loop.header} {loop.latches} {sorted(loop.body)} {loop.depth} "
        f"{[child.header for child in loop.children]}"
        for loop in func.loops
    ]
    footprints = [
        f"{address} {footprint.accesses}"
        for address, footprint in sorted(func.loop_footprints.items())
    ] + [f"reroll {sorted(cfg.reroll_factors.items())}"]
    return {
        "stats": _digest(dataclasses.astuple(func.stats)),
        "ops": _digest(ops),
        "structure": _digest(structure),
        "footprints": _digest(footprints),
    }


def case_record(exe, options: DecompilationOptions) -> dict:
    program = decompile(exe, options)
    return {
        "functions": {
            name: function_digests(func) for name, func in program.functions.items()
        },
        "failures": [
            [failure.function, failure.address, failure.reason]
            for failure in program.failures
        ],
    }


def case_key(benchmark: str, opt_level: int, config: str) -> str:
    return f"{benchmark}/O{opt_level}/{config}"


def generate() -> dict[str, dict]:
    records: dict[str, dict] = {}
    for bench in ALL_BENCHMARKS:
        for level in OPT_LEVELS:
            exe = compile_source(bench.source, opt_level=level)
            for config, options in CONFIGS.items():
                records[case_key(bench.name, level, config)] = case_record(exe, options)
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the golden file")
    args = parser.parse_args()
    records = generate()
    if args.write:
        GOLDEN_PATH.write_text(json.dumps(records, indent=0, sort_keys=True) + "\n")
        print(f"wrote {len(records)} cases to {GOLDEN_PATH}")
        return
    golden = json.loads(GOLDEN_PATH.read_text())
    bad = [key for key in records if records[key] != golden.get(key)]
    print(f"{len(records) - len(bad)}/{len(records)} cases match")
    for key in bad:
        print("  differs:", key)


if __name__ == "__main__":
    main()

"""Liveness-based dead code elimination for micro-op CFGs.

Removes pure operations whose results are never consumed: the residue of
constant propagation (dead CONST/MOVE chains, dead HI halves of multiplies,
dead address materializations).  Iterates with fresh liveness until stable.
"""

from __future__ import annotations

from repro.decompile.cfg import ControlFlowGraph, MicroBlock
from repro.decompile.dataflow import block_use_def, solve_liveness
from repro.decompile.microop import ALU_OPS, Loc, MicroOp, Opcode

_PURE = frozenset({Opcode.CONST, Opcode.MOVE, Opcode.LOAD}) | ALU_OPS


def eliminate_dead_code(cfg: ControlFlowGraph) -> int:
    """Remove dead pure ops; returns the number of ops deleted.

    Each round re-solves liveness from scratch (an incremental update from
    the old sets would keep values alive around loops), but only re-sweeps
    the blocks whose live-out set shrank: a block already swept under the
    same live-out set has nothing left to remove.  Block summaries are
    recomputed only for blocks that lost ops.
    """
    blocks = cfg.blocks
    use_defs = [block_use_def(block) for block in blocks]
    swept: list[set[Loc] | None] = [None] * len(blocks)
    removed_total = 0
    while True:
        _, live_out = solve_liveness(cfg, use_defs)
        removed = 0
        for block in blocks:
            out = live_out[block.index]
            if swept[block.index] == out:
                continue
            swept[block.index] = out
            dropped = _sweep(block, out)
            if dropped:
                use_defs[block.index] = block_use_def(block)
                removed += dropped
        removed_total += removed
        if removed == 0:
            return removed_total


def _sweep(block: MicroBlock, live_out: set[Loc]) -> int:
    """Drop the block's dead pure ops under *live_out*; returns how many."""
    live: set[Loc] = set(live_out)
    kept_reversed: list[MicroOp] = []
    for op in reversed(block.ops):
        if op.opcode in _PURE and op.dst is not None and op.dst not in live:
            continue
        for loc in op.defs():
            live.discard(loc)
        live.update(op.uses())
        kept_reversed.append(op)
    dropped = len(block.ops) - len(kept_reversed)
    if dropped:
        block.ops = kept_reversed[::-1]
    return dropped

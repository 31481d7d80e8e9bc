"""Dataflow constant propagation over a micro-op CFG.

The paper singles this pass out: instruction sets force compilers to encode
register moves as "arithmetic instructions with an immediate value of zero";
synthesizing that arithmetic operator would waste area, so constant
propagation recognizes and removes the overhead.  Concretely this pass:

* tracks register constancy through the CFG (classic kill/gen lattice:
  UNDEF above, NAC below, constants in between; R0 is the constant 0),
* replaces constant register operands with immediates (this is what turns
  ``or rd, rs, r0`` and lui/ori address pairs into constants),
* folds fully-constant ALU ops into CONST,
* simplifies identities (``add x, #0`` -> MOVE and friends),
* folds always/never-taken branches, updating CFG edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro import obs
from repro.compiler.passes.constfold import fold_ir_binop
from repro.decompile.cfg import ControlFlowGraph, MicroBlock
from repro.decompile.microop import (
    ALU_OPS,
    Imm,
    Loc,
    MicroOp,
    Opcode,
    ZERO,
)
from repro.utils import to_signed32

# lattice: UNDEF (top: a block no path has reached) / int constant /
# NAC (bottom, and what a reached state's missing location means)
_NAC = object()

#: micro-op opcode -> compiler-IR op name (reuses the shared folder so the
#: decompiler always agrees with the simulator and the compiler)
_FOLD_NAME = {
    Opcode.ADD: "add", Opcode.SUB: "sub", Opcode.MUL: "mul",
    Opcode.DIV: "div", Opcode.DIVU: "divu", Opcode.REM: "rem", Opcode.REMU: "remu",
    Opcode.AND: "and", Opcode.OR: "or", Opcode.XOR: "xor",
    Opcode.SHL: "shl", Opcode.SHR: "shr", Opcode.SAR: "sar",
    Opcode.LT: "lt", Opcode.LTU: "ltu",
}

_COND_FOLD = {
    "eq": "eq", "ne": "ne", "lt": "lt", "le": "le", "gt": "gt", "ge": "ge",
    "ltu": "ltu", "leu": "leu", "gtu": "gtu", "geu": "geu",
}


@dataclass
class ConstPropStats:
    moves_recovered: int = 0      # arithmetic-with-zero -> MOVE
    operands_immediated: int = 0  # register operand replaced by constant
    ops_folded: int = 0           # ALU op replaced by CONST
    branches_folded: int = 0
    #: ops replaced or deleted -- the change signal.  The counters above
    #: miss some rewrites (``MOVE x, #c`` -> ``CONST``), so it is its own.
    ops_rewritten: int = 0

    @property
    def total(self) -> int:
        return (
            self.moves_recovered
            + self.operands_immediated
            + self.ops_folded
            + self.branches_folded
        )


def _fold(opcode: Opcode, a, b):
    """Lattice value of ALU *opcode* on operand values *a*, *b*."""
    if isinstance(a, int) and isinstance(b, int):
        name = _FOLD_NAME.get(opcode)
        if name is not None:
            folded = fold_ir_binop(name, a, b)
            return folded if folded is not None else _NAC
        if opcode is Opcode.NOR:
            return to_signed32(~(a | b))
    return _NAC


class _BlockTransfer:
    """One block's transfer function, compiled once per solve.

    Replaying every op on every visit is wasteful: most definitions do not
    depend on the block's entry state at all (constants, loads, calls).
    Those are folded here into ``fixed``.  Only the ALU ops that read an
    entry value are kept, as ``steps`` over a value array laid out as::

        consts + [in_state[loc] for loc in inputs] + one result per step

    ``live`` maps each location whose last definition depends on the entry
    state (a step, or a copy of an entry value) to its slot in the array,
    and ``reads[i]`` holds the slots of op *i*'s ``a``/``b`` operands (None
    for no operand), so the rewrite reads every operand's value off one
    evaluation instead of replaying the block.

    A location missing from the entry state reads as NAC: entry values
    are unknown.
    """

    __slots__ = ("fixed", "live", "consts", "inputs", "steps", "reads")

    def __init__(self, block: MicroBlock):
        self.consts: list[object] = []
        self.inputs: list[Loc] = []
        # a value reference: ("c", lattice value) when known here, or
        # ("i", entry-read index) / ("s", step index) when computed later
        current: dict[Loc, tuple] = {}
        pending: list[tuple] = []  # (ALU opcode, reference, reference)
        reads: list[tuple] = []
        live_defs: dict[Loc, tuple] = {}

        def ref(operand) -> tuple | None:
            if operand is None:
                return None
            if isinstance(operand, Imm):
                return ("c", to_signed32(operand.value))
            if operand == ZERO:
                return ("c", 0)
            value = current.get(operand)
            if value is None:
                value = current[operand] = ("i", len(self.inputs))
                self.inputs.append(operand)
            return value

        for op in block.ops:
            code = op.opcode
            a, b = ref(op.a), ref(op.b)
            reads.append((a, b))
            if code is Opcode.CONST:
                value = ("c", to_signed32(op.a.value))
            elif code is Opcode.MOVE:
                value = a  # a copy needs no step of its own
            elif code in ALU_OPS:
                if a[0] == "c" and b[0] == "c":
                    value = ("c", _fold(code, a[1], b[1]))
                elif a == ("c", _NAC) or b == ("c", _NAC):
                    value = ("c", _NAC)
                else:
                    pending.append((code, a, b))
                    value = ("s", len(pending) - 1)
            else:
                for loc in op.defs():
                    current[loc] = live_defs[loc] = ("c", _NAC)
                continue
            current[op.dst] = live_defs[op.dst] = value

        def pooled(value: tuple | None) -> tuple | None:
            # a constant read at run time gets a slot in the pool
            if value is None or value[0] != "c":
                return value
            self.consts.append(value[1])
            return ("k", len(self.consts) - 1)

        pending = [(code, pooled(a), pooled(b)) for code, a, b in pending]
        reads = [(pooled(a), pooled(b)) for a, b in reads]
        base = {"k": 0, "i": len(self.consts), "s": len(self.consts) + len(self.inputs)}

        def slot(value: tuple | None) -> int | None:
            return None if value is None else base[value[0]] + value[1]

        self.steps = [(code, slot(a), slot(b)) for code, a, b in pending]
        self.reads = [(slot(a), slot(b)) for a, b in reads]
        self.fixed = {
            loc: value[1] for loc, value in live_defs.items() if value[0] == "c"
        }
        self.live = {
            loc: slot(value) for loc, value in live_defs.items() if value[0] != "c"
        }

    def evaluate(self, in_state: dict[Loc, object]) -> list[object]:
        """The block's value array for entry state *in_state*."""
        values = self.consts + [in_state.get(loc, _NAC) for loc in self.inputs]
        for code, a, b in self.steps:
            values.append(_fold(code, values[a], values[b]))
        return values

    def apply(self, in_state: dict[Loc, object]) -> dict[Loc, object]:
        """The block's exit state for entry state *in_state*."""
        out = dict(in_state)
        out.update(self.fixed)
        if self.live:
            values = self.evaluate(in_state)
            for loc, slot in self.live.items():
                out[loc] = values[slot]
        return out


def _merge_into(target: dict[Loc, object], out: dict[Loc, object]) -> bool:
    """Meet a predecessor's exit state *out* into the entry state *target*.

    An empty *target* is a block no merge has reached yet (UNDEF
    everywhere): it takes *out* as it is.  Once reached, a location
    missing from *target* is NAC, like one missing from *out* -- the
    function entry leaves every location but R0 missing, and a value the
    caller passed in must not meet a constant from another path as that
    constant.  Only the entries that differ are visited: set differences
    over the dict views find them without a Python loop.  Returns whether
    *target* changed.
    """
    if out == target:
        return False
    if not target:
        target.update(out)
        return True
    changed = False
    for key, _ in out.items() - target.items():
        if target.get(key, _NAC) is not _NAC:
            target[key] = _NAC
            changed = True
    for key in target.keys() - out.keys():
        if target[key] is not _NAC:
            target[key] = _NAC
            changed = True
    return changed


def _solve(
    cfg: ControlFlowGraph, transfers: list[_BlockTransfer]
) -> list[dict[Loc, object]]:
    """Fixpoint constant states at block entry.

    A FIFO worklist: every block is visited once, then again whenever its
    entry state changes.  It terminates without a visit cap: each merge
    only moves an entry (location, value) down the lattice UNDEF ->
    constant -> NAC (two constants meet to NAC), so each block's entry
    state changes at most twice per location, and each change queues at
    most one visit.
    """
    obs.counter("decompile.constprop_solves_total").inc()
    blocks = cfg.blocks
    in_states: list[dict[Loc, object]] = [{} for _ in blocks]
    # entry: everything unknown (NAC) except the hardwired zero register
    in_states[cfg.block_by_start[cfg.entry]] = {ZERO: 0}
    work = deque(range(len(blocks)))
    queued = set(work)
    while work:
        index = work.popleft()
        queued.discard(index)
        out = transfers[index].apply(in_states[index])
        for succ in blocks[index].succs:
            if _merge_into(in_states[succ], out) and succ not in queued:
                work.append(succ)
                queued.add(succ)
    return in_states


def propagate_constants(cfg: ControlFlowGraph) -> ConstPropStats:
    """Run constant propagation and rewrite *cfg* in place."""
    stats = ConstPropStats()
    transfers = [_BlockTransfer(block) for block in cfg.blocks]
    in_states = _solve(cfg, transfers)

    for block, transfer in zip(cfg.blocks, transfers):
        values = transfer.evaluate(in_states[block.index])

        def const_of(slot):
            if slot is None:
                return None
            value = values[slot]
            return value if isinstance(value, int) else None

        new_ops: list[MicroOp] = []
        for op, (slot_a, slot_b) in zip(block.ops, transfer.reads):
            rewritten = op
            if op.opcode in ALU_OPS or op.opcode is Opcode.MOVE:
                # substitute constant register operands with immediates
                changed = False
                a, b = op.a, op.b
                if isinstance(a, Loc) and a != ZERO and const_of(slot_a) is not None:
                    a = Imm(const_of(slot_a) & 0xFFFF_FFFF)
                    changed = True
                if isinstance(b, Loc) and b != ZERO and const_of(slot_b) is not None:
                    b = Imm(const_of(slot_b) & 0xFFFF_FFFF)
                    changed = True
                if changed:
                    rewritten = op.clone(a=a, b=b)
                    stats.operands_immediated += 1
                rewritten = self_simplify(rewritten, stats)
            elif op.opcode is Opcode.LOAD and isinstance(op.a, Loc):
                base_const = const_of(slot_a)
                if base_const is not None and op.a != ZERO:
                    # absolute-address load: keep base as immediate 0 + offset
                    rewritten = op.clone(a=Imm(0), offset=op.offset + base_const)
                    stats.operands_immediated += 1
            elif op.opcode is Opcode.STORE:
                base_const = const_of(slot_b)
                if base_const is not None and isinstance(op.b, Loc) and op.b != ZERO:
                    rewritten = op.clone(b=Imm(0), offset=op.offset + base_const)
                    stats.operands_immediated += 1
                value_const = const_of(slot_a)
                if value_const is not None and isinstance(op.a, Loc) and op.a != ZERO:
                    rewritten = rewritten.clone(a=Imm(value_const & 0xFFFF_FFFF))
                    stats.operands_immediated += 1
            elif op.opcode is Opcode.BRANCH:
                a, b = const_of(slot_a), const_of(slot_b)
                if a is not None and b is not None:
                    taken = fold_ir_binop(_COND_FOLD[op.cond], a, b)
                    stats.branches_folded += 1
                    if taken:
                        rewritten = MicroOp(Opcode.JUMP, target=op.target, pc=op.pc)
                        _retarget(cfg, block, [_succ_of_target(cfg, op.target)])
                    else:
                        rewritten = None
                        fall = [s for s in block.succs if cfg.blocks[s].start != op.target]
                        _retarget(cfg, block, fall[:1] or block.succs[:1])
            if rewritten is not op:
                stats.ops_rewritten += 1
            if rewritten is not None:
                new_ops.append(rewritten)
        block.ops = new_ops
    return stats


def self_simplify(op: MicroOp, stats: ConstPropStats) -> MicroOp:
    """Identity simplification on one (possibly immediated) ALU op."""
    if op.opcode is Opcode.MOVE:
        if isinstance(op.a, Imm):
            return MicroOp(Opcode.CONST, dst=op.dst, a=op.a, pc=op.pc)
        if op.a == ZERO:
            return MicroOp(Opcode.CONST, dst=op.dst, a=Imm(0), pc=op.pc)
        return op
    a_imm = op.a.value if isinstance(op.a, Imm) else None
    b_imm = op.b.value if isinstance(op.b, Imm) else None
    if op.a == ZERO:
        a_imm = 0
    if op.b == ZERO:
        b_imm = 0

    # fully constant -> CONST
    if a_imm is not None and b_imm is not None and op.opcode in _FOLD_NAME:
        folded = fold_ir_binop(
            _FOLD_NAME[op.opcode], to_signed32(a_imm), to_signed32(b_imm)
        )
        if folded is not None:
            stats.ops_folded += 1
            return MicroOp(Opcode.CONST, dst=op.dst, a=Imm(folded & 0xFFFF_FFFF), pc=op.pc)
    if op.opcode is Opcode.NOR and a_imm is not None and b_imm is not None:
        stats.ops_folded += 1
        return MicroOp(
            Opcode.CONST, dst=op.dst, a=Imm(~(a_imm | b_imm) & 0xFFFF_FFFF), pc=op.pc
        )

    # the register-move idioms: arithmetic with zero immediate
    if b_imm == 0 and op.opcode in (
        Opcode.ADD, Opcode.SUB, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.SAR
    ):
        stats.moves_recovered += 1
        source = op.a if isinstance(op.a, Loc) else Imm(a_imm & 0xFFFF_FFFF)
        if isinstance(source, Imm):
            return MicroOp(Opcode.CONST, dst=op.dst, a=source, pc=op.pc)
        return MicroOp(Opcode.MOVE, dst=op.dst, a=source, pc=op.pc)
    if a_imm == 0 and op.opcode in (Opcode.ADD, Opcode.OR, Opcode.XOR) and isinstance(op.b, Loc):
        stats.moves_recovered += 1
        return MicroOp(Opcode.MOVE, dst=op.dst, a=op.b, pc=op.pc)
    # x & 0 / x * 0 -> 0
    if (a_imm == 0 or b_imm == 0) and op.opcode in (Opcode.AND, Opcode.MUL):
        stats.ops_folded += 1
        return MicroOp(Opcode.CONST, dst=op.dst, a=Imm(0), pc=op.pc)
    # x * 1 -> move
    if op.opcode is Opcode.MUL and (b_imm == 1 or a_imm == 1):
        stats.moves_recovered += 1
        source = op.a if b_imm == 1 else op.b
        if isinstance(source, Loc):
            return MicroOp(Opcode.MOVE, dst=op.dst, a=source, pc=op.pc)
    return op


def _succ_of_target(cfg: ControlFlowGraph, target: int) -> int:
    return cfg.block_by_start[target]


def _retarget(cfg: ControlFlowGraph, block: MicroBlock, new_succs: list[int]) -> None:
    for old in block.succs:
        if old not in new_succs:
            cfg.blocks[old].preds = [p for p in cfg.blocks[old].preds if p != block.index]
    for new in new_succs:
        if new not in block.succs:
            cfg.blocks[new].preds.append(block.index)
    block.succs = list(new_succs)

"""Decompilation pass tests: each pass removes what the paper says it
removes, and the CDFG interpreter confirms semantics after every pass."""

import pytest

from repro.compiler import compile_source, CompilerOptions
from repro.decompile import decompile
from repro.decompile.decompiler import DecompilationOptions
from repro.decompile.cfg import build_cfg
from repro.decompile.interp import CdfgInterpreter
from repro.decompile.microop import (
    ARG_LOCS, REGS, Imm, MicroOp, Opcode, ZERO, slot_loc,
)
from repro.decompile.passes import constprop, propagate_constants, reroll_loops
from repro.sim import run_executable


def _decompiled(source: str, opt_level: int = 1, options=None):
    exe = compile_source(source, opt_level=opt_level)
    program = decompile(exe, options)
    assert program.recovered, program.failures
    return exe, program


def _equivalent(exe, program, symbol="checksum"):
    cpu, _ = run_executable(exe)
    expected = cpu.read_word_global_signed(symbol)
    interp = CdfgInterpreter(program)
    interp.run_main()
    value = interp.memory.read_u32(exe.symbols[symbol].address)
    value = value - 0x1_0000_0000 if value & 0x8000_0000 else value
    assert value == expected, f"decompiled {value} != simulated {expected}"


class TestConstantPropagation:
    def test_removes_register_move_idiom(self):
        # a chain of moves (addiu rd, rs, 0) collapses to nothing
        source = """
        int checksum;
        int pass_through(int x) { int a = x; int b = a; int c = b; return c; }
        int main(void) { checksum = pass_through(42); return 0; }
        """
        exe, program = _decompiled(source)
        stats = program.total_stats()
        assert stats.moves_recovered > 0
        assert stats.final_ops < stats.lifted_ops
        _equivalent(exe, program)

    def test_address_materialization_folds_to_absolute(self):
        source = """
        int g;
        int checksum;
        int main(void) { g = 7; checksum = g; return 0; }
        """
        exe, program = _decompiled(source)
        main_cfg = program.functions["main"].cfg
        # lui/ori pairs became absolute-addressed loads/stores (Imm base)
        stores = [
            op for op in main_cfg.all_ops() if op.opcode is Opcode.STORE
        ]
        assert stores and all(isinstance(op.b, Imm) for op in stores)
        _equivalent(exe, program)

    def test_folds_constant_branches_dead_code(self):
        source = """
        int checksum;
        int main(void) {
            if (3 > 5) checksum = 111;
            else checksum = 222;
            return 0;
        }
        """
        exe, program = _decompiled(source, opt_level=0)  # keep the branch in the binary
        _equivalent(exe, program)

    def test_solver_reaches_fixpoint_without_a_visit_cap(self):
        # a loop that loses one constant per iteration: its body copies a
        # chain of N slots down by one (S_k = S_{k-1}, highest first) and
        # bumps S_1, so NAC walks down the chain one visit at a time.  The
        # fixpoint takes about 2N visits over 3 blocks; a solver capped at
        # 50 visits per block stops early with S_N still "constant 5" at
        # the exit and folds the store to #5.
        n = 120
        slots = [slot_loc(4 * k) for k in range(n + 1)]
        ops = [MicroOp(Opcode.CONST, dst=slots[k], a=Imm(5)) for k in range(1, n + 1)]
        ops += [MicroOp(Opcode.MOVE, dst=slots[k], a=slots[k - 1]) for k in range(n, 1, -1)]
        ops.append(MicroOp(Opcode.ADD, dst=slots[1], a=slots[1], b=Imm(1)))
        loop = 0x1000 + 4 * n
        ops.append(MicroOp(Opcode.BRANCH, a=ARG_LOCS[0], b=ZERO, cond="ne", target=loop))
        ops.append(MicroOp(Opcode.STORE, a=slots[n], b=ZERO, offset=0x100))
        ops.append(MicroOp(Opcode.HALT))
        for index, op in enumerate(ops):
            op.pc = 0x1000 + 4 * index
        cfg = build_cfg(ops, 0x1000)
        assert len(cfg.blocks) == 3

        in_states = constprop._solve(cfg, [constprop._BlockTransfer(b) for b in cfg.blocks])
        # a true fixpoint: merging any edge again changes nothing
        for block in cfg.blocks:
            out = constprop._BlockTransfer(block).apply(in_states[block.index])
            for succ in block.succs:
                assert not constprop._merge_into(dict(in_states[succ]), out)

        propagate_constants(cfg)
        store = next(op for op in cfg.all_ops() if op.opcode is Opcode.STORE)
        assert store.a == slots[n], "the loop-carried slot is not a constant"

    def test_caller_value_does_not_meet_a_constant_as_that_constant(self):
        # R8 comes from the caller on the taken path and is 5 on the
        # other: at the join it is unknown, so the store keeps R8
        r4, r8 = ARG_LOCS[0], REGS[8]
        ops = [
            MicroOp(Opcode.BRANCH, a=r4, b=ZERO, cond="eq", target=0x108),
            MicroOp(Opcode.CONST, dst=r8, a=Imm(5)),
            MicroOp(Opcode.STORE, a=r8, b=ZERO, offset=0x100),
            MicroOp(Opcode.HALT),
        ]
        for index, op in enumerate(ops):
            op.pc = 0x100 + 4 * index
        cfg = build_cfg(ops, 0x100)
        propagate_constants(cfg)
        store = next(op for op in cfg.all_ops() if op.opcode is Opcode.STORE)
        assert store.a == r8


class TestStackRemoval:
    def test_O0_frame_traffic_becomes_moves(self):
        source = """
        int checksum;
        int main(void) {
            int a = 1; int b = 2; int c = 3; int d = 4;
            checksum = a + b * c - d;
            return 0;
        }
        """
        exe, program = _decompiled(source, opt_level=0)
        stats = program.total_stats()
        assert stats.stack_ops_removed > 4
        main_cfg = program.functions["main"].cfg
        sp_loads = [
            op
            for op in main_cfg.all_ops()
            if op.opcode is Opcode.LOAD and getattr(op.a, "name", "") == "R29"
        ]
        assert not sp_loads  # every frame access was promoted
        _equivalent(exe, program)

    def test_local_array_blocks_promotion(self):
        source = """
        int checksum;
        int main(void) {
            int a[4];
            int i;
            for (i = 0; i < 4; i++) a[i] = i * 3;
            checksum = a[2];
            return 0;
        }
        """
        exe, program = _decompiled(source, opt_level=1)
        # frame escapes via the array's address: function left untouched
        stats = program.total_stats()
        _equivalent(exe, program)

    def test_recursion_with_promoted_slots(self):
        source = """
        int checksum;
        int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
        int main(void) { checksum = fib(12); return 0; }
        """
        exe, program = _decompiled(source, opt_level=1)
        _equivalent(exe, program)  # per-frame slots keep recursion correct


class TestStrengthPromotion:
    _SOURCE = """
    int checksum;
    int scale(int x) { return x * 58; }
    int main(void) { checksum = scale(13); return 0; }
    """

    def test_recovers_multiplication_from_o2_shifts(self):
        exe, program = _decompiled(self._SOURCE, opt_level=2)
        stats = program.total_stats()
        assert stats.muls_promoted >= 1
        muls = [
            op
            for op in program.functions["scale"].cfg.all_ops()
            if op.opcode is Opcode.MUL and isinstance(op.b, Imm)
        ]
        assert any((op.b.value & 0xFFFFFFFF) == 58 for op in muls)
        _equivalent(exe, program)

    def test_no_promotion_without_pass(self):
        options = DecompilationOptions(strength_promotion=False)
        exe = compile_source(self._SOURCE, opt_level=2)
        program = decompile(exe, options)
        assert program.total_stats().muls_promoted == 0

    def test_promotion_handles_offset_bases(self):
        # (i+1)*7 pattern: holder carries coeff 1 const 1
        source = """
        int out[16];
        int checksum;
        int main(void) {
            int i;
            for (i = 0; i < 15; i++) out[i] = (i + 1) * 7;
            checksum = out[14];
            return 0;
        }
        """
        exe, program = _decompiled(source, opt_level=2)
        _equivalent(exe, program)


class TestLoopRerolling:
    _SOURCE = """
    int data[64];
    int out[64];
    int checksum;
    int main(void) {
        int i;
        for (i = 0; i < 64; i++) data[i] = i * 3 + 1;
        for (i = 0; i < 60; i++) out[i] = data[i] * 5;
        for (i = 0; i < 60; i++) checksum += out[i];
        return 0;
    }
    """

    def test_reports_canonicalization_without_a_reroll(self):
        # a rotating copy in a loop that is not unrolled: the pass rewrites
        # the latch (r10 = r9 + 1; r9 = r10  ->  r9 = r9 + 1) but rerolls
        # nothing, and must still report that it changed the CFG
        r4, r9, r10 = REGS[4], REGS[9], REGS[10]
        ops = [
            MicroOp(Opcode.BRANCH, a=r9, b=r4, cond="ge", target=0x110),
            MicroOp(Opcode.ADD, dst=r10, a=r9, b=Imm(1)),
            MicroOp(Opcode.MOVE, dst=r9, a=r10),
            MicroOp(Opcode.JUMP, target=0x100),
            MicroOp(Opcode.HALT),
        ]
        for index, op in enumerate(ops):
            op.pc = 0x100 + 4 * index
        cfg = build_cfg(ops, 0x100)
        stats = reroll_loops(cfg)
        assert stats.loops_rerolled == 0
        assert stats.rotations_canonicalized == 1 and stats.changed
        latch = cfg.blocks[1]
        assert [str(op) for op in latch.ops] == ["R9 = add R9, #1", "goto 0x100"]

    def test_rerolls_O3_loops(self):
        exe, program = _decompiled(self._SOURCE, opt_level=3)
        stats = program.total_stats()
        assert stats.loops_rerolled >= 2
        factors = program.functions["main"].cfg.reroll_factors
        assert all(f == 4 for f in factors.values())
        _equivalent(exe, program)

    def test_no_reroll_at_O1(self):
        exe, program = _decompiled(self._SOURCE, opt_level=1)
        assert program.total_stats().loops_rerolled == 0
        _equivalent(exe, program)

    def test_reroll_shrinks_op_count(self):
        exe = compile_source(self._SOURCE, opt_level=3)
        with_reroll = decompile(exe)
        without = decompile(exe, DecompilationOptions(loop_rerolling=False))
        assert (
            with_reroll.total_stats().final_ops
            < without.total_stats().final_ops
        )

    def test_canonicalization_alone_is_safe(self):
        # accumulator loops at O3 exercise the rotation-collapse rewrites
        source = """
        int vals[40];
        int checksum;
        int main(void) {
            int i; int acc = 0; int prod = 1;
            for (i = 0; i < 40; i++) vals[i] = i + 1;
            for (i = 0; i < 36; i++) { acc += vals[i]; }
            for (i = 0; i < 8; i++) { prod *= vals[i]; }
            checksum = acc * 1000 + (prod & 1023);
            return 0;
        }
        """
        exe, program = _decompiled(source, opt_level=3)
        _equivalent(exe, program)


class TestSizeReduction:
    def test_narrow_widths_annotated(self):
        source = """
        unsigned char bytes[16];
        int checksum;
        int main(void) {
            int i;
            for (i = 0; i < 16; i++) bytes[i] = (unsigned char)(i * 3);
            for (i = 0; i < 16; i++) checksum += bytes[i] & 15;
            return 0;
        }
        """
        exe, program = _decompiled(source)
        stats = program.total_stats()
        assert stats.ops_narrowed > 0
        assert stats.bits_saved > 0

    def test_width_annotation_bounds(self):
        source = "int checksum; int main(void) { checksum = 3 & 1; return 0; }"
        _, program = _decompiled(source)
        for func in program.functions.values():
            for op in func.cfg.all_ops():
                assert 1 <= op.width <= 32


class TestPipelineOrdering:
    def test_full_pipeline_equivalence_across_levels(self):
        source = """
        int table[32];
        int checksum;
        int hash_mix(int v) {
            v = v * 37 + 11;
            v ^= v >> 7;
            return v;
        }
        int main(void) {
            int i;
            for (i = 0; i < 32; i++) table[i] = hash_mix(i);
            for (i = 0; i < 32; i++) checksum ^= table[i];
            return 0;
        }
        """
        for level in (0, 1, 2, 3):
            exe, program = _decompiled(source, opt_level=level)
            _equivalent(exe, program)

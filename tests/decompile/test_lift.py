"""Lifting tests: MIPS instructions -> ISA-independent micro-ops."""

import pickle

import pytest

from repro.errors import DecompilationError
from repro.isa import Instruction
from repro.decompile.lift import lift_instruction
from repro.decompile.microop import HI, Imm, LO, Loc, Opcode, REGS, slot_loc


class TestAluLift:
    def test_addu(self):
        ops = lift_instruction(Instruction("addu", rd=3, rs=4, rt=5), pc=0x400000)
        assert len(ops) == 1
        op = ops[0]
        assert op.opcode is Opcode.ADD
        assert op.dst == REGS[3] and op.a == REGS[4] and op.b == REGS[5]
        assert op.pc == 0x400000

    def test_addiu_zero_not_special_cased(self):
        # the move idiom must survive lifting untouched (paper: recognizing
        # it is constant propagation's job, not the parser's)
        ops = lift_instruction(Instruction("addiu", rt=8, rs=9, imm=0), pc=0)
        assert ops[0].opcode is Opcode.ADD
        assert ops[0].b == Imm(0)

    def test_lui_becomes_const(self):
        ops = lift_instruction(Instruction("lui", rt=8, imm=0x1001), pc=0)
        assert ops[0].opcode is Opcode.CONST
        assert ops[0].a == Imm(0x1001_0000)

    def test_shift_immediate(self):
        ops = lift_instruction(Instruction("sll", rd=2, rt=3, shamt=4), pc=0)
        assert ops[0].opcode is Opcode.SHL
        assert ops[0].b == Imm(4)

    def test_variable_shift_operand_order(self):
        ops = lift_instruction(Instruction("srav", rd=2, rt=3, rs=4), pc=0)
        op = ops[0]
        assert op.a == REGS[3]  # value
        assert op.b == REGS[4]  # amount


class TestMemoryLift:
    def test_lw(self):
        ops = lift_instruction(Instruction("lw", rt=8, rs=29, imm=-4), pc=0)
        op = ops[0]
        assert op.opcode is Opcode.LOAD
        assert (op.size, op.signed, op.offset) == (4, True, -4)

    def test_lbu(self):
        ops = lift_instruction(Instruction("lbu", rt=8, rs=9, imm=3), pc=0)
        assert (ops[0].size, ops[0].signed) == (1, False)

    def test_sh(self):
        ops = lift_instruction(Instruction("sh", rt=8, rs=9, imm=2), pc=0)
        op = ops[0]
        assert op.opcode is Opcode.STORE
        assert op.size == 2
        assert op.a == REGS[8] and op.b == REGS[9]


class TestControlLift:
    def test_beq_target(self):
        ops = lift_instruction(Instruction("beq", rs=1, rt=2, imm=3), pc=0x400000)
        op = ops[0]
        assert op.opcode is Opcode.BRANCH
        assert op.cond == "eq"
        assert op.target == 0x400000 + 4 + 12

    def test_blez_zero_compare(self):
        ops = lift_instruction(Instruction("blez", rs=5, imm=-1), pc=0x40)
        assert ops[0].cond == "le"
        assert ops[0].b == Imm(0)

    def test_jr_ra_is_return(self):
        ops = lift_instruction(Instruction("jr", rs=31), pc=0)
        assert ops[0].opcode is Opcode.RETURN

    def test_jr_other_is_indirect_jump(self):
        ops = lift_instruction(Instruction("jr", rs=25), pc=0)
        assert ops[0].opcode is Opcode.IJUMP

    def test_jalr_is_indirect(self):
        ops = lift_instruction(Instruction("jalr", rd=31, rs=25), pc=0)
        assert ops[0].opcode is Opcode.IJUMP

    def test_jal_is_call(self):
        ops = lift_instruction(Instruction("jal", target=0x100), pc=0x0)
        assert ops[0].opcode is Opcode.CALL
        assert ops[0].target == 0x400


class TestMultDivLift:
    def test_mult_produces_lo_and_hi(self):
        ops = lift_instruction(Instruction("mult", rs=4, rt=5), pc=0x40)
        assert [op.opcode for op in ops] == [Opcode.MUL, Opcode.MULHI]
        assert ops[0].dst == LO and ops[1].dst == HI
        assert all(op.pc == 0x40 for op in ops)

    def test_div_produces_quotient_and_remainder(self):
        ops = lift_instruction(Instruction("div", rs=4, rt=5), pc=0)
        assert [op.opcode for op in ops] == [Opcode.DIV, Opcode.REM]

    def test_mfhi(self):
        ops = lift_instruction(Instruction("mfhi", rd=2), pc=0)
        assert ops[0].opcode is Opcode.MOVE
        assert ops[0].a == HI


class TestCallContract:
    def test_call_clobbers_and_uses(self):
        ops = lift_instruction(Instruction("jal", target=0x100), pc=0)
        call = ops[0]
        defs = set(call.defs())
        assert REGS[2] in defs  # $v0
        assert REGS[8] in defs  # $t0
        assert REGS[16] not in defs  # $s0 preserved
        uses = set(call.uses())
        assert REGS[4] in uses  # $a0

    def test_syscall_rejected(self):
        with pytest.raises(DecompilationError):
            lift_instruction(Instruction("syscall"), pc=0)


class TestLocations:
    def test_one_object_per_name(self):
        assert Loc("R4") is REGS[4]
        assert slot_loc(8) is Loc("S8")
        assert str(REGS[4]) == REGS[4].name == "R4"
        assert repr(HI) == "Loc(name='HI')"

    def test_pickle_keeps_identity(self):
        # the flow cache and the process pool ship programs by pickle; a
        # location must come back as the same interned object
        for loc in (REGS[29], LO, slot_loc(12)):
            assert pickle.loads(pickle.dumps(loc)) is loc

    def test_locations_and_immediates_never_equal(self):
        assert REGS[0] != Imm(0)
        assert Imm(0) != REGS[0]
        assert REGS[0] in {REGS[0]} and Imm(0) not in {REGS[0]}

"""Instruction-set independent micro-operations.

The first decompilation stage (paper section 2: "binary parsing converts the
software binary into an instruction set independent representation").  Each
MIPS instruction lifts to one or two micro-ops over symbolic *locations*:

* ``R0``..``R31`` -- architectural registers,
* ``HI`` / ``LO`` -- multiply/divide results,
* ``S<n>`` -- virtual stack-slot locations introduced by stack operation
  removal (they behave exactly like extra registers afterwards).

Micro-ops use at most two source operands, each a location or an immediate.
This keeps the DFG construction and all optimization passes ISA-neutral:
nothing downstream of :mod:`lift` knows it was MIPS.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum


# ---------------------------------------------------------------------------
# locations and operands
# ---------------------------------------------------------------------------


class Loc(str):
    """A storage location (register, HI/LO, or virtual slot).

    Every pass keys dicts and sets by location, so a location is its own
    name: a ``str`` whose hash CPython computes once and caches.  Each name
    has exactly one ``Loc`` object (``Loc("R4") is Loc("R4")``), also
    after unpickling in another process.
    """

    _interned: dict[str, "Loc"] = {}

    def __new__(cls, name: str) -> "Loc":
        loc = cls._interned.get(name)
        if loc is None:
            loc = super().__new__(cls, name)
            loc.name = str(name)
            cls._interned[loc.name] = loc
        return loc

    def __reduce__(self):
        return Loc, (self.name,)

    def __repr__(self) -> str:
        return f"Loc(name={self.name!r})"


REGS: tuple[Loc, ...] = tuple(Loc(f"R{i}") for i in range(32))
HI = Loc("HI")
LO = Loc("LO")
ZERO = REGS[0]
SP = REGS[29]
RA = REGS[31]
V0 = REGS[2]
V1 = REGS[3]
ARG_LOCS: tuple[Loc, ...] = (REGS[4], REGS[5], REGS[6], REGS[7])
#: registers a call may clobber (caller-saved + results + arguments)
CALL_CLOBBERED: tuple[Loc, ...] = (
    REGS[1], REGS[2], REGS[3], REGS[4], REGS[5], REGS[6], REGS[7],
    REGS[8], REGS[9], REGS[10], REGS[11], REGS[12], REGS[13], REGS[14], REGS[15],
    REGS[24], REGS[25], REGS[31], HI, LO,
)
#: registers preserved across calls (callee-saved + stack pointers)
CALL_PRESERVED: tuple[Loc, ...] = (
    REGS[16], REGS[17], REGS[18], REGS[19],
    REGS[20], REGS[21], REGS[22], REGS[23],
    REGS[28], REGS[29], REGS[30],
)


def slot_loc(offset: int) -> Loc:
    """Virtual location for the frame slot at sp+offset (after stack removal)."""
    return Loc(f"S{offset}")


@dataclass(frozen=True)
class Imm:
    """Immediate operand."""

    value: int

    def __str__(self) -> str:
        return f"#{self.value}"


Operand = Loc | Imm


# ---------------------------------------------------------------------------
# opcodes
# ---------------------------------------------------------------------------


class Opcode(Enum):
    """ISA-independent operation kinds."""

    # members are singletons compared by identity; the C-level identity
    # hash keeps opcode set lookups (``op.opcode in ALU_OPS``) off the
    # Python-level ``Enum.__hash__``
    __hash__ = object.__hash__

    CONST = "const"      # dst = imm32
    MOVE = "move"        # dst = a
    ADD = "add"
    SUB = "sub"
    MUL = "mul"          # low 32 bits of signed product
    MULHI = "mulhi"      # high 32 bits of signed product
    MULHIU = "mulhiu"    # high 32 bits of unsigned product
    DIV = "div"
    DIVU = "divu"
    REM = "rem"
    REMU = "remu"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOR = "nor"
    SHL = "shl"
    SHR = "shr"          # logical
    SAR = "sar"          # arithmetic
    LT = "lt"            # signed set-less-than (0/1)
    LTU = "ltu"          # unsigned set-less-than
    LOAD = "load"        # dst = mem[a + offset]
    STORE = "store"      # mem[b + offset] = a
    BRANCH = "branch"    # if (a cond b) goto target
    JUMP = "jump"        # goto target
    CALL = "call"        # call target (by address)
    IJUMP = "ijump"      # indirect jump through register a (recovery killer)
    RETURN = "return"    # jr $ra
    HALT = "halt"        # break


#: pure two-operand ALU opcodes (everything the DFG treats as a data node)
ALU_OPS = frozenset(
    {
        Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.MULHI, Opcode.MULHIU,
        Opcode.DIV, Opcode.DIVU, Opcode.REM, Opcode.REMU,
        Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.NOR,
        Opcode.SHL, Opcode.SHR, Opcode.SAR, Opcode.LT, Opcode.LTU,
    }
)

COMMUTATIVE = frozenset(
    {Opcode.ADD, Opcode.MUL, Opcode.MULHI, Opcode.MULHIU,
     Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.NOR}
)

#: locations calls and returns read besides their operands
_IMPLICIT_USES = {
    Opcode.CALL: (*ARG_LOCS, SP),
    Opcode.RETURN: (V0, V1, SP, RA, *CALL_PRESERVED),
}

#: branch condition names (operate on two operands)
BRANCH_CONDS = ("eq", "ne", "lt", "le", "gt", "ge", "ltu", "leu", "gtu", "geu")

NEGATED_COND = {
    "eq": "ne", "ne": "eq",
    "lt": "ge", "ge": "lt", "le": "gt", "gt": "le",
    "ltu": "geu", "geu": "ltu", "leu": "gtu", "gtu": "leu",
}


# ---------------------------------------------------------------------------
# the micro-op
# ---------------------------------------------------------------------------


@dataclass
class MicroOp:
    """One instruction-set independent operation.

    Attributes:
        opcode: operation kind.
        dst: destination location (None for stores/branches/etc.).
        a, b: source operands (locations or immediates).
        offset: byte offset for LOAD/STORE.
        size: access size for LOAD/STORE (1/2/4).
        signed: sign-extension flag for LOAD.
        cond: condition name for BRANCH.
        target: absolute address for BRANCH/JUMP/CALL.
        pc: address of the originating machine instruction (kept through all
            passes so profile counts can be mapped back; synthesized ops
            inherit the pc of the op they replaced).
        width: result bit-width annotation filled by operator size reduction
            (32 until the analysis narrows it).
        table_targets: for IJUMP only -- the possible targets recovered by
            jump-table analysis (empty when recovery is off/failed, in
            which case CFG construction aborts, reproducing the paper).
    """

    opcode: Opcode
    dst: Loc | None = None
    a: Operand | None = None
    b: Operand | None = None
    offset: int = 0
    size: int = 4
    signed: bool = True
    cond: str = ""
    target: int = 0
    pc: int = 0
    width: int = 32
    table_targets: tuple[int, ...] = ()

    # -- dataflow interface ------------------------------------------------

    def defs(self) -> tuple[Loc, ...]:
        if self.dst is not None:
            return (self.dst,)
        if self.opcode is Opcode.CALL:
            return CALL_CLOBBERED
        return ()

    def uses(self) -> tuple[Loc, ...]:
        implicit = _IMPLICIT_USES.get(self.opcode, ())
        a, b = self.a, self.b
        if isinstance(a, Loc):
            return (a, b, *implicit) if isinstance(b, Loc) else (a, *implicit)
        return (b, *implicit) if isinstance(b, Loc) else implicit

    def is_terminator(self) -> bool:
        return self.opcode in (
            Opcode.BRANCH, Opcode.JUMP, Opcode.IJUMP, Opcode.RETURN, Opcode.HALT
        )

    def clone(self, **changes) -> "MicroOp":
        return replace(self, **changes)

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        op = self.opcode
        if op is Opcode.CONST:
            return f"{self.dst} = #{self.a.value & 0xFFFFFFFF:#x}"
        if op is Opcode.MOVE:
            return f"{self.dst} = {self.a}"
        if op in ALU_OPS:
            return f"{self.dst} = {op.value} {self.a}, {self.b}"
        if op is Opcode.LOAD:
            sign = "s" if self.signed else "u"
            return f"{self.dst} = load{self.size}{sign} [{self.a} + {self.offset}]"
        if op is Opcode.STORE:
            return f"store{self.size} [{self.b} + {self.offset}] = {self.a}"
        if op is Opcode.BRANCH:
            return f"if ({self.a} {self.cond} {self.b}) goto {self.target:#x}"
        if op is Opcode.JUMP:
            return f"goto {self.target:#x}"
        if op is Opcode.CALL:
            return f"call {self.target:#x}"
        if op is Opcode.IJUMP:
            return f"goto [{self.a}]"
        if op is Opcode.RETURN:
            return "return"
        return op.value

"""Functional + cycle-level MIPS-I simulator (threaded + superblock dispatch).

Design notes:

* The text section is pre-decoded **once, at construction**, into a flat
  table of per-instruction executors: each text word becomes a closure with
  its operand registers, immediates and (for control transfers) target
  *indices* already bound.  The threaded hot loop is then just

      counts[index] += 1
      index = handlers[index]()

  -- no string compares, no ``getattr``, no per-step attribute lookups.
  This is the classic threaded-code trade-off for an ISS written in pure
  Python and is worth ~5x over the old mnemonic-string dispatch chain.
* On top of that table the default **superblock** engine
  (:mod:`repro.sim.superblock`) compiles the whole program into one
  generated Python module -- one function per basic block (with
  unconditional ``j``/``jal`` chains fused into their targets) -- so the
  dispatch loop pays one call per block or chain instead of per
  instruction.  Dynamic jumps into the middle of a block get a lazily
  generated suffix unit, and per-unit counters proven cold are spilled
  out of the fold scan (``spill_after``) and reheat transparently.  The
  threaded table stays fully built either way: the superblock loop
  falls back to it to single-step chunk tails (exact sampling
  boundaries and *max_steps* tails) and, after a sampling boundary
  that fell mid-block, to step to that block's end.  Select with
  ``Cpu(exe, engine="threaded"|"superblock")``.
* Statistics are *derived*, not collected: the loop maintains one
  per-instruction execution counter; branch executors bump a per-site
  taken counter.  ``steps``, ``cycles``, ``pc_counts``, ``mix`` and the
  static part of ``edge_counts`` all fall out of those arrays in a single
  O(text) pass at exit.  Only register-indirect jumps (``jr``/``jalr``)
  record their (dynamic) edges directly.
* Timing uses a simple per-class CPI model (:class:`CpiModel`).  Absolute
  accuracy is not the point -- the paper's hypothetical platform is evaluated
  through *ratios* (speedup, energy savings) and the CPI model only needs to
  be a reasonable in-order five-stage approximation.
* ``break`` halts the machine cleanly (the compiler's ``_start`` stub ends
  with one).  ``syscall`` is reserved and raises, keeping benchmarks I/O-free.
* A **periodic sampling hook** supports online (run-time) profiling: pass
  ``on_sample``/``sample_interval`` to :meth:`Cpu.run` and the dispatch loop
  executes in chunks of *sample_interval* instructions, invoking the callback
  between chunks with the live per-site counter arrays.  The chunking happens
  *outside* the dispatch loop, so a run without a callback executes the exact
  same single ``repeat`` loop as before -- zero hot-path cost -- and a run
  with one pays only the callback itself every N instructions.  This is what
  the warp-style dynamic partitioner (:mod:`repro.dynamic`) piggybacks on.
* When *profile* is enabled the simulator records per-address execution
  counts and taken-edge counts.  These are exactly the "profiling results"
  the paper's partitioner consumes.

``tests/sim/test_threaded.py`` checks this engine differentially against
the straight-line reference interpreter in :mod:`repro.sim.reference`.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat

from repro import obs
from repro.binary.image import Executable
from repro.binary.loader import load_into_memory
from repro.errors import SimulationError
from repro.isa.encoding import decode
from repro.isa.instructions import (
    CLASS_ALU,
    CLASS_BRANCH,
    CLASS_DIV,
    CLASS_HILO,
    CLASS_JUMP,
    CLASS_LOAD,
    CLASS_MULT,
    CLASS_SHIFT,
    CLASS_STORE,
    SPECS,
)
from repro.sim.memory import Memory

STACK_TOP = 0x7FFF_FFF0

__all__ = [
    "CLASS_ALU", "CLASS_SHIFT", "CLASS_LOAD", "CLASS_STORE", "CLASS_BRANCH",
    "CLASS_JUMP", "CLASS_MULT", "CLASS_DIV", "CLASS_HILO",
    "CpiModel", "Cpu", "RunResult", "run_executable", "STACK_TOP",
]

#: mnemonic -> timing class, derived from the ISA spec table.
_MNEMONIC_CLASS = {mnem: spec.klass for mnem, spec in SPECS.items()}


def _check_interval(value, what: str) -> None:
    """Reject a sampling interval that is not a positive ``int``.

    A non-positive interval would hang the dispatch loop on
    zero-instruction chunks, a float would crash it mid-run, and a bool
    would silently sample after every instruction.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise SimulationError(f"{what} must be a positive integer, got {value!r}")


class _Halt(Exception):
    """Raised by the ``break`` executor to leave the dispatch loop.

    Superblock-generated ``break`` code raises it with the instruction
    *index* of the ``break`` as its only argument, so the dispatch loop can
    report the precise halt pc even though it only tracks block entries;
    the per-instruction threaded executors raise it bare (the loop variable
    already points at the ``break``).
    """


@dataclass(frozen=True)
class CpiModel:
    """Cycles per instruction class for an in-order five-stage MIPS core.

    Memory costs model the paper-era embedded platform: data lives in
    on-chip SRAM reached over the system bus (no data cache), so loads
    average 4 cycles and stores 2.  This matches the kind of MIPS system
    the warp-processing work evaluated against and is the main reason
    hardware kernels with localized block RAM win big.
    """

    alu: int = 1
    shift: int = 1
    load: int = 4
    store: int = 2
    branch: int = 1
    taken_penalty: int = 1
    jump: int = 2
    mult: int = 4
    div: int = 20
    hilo: int = 1

    def cycles_for(self, klass: str) -> int:
        return getattr(self, klass)


@dataclass
class RunResult:
    """Outcome of one simulation run."""

    steps: int
    cycles: int
    halted: bool
    exit_pc: int
    mix: Counter = field(default_factory=Counter)
    pc_counts: dict[int, int] = field(default_factory=dict)
    edge_counts: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def cpi(self) -> float:
        return self.cycles / self.steps if self.steps else 0.0


class Cpu:
    """MIPS-I threaded-code interpreter over an :class:`Executable` image."""

    def __init__(
        self,
        exe: Executable,
        memory: Memory | None = None,
        cpi: CpiModel | None = None,
        profile: bool = False,
        engine: str = "superblock",
        spill_after: int = 8,
    ):
        if engine not in ("superblock", "threaded"):
            raise ValueError(
                f"unknown engine {engine!r}; expected 'superblock' or 'threaded'"
            )
        if not isinstance(spill_after, int) or isinstance(spill_after, bool) \
                or spill_after < 0:
            raise ValueError(
                f"spill_after must be a non-negative integer (0 disables the "
                f"cold-counter spill), got {spill_after!r}"
            )
        self.exe = exe
        self.memory = memory if memory is not None else Memory()
        self._cpi = cpi if cpi is not None else CpiModel()
        self._profile = profile
        self._engine = engine
        self._spill_after = spill_after
        load_into_memory(exe, self.memory)
        self._decoded = [decode(word) for word in exe.text_words]
        self.regs = [0] * 32
        self.hi = 0
        self.lo = 0
        self.pc = exe.entry
        self.regs[29] = STACK_TOP  # $sp
        # mutable cells shared with the executor closures
        self._hilo = [0, 0]
        self._taken = [0] * len(self._decoded)
        self._dyn_edges: dict[tuple[int, int], int] = {}
        self._build_table()
        if engine == "superblock":
            # deferred import: the superblock package imports _Halt from
            # this module
            from repro.sim.superblock import SuperblockTable

            self._sb = SuperblockTable(self)
        else:
            self._sb = None

    # The executor table bakes cycle costs and profile hooks in at build
    # time, so these are constructor-only: assigning them later would
    # silently leave a stale table behind.
    @property
    def cpi(self) -> CpiModel:
        return self._cpi

    @property
    def profile(self) -> bool:
        return self._profile

    @property
    def engine(self) -> str:
        """Dispatch engine: ``"superblock"`` (default) or ``"threaded"``."""
        return self._engine

    @property
    def superblocks(self) -> list[tuple[int, int]]:
        """The superblock partition as (start index, length) pairs.

        Only meaningful on the superblock engine; every decoded instruction
        belongs to exactly one block and blocks end only at control
        transfers or immediately before another block's leader.
        """
        if self._sb is None:
            raise SimulationError("superblocks require engine='superblock'")
        return self._sb.blocks

    # Static control-transfer sites, exposed for online profilers: maps of
    # instruction index -> (source pc, target pc).  Branch edges count via
    # the per-site taken array; jump edges via the execution counters.
    @property
    def branch_edges(self) -> dict[int, tuple[int, int]]:
        return self._branch_edges

    @property
    def jump_edges(self) -> dict[int, tuple[int, int]]:
        return self._jump_edges

    @property
    def site_costs(self) -> list[int]:
        """Per-instruction-index cycle cost (without taken penalties)."""
        return self._costs

    # -- helpers -----------------------------------------------------------

    def read_word_global(self, symbol: str, index: int = 0) -> int:
        """Read a word from a data symbol (test/verification convenience)."""
        address = self.exe.symbols[symbol].address + 4 * index
        return self.memory.read_u32(address)

    def read_word_global_signed(self, symbol: str, index: int = 0) -> int:
        value = self.read_word_global(symbol, index)
        return value - 0x1_0000_0000 if value & 0x8000_0000 else value

    # -- executor table ----------------------------------------------------

    def _build_table(self) -> None:
        """Translate the decoded text into the executor/cost/class tables.

        Each executor is a zero-argument closure that performs one
        instruction and returns the *index* of the next one.  Straight-line
        successors and static branch/jump targets are resolved to indices
        here, so the dispatch loop never converts pc -> index; only the
        register-indirect jumps (``jr``/``jalr``) do, validating their
        dynamic target as the old interpreter's loop guard did.
        """
        regs = self.regs
        memory = self.memory
        read_u8 = memory.read_u8
        read_u16 = memory.read_u16
        read_u32 = memory.read_u32
        write_u8 = memory.write_u8
        write_u16 = memory.write_u16
        write_u32 = memory.write_u32
        hilo = self._hilo
        taken = self._taken
        dyn_edges = self._dyn_edges
        profile = self.profile
        text_base = self.exe.text_base
        text_len = len(self._decoded)
        M = 0xFFFF_FFFF

        def escape(bad_pc: int):
            def h():
                raise SimulationError(f"pc outside text section: 0x{bad_pc:08x}")
            return h

        # Escape slots appended after the text: slot text_len catches
        # fall-through past the end; further slots serve as the "taken"
        # continuation of any static branch/jump whose target lies outside
        # the text section (the old loop guard faulted on the next fetch).
        # Memoized per bad pc so the superblock code generator can resolve
        # the very same slot for the very same out-of-text target.
        extra_escapes: list = []
        escape_slots: dict[int, int] = {}

        def escape_index(bad_pc: int) -> int:
            slot = escape_slots.get(bad_pc)
            if slot is None:
                extra_escapes.append(escape(bad_pc))
                slot = text_len + len(extra_escapes)
                escape_slots[bad_pc] = slot
            return slot

        def branch_target(pc: int, imm: int):
            """(taken index, taken pc | None if out of text) for a branch."""
            t_pc = pc + 4 + (imm << 2)
            t_idx = (t_pc - text_base) >> 2
            if not 0 <= t_idx < text_len:
                return escape_index(t_pc), None
            return t_idx, t_pc

        handlers = []
        costs: list[int] = []
        klasses: list[str] = []
        #: index -> static (src, dst) edge; count = taken[i] for branches,
        #: counts[i] for j/jal (which are always taken)
        branch_edges: dict[int, tuple[int, int]] = {}
        jump_edges: dict[int, tuple[int, int]] = {}

        cpi = self.cpi
        for index, instr in enumerate(self._decoded):
            pc = text_base + (index << 2)
            nxt = index + 1
            m = instr.mnemonic
            rs, rt, rd = instr.rs, instr.rt, instr.rd
            shamt, imm = instr.shamt, instr.imm
            klass = _MNEMONIC_CLASS[m]
            klasses.append(klass)
            costs.append(cpi.cycles_for(klass))

            if m == "addiu" or m == "addi":
                if rt:
                    def h(rs=rs, rt=rt, imm=imm, nxt=nxt):
                        regs[rt] = (regs[rs] + imm) & M
                        return nxt
                else:
                    def h(nxt=nxt):
                        return nxt
            elif m == "lw":
                if rt:
                    def h(rs=rs, rt=rt, imm=imm, nxt=nxt):
                        regs[rt] = read_u32((regs[rs] + imm) & M)
                        return nxt
                else:
                    def h(rs=rs, imm=imm, nxt=nxt):
                        read_u32((regs[rs] + imm) & M)
                        return nxt
            elif m == "sw":
                def h(rs=rs, rt=rt, imm=imm, nxt=nxt):
                    write_u32((regs[rs] + imm) & M, regs[rt])
                    return nxt
            elif m in ("addu", "add", "subu", "sub", "and", "or", "xor",
                       "nor", "slt", "sltu"):
                if not rd:
                    def h(nxt=nxt):
                        return nxt
                elif m == "addu" or m == "add":
                    def h(rs=rs, rt=rt, rd=rd, nxt=nxt):
                        regs[rd] = (regs[rs] + regs[rt]) & M
                        return nxt
                elif m == "subu" or m == "sub":
                    def h(rs=rs, rt=rt, rd=rd, nxt=nxt):
                        regs[rd] = (regs[rs] - regs[rt]) & M
                        return nxt
                elif m == "and":
                    def h(rs=rs, rt=rt, rd=rd, nxt=nxt):
                        regs[rd] = regs[rs] & regs[rt]
                        return nxt
                elif m == "or":
                    def h(rs=rs, rt=rt, rd=rd, nxt=nxt):
                        regs[rd] = regs[rs] | regs[rt]
                        return nxt
                elif m == "xor":
                    def h(rs=rs, rt=rt, rd=rd, nxt=nxt):
                        regs[rd] = regs[rs] ^ regs[rt]
                        return nxt
                elif m == "nor":
                    def h(rs=rs, rt=rt, rd=rd, nxt=nxt):
                        regs[rd] = ~(regs[rs] | regs[rt]) & M
                        return nxt
                elif m == "slt":
                    def h(rs=rs, rt=rt, rd=rd, nxt=nxt):
                        a, b = regs[rs], regs[rt]
                        if a & 0x8000_0000:
                            a -= 0x1_0000_0000
                        if b & 0x8000_0000:
                            b -= 0x1_0000_0000
                        regs[rd] = 1 if a < b else 0
                        return nxt
                else:  # sltu
                    def h(rs=rs, rt=rt, rd=rd, nxt=nxt):
                        regs[rd] = 1 if regs[rs] < regs[rt] else 0
                        return nxt
            elif m in ("sll", "srl", "sra", "sllv", "srlv", "srav"):
                if not rd:
                    def h(nxt=nxt):  # includes the canonical nop
                        return nxt
                elif m == "sll":
                    def h(rt=rt, rd=rd, shamt=shamt, nxt=nxt):
                        regs[rd] = (regs[rt] << shamt) & M
                        return nxt
                elif m == "srl":
                    def h(rt=rt, rd=rd, shamt=shamt, nxt=nxt):
                        regs[rd] = regs[rt] >> shamt
                        return nxt
                elif m == "sra":
                    def h(rt=rt, rd=rd, shamt=shamt, nxt=nxt):
                        value = regs[rt]
                        if value & 0x8000_0000:
                            value -= 0x1_0000_0000
                        regs[rd] = (value >> shamt) & M
                        return nxt
                elif m == "sllv":
                    def h(rs=rs, rt=rt, rd=rd, nxt=nxt):
                        regs[rd] = (regs[rt] << (regs[rs] & 31)) & M
                        return nxt
                elif m == "srlv":
                    def h(rs=rs, rt=rt, rd=rd, nxt=nxt):
                        regs[rd] = regs[rt] >> (regs[rs] & 31)
                        return nxt
                else:  # srav
                    def h(rs=rs, rt=rt, rd=rd, nxt=nxt):
                        value = regs[rt]
                        if value & 0x8000_0000:
                            value -= 0x1_0000_0000
                        regs[rd] = (value >> (regs[rs] & 31)) & M
                        return nxt
            elif m in ("slti", "sltiu", "andi", "ori", "xori", "lui"):
                if not rt:
                    def h(nxt=nxt):
                        return nxt
                elif m == "slti":
                    def h(rs=rs, rt=rt, imm=imm, nxt=nxt):
                        a = regs[rs]
                        if a & 0x8000_0000:
                            a -= 0x1_0000_0000
                        regs[rt] = 1 if a < imm else 0
                        return nxt
                elif m == "sltiu":
                    def h(rs=rs, rt=rt, imm=imm & M, nxt=nxt):
                        regs[rt] = 1 if regs[rs] < imm else 0
                        return nxt
                elif m == "andi":
                    def h(rs=rs, rt=rt, imm=imm, nxt=nxt):
                        regs[rt] = regs[rs] & imm
                        return nxt
                elif m == "ori":
                    def h(rs=rs, rt=rt, imm=imm, nxt=nxt):
                        regs[rt] = regs[rs] | imm
                        return nxt
                elif m == "xori":
                    def h(rs=rs, rt=rt, imm=imm, nxt=nxt):
                        regs[rt] = regs[rs] ^ imm
                        return nxt
                else:  # lui
                    def h(rt=rt, value=(imm << 16) & M, nxt=nxt):
                        regs[rt] = value
                        return nxt
            elif m in ("lb", "lbu", "lh", "lhu"):
                if not rt:
                    def h(rs=rs, imm=imm, nxt=nxt,
                          read=read_u8 if m in ("lb", "lbu") else read_u16):
                        read((regs[rs] + imm) & M)
                        return nxt
                elif m == "lb":
                    def h(rs=rs, rt=rt, imm=imm, nxt=nxt):
                        value = read_u8((regs[rs] + imm) & M)
                        regs[rt] = (value - 0x100 if value & 0x80 else value) & M
                        return nxt
                elif m == "lbu":
                    def h(rs=rs, rt=rt, imm=imm, nxt=nxt):
                        regs[rt] = read_u8((regs[rs] + imm) & M)
                        return nxt
                elif m == "lh":
                    def h(rs=rs, rt=rt, imm=imm, nxt=nxt):
                        value = read_u16((regs[rs] + imm) & M)
                        regs[rt] = (value - 0x1_0000 if value & 0x8000 else value) & M
                        return nxt
                else:  # lhu
                    def h(rs=rs, rt=rt, imm=imm, nxt=nxt):
                        regs[rt] = read_u16((regs[rs] + imm) & M)
                        return nxt
            elif m == "sb":
                def h(rs=rs, rt=rt, imm=imm, nxt=nxt):
                    write_u8((regs[rs] + imm) & M, regs[rt])
                    return nxt
            elif m == "sh":
                def h(rs=rs, rt=rt, imm=imm, nxt=nxt):
                    write_u16((regs[rs] + imm) & M, regs[rt])
                    return nxt
            elif m in ("beq", "bne", "blez", "bgtz", "bltz", "bgez"):
                t_idx, t_pc = branch_target(pc, imm)
                if t_pc is not None:
                    branch_edges[index] = (pc, t_pc)
                if m == "beq":
                    def h(rs=rs, rt=rt, t=t_idx, i=index, nxt=nxt):
                        if regs[rs] == regs[rt]:
                            taken[i] += 1
                            return t
                        return nxt
                elif m == "bne":
                    def h(rs=rs, rt=rt, t=t_idx, i=index, nxt=nxt):
                        if regs[rs] != regs[rt]:
                            taken[i] += 1
                            return t
                        return nxt
                elif m == "blez":
                    def h(rs=rs, t=t_idx, i=index, nxt=nxt):
                        value = regs[rs]
                        if value == 0 or value & 0x8000_0000:
                            taken[i] += 1
                            return t
                        return nxt
                elif m == "bgtz":
                    def h(rs=rs, t=t_idx, i=index, nxt=nxt):
                        value = regs[rs]
                        if value != 0 and not value & 0x8000_0000:
                            taken[i] += 1
                            return t
                        return nxt
                elif m == "bltz":
                    def h(rs=rs, t=t_idx, i=index, nxt=nxt):
                        if regs[rs] & 0x8000_0000:
                            taken[i] += 1
                            return t
                        return nxt
                else:  # bgez
                    def h(rs=rs, t=t_idx, i=index, nxt=nxt):
                        if not regs[rs] & 0x8000_0000:
                            taken[i] += 1
                            return t
                        return nxt
            elif m == "j" or m == "jal":
                t_pc = ((pc + 4) & 0xF000_0000) | (instr.target << 2)
                t_idx = (t_pc - text_base) >> 2
                if not 0 <= t_idx < text_len:
                    t_idx = escape_index(t_pc)
                else:
                    jump_edges[index] = (pc, t_pc)
                if m == "j":
                    def h(t=t_idx):
                        return t
                else:
                    def h(t=t_idx, link=pc + 4):
                        regs[31] = link
                        return t
            elif m == "jr" or m == "jalr":
                link = pc + 4
                if m == "jr":
                    def pre(rs=rs):
                        return regs[rs]
                elif rd:
                    def pre(rs=rs, rd=rd, link=link):
                        regs[rd] = link
                        return regs[rs]
                else:
                    def pre(rs=rs):
                        return regs[rs]
                if profile:
                    def h(pre=pre, pc=pc):
                        t = pre()
                        i = (t - text_base) >> 2
                        if t & 3 or not 0 <= i < text_len:
                            raise SimulationError(
                                f"pc outside text section: 0x{t:08x}")
                        key = (pc, t)
                        dyn_edges[key] = dyn_edges.get(key, 0) + 1
                        return i
                else:
                    def h(pre=pre):
                        t = pre()
                        i = (t - text_base) >> 2
                        if t & 3 or not 0 <= i < text_len:
                            raise SimulationError(
                                f"pc outside text section: 0x{t:08x}")
                        return i
            elif m == "mult" or m == "multu":
                if m == "mult":
                    def h(rs=rs, rt=rt, nxt=nxt):
                        a, b = regs[rs], regs[rt]
                        if a & 0x8000_0000:
                            a -= 0x1_0000_0000
                        if b & 0x8000_0000:
                            b -= 0x1_0000_0000
                        product = (a * b) & 0xFFFF_FFFF_FFFF_FFFF
                        hilo[0] = (product >> 32) & M
                        hilo[1] = product & M
                        return nxt
                else:
                    def h(rs=rs, rt=rt, nxt=nxt):
                        product = regs[rs] * regs[rt]
                        hilo[0] = (product >> 32) & M
                        hilo[1] = product & M
                        return nxt
            elif m == "div":
                def h(rs=rs, rt=rt, nxt=nxt):
                    a, b = regs[rs], regs[rt]
                    if a & 0x8000_0000:
                        a -= 0x1_0000_0000
                    if b & 0x8000_0000:
                        b -= 0x1_0000_0000
                    if b == 0:
                        # MIPS leaves HI/LO undefined; pick stable values
                        hilo[0], hilo[1] = a & M, M
                    else:
                        quotient = int(a / b)  # C-style truncation toward zero
                        hilo[0] = (a - quotient * b) & M
                        hilo[1] = quotient & M
                    return nxt
            elif m == "divu":
                def h(rs=rs, rt=rt, nxt=nxt):
                    a, b = regs[rs], regs[rt]
                    if b == 0:
                        hilo[0], hilo[1] = a, M
                    else:
                        hilo[0], hilo[1] = a % b, a // b
                    return nxt
            elif m == "mfhi":
                if rd:
                    def h(rd=rd, nxt=nxt):
                        regs[rd] = hilo[0]
                        return nxt
                else:
                    def h(nxt=nxt):
                        return nxt
            elif m == "mflo":
                if rd:
                    def h(rd=rd, nxt=nxt):
                        regs[rd] = hilo[1]
                        return nxt
                else:
                    def h(nxt=nxt):
                        return nxt
            elif m == "mthi":
                def h(rs=rs, nxt=nxt):
                    hilo[0] = regs[rs]
                    return nxt
            elif m == "mtlo":
                def h(rs=rs, nxt=nxt):
                    hilo[1] = regs[rs]
                    return nxt
            elif m == "break":
                def h():
                    raise _Halt
            elif m == "syscall":
                def h(pc=pc):
                    raise SimulationError(
                        f"syscall executed at 0x{pc:08x}; benchmarks are I/O-free")
            else:  # pragma: no cover - the decoder only produces known mnemonics
                raise SimulationError(f"unimplemented mnemonic {m}")

            handlers.append(h)

        # fall-through past the last instruction lands here
        handlers.append(escape(text_base + (text_len << 2)))
        handlers.extend(extra_escapes)

        self._handlers = handlers
        self._costs = costs
        self._klasses = klasses
        self._branch_edges = branch_edges
        self._jump_edges = jump_edges
        self._escape_slots = escape_slots

    # -- execution ---------------------------------------------------------

    def run(
        self,
        max_steps: int = 100_000_000,
        sample_interval: int = 0,
        on_sample=None,
    ) -> RunResult:
        """Run until ``break`` or *max_steps*; return statistics.

        When *on_sample* is given, the dispatch loop runs in chunks of
        *sample_interval* instructions and ``on_sample(counts, taken)`` is
        called between chunks (and once more when the program halts) with
        the **live** cumulative counter arrays -- callbacks must copy
        anything they want to keep.  ``counts[i]``/``taken[i]`` are the
        execution/branch-taken counters of instruction index ``i``
        (address ``text_base + 4*i``).  Chunk boundaries land on exactly
        the same instruction counts on both dispatch engines: the
        superblock loop only runs a whole block when it fits in the
        remaining chunk budget and single-steps the tail otherwise.

        A callback may return a positive integer to set the *next* chunk's
        sample interval (phase-adaptive sampling); any falsy return keeps
        the current interval.  A *sample_interval* of 0 runs unsampled
        and never calls *on_sample*; any other value that is not a
        positive ``int`` raises :class:`SimulationError`.
        """
        if on_sample is not None and sample_interval != 0:
            # the chunked dispatch lives in exactly one place -- the
            # run_sampled generator; this path just feeds its yields to the
            # callback (cost: one generator resume per chunk, invisible
            # next to the callback itself)
            generator = self.run_sampled(max_steps, sample_interval)
            try:
                payload = next(generator)
                while True:
                    payload = generator.send(on_sample(*payload))
            except StopIteration as stop:
                return stop.value

        text_base = self.exe.text_base
        text_len = len(self._decoded)
        taken = self._taken
        taken[:] = [0] * text_len
        self._dyn_edges.clear()
        self._hilo[0], self._hilo[1] = self.hi, self.lo
        counts = [0] * len(self._handlers)

        pc = self.pc
        index = (pc - text_base) >> 2
        if pc & 3 or not 0 <= index < text_len:
            raise SimulationError(f"pc outside text section: 0x{pc:08x}")

        run_started = time.monotonic()
        if self._sb is not None:
            index, halted = self._run_superblock(index, counts, max_steps)
        else:
            index, halted = self._run_threaded(index, counts, max_steps)

        pc = text_base + (index << 2)
        self.pc = pc
        self.hi, self.lo = self._hilo[0], self._hilo[1]
        if not halted:
            raise SimulationError(f"exceeded max_steps={max_steps} (pc=0x{pc:08x})")

        result = self._gather(counts)
        if obs.metrics_enabled():
            self._observe_run(result, time.monotonic() - run_started)
        return result

    def run_sampled(self, max_steps: int = 100_000_000,
                    sample_interval: int = 4_000):
        """Generator twin of :meth:`run` for externally-driven sampling.

        Yields ``(counts, taken)`` -- the live cumulative counter arrays --
        at every *sample_interval*-instruction boundary and once more when
        the program halts, exactly where :meth:`run` would invoke
        ``on_sample``.  ``send()`` a positive integer into the generator to
        set the next chunk's interval (same contract as an ``on_sample``
        return value).  The :class:`RunResult` is the generator's return
        value (``StopIteration.value``).

        This inversion of control is what lets several applications
        time-share one modeled fabric: a round-robin driver advances each
        application's generator one sampling interval at a time, giving
        their dynamic-partition controllers an interleaved view of a
        shared :class:`~repro.dynamic.fabric.FabricState` (see
        :mod:`repro.dynamic.multi`).

        On the superblock engine a chunk runs a unit only when the whole
        unit fits in its remaining budget and single-steps the tail
        otherwise, so a boundary may fall mid-block.  The next chunk then
        single-steps to that block's end (at most its budget) before it
        resumes unit dispatch: sample boundaries generate no code.  Only a
        dynamic jump into mid-block (a jump-table ``jr``) materializes a
        suffix unit.
        """
        _check_interval(sample_interval, "sample_interval")
        text_base = self.exe.text_base
        text_len = len(self._decoded)
        taken = self._taken
        taken[:] = [0] * text_len
        self._dyn_edges.clear()
        self._hilo[0], self._hilo[1] = self.hi, self.lo
        counts = [0] * len(self._handlers)

        pc = self.pc
        index = (pc - text_base) >> 2
        if pc & 3 or not 0 <= index < text_len:
            raise SimulationError(f"pc outside text section: 0x{pc:08x}")

        handlers = self._handlers
        sb = self._sb
        if sb is not None:
            sb.reset()
            entries = sb.entries
            suffix_len = sb.suffix_len
            materialize = sb.materialize
        halted = False
        run_started = time.monotonic()
        remaining = max_steps
        try:
            while remaining > 0:
                budget = min(sample_interval, remaining)
                remaining -= budget
                if sb is None:
                    for _ in repeat(None, budget):
                        counts[index] += 1
                        index = handlers[index]()
                else:
                    if entries[index][1] is None:
                        # the previous chunk ended mid-block: step to the
                        # block's end instead of generating a suffix unit
                        steps = min(suffix_len[index], budget)
                        for _ in repeat(None, steps):
                            counts[index] += 1
                            index = handlers[index]()
                        budget -= steps
                    while budget > 0:
                        n, fn = entries[index]
                        if n > budget:
                            for _ in repeat(None, budget):
                                counts[index] += 1
                                index = handlers[index]()
                            budget = 0
                            break
                        if fn is None:
                            n, fn = materialize(index)
                        index = fn()
                        budget -= n
                    sb.fold_into(counts)
                sent = yield (counts, taken)
                if sent:
                    _check_interval(sent, "sample-interval override")
                    sample_interval = sent
        except _Halt as halt:
            halted = True
            if halt.args:
                index = halt.args[0]
            if sb is not None:
                sb.fold_into(counts)
            yield (counts, taken)
        if sb is not None:
            sb.fold_into(counts)
        self.pc = text_base + (index << 2)
        self.hi, self.lo = self._hilo[0], self._hilo[1]
        if not halted:
            raise SimulationError(
                f"exceeded max_steps={max_steps} (pc=0x{self.pc:08x})"
            )
        result = self._gather(counts)
        if obs.metrics_enabled():
            self._observe_run(result, time.monotonic() - run_started)
        return result

    def _observe_run(self, result: RunResult, wall_seconds: float) -> None:
        """Fold one finished run into the process metrics registry.

        Called only when telemetry is on, and only at run end: every
        figure is derived from counter state the dispatch loops maintain
        anyway (``bcounts`` reset per run, cumulative table stats read
        through a watermark), so the hot paths carry zero extra work.
        """
        obs.counter("engine.runs_total").inc()
        obs.counter(f"engine.runs.{self._engine}").inc()
        obs.counter("engine.instructions_total").inc(result.steps)
        obs.counter("engine.cycles_total").inc(result.cycles)
        if wall_seconds > 0:
            obs.histogram("engine.run_seconds").observe(wall_seconds)
        sb = self._sb
        if sb is None:
            return
        in_blocks = sb.instructions_in_blocks()
        obs.counter("engine.instructions_in_blocks").inc(in_blocks)
        obs.counter("engine.instructions_stepped").inc(
            max(0, result.steps - in_blocks)
        )
        delta = sb.consume_stats()
        obs.counter("engine.counter_spills_total").inc(delta["spills"])
        obs.counter("engine.counter_reheats_total").inc(delta["reheats"])
        obs.counter("engine.codegen_units_total").inc(delta["codegen_units"])
        obs.counter("engine.codegen_lines_total").inc(delta["codegen_lines"])
        seconds = delta["codegen_seconds"]
        if seconds > 0:
            obs.histogram("engine.codegen_seconds").observe(seconds)

    def _run_threaded(
        self, index: int, counts: list[int], max_steps: int,
    ) -> tuple[int, bool]:
        """One closure call per instruction; the PR 1 dispatch loop.

        Unchunked only: sampling runs go through :meth:`run_sampled`.
        """
        handlers = self._handlers
        halted = False
        try:
            for _ in repeat(None, max_steps):
                counts[index] += 1
                index = handlers[index]()
        except _Halt:
            halted = True
        return index, halted

    def _run_superblock(
        self, index: int, counts: list[int], max_steps: int,
    ) -> tuple[int, bool]:
        """One generated-function call per unit (block or fused chain).

        Unchunked only (sampling runs go through :meth:`run_sampled`,
        which single-steps chunk tails through the threaded handlers so
        boundaries land on the exact instruction).  Per-unit entry
        counters are folded into *counts* at every observation point,
        never mid-spree.

        Budget-free dispatch sprees: a run of ``remaining // call_bound``
        calls cannot overshoot *max_steps* (no call executes more than
        ``call_bound`` instructions), so the hot loop carries no budget
        arithmetic at all.  A halting program finishes inside the first
        spree and pays one fold; a runaway one finishes with an exact
        single-stepped tail, so *max_steps* semantics stay bit-identical
        with the threaded loop.
        """
        sb = self._sb
        sb.reset()
        fns = sb.fns
        materialize = sb.materialize
        handlers = self._handlers
        halted = False
        try:
            remaining = max_steps
            while remaining >= sb.call_bound:
                for _ in repeat(None, remaining // sb.call_bound):
                    fn = fns[index]
                    if fn is None:
                        fn = materialize(index)[1]
                    index = fn()
                sb.fold_into(counts)
                remaining = max_steps - sum(counts)
            for _ in repeat(None, remaining):
                counts[index] += 1
                index = handlers[index]()
        except _Halt as halt:
            halted = True
            if halt.args:
                index = halt.args[0]
        sb.fold_into(counts)
        return index, halted

    def _gather(self, counts: list[int]) -> RunResult:
        """Derive the RunResult statistics from the raw counter arrays."""
        costs = self._costs
        taken = self._taken
        profile = self.profile
        text_base = self.exe.text_base
        steps = 0
        cycles = 0
        mix: Counter = Counter()
        pc_counts: dict[int, int] = {}
        text_len = len(costs)
        if profile:
            klasses = self._klasses
            for i in range(text_len):
                c = counts[i]
                if c:
                    steps += c
                    cycles += c * costs[i]
                    pc_counts[text_base + (i << 2)] = c
                    mix[klasses[i]] += c
        else:
            for i in range(text_len):
                c = counts[i]
                if c:
                    steps += c
                    cycles += c * costs[i]
        cycles += self.cpi.taken_penalty * sum(taken)

        edge_counts: dict[tuple[int, int], int] = {}
        if profile:
            for i, key in self._branch_edges.items():
                t = taken[i]
                if t:
                    edge_counts[key] = t
            for i, key in self._jump_edges.items():
                c = counts[i]
                if c:
                    edge_counts[key] = c
            edge_counts.update(self._dyn_edges)

        return RunResult(
            steps=steps,
            cycles=cycles,
            halted=True,
            exit_pc=self.pc,
            mix=mix,
            pc_counts=pc_counts,
            edge_counts=edge_counts,
        )


def run_executable(
    exe: Executable,
    profile: bool = False,
    max_steps: int = 100_000_000,
    cpi: CpiModel | None = None,
    engine: str = "superblock",
    spill_after: int = 8,
) -> tuple[Cpu, RunResult]:
    """Convenience: build a CPU for *exe*, run to halt, return (cpu, result)."""
    cpu = Cpu(exe, cpi=cpi, profile=profile, engine=engine,
              spill_after=spill_after)
    result = cpu.run(max_steps=max_steps)
    return cpu, result

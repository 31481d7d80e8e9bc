"""The decompilation pipeline driver.

Runs the full paper flow per function: lift -> CFG recovery (may fail on
indirect jumps) -> constant propagation / copy propagation / DCE rounds ->
stack operation removal -> strength promotion -> loop rerolling -> operator
size reduction -> control structure recovery -> alias footprints.

Every pass is individually switchable through
:class:`DecompilationOptions` so the ablation benchmarks can measure what
each recovery technique contributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.binary.image import Executable
from repro.errors import DecompilationError, IndirectJumpError
from repro.decompile.alias import Footprint, loop_footprint
from repro.decompile.cdfg import Cdfg
from repro.decompile.cfg import ControlFlowGraph, build_cfg, prune_unreachable
from repro.decompile.dataflow import NaturalLoop, liveness, natural_loops
from repro.decompile.lift import lift_function
from repro.decompile.passes import (
    eliminate_dead_code,
    promote_strength,
    propagate_constants,
    propagate_copies,
    reduce_operator_sizes,
    remove_stack_operations,
    reroll_loops,
)
from repro.decompile.structure import StructureReport, recover_structure


@dataclass(frozen=True)
class DecompilationOptions:
    """Pass toggles (all on = the paper's full flow)."""

    constant_propagation: bool = True
    copy_propagation: bool = True
    dead_code_elimination: bool = True
    stack_removal: bool = True
    strength_promotion: bool = True
    loop_rerolling: bool = True
    size_reduction: bool = True
    #: resolve switch jump tables instead of failing (extension; off by
    #: default so the baseline reproduces the paper's two EEMBC failures)
    recover_jump_tables: bool = False
    rounds: int = 3

    @classmethod
    def none(cls) -> "DecompilationOptions":
        """Raw lifting only (the ablation baseline)."""
        return cls(
            constant_propagation=False,
            copy_propagation=False,
            dead_code_elimination=False,
            stack_removal=False,
            strength_promotion=False,
            loop_rerolling=False,
            size_reduction=False,
        )


@dataclass
class RecoveryFailure:
    """One function whose CDFG could not be recovered."""

    function: str
    address: int
    reason: str


@dataclass
class PassStats:
    """Aggregated per-function pass statistics."""

    lifted_ops: int = 0
    final_ops: int = 0
    moves_recovered: int = 0
    constants_folded: int = 0
    dead_ops_removed: int = 0
    stack_ops_removed: int = 0
    muls_promoted: int = 0
    loops_rerolled: int = 0
    reroll_ops_removed: int = 0
    ops_narrowed: int = 0
    bits_saved: int = 0


@dataclass
class DecompiledFunction:
    """One successfully recovered function."""

    name: str
    entry: int
    cfg: ControlFlowGraph
    structure: StructureReport
    loops: list[NaturalLoop]
    loop_footprints: dict[int, Footprint]  # loop header address -> footprint
    stats: PassStats

    def build_cdfg(self) -> Cdfg:
        _, live_out = liveness(self.cfg)
        return Cdfg.from_cfg(self.cfg, live_out)

    def loop_by_header_address(self, address: int) -> NaturalLoop | None:
        for loop in self.loops:
            if self.cfg.blocks[loop.header].start == address:
                return loop
        return None


@dataclass
class DecompiledProgram:
    """The decompiler's output for one binary."""

    exe: Executable
    functions: dict[str, DecompiledFunction] = field(default_factory=dict)
    functions_by_entry: dict[int, DecompiledFunction] = field(default_factory=dict)
    failures: list[RecoveryFailure] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        """True if every function's CDFG was recovered."""
        return not self.failures

    def total_stats(self) -> PassStats:
        total = PassStats()
        for func in self.functions.values():
            for attr in vars(total):
                setattr(total, attr, getattr(total, attr) + getattr(func.stats, attr))
        return total


class Decompiler:
    """Binary -> :class:`DecompiledProgram`."""

    def __init__(self, exe: Executable, options: DecompilationOptions | None = None):
        self.exe = exe
        self.options = options or DecompilationOptions()

    def run(self) -> DecompiledProgram:
        program = DecompiledProgram(exe=self.exe)
        for symbol in self.exe.function_symbols():
            if symbol.name == "_start":
                continue
            try:
                func = self._decompile_function(symbol.name)
            except IndirectJumpError as error:
                program.failures.append(
                    RecoveryFailure(symbol.name, error.address, "indirect jump")
                )
                continue
            except DecompilationError as error:
                program.failures.append(
                    RecoveryFailure(symbol.name, symbol.address, str(error))
                )
                continue
            program.functions[func.name] = func
            program.functions_by_entry[func.entry] = func
        if not program.functions and not program.failures:
            raise DecompilationError("binary contains no function symbols")
        return program

    # ------------------------------------------------------------------

    def _decompile_function(self, name: str) -> DecompiledFunction:
        start, end = self.exe.function_bounds(name)
        word_lo = (start - self.exe.text_base) // 4
        word_hi = (end - self.exe.text_base) // 4
        words = self.exe.text_words[word_lo:word_hi]
        ops = lift_function(words, start)
        stats = PassStats(lifted_ops=len(ops))

        cfg = build_cfg(
            ops, start, name,
            exe=self.exe,
            recover_jump_tables=self.options.recover_jump_tables,
        )
        prune_unreachable(cfg)
        options = self.options
        # True while the CFG is known to be a fixpoint of one cleanup
        # round: the last round ran changed nothing, and no pass since has
        # touched an op.  Running the round again would change nothing and
        # count nothing, so the next cleanup is skipped.
        converged = False

        def cleanup_round() -> None:
            nonlocal converged
            if converged:
                obs.counter("decompile.cleanup_rounds_skipped_total").inc()
                return
            for _ in range(options.rounds):
                changed = 0  # what the pass statistics count
                touched = False  # whether any op or edge actually changed
                if options.constant_propagation:
                    cp = _run_pass("constant_propagation", propagate_constants, cfg)
                    stats.moves_recovered += cp.moves_recovered
                    stats.constants_folded += cp.ops_folded
                    changed += cp.total
                    touched = cp.ops_rewritten > 0
                if options.copy_propagation:
                    substituted = _run_pass("copy_propagation", propagate_copies, cfg)
                    changed += substituted
                    touched = touched or substituted > 0
                if options.dead_code_elimination:
                    removed = _run_pass("dead_code_elimination", eliminate_dead_code, cfg)
                    stats.dead_ops_removed += removed
                    changed += removed
                    touched = touched or removed > 0
                touched = prune_unreachable(cfg) or touched
                if not changed:
                    break
            converged = not touched

        cleanup_round()
        if options.stack_removal:
            sr = _run_pass("stack_removal", remove_stack_operations, cfg)
            stats.stack_ops_removed += sr.total
            converged = converged and not sr.total
            cleanup_round()
        if options.strength_promotion:
            promo = _run_pass("strength_promotion", promote_strength, cfg)
            stats.muls_promoted += promo.muls_recovered
            converged = converged and not promo.muls_recovered
            cleanup_round()
        if options.loop_rerolling:
            rr = _run_pass("loop_rerolling", reroll_loops, cfg)
            stats.loops_rerolled += rr.loops_rerolled
            stats.reroll_ops_removed += rr.ops_removed
            # not the statistics: rotation canonicalization rewrites latches
            # also when no loop rerolls
            converged = converged and not rr.changed
            cleanup_round()
        if options.size_reduction:
            sz = _run_pass("size_reduction", reduce_operator_sizes, cfg)
            stats.ops_narrowed += sz.ops_narrowed
            stats.bits_saved += sz.bits_saved

        stats.final_ops = cfg.op_count()
        structure = recover_structure(cfg)
        loops = natural_loops(cfg)
        footprints = {
            cfg.blocks[loop.header].start: loop_footprint(self.exe, cfg, loop)
            for loop in loops
        }
        return DecompiledFunction(
            name=name,
            entry=start,
            cfg=cfg,
            structure=structure,
            loops=loops,
            loop_footprints=footprints,
            stats=stats,
        )


def _run_pass(name: str, pass_fn, cfg: ControlFlowGraph):
    """Run one pass, as a ``decompile.pass.<name>`` span and run count when
    telemetry is on (and as a plain call when it is off)."""
    if not (obs.metrics_enabled() or obs.tracing_enabled()):
        return pass_fn(cfg)
    with obs.span(f"decompile.pass.{name}", function=cfg.name):
        result = pass_fn(cfg)
    obs.counter(f"decompile.pass.{name}.runs_total").inc()
    return result


def decompile(
    exe: Executable, options: DecompilationOptions | None = None
) -> DecompiledProgram:
    """Decompile *exe* with the given (default: full) pass configuration."""
    return Decompiler(exe, options).run()

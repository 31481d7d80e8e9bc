"""Property tests for superblock formation.

The invariants the dispatch rewrite stands on:

* the leader blocks partition the text section exactly -- every decoded
  instruction belongs to exactly one block;
* a block never continues past a control transfer (only its last
  instruction may be one), and a block ends either at a control transfer
  or immediately before another block's leader;
* every in-text static branch/jump target is a leader, and every
  jump-table entry found in the data section is a leader, so indirect
  switch dispatch always lands on a block start;
* a dynamic jump into the *middle* of a block (hand-written assembly can
  do what the compiler never does) falls back to lazily-materialized
  suffix blocks and still produces bit-identical statistics.

The block tier's own knobs and exactness follow: ``spill_after``
validation, ``max_steps`` budgets that stop on the reference's step,
j-chain fusion, and spill/reheat churn under sampling.
"""

import pytest

from repro.compiler import compile_source
from repro.errors import SimulationError
from repro.isa import assemble
from repro.isa.encoding import decode
from repro.programs import get_benchmark
from repro.sim import run_executable, run_reference
from repro.sim.cpu import Cpu
from repro.sim.superblock import CONTROL_TRANSFERS

from tests.sim.test_differential import HAZARDS, assert_identical, random_program

_SWITCH = """
int results[8];
int checksum;
int classify(int x) {
    switch (x) {
    case 0: return 11;
    case 1: return 22;
    case 2: return 33;
    case 3: return 44;
    case 4: return 55;
    case 5: return 66;
    default: return -1;
    }
}
int main(void) {
    int i;
    for (i = 0; i < 8; i++) results[i] = classify(i);
    checksum = results[0] + results[3] * 10 + results[7] * 100;
    return 0;
}
"""


def _executables():
    """A spread of shapes: benchmarks, a jump-table switch, fuzzed programs."""
    cases = [
        ("brev", compile_source(get_benchmark("brev").source, opt_level=1)),
        ("adpcm", compile_source(get_benchmark("adpcm").source, opt_level=2)),
        ("switch", compile_source(_SWITCH, opt_level=1)),
    ]
    for seed in (0, 5, 11):
        cases.append(
            (f"fuzz{seed}", compile_source(random_program(seed), opt_level=seed % 4))
        )
    return cases


@pytest.fixture(scope="module", params=_executables(), ids=lambda case: case[0])
def cpu(request):
    return Cpu(request.param[1], profile=True)


class TestPartition:
    def test_blocks_cover_text_exactly_once(self, cpu):
        blocks = cpu.superblocks
        text_len = len(cpu.exe.text_words)
        assert blocks[0][0] == 0
        position = 0
        for start, length in blocks:
            assert start == position, "blocks must be contiguous"
            assert length >= 1
            position += length
        assert position == text_len, "blocks must cover the whole text section"

    def test_blocks_end_only_at_transfers_or_leaders(self, cpu):
        decoded = [decode(word) for word in cpu.exe.text_words]
        leaders = {start for start, _ in cpu.superblocks}
        text_len = len(decoded)
        for start, length in cpu.superblocks:
            for index in range(start, start + length - 1):
                assert decoded[index].mnemonic not in CONTROL_TRANSFERS, (
                    f"control transfer at {index} inside block {start}+{length}"
                )
            end = start + length
            last = decoded[end - 1]
            assert (
                last.mnemonic in CONTROL_TRANSFERS
                or end == text_len
                or end in leaders
            ), f"block {start}+{length} ends for no reason"

    def test_static_targets_are_leaders(self, cpu):
        exe = cpu.exe
        decoded = [decode(word) for word in exe.text_words]
        leaders = {start for start, _ in cpu.superblocks}
        text_len = len(decoded)
        for index, instr in enumerate(decoded):
            m = instr.mnemonic
            if m in ("beq", "bne", "blez", "bgtz", "bltz", "bgez"):
                target = index + 1 + instr.imm
            elif m in ("j", "jal"):
                pc = exe.text_base + 4 * index
                t_pc = ((pc + 4) & 0xF000_0000) | (instr.target << 2)
                target = (t_pc - exe.text_base) >> 2
            else:
                continue
            if 0 <= target < text_len:
                assert target in leaders, f"{m}@{index} target {target} not a leader"
            if index + 1 < text_len:
                assert index + 1 in leaders, f"fall-through of {m}@{index}"


class TestJumpTables:
    def test_jump_table_targets_start_blocks(self):
        exe = compile_source(_SWITCH, opt_level=1)
        cpu = Cpu(exe, profile=True)
        leaders = {start for start, _ in cpu.superblocks}
        text_end = exe.text_base + 4 * len(exe.text_words)
        table_targets = []
        for offset in range(0, len(exe.data) - 3, 4):
            word = int.from_bytes(exe.data[offset:offset + 4], "little")
            if not word & 3 and exe.text_base <= word < text_end:
                table_targets.append((word - exe.text_base) >> 2)
        # the dense 6-case switch must have produced a table
        assert len(table_targets) >= 6, "switch did not lower to a jump table"
        for target in table_targets:
            assert target in leaders, f"jump-table target {target} not a leader"

    def test_switch_dispatch_bit_identical(self):
        exe = compile_source(_SWITCH, opt_level=1)
        ref = run_reference(exe, profile=True)
        for engine in ("threaded", "superblock"):
            cpu, got = run_executable(exe, profile=True, engine=engine)
            assert_identical(got, ref, engine)
            # case 0 -> 11, case 3 -> 44, default(7) -> -1
            assert cpu.read_word_global_signed("checksum") == 11 + 44 * 10 - 100


class TestDynamicMidBlockEntry:
    #: jr lands on the *second* instruction of a straight-line run -- an
    #: index no leader analysis can predict, exercising lazy suffix blocks
    _ASM = """    la $t0, spot
    addiu $t0, $t0, 4
    jr $t0
spot:
    addiu $s0, $s0, 100
    addiu $s0, $s0, 10
    addiu $s0, $s0, 1
    la $t1, total
    sw $s0, 0($t1)
    break
.data
total: .word 0
"""

    def test_mid_block_jump_matches_reference(self):
        exe = assemble(f".text\n_start:\n{self._ASM}")
        ref = run_reference(exe, profile=True)
        cpu, got = run_executable(exe, profile=True, engine="superblock")
        assert_identical(got, ref)
        # the jr skipped the first addiu: 100 must be missing
        assert cpu.read_word_global_signed("total") == 11

    def test_suffix_block_is_materialized_lazily(self):
        exe = assemble(f".text\n_start:\n{self._ASM}")
        cpu = Cpu(exe, profile=True)
        leaders = {start for start, _ in cpu.superblocks}
        entry_index = (exe.symbols["spot"].address - exe.text_base) // 4 + 1
        assert entry_index not in leaders, "test requires a true mid-block target"
        assert cpu._sb.entries[entry_index][1] is None
        cpu.run()
        materialized = cpu._sb.entries[entry_index][1]
        assert materialized is not None, "dynamic entry must materialize a suffix"
        # the suffix overlays the tail of the original block: counters for
        # the overlapping instructions came out exact (checked vs reference
        # in the test above), and the suffix is reused on the next run
        assert cpu._sb.entries[entry_index][1] is materialized


#: a hot counted loop with a biased branch -- small enough to compile
#: fast, long enough that budgets land deep inside fused units
_LOOP = """
int data[32];
int checksum;
int main(void) {
    int i; int r; int acc;
    acc = 7;
    for (r = 0; r < 400; r++) {
        for (i = 0; i < 32; i++) {
            if (data[i] < 1000)
                data[i] = data[i] * 3 + r;
            else
                data[i] = data[i] >> 1;
            acc = acc + data[i];
        }
    }
    checksum = acc + data[5];
    return 0;
}
"""


def _loop_exe():
    return compile_source(_LOOP, opt_level=1)


class TestSpillKnob:
    @pytest.mark.parametrize("bad", [-1, 0.5, True, "often", [1]],
                             ids=["negative", "float", "bool", "str", "list"])
    def test_rejects_bad_spill_after(self, bad):
        with pytest.raises(ValueError, match="spill_after"):
            Cpu(_loop_exe(), spill_after=bad)

    def test_zero_disables_spill(self):
        # sampled folds every 97 instructions would spill idle units at
        # any positive threshold; 0 must keep every counter in the scan
        exe = _loop_exe()
        ref = run_reference(exe, profile=True)
        cpu = Cpu(exe, profile=True, spill_after=0)
        got = cpu.run(sample_interval=97, on_sample=lambda c, t: None)
        assert_identical(got, ref, "spill_after=0")
        assert cpu._sb.spilled == 0
        assert cpu._sb.reheats == 0


class TestBudgetExactness:
    @pytest.mark.parametrize("budget", [1, 7, 97, 5000, 50_001])
    def test_max_steps_stops_on_the_reference_step(self, budget):
        # a run that exceeds its budget must stop on the same step with
        # the same pc whether fused units dispatch many instructions per
        # call or the reference single-steps
        exe = _loop_exe()
        with pytest.raises(SimulationError) as ref_err:
            run_reference(exe, profile=True, max_steps=budget)
        with pytest.raises(SimulationError) as got_err:
            Cpu(exe, profile=True).run(max_steps=budget)
        assert str(got_err.value) == str(ref_err.value)

    @pytest.mark.parametrize("budget", [97, 5000])
    def test_sampled_budget_stops_on_the_reference_step(self, budget):
        # the sampled path budget-checks each unit against both the chunk
        # and max_steps; spill churn must not move the stopping step
        exe = _loop_exe()
        with pytest.raises(SimulationError) as ref_err:
            run_reference(exe, profile=True, max_steps=budget)
        with pytest.raises(SimulationError) as got_err:
            Cpu(exe, profile=True, spill_after=1).run(
                max_steps=budget, sample_interval=7,
                on_sample=lambda c, t: None,
            )
        assert str(got_err.value) == str(ref_err.value)


class TestBlockTierExactness:
    def test_j_chain_ladder_fuses_and_matches_reference(self):
        exe = compile_source(HAZARDS["j_chain_ladder"], opt_level=1)
        ref = run_reference(exe, profile=True)
        cpu = Cpu(exe, profile=True)
        got = cpu.run()
        assert cpu._sb.chains, "ladder program fused no j-chains"
        assert_identical(got, ref, "j_chain_ladder")

    def test_short_inner_loop_is_exact_under_spill(self):
        # the inner loop runs once or twice per outer iteration, so its
        # back-edge unit alternates hot and idle across sampled folds and
        # spills and reheats over and over
        source = """
        int data[16];
        int checksum;
        int main(void) {
            int i; int r; int n;
            for (r = 0; r < 3000; r++) {
                n = (r & 1) + 1;
                for (i = 0; i < n; i++)
                    data[i & 15] = data[i & 15] + r - i;
            }
            checksum = data[0] + data[1];
            return 0;
        }
        """
        exe = compile_source(source, opt_level=1)
        ref = run_reference(exe, profile=True)
        cpu = Cpu(exe, profile=True, spill_after=1)
        got = cpu.run(sample_interval=7, on_sample=lambda c, t: None)
        assert_identical(got, ref, "short inner loop, spill_after=1")
        assert cpu._sb.spilled > 0 and cpu._sb.reheats > 0
        plain, _ = run_executable(exe, engine="threaded")
        assert cpu.read_word_global_signed("checksum") \
            == plain.read_word_global_signed("checksum")

    def test_unprofiled_run_matches_reference(self):
        exe = _loop_exe()
        ref = run_reference(exe, profile=False)
        got = Cpu(exe, profile=False).run()
        assert_identical(got, ref, "unprofiled")

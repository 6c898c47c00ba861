"""Differential tests: the superblock engine vs the legacy decode loop.

The superblock-translating engine must be *bit-identical* to the legacy
path — same statistics, checksums, per-region access counters, activity
trace, and exception behavior — across every workload in the suite and
every block terminator.
"""

import pytest

from repro.analysis.suite_study import default_study_configs
from repro.cpu import CortexM0, MemoryMap, assemble
from repro.cpu.retention_analysis import AccessRecorder
from repro.cpu.simulator import ENGINES
from repro.cpu.trace import ActivityTrace
from repro.errors import ExecutionError, ReproError
from repro.workloads import matmul_int


def execute(source, engine, max_cycles=500_000_000):
    """Run one program and capture every observable outcome."""
    program = assemble(source)
    trace = ActivityTrace()
    cpu = CortexM0(MemoryMap.embedded_system(), trace=trace)
    cpu.load_program(program)
    error = None
    try:
        cpu.run(max_cycles=max_cycles, engine=engine)
    except ExecutionError as exc:
        error = str(exc)
    return {
        "regs": list(cpu.regs._regs),
        "flags": (cpu.regs.n, cpu.regs.z, cpu.regs.c, cpu.regs.v),
        "halted": cpu.halted,
        "cycles": cpu.stats.cycles,
        "instructions": cpu.stats.instructions,
        "taken_branches": cpu.stats.taken_branches,
        "loads": cpu.stats.loads,
        "stores": cpu.stats.stores,
        "per_mnemonic": dict(cpu.stats.per_mnemonic),
        "counters": {
            r.name: (r.counters.reads, r.counters.writes)
            for r in cpu.memory.regions
        },
        "trace": (
            trace.register_writes,
            trace.register_toggles,
            trace.cycles,
        ),
        "error": error,
    }


def superblock_engine(source):
    """Run ``source`` on the superblock engine; return the engine."""
    cpu = CortexM0(MemoryMap.embedded_system())
    cpu.load_program(assemble(source))
    cpu.run(engine="superblock")
    return cpu.superblock_engine


def assert_engines_identical(source, max_cycles=500_000_000):
    legacy = execute(source, "legacy", max_cycles)
    superblock = execute(source, "superblock", max_cycles)
    assert superblock == legacy, "superblock diverged from legacy"
    return legacy


@pytest.mark.smoke
@pytest.mark.parametrize(
    "workload",
    default_study_configs(),
    ids=lambda w: w.name,
)
def test_suite_workloads_bit_identical(workload):
    """Every suite workload matches the legacy engine field-for-field."""
    assert_engines_identical(workload.source)


def test_medium_matmul_bit_identical():
    """A heavier configuration exercising deep loop nests."""
    workload = matmul_int.workload(n=12, repeats=4, tune=5)
    assert_engines_identical(workload.source)


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        cpu = CortexM0(MemoryMap.embedded_system())
        with pytest.raises(ReproError, match="unknown engine"):
            cpu.run(engine="turbo")

    def test_engines_tuple(self):
        assert ENGINES == ("auto", "superblock", "legacy")

    @pytest.mark.parametrize("engine", ["superblock"])
    def test_predecoded_engine_refuses_recorder(self, engine):
        cpu = CortexM0(
            MemoryMap.embedded_system(), recorder=AccessRecorder()
        )
        with pytest.raises(ReproError, match="recorder"):
            cpu.run(engine=engine)

    def test_auto_with_recorder_uses_legacy(self):
        workload = default_study_configs()[-1]
        program = assemble(workload.source)
        cpu = CortexM0(
            MemoryMap.embedded_system(), recorder=AccessRecorder()
        )
        cpu.load_program(program)
        stats = cpu.run(engine="auto")
        assert cpu.halted
        assert stats.instructions > 0


class TestFaultFidelity:
    """Error paths must raise the same exceptions with the same text."""

    def _messages(self, source, max_cycles=500_000_000):
        legacy = assert_engines_identical(source, max_cycles)
        return legacy["error"]

    def test_cycle_limit_identical(self):
        source = """
            loop:
                b loop
        """
        message = self._messages(source, max_cycles=99)
        assert message is not None
        assert "cycle limit 99 exceeded" in message

    def test_misaligned_load_identical(self):
        source = """
                movs r0, #1
                ldr r1, [r0]
                bkpt
        """
        message = self._messages(source)
        assert "misaligned" in message

    def test_unmapped_store_identical(self):
        source = """
                movs r0, #1
                lsls r0, r0, #30
                str r0, [r0]
                bkpt
        """
        message = self._messages(source)
        assert "unmapped" in message


class TestSelfModifyingCode:
    @pytest.mark.parametrize("engine", ["superblock"])
    def test_external_program_patch_invalidates_decode_cache(self, engine):
        """Patching program memory between runs must re-decode."""
        source = """
                movs r0, #1
                bkpt
        """
        program = assemble(source)
        cpu = CortexM0(MemoryMap.embedded_system())
        cpu.load_program(program)
        cpu.run(engine=engine)
        assert cpu.regs.read(0) == 1

        # Patch the movs immediate from #1 to #42 and re-run.
        insn = cpu.memory.read(program.base_address, 2, count=False)
        cpu.memory.write(
            program.base_address, (insn & 0xFF00) | 42, 2, count=False
        )
        cpu.halted = False
        cpu.regs.write(15, program.entry_point)
        cpu.run(engine=engine)
        assert cpu.regs.read(0) == 42

    def test_store_into_program_region_invalidates(self):
        """A store over not-yet-executed code must take effect."""
        # movs r0, #7 assembles to 0x2007; the program stores that
        # encoding over the placeholder `movs r0, #1` before reaching
        # it, so the executed instruction must be the patched one.
        source = """
                ldr r1, =target
                ldr r2, =0x2007
                strh r2, [r1]
                b target
            target:
                movs r0, #1
                bkpt
        """
        legacy = assert_engines_identical(source)
        assert legacy["regs"][0] == 7


class TestSuperblockBoundaries:
    """SMC, faults, and cycle limits landing *inside* translated blocks.

    The superblock engine batches whole straight-line runs into one
    call; these tests pin the partial-progress bookkeeping when
    execution stops partway through a block.
    """

    def test_store_into_own_block_reexecutes_patched_tail(self):
        """A store over a later instruction of the *current* block.

        The strh lands on code inside the very straight-line run being
        executed; the block must stop after the store, re-translate,
        and execute the patched instruction.
        """
        source = """
                ldr r1, =patch
                ldr r2, =0x2007
                movs r4, #9
                strh r2, [r1]
                movs r5, #8
                movs r6, #3
            patch:
                movs r0, #1
                bkpt
        """
        legacy = assert_engines_identical(source)
        assert legacy["regs"][0] == 7
        assert legacy["regs"][5] == 8  # post-store prefix re-ran correctly

    def test_fault_mid_block_preserves_architectural_state(self):
        """A misaligned load in the middle of a fused run."""
        source = """
                movs r0, #1
                movs r2, #2
                adds r3, r0, r2
                ldr r1, [r0]
                adds r4, r3, r2
                bkpt
        """
        legacy = assert_engines_identical(source)
        assert "misaligned" in legacy["error"]
        assert legacy["regs"][3] == 3  # pre-fault effects applied
        assert legacy["regs"][4] == 0  # post-fault insn never ran

    def test_unmapped_store_mid_block(self):
        source = """
                movs r0, #1
                lsls r0, r0, #30
                movs r3, #5
                str r0, [r0]
                movs r4, #6
                bkpt
        """
        legacy = assert_engines_identical(source)
        assert "unmapped" in legacy["error"]

    def test_cycle_limit_lands_mid_block(self):
        """The limit must raise at the same pc as the legacy loop."""
        source = """
            loop:
                adds r0, r0, #1
                adds r1, r1, #1
                adds r2, r2, #1
                adds r3, r3, #1
                b loop
        """
        legacy = assert_engines_identical(source, max_cycles=57)
        assert "cycle limit 57 exceeded" in legacy["error"]

    def test_blocks_actually_translate(self):
        """Sanity: the scenarios above really exercise fused blocks."""
        eng = superblock_engine(
            """
                movs r0, #1
                movs r1, #2
                adds r0, r0, r1
                bkpt
            """
        )
        assert eng.blocks_translated >= 1
        assert eng.block_steps >= 3

    def test_fused_branch_loops_stay_in_block_dispatch(self):
        """Loop bodies ending in bcond fuse the branch into the block."""
        eng = superblock_engine(
            """
                movs r0, #0
                movs r1, #10
            loop:
                adds r0, r0, #1
                cmp r0, r1
                bne loop
                movs r2, #1
                bkpt
            """
        )
        # The loop body (adds/cmp/bne) executes as one block per
        # iteration; only the prologue and epilogue use other paths.
        assert eng.block_execs >= 10


#: The data region's end address in ``MemoryMap.embedded_system()``;
#: nothing is mapped above it, so accesses crossing it fault.
DATA_END = 0x20010000


class TestTerminators:
    """PC-writing terminators and multi-access ops inside blocks."""

    def test_stm_ldm_writeback_and_base_in_list(self):
        source = """
                ldr r0, =0x20000100
                movs r1, #11
                movs r2, #22
                movs r3, #33
                stmia r0!, {r1, r2, r3}
                ldr r4, =0x20000100
                ldmia r4!, {r5, r6, r7}
                ldr r0, =0x20000100
                ldmia r0!, {r0, r1}
                ldr r2, =0x20000200
                stmia r2!, {r1, r2, r3}
                ldr r3, =0x20000200
                ldmia r3!, {r1, r2, r3}
                bkpt
        """
        legacy = assert_engines_identical(source)
        regs = legacy["regs"]
        assert regs[4] == 0x2000010C  # LDM writeback
        assert regs[5:8] == [11, 22, 33]
        assert regs[0] == 11  # base in the list: loaded, no writeback
        assert regs[2] == 0x20000200  # STM stored the original base
        assert legacy["per_mnemonic"]["ldm"] == 3
        assert legacy["per_mnemonic"]["stm"] == 2

    def test_push_pop_with_lr_and_pc(self):
        source = """
                movs r4, #4
                movs r5, #5
                bl outer
                adds r0, r0, r4
                bkpt
            outer:
                push {r4, r5, lr}
                movs r4, #40
                bl inner
                adds r0, r0, r4
                pop {r4, r5, pc}
            inner:
                push {r4, lr}
                movs r4, #7
                mov r0, r4
                pop {r4}
                pop {pc}
        """
        legacy = assert_engines_identical(source)
        assert legacy["regs"][0] == 7 + 40 + 4
        assert legacy["regs"][4:6] == [4, 5]
        assert legacy["regs"][13] == DATA_END

    def test_bl_then_mov_pc_lr_and_bx_lr(self):
        source = """
                bl via_mov
                bl via_bx
                adr r3, via_add
                adds r3, r3, #1
                blx r3
                movs r2, #0
                add pc, r2
                nop
                nop
                bkpt
            via_mov:
                adds r0, r0, #1
                mov pc, lr
            via_bx:
                adds r0, r0, #2
                bx lr
                .align 2
            via_add:
                adds r0, r0, #4
                bx lr
        """
        legacy = assert_engines_identical(source)
        assert legacy["regs"][0] == 7
        mix = legacy["per_mnemonic"]
        assert (mix["bl"], mix["mov pc"], mix["bx"]) == (2, 1, 2)
        assert (mix["blx"], mix["add pc"]) == (1, 1)

    def test_lone_instructions_between_terminators(self):
        source = """
                b first
            first:
                b second
            second:
                movs r0, #1
                bl leaf
                movs r1, #2
                bl leaf
                push {lr}
                pop {r2}
                bkpt
            leaf:
                bx lr
        """
        legacy = assert_engines_identical(source)
        assert legacy["regs"][:2] == [1, 2]
        eng = superblock_engine(source)
        assert eng.fallback_steps == 0
        assert eng.block_steps == legacy["instructions"]

    @pytest.mark.parametrize(
        "setup, op",
        [
            # PUSH moves SP first; its third store crosses the map end.
            (f"ldr r0, ={DATA_END + 4}\n mov sp, r0", "push {r1, r2, r3}"),
            (f"ldr r0, ={DATA_END + 4}\n mov sp, r0", "push {r1, lr}"),
            ("ldr r0, =0x20000102\n mov sp, r0", "push {r1, r2}"),
            (f"ldr r0, ={DATA_END - 4}\n mov sp, r0", "pop {r1, r2}"),
            (f"ldr r0, ={DATA_END - 4}\n mov sp, r0", "pop {r1, pc}"),
            (f"ldr r0, ={DATA_END - 4}", "stmia r0!, {r1, r2}"),
            (f"ldr r0, ={DATA_END - 8}", "ldmia r0!, {r1, r2, r3}"),
            (f"ldr r4, ={DATA_END - 8}", "ldmia r4!, {r1, r4, r5}"),
        ],
    )
    def test_fault_inside_multi_access_op(self, setup, op):
        source = f"""
                movs r1, #1
                movs r2, #2
                movs r3, #3
                {setup}
                adds r5, r1, r2
                {op}
                movs r6, #6
                bkpt
        """
        legacy = assert_engines_identical(source)
        assert legacy["error"] is not None
        assert legacy["regs"][6] == 0  # nothing after the fault ran

    def test_stm_into_program_region_retranslates(self):
        source = """
                ldr r1, =patch
                ldr r2, =0x20072007
                stmia r1!, {r2}
                b patch
                .align 2
            patch:
                movs r0, #1
                movs r3, #1
                bkpt
        """
        legacy = assert_engines_identical(source)
        assert legacy["regs"][0] == 7
        assert legacy["regs"][3] == 0

    def test_cycle_limit_lands_on_every_terminator(self):
        """Sweep the limit across a program dense with terminators."""
        source = """
                movs r4, #3
            loop:
                bl call
                push {r4, lr}
                pop {r4}
                pop {r3}
                mov lr, r3
                subs r4, r4, #1
                bne loop
                bkpt
            call:
                push {r4, lr}
                adds r0, r0, #1
                pop {r4, pc}
        """
        full = assert_engines_identical(source)
        assert full["error"] is None
        for limit in range(1, full["cycles"] + 2):
            assert_engines_identical(source, max_cycles=limit)


def loop_iterations(source, max_cycles=500_000_000):
    """Back-edges the superblock engine ran inside loop-resident blocks."""
    cpu = CortexM0(MemoryMap.embedded_system())
    cpu.load_program(assemble(source))
    try:
        cpu.run(max_cycles=max_cycles, engine="superblock")
    except ExecutionError:
        pass
    return cpu.superblock_engine.loop_iterations


class TestLoopResidentBlocks:
    """Blocks whose B<cond> jumps back to their own start.

    They iterate inside the generated code and book the completed
    iterations once, at exit; every exit path must leave the state the
    legacy loop leaves.
    """

    def test_cycle_limit_lands_on_every_cycle_of_a_loop(self):
        """Sweep the limit over every cycle, back-edges included."""
        source = """
                ldr r2, =0x20000100
                movs r1, #6
            loop:
                ldr r3, [r2]
                adds r3, r3, r1
                str r3, [r2]
                subs r1, r1, #1
                bne loop
                bkpt
        """
        full = assert_engines_identical(source)
        assert full["error"] is None
        assert full["taken_branches"] == 5
        assert loop_iterations(source) == 4
        for limit in range(1, full["cycles"] + 2):
            assert_engines_identical(source, max_cycles=limit)

    @pytest.mark.parametrize("access", ["ldr r3, [r2]", "str r1, [r2]"])
    def test_fault_after_completed_iterations(self, access):
        """A pointer walks off the end of the data region."""
        source = f"""
                ldr r2, ={DATA_END - 12}
                movs r1, #10
            loop:
                {access}
                adds r0, r0, r1
                adds r2, r2, #4
                subs r1, r1, #1
                bne loop
                bkpt
        """
        legacy = assert_engines_identical(source)
        assert "unmapped" in legacy["error"]
        assert legacy["regs"][1] == 7  # three iterations completed
        assert loop_iterations(source) == 2

    def test_store_into_program_after_completed_iterations(self):
        """The first pass stores to data; later passes patch the loop."""
        # movs r0, #1 assembles to 0x2001 and is patched to 0x2007
        # (movs r0, #7).  r5 offsets the store into the data region on
        # the first pass only; ``b loop`` makes that pass the loop
        # block's first iteration.
        source = """
                ldr r2, =patch
                ldr r4, =0x2007
                ldr r5, =0x20000000
                movs r6, #0
                movs r1, #3
                b loop
            loop:
                strh r4, [r2, r5]
                muls r5, r6
            patch:
                movs r0, #1
                adds r3, r3, r0
                subs r1, r1, #1
                bne loop
                bkpt
        """
        legacy = assert_engines_identical(source)
        assert legacy["regs"][3] == 1 + 7 + 7
        assert loop_iterations(source) == 1

    @pytest.mark.parametrize(
        "setup, body, branch",
        [
            ("movs r0, #9", "subs r0, r0, #2\n cmp r0, #1", "bgt"),
            ("movs r0, #0", "adds r0, r0, #1\n cmp r0, #6", "bls"),
        ],
    )
    def test_multi_flag_condition(self, setup, body, branch):
        source = f"""
                {setup}
            loop:
                {body}
                {branch} loop
                bkpt
        """
        legacy = assert_engines_identical(source)
        assert legacy["taken_branches"] >= 3
        assert loop_iterations(source) == legacy["taken_branches"] - 1

    def test_falls_through_on_first_pass(self):
        source = """
                movs r1, #1
            loop:
                adds r0, r0, #5
                subs r1, r1, #1
                bne loop
                bkpt
        """
        legacy = assert_engines_identical(source)
        assert legacy["regs"][0] == 5
        assert legacy["taken_branches"] == 0
        assert loop_iterations(source) == 0

"""The Y86-64 RTL pipeline and Anvil core: hazard handling pinned via
the pipeline's own counters (load-use stalls, branch-misprediction
squashes, ret bubbles), the ``y86_*`` scenarios bit-identical across
every engine and both Anvil backends, the lifetime-typechecked core,
and the ``--tag cpu`` CLI view."""

import os
import subprocess
import sys

import pytest

from repro.__main__ import main as cli_main
from repro.api import SimConfig, get_registry
from repro.designs.y86 import Y86PipelineCpu, run_to_halt
from repro.isa.assembler import assemble
from repro.isa.encoding import SHLT, U64
from repro.isa.programs import CSAPP_QUADS, sum_program
from repro.isa.reference import ReferenceMachine
from repro.rtl.simulator import ENGINES, Simulator

Y86_SCENARIOS = ("y86_sum", "y86_sort", "y86_memcpy")

#: stack placement for the tiny hand-written hazard programs
_TAIL = "\n.pos 0xff8\nstack:\n"


def _run_rtl(source, engine="levelized", max_cycles=2_000):
    prog = assemble(source)
    sim = Simulator(f"y86_hazard_{engine}", engine=engine)
    cpu = sim.add(Y86PipelineCpu("cpu", prog.image))
    cycles = run_to_halt(sim, cpu, max_cycles=max_cycles)
    return cpu, cycles


def _counters(cpu):
    return (cpu.loaduse_stalls, cpu.mispredict_squashes,
            cpu.ret_bubbles)


# ---------------------------------------------------------------------------
# hazard handling, one counter at a time
# ---------------------------------------------------------------------------
class TestHazards:
    def test_load_use_stalls_exactly_once(self):
        cpu, _ = _run_rtl(
            "    irmovq $5, %rcx\n"
            "    rmmovq %rcx, 0x100\n"
            "    mrmovq 0x100, %rax\n"
            "    addq %rax, %rcx\n"      # uses %rax right after the load
            "    halt\n")
        assert _counters(cpu) == (1, 0, 0)
        assert cpu.arch_state().registers[1] == 10       # %rcx

    def test_alu_chains_forward_without_stalling(self):
        cpu, _ = _run_rtl(
            "    irmovq $1, %rax\n"
            "    irmovq $2, %rcx\n"
            "    addq %rax, %rcx\n"      # needs e_valE forwarding
            "    addq %rcx, %rax\n"      # and again, next cycle
            "    addq %rcx, %rax\n"
            "    halt\n")
        assert _counters(cpu) == (0, 0, 0)
        assert cpu.arch_state().registers[0] == 7        # %rax
        assert cpu.arch_state().registers[1] == 3        # %rcx

    def test_not_taken_branch_squashes_the_predicted_path(self):
        # the fetch stage predicts taken; ZF=1 makes jne fall through,
        # so the two wrongly fetched instructions must be squashed and
        # the fall-through path must still execute
        cpu, _ = _run_rtl(
            "    xorq %rax, %rax\n"
            "    jne skip\n"
            "    irmovq $1, %rcx\n"
            "skip:\n"
            "    halt\n")
        assert _counters(cpu) == (0, 1, 0)
        assert cpu.arch_state().registers[1] == 1        # %rcx

    def test_taken_branch_costs_nothing(self):
        cpu, _ = _run_rtl(
            "    xorq %rax, %rax\n"
            "    je skip\n"
            "    irmovq $1, %rcx\n"
            "skip:\n"
            "    halt\n")
        assert _counters(cpu) == (0, 0, 0)
        assert cpu.arch_state().registers[1] == 0

    def test_ret_bubbles_three_cycles(self):
        # the leaf sits *before* the call site: were it placed after
        # the halt, fetch would speculatively run into the ret again
        # while the halt drains, and the bubble count would include
        # those squashed speculative cycles too
        cpu, _ = _run_rtl(
            "    irmovq stack, %rsp\n"
            "    jmp start\n"
            "f:\n"
            "    ret\n"
            "start:\n"
            "    call f\n"
            "    halt\n" + _TAIL)
        assert _counters(cpu) == (0, 0, 3)
        assert cpu.arch_state().stat == SHLT

    def test_counters_reset_with_the_module(self):
        prog = assemble("    irmovq stack, %rsp\n    call f\n    halt\n"
                        "f:\n    ret\n" + _TAIL)
        sim = Simulator("y86_reset")
        cpu = sim.add(Y86PipelineCpu("cpu", prog.image))
        run_to_halt(sim, cpu)
        assert cpu.ret_bubbles > 0
        cpu.reset()
        assert _counters(cpu) == (0, 0, 0)
        assert not cpu.halted

    def test_hazard_counters_agree_across_engines(self):
        source = sum_program(CSAPP_QUADS)
        expected = None
        for engine in ENGINES:
            cpu, cycles = _run_rtl(source, engine=engine,
                                   max_cycles=4_000)
            state = (cycles, _counters(cpu), cpu.arch_state())
            expected = expected or state
            assert state == expected, engine

    def test_sum_pipeline_matches_reference_counts(self):
        prog = assemble(sum_program(CSAPP_QUADS))
        ref = ReferenceMachine(prog.image).run()
        cpu, _ = _run_rtl(sum_program(CSAPP_QUADS), max_cycles=4_000)
        assert cpu.arch_state() == ref
        assert ref.instret == 34
        assert ref.registers[0] == sum(CSAPP_QUADS) & U64
        assert _counters(cpu) == (4, 1, 6)


# ---------------------------------------------------------------------------
# scenario pins: every engine, both Anvil backends
# ---------------------------------------------------------------------------
def _run_state(name, cycles=80, **config):
    sim = get_registry().build(name, SimConfig(**config))
    sim.run(cycles)
    return (sim.cycle, sim.waveform.samples, sim.activity,
            sim.total_activity())


class TestScenarioPins:
    @pytest.mark.parametrize("backend", ["interp", "pycompiled"])
    @pytest.mark.parametrize("name", Y86_SCENARIOS)
    def test_bit_identical_across_engines_and_backends(self, name,
                                                       backend):
        states = {
            engine: _run_state(name, seed=3, stim=160, engine=engine,
                               backend=backend)
            for engine in ENGINES
        }
        assert states["kernel"] == states["levelized"] == states["brute"]

    def test_backends_agree_on_observables(self):
        interp = _run_state("y86_sum", seed=3, stim=160,
                            backend="interp")
        compiled = _run_state("y86_sum", seed=3, stim=160,
                              backend="pycompiled")
        assert interp == compiled

    def test_seed_changes_the_workload(self):
        a = _run_state("y86_sort", seed=3, stim=160)
        b = _run_state("y86_sort", seed=4, stim=160)
        assert a != b

    def test_scenarios_carry_the_cpu_tag(self):
        reg = get_registry()
        assert reg.names("cpu") == list(Y86_SCENARIOS)
        for name in Y86_SCENARIOS:
            assert reg.get(name).tags == frozenset({"cpu"})


# ---------------------------------------------------------------------------
# the Anvil core under the lifetime oracle
# ---------------------------------------------------------------------------
#: bound on the verdict's peak resident set, interpreter included (it
#: reads about 150 MB)
Y86_VERDICT_MAX_RSS_MB = 300

_Y86_VERDICT = """
import resource, sys
from repro.anvil_designs.y86 import y86_core
from repro.core.typecheck import check_process
report = check_process(y86_core())
# ru_maxrss is in KiB on Linux and in bytes on macOS
kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(report.ok, kib // 1024 if sys.platform == "darwin" else kib)
"""


@pytest.mark.slow
def test_anvil_core_typechecks():
    """The core is well typed, and its verdict, in a fresh interpreter,
    stays under a fixed peak memory."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _Y86_VERDICT], capture_output=True,
        text=True, timeout=600, cwd=root,
        env={**os.environ, "PYTHONPATH": os.path.join(root, "src")})
    assert proc.returncode == 0, proc.stderr
    ok, max_rss_kib = proc.stdout.split()
    assert ok == "True"
    assert int(max_rss_kib) < Y86_VERDICT_MAX_RSS_MB * 1024, \
        f"Y86 verdict peaked at {int(max_rss_kib) / 1024:.0f} MB"


# ---------------------------------------------------------------------------
# CLI view
# ---------------------------------------------------------------------------
def test_cli_lists_the_cpu_tag(capsys):
    assert cli_main(["list-scenarios", "--tag", "cpu"]) == 0
    out = capsys.readouterr().out
    for name in Y86_SCENARIOS:
        assert name in out
    assert "[cpu]" in out

#!/usr/bin/env python3
"""The Y86-64 CSAPP sum loop on all three execution models.

One program -- the book's sum-over-an-array worked example -- runs on
the sequential ISA reference interpreter, on the 5-stage pipelined RTL
CPU (with live hazard counters), and on the Anvil typed-channel core,
and all three must retire into the same architectural state.  This is
one case of what `repro.isa.fuzz` does to hundreds of random programs.

Run:  python examples/y86_sum.py
"""

from repro.designs.y86 import (
    Y86PipelineCpu,
    anvil_arch_state,
    attach_anvil_y86,
    run_to_halt,
)
from repro.isa.assembler import assemble
from repro.isa.programs import CSAPP_QUADS, sum_program
from repro.isa.reference import ReferenceMachine
from repro.rtl.simulator import Simulator

prog = assemble(sum_program(CSAPP_QUADS))
print("CSAPP sum loop, assembled:\n")
print("\n".join(prog.listing().splitlines()[:6]))
print("...\n")

# -- model 1: the sequential ISA reference ------------------------------
expected = ReferenceMachine(prog.image).run()
print(f"reference:     %rax = {expected.registers[0]:#x} "
      f"in {expected.instret} instructions")
assert expected.registers[0] == sum(CSAPP_QUADS)

# -- model 2: the pipelined RTL CPU -------------------------------------
sim = Simulator("y86_rtl", engine="kernel")
cpu = sim.add(Y86PipelineCpu("cpu", prog.image))
cycles = run_to_halt(sim, cpu)            # exact cycle count for CPI
assert cpu.arch_state() == expected
cpi = cycles / expected.instret
print(f"RTL pipeline:  same state in {cycles} cycles "
      f"(CPI {cpi:.2f}; {cpu.loaduse_stalls} load-use stalls, "
      f"{cpu.mispredict_squashes} squash, {cpu.ret_bubbles} ret bubbles)")

# -- model 3: the Anvil typed-channel core ------------------------------
asim = Simulator("y86_anvil")
core, server, host = attach_anvil_y86(asim, prog.image)
acycles = asim.run(20_000, stop=lambda: core.regs["halted"])
assert anvil_arch_state(core, server) == expected
print(f"Anvil core:    same state in {acycles} cycles "
      f"(timing-safe channels, lifetime-checked registers)")

print("\nthree models, one architectural contract -- the differential "
      "fuzzer holds them to it on random programs")

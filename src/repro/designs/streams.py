"""Baseline common-cells designs: FIFO buffer, spill register, passthrough
stream FIFO.

These re-implement the PULP ``common_cells`` IPs the paper benchmarks
(fifo_v3 + stream wrappers, spill_register, passthrough stream_fifo) as
cycle-accurate RTL modules on the simulator substrate.  All three speak
valid/ack streams on :class:`~repro.codegen.simfsm.MessagePort` wire
triplets, so they co-simulate directly against compiled Anvil processes.
"""

from __future__ import annotations

from typing import List

from ..codegen.simfsm import MessagePort
from ..rtl.module import Module


class FifoBuffer(Module):
    """``fifo_v3``-style FIFO with registered output (no fall-through).

    * ``in_ready`` (= input ack) while not full;
    * ``out_valid`` while not empty; ``out_data`` is ``mem[rptr]``;
    * dynamic latency: a word is visible on the output the cycle after its
      push at the earliest.
    """

    def __init__(self, name: str, inp: MessagePort, out: MessagePort,
                 depth: int = 4):
        super().__init__(name)
        if depth < 1:
            raise ValueError("fifo depth must be >= 1")
        self.inp = inp
        self.out = out
        self.depth = depth
        self.width = inp.data.width
        self.mem: List[int] = [0] * depth
        self.rptr = 0
        self.wptr = 0
        self.cnt = 0
        for w in (*inp.wires(), *out.wires()):
            self.adopt(w)

    @property
    def full(self) -> bool:
        return self.cnt == self.depth

    @property
    def empty(self) -> bool:
        return self.cnt == 0

    def comb_inputs(self):
        return ()      # full/empty/head are register state

    def comb_outputs(self):
        return (self.inp.ack, self.out.valid, self.out.data)

    def eval_comb(self):
        self.inp.ack.set(0 if self.full else 1)
        self.out.valid.set(0 if self.empty else 1)
        self.out.data.set(self.mem[self.rptr])

    def tick(self):
        push = bool(self.inp.fires and not self.full)
        pop = bool(self.out.fires and not self.empty)
        if push:
            self.mem[self.wptr] = self.inp.data.value
            self.wptr = (self.wptr + 1) % self.depth
        if pop:
            self.rptr = (self.rptr + 1) % self.depth
        self.cnt += int(push) - int(pop)


class SpillRegister(Module):
    """Two-slot skid buffer (``spill_register``): breaks the ready path
    while sustaining full throughput.

    The output register ``o`` holds the head word; the spill register
    ``s`` catches the word arriving while the output is stalled.  FIFO
    order, capacity 2, one-cycle latency, one word per cycle throughput.
    """

    def __init__(self, name: str, inp: MessagePort, out: MessagePort):
        super().__init__(name)
        self.inp = inp
        self.out = out
        self.o_data = 0
        self.o_valid = False
        self.s_data = 0
        self.s_valid = False
        for w in (*inp.wires(), *out.wires()):
            self.adopt(w)

    def comb_inputs(self):
        return ()      # both slots are registers

    def comb_outputs(self):
        return (self.inp.ack, self.out.valid, self.out.data)

    def eval_comb(self):
        self.inp.ack.set(0 if (self.o_valid and self.s_valid) else 1)
        self.out.valid.set(1 if self.o_valid else 0)
        self.out.data.set(self.o_data)

    def tick(self):
        pop = bool(self.out.fires)
        push = bool(self.inp.fires)
        data = self.inp.data.value
        # state after the pop: the spill word moves up
        o2_valid = self.s_valid if pop else self.o_valid
        o2_data = self.s_data if pop else self.o_data
        s2_valid = False if pop else self.s_valid
        # the push fills the first free slot
        if push and not o2_valid:
            self.o_data, self.o_valid = data, True
            self.s_valid = s2_valid
        elif push:
            self.o_data, self.o_valid = o2_data, o2_valid
            self.s_data, self.s_valid = data, True
        else:
            self.o_data, self.o_valid = o2_data, o2_valid
            self.s_valid = s2_valid


class PassthroughStreamFifo(Module):
    """Stream FIFO with passthrough: reads allowed only when non-empty,
    writes when non-full -- *except* that a simultaneous read+write is
    accepted even when full (the slot being freed is reused), and an empty
    FIFO passes input straight to the output in the same cycle.

    Section 7.2 of the paper observes that the original IP does not
    actually *prevent* contract-violating writes; it only raises simulation
    assertions.  :meth:`unguarded_push` reproduces that behaviour for the
    safety experiment.
    """

    def __init__(self, name: str, inp: MessagePort, out: MessagePort,
                 depth: int = 4, guard_writes: bool = True):
        super().__init__(name)
        self.inp = inp
        self.out = out
        self.depth = depth
        self.guard_writes = guard_writes
        self.mem: List[int] = [0] * depth
        self.rptr = 0
        self.wptr = 0
        self.cnt = 0
        self.overflows = 0
        self.assertions: List[str] = []
        self.cycle = 0
        for w in (*inp.wires(), *out.wires()):
            self.adopt(w)

    @property
    def full(self) -> bool:
        return self.cnt == self.depth

    @property
    def empty(self) -> bool:
        return self.cnt == 0

    def comb_inputs(self):
        # passthrough: the output combinationally mirrors the input, and
        # the push guard reads the (own) out.valid / downstream out.ack
        return (self.inp.valid, self.inp.data, self.out.valid,
                self.out.ack)

    def comb_outputs(self):
        return (self.inp.ack, self.out.valid, self.out.data)

    def eval_comb(self):
        popping = bool(self.out.valid.value and self.out.ack.value)
        if self.guard_writes:
            # write allowed when not full, or when full with simultaneous pop
            can_push = (not self.full) or popping
        else:
            can_push = True  # the original IP: only an assertion guards this
        self.inp.ack.set(1 if can_push else 0)
        if self.empty:
            # passthrough: input shows on the output in the same cycle
            self.out.valid.set(self.inp.valid.value)
            self.out.data.set(self.inp.data.value)
        else:
            self.out.valid.set(1)
            self.out.data.set(self.mem[self.rptr])

    def tick(self):
        in_fire = self.inp.fires
        out_fire = self.out.fires
        if self.empty and in_fire and out_fire:
            pass  # passthrough: never touches the memory
        else:
            if in_fire:
                if self.full and not out_fire:
                    self.overflows += 1
                    self.assertions.append(
                        f"cycle {self.cycle}: push on full fifo (data "
                        f"{self.inp.data.value:#x} lost)"
                    )
                else:
                    self.mem[self.wptr] = self.inp.data.value
                    self.wptr = (self.wptr + 1) % self.depth
                    self.cnt += 1
            if out_fire and not self.empty:
                self.rptr = (self.rptr + 1) % self.depth
                self.cnt -= 1
        self.cycle += 1

"""Memory subsystem baselines: the Figure 1 raw-wire memory, a handshake
memory, and a cached memory with dynamic hit/miss latency (Figure 4).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..codegen.simfsm import MessagePort
from ..rtl.module import Module


def default_contents(addr: int) -> int:
    """The paper's toy memory: address ``a`` holds value ``a`` (rendered
    'Val a' in Figure 1)."""
    return addr & 0xFF


class RawMemory(Module):
    """The SystemVerilog interface of Figure 1: ``inp``/``req``/``out``
    wires and *no* handshake.  The memory needs ``latency`` cycles to
    dereference; a new request is only noticed when ``req`` is high and
    the pipeline is idle.  This is the module against which the paper's
    ``Top`` misbehaves."""

    def __init__(self, name: str, latency: int = 2,
                 contents: Callable[[int], int] = default_contents):
        super().__init__(name)
        self.latency = latency
        self.contents = contents
        self.inp = self.wire("inp", 8)
        self.req = self.wire("req", 1)
        self.out = self.wire("out", 8)
        self._busy = 0       # cycles remaining on the in-flight lookup
        self._pending = 0    # address being dereferenced
        self._result: Optional[int] = None

    def comb_inputs(self):
        return ()      # req/inp are only sampled at the clock edge

    def comb_outputs(self):
        return (self.out,)

    def eval_comb(self):
        if self._result is not None:
            self.out.set(self._result)

    def tick(self):
        if self._busy > 0:
            # the lookup pipeline only advances while req is asserted --
            # the behaviour Figure 1's Top fails to account for
            if self.req.value:
                self._busy -= 1
                if self._busy == 0:
                    self._result = self.contents(self._pending)
        elif self.req.value:
            self._pending = self.inp.value
            self._busy = self.latency - 1
            if self._busy == 0:
                self._result = self.contents(self._pending)


class NaiveTop(Module):
    """Figure 1's ``Top``: toggles ``req`` every cycle, expects the output
    exactly one cycle after raising ``req`` -- the classic timing hazard."""

    def __init__(self, name: str, mem: RawMemory):
        super().__init__(name)
        self.mem = mem
        self.address = 0
        self.reads: List[Tuple[int, int]] = []
        self._req = 1
        self.cycle = 0

    def comb_inputs(self):
        return ()

    def comb_outputs(self):
        # NaiveTop never tracks these wires itself (part of the hazard
        # it models); declaring them keeps the scheduler's change scan
        # exact instead of falling back to the catch-all pass
        return (self.mem.req, self.mem.inp)

    def eval_comb(self):
        self.mem.req.set(self._req)
        self.mem.inp.set(self.address)

    def tick(self):
        if self._req:
            self.address = (self.address + 1) & 0xFF
        else:
            self.reads.append((self.cycle, self.mem.out.value))
        self._req ^= 1
        self.cycle += 1


class HandshakeMemory(Module):
    """Request/response memory with valid/ack handshakes and a fixed
    processing latency."""

    def __init__(self, name: str, req: MessagePort, res: MessagePort,
                 latency: int = 2,
                 contents: Callable[[int], int] = default_contents):
        super().__init__(name)
        self.req = req
        self.res = res
        self.latency = latency
        self.contents = contents
        self.store: Dict[int, int] = {}
        self._busy = 0
        self._pending = 0
        self._have_result = False
        self._result = 0
        for w in (*req.wires(), *res.wires()):
            self.adopt(w)

    def lookup(self, addr: int) -> int:
        return self.store.get(addr, self.contents(addr))

    def comb_inputs(self):
        return ()

    def comb_outputs(self):
        return (self.req.ack, self.res.valid, self.res.data)

    def eval_comb(self):
        self.req.ack.set(
            1 if (self._busy == 0 and not self._have_result) else 0
        )
        self.res.valid.set(1 if self._have_result else 0)
        self.res.data.set(self._result)

    def tick(self):
        if self._have_result:
            if self.res.fires:
                self._have_result = False
        elif self._busy > 0:
            self._busy -= 1
            if self._busy == 0:
                self._result = self.lookup(self._pending)
                self._have_result = True
        elif self.req.fires:
            self._pending = self.req.data.value
            self._busy = self.latency - 1
            if self._busy == 0:
                self._result = self.lookup(self._pending)
                self._have_result = True


class CachedMemory(Module):
    """Memory front-end with a small direct-mapped cache: hits respond
    after ``hit_latency`` cycles, misses after ``miss_latency`` (Figure 4's
    dynamic timing behaviour).  Tracks per-request latencies for the
    experiment harness."""

    def __init__(self, name: str, req: MessagePort, res: MessagePort,
                 lines: int = 4, hit_latency: int = 1, miss_latency: int = 3,
                 contents: Callable[[int], int] = default_contents):
        super().__init__(name)
        self.req = req
        self.res = res
        self.lines = lines
        self.hit_latency = hit_latency
        self.miss_latency = miss_latency
        self.contents = contents
        self.tags: List[Optional[int]] = [None] * lines
        self.data: List[int] = [0] * lines
        self._busy = 0
        self._pending = 0
        self._was_hit = False
        self._have_result = False
        self._result = 0
        self.latencies: List[Tuple[int, str, int]] = []  # (addr, kind, cycles)
        self._req_cycle = 0
        self.cycle = 0
        for w in (*req.wires(), *res.wires()):
            self.adopt(w)

    def comb_inputs(self):
        return ()

    def comb_outputs(self):
        return (self.req.ack, self.res.valid, self.res.data)

    def eval_comb(self):
        self.req.ack.set(
            1 if (self._busy == 0 and not self._have_result) else 0
        )
        self.res.valid.set(1 if self._have_result else 0)
        self.res.data.set(self._result)

    def tick(self):
        if self._have_result:
            if self.res.fires:
                self._have_result = False
        elif self._busy > 0:
            self._busy -= 1
            if self._busy == 0:
                self._finish()
        elif self.req.fires:
            addr = self.req.data.value
            self._pending = addr
            self._req_cycle = self.cycle
            idx = addr % self.lines
            self._was_hit = self.tags[idx] == addr
            delay = self.hit_latency if self._was_hit else self.miss_latency
            self._busy = delay - 1
            if self._busy == 0:
                self._finish()
        self.cycle += 1

    def _finish(self):
        addr = self._pending
        idx = addr % self.lines
        if self._was_hit:
            value = self.data[idx]
        else:
            value = self.contents(addr)
            self.tags[idx] = addr
            self.data[idx] = value
        self._result = value
        self._have_result = True
        self.latencies.append(
            (addr, "hit" if self._was_hit else "miss",
             self.cycle - self._req_cycle + 1)
        )

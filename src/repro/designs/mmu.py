"""CVA6-style MMU baselines: translation lookaside buffer and page table
walker.

A simplified Sv39 flavour sized for simulation: 12-bit virtual page
numbers walked in three 4-bit levels, 16-bit PTEs::

    PTE[15] = valid, PTE[14] = leaf, PTE[11:0] = ppn / next-level base

The PTW's latency varies with the walk depth and the memory's response
time -- the dynamic timing behaviour the paper highlights as inexpressible
under static contracts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..codegen.simfsm import MessagePort
from ..rtl.module import Module

PTE_VALID = 1 << 15
PTE_LEAF = 1 << 14
PPN_MASK = 0xFFF
FAULT = 1 << 15  # response fault flag

ROOT_BASE = 0x100


def build_page_table(mapping: Dict[int, int],
                     root_base: int = ROOT_BASE) -> Dict[int, int]:
    """Construct a 3-level page table for ``vpn -> ppn`` pairs.

    Returns a word-addressed memory image (address -> 16-bit word).
    Table frames are allocated downward from ``root_base``."""
    memory: Dict[int, int] = {}
    next_frame = [root_base + 0x10]

    def alloc() -> int:
        base = next_frame[0]
        next_frame[0] += 0x10
        return base

    tables: Dict[Tuple[int, ...], int] = {(): root_base}
    for vpn, ppn in sorted(mapping.items()):
        idx2 = (vpn >> 8) & 0xF
        idx1 = (vpn >> 4) & 0xF
        idx0 = vpn & 0xF
        l2 = tables[()]
        key1 = (idx2,)
        if key1 not in tables:
            tables[key1] = alloc()
            memory[l2 + idx2] = PTE_VALID | (tables[key1] & PPN_MASK)
        l1 = tables[key1]
        key0 = (idx2, idx1)
        if key0 not in tables:
            tables[key0] = alloc()
            memory[l1 + idx1] = PTE_VALID | (tables[key0] & PPN_MASK)
        l0 = tables[key0]
        memory[l0 + idx0] = PTE_VALID | PTE_LEAF | (ppn & PPN_MASK)
    return memory


class PageTableWalker(Module):
    """Baseline PTW FSM: up to three memory round trips per request, one
    registered compute cycle after each PTE (mirroring CVA6's registered
    PTE path)."""

    IDLE, ISSUE, WAIT, STEP, RESPOND = range(5)

    def __init__(self, name: str, host_req: MessagePort,
                 host_res: MessagePort, mem_req: MessagePort,
                 mem_res: MessagePort, root_base: int = ROOT_BASE):
        super().__init__(name)
        self.host_req = host_req
        self.host_res = host_res
        self.mem_req = mem_req
        self.mem_res = mem_res
        self.root_base = root_base
        self.state = self.IDLE
        self.vpn = 0
        self.level = 2
        self.base = root_base
        self.pte = 0
        self.result = 0
        self.walk_lengths: List[int] = []
        self._req_cycle = 0
        self.cycle = 0
        for p in (host_req, host_res, mem_req, mem_res):
            for w in p.wires():
                self.adopt(w)

    def _index(self, level: int) -> int:
        return (self.vpn >> (4 * level)) & 0xF

    def comb_inputs(self):
        return ()      # pure function of the walk FSM state

    def comb_outputs(self):
        return (self.host_req.ack, self.mem_req.valid, self.mem_req.data,
                self.mem_res.ack, self.host_res.valid, self.host_res.data)

    def eval_comb(self):
        self.host_req.ack.set(1 if self.state == self.IDLE else 0)
        self.mem_req.valid.set(1 if self.state == self.ISSUE else 0)
        self.mem_req.data.set(self.base + self._index(self.level))
        self.mem_res.ack.set(1 if self.state == self.WAIT else 0)
        self.host_res.valid.set(1 if self.state == self.RESPOND else 0)
        self.host_res.data.set(self.result)

    def tick(self):
        if self.state == self.IDLE:
            if self.host_req.fires:
                self.vpn = self.host_req.data.value & 0xFFF
                self.level = 2
                self.base = self.root_base
                self._req_cycle = self.cycle
                self.state = self.ISSUE
        elif self.state == self.ISSUE:
            if self.mem_req.fires:
                self.state = self.WAIT
        elif self.state == self.WAIT:
            if self.mem_res.fires:
                self.pte = self.mem_res.data.value
                self.state = self.STEP
        elif self.state == self.STEP:
            # one registered cycle to decode the PTE
            if not self.pte & PTE_VALID:
                self.result = FAULT
                self.state = self.RESPOND
            elif self.pte & PTE_LEAF:
                low_mask = (1 << (4 * self.level)) - 1
                self.result = (self.pte & PPN_MASK) | (self.vpn & low_mask)
                self.state = self.RESPOND
            elif self.level == 0:
                self.result = FAULT  # level-0 pointer PTE is a fault
                self.state = self.RESPOND
            else:
                self.base = self.pte & PPN_MASK
                self.level -= 1
                self.state = self.ISSUE
        elif self.state == self.RESPOND:
            if self.host_res.fires:
                self.walk_lengths.append(self.cycle - self._req_cycle + 1)
                self.state = self.IDLE
        self.cycle += 1


class Tlb(Module):
    """Baseline TLB: fully-associative, FIFO replacement; hit responds
    after one registered cycle, miss defers to the PTW."""

    IDLE, HIT_RESPOND, WALK, FILL, RESPOND = range(5)

    def __init__(self, name: str, host_req: MessagePort,
                 host_res: MessagePort, ptw_req: MessagePort,
                 ptw_res: MessagePort, entries: int = 4):
        super().__init__(name)
        self.host_req = host_req
        self.host_res = host_res
        self.ptw_req = ptw_req
        self.ptw_res = ptw_res
        self.entries = entries
        self.tags: List[Optional[int]] = [None] * entries
        self.data: List[int] = [0] * entries
        self.rr = 0
        self.state = self.IDLE
        self.vpn = 0
        self.result = 0
        self.hits = 0
        self.misses = 0
        self.latencies: List[Tuple[str, int]] = []
        self._req_cycle = 0
        self.cycle = 0
        for p in (host_req, host_res, ptw_req, ptw_res):
            for w in p.wires():
                self.adopt(w)

    def comb_inputs(self):
        return ()      # pure function of the TLB FSM state

    def comb_outputs(self):
        return (self.host_req.ack, self.ptw_req.valid, self.ptw_req.data,
                self.ptw_res.ack, self.host_res.valid, self.host_res.data)

    def eval_comb(self):
        self.host_req.ack.set(1 if self.state == self.IDLE else 0)
        self.ptw_req.valid.set(1 if self.state == self.WALK else 0)
        self.ptw_req.data.set(self.vpn)
        self.ptw_res.ack.set(1 if self.state == self.WALK else 0)
        respond = self.state in (self.HIT_RESPOND, self.RESPOND)
        self.host_res.valid.set(1 if respond else 0)
        self.host_res.data.set(self.result)

    def tick(self):
        if self.state == self.IDLE:
            if self.host_req.fires:
                self.vpn = self.host_req.data.value & 0xFFF
                self._req_cycle = self.cycle
                hit_way = None
                for i, t in enumerate(self.tags):
                    if t == self.vpn:
                        hit_way = i
                        break
                if hit_way is not None:
                    self.hits += 1
                    self.result = self.data[hit_way]
                    self.state = self.HIT_RESPOND
                else:
                    self.misses += 1
                    self.state = self.WALK
        elif self.state == self.WALK:
            if self.ptw_req.fires:
                pass  # request accepted; stay until the response
            if self.ptw_res.fires:
                self.result = self.ptw_res.data.value
                self.state = self.FILL
        elif self.state == self.FILL:
            if not self.result & FAULT:
                self.tags[self.rr] = self.vpn
                self.data[self.rr] = self.result
                self.rr = (self.rr + 1) % self.entries
            self.state = self.RESPOND
        elif self.state in (self.HIT_RESPOND, self.RESPOND):
            if self.host_res.fires:
                kind = "hit" if self.state == self.HIT_RESPOND else "miss"
                self.latencies.append(
                    (kind, self.cycle - self._req_cycle + 1)
                )
                self.state = self.IDLE
        self.cycle += 1

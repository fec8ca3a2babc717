"""AXI-Lite baselines: a register-file slave, a serializing demux router
(1 master -> N slaves, routed by high address bits) and a mux router
(N masters -> 1 slave, fair round-robin arbitration).

The five AXI-Lite channels (AW, W, B, AR, R) are modelled as five messages
on one channel; the routers process one transaction at a time, preserving
AW/W -> B and AR -> R ordering exactly like the paper's routers preserve
ordering with their internal FIFOs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..codegen.simfsm import MessagePort
from ..rtl.module import Module

OKAY = 0
ADDR_W = 12
DATA_W = 16


class AxiPorts:
    """The five message ports of one AXI-Lite interface."""

    def __init__(self, prefix: str):
        self.aw = MessagePort(f"{prefix}.aw", ADDR_W)
        self.w = MessagePort(f"{prefix}.w", DATA_W)
        self.b = MessagePort(f"{prefix}.b", 2)
        self.ar = MessagePort(f"{prefix}.ar", ADDR_W)
        self.r = MessagePort(f"{prefix}.r", DATA_W)

    def all(self):
        return (self.aw, self.w, self.b, self.ar, self.r)

    def wires(self):
        for p in self.all():
            yield from p.wires()


class RegFileSlave(Module):
    """Minimal AXI-Lite slave: a word-addressed register file."""

    W_IDLE, W_DATA, W_RESP = range(3)
    R_IDLE, R_RESP = range(2)

    def __init__(self, name: str, ports: AxiPorts, words: int = 64):
        super().__init__(name)
        self.ports = ports
        self.words = words
        self.mem: Dict[int, int] = {}
        self.wstate = self.W_IDLE
        self.rstate = self.R_IDLE
        self.waddr = 0
        self.raddr = 0
        for w in ports.wires():
            self.adopt(w)

    def _index(self, addr: int) -> int:
        return addr % self.words

    def comb_inputs(self):
        return ()      # pure function of the two FSM states

    def comb_outputs(self):
        p = self.ports
        return (p.aw.ack, p.w.ack, p.b.valid, p.b.data, p.ar.ack,
                p.r.valid, p.r.data)

    def eval_comb(self):
        p = self.ports
        p.aw.ack.set(1 if self.wstate == self.W_IDLE else 0)
        p.w.ack.set(1 if self.wstate == self.W_DATA else 0)
        p.b.valid.set(1 if self.wstate == self.W_RESP else 0)
        p.b.data.set(OKAY)
        p.ar.ack.set(1 if self.rstate == self.R_IDLE else 0)
        p.r.valid.set(1 if self.rstate == self.R_RESP else 0)
        p.r.data.set(self.mem.get(self._index(self.raddr), 0))

    def tick(self):
        p = self.ports
        if self.wstate == self.W_IDLE and p.aw.fires:
            self.waddr = p.aw.data.value
            self.wstate = self.W_DATA
        elif self.wstate == self.W_DATA and p.w.fires:
            self.mem[self._index(self.waddr)] = p.w.data.value
            self.wstate = self.W_RESP
        elif self.wstate == self.W_RESP and p.b.fires:
            self.wstate = self.W_IDLE
        if self.rstate == self.R_IDLE and p.ar.fires:
            self.raddr = p.ar.data.value
            self.rstate = self.R_RESP
        elif self.rstate == self.R_RESP and p.r.fires:
            self.rstate = self.R_IDLE


class AxiLiteDemux(Module):
    """1 master -> N slaves, selected by the top address bits."""

    W_IDLE, W_DATA, W_FWD_AW, W_FWD_W, W_WAIT_B, W_RESP = range(6)
    R_IDLE, R_FWD_AR, R_WAIT_R, R_RESP = range(4)

    def __init__(self, name: str, master: AxiPorts, slaves: List[AxiPorts]):
        super().__init__(name)
        self.master = master
        self.slaves = slaves
        self.sel_bits = max((len(slaves) - 1).bit_length(), 1)
        self.wstate = self.W_IDLE
        self.rstate = self.R_IDLE
        self.awq = self.wq = self.bq = 0
        self.arq = self.rq = 0
        self.wsel = self.rsel = 0
        for w in master.wires():
            self.adopt(w)
        for s in slaves:
            for w in s.wires():
                self.adopt(w)

    def _select(self, addr: int) -> int:
        return (addr >> (ADDR_W - self.sel_bits)) % len(self.slaves)

    def comb_inputs(self):
        return ()      # routing is a pure function of the FSM states

    def comb_outputs(self):
        m = self.master
        outs = [m.aw.ack, m.w.ack, m.b.valid, m.b.data, m.ar.ack,
                m.r.valid, m.r.data]
        for s in self.slaves:
            outs += [s.aw.valid, s.aw.data, s.w.valid, s.w.data,
                     s.b.ack, s.ar.valid, s.ar.data, s.r.ack]
        return outs

    def eval_comb(self):
        m = self.master
        m.aw.ack.set(1 if self.wstate == self.W_IDLE else 0)
        m.w.ack.set(1 if self.wstate == self.W_DATA else 0)
        m.b.valid.set(1 if self.wstate == self.W_RESP else 0)
        m.b.data.set(self.bq)
        m.ar.ack.set(1 if self.rstate == self.R_IDLE else 0)
        m.r.valid.set(1 if self.rstate == self.R_RESP else 0)
        m.r.data.set(self.rq)
        for i, s in enumerate(self.slaves):
            s.aw.valid.set(
                1 if (self.wstate == self.W_FWD_AW and self.wsel == i) else 0
            )
            s.aw.data.set(self.awq)
            s.w.valid.set(
                1 if (self.wstate == self.W_FWD_W and self.wsel == i) else 0
            )
            s.w.data.set(self.wq)
            s.b.ack.set(
                1 if (self.wstate == self.W_WAIT_B and self.wsel == i) else 0
            )
            s.ar.valid.set(
                1 if (self.rstate == self.R_FWD_AR and self.rsel == i) else 0
            )
            s.ar.data.set(self.arq)
            s.r.ack.set(
                1 if (self.rstate == self.R_WAIT_R and self.rsel == i) else 0
            )

    def tick(self):
        m = self.master
        if self.wstate == self.W_IDLE and m.aw.fires:
            self.awq = m.aw.data.value
            self.wsel = self._select(self.awq)
            self.wstate = self.W_DATA
        elif self.wstate == self.W_DATA and m.w.fires:
            self.wq = m.w.data.value
            self.wstate = self.W_FWD_AW
        elif self.wstate == self.W_FWD_AW and self.slaves[self.wsel].aw.fires:
            self.wstate = self.W_FWD_W
        elif self.wstate == self.W_FWD_W and self.slaves[self.wsel].w.fires:
            self.wstate = self.W_WAIT_B
        elif self.wstate == self.W_WAIT_B and self.slaves[self.wsel].b.fires:
            self.bq = self.slaves[self.wsel].b.data.value
            self.wstate = self.W_RESP
        elif self.wstate == self.W_RESP and m.b.fires:
            self.wstate = self.W_IDLE

        if self.rstate == self.R_IDLE and m.ar.fires:
            self.arq = m.ar.data.value
            self.rsel = self._select(self.arq)
            self.rstate = self.R_FWD_AR
        elif self.rstate == self.R_FWD_AR and self.slaves[self.rsel].ar.fires:
            self.rstate = self.R_WAIT_R
        elif self.rstate == self.R_WAIT_R and self.slaves[self.rsel].r.fires:
            self.rq = self.slaves[self.rsel].r.data.value
            self.rstate = self.R_RESP
        elif self.rstate == self.R_RESP and m.r.fires:
            self.rstate = self.R_IDLE


class AxiLiteMux(Module):
    """N masters -> 1 slave with fair round-robin arbitration."""

    W_IDLE, W_DATA, W_FWD_AW, W_FWD_W, W_WAIT_B, W_RESP = range(6)
    R_IDLE, R_FWD_AR, R_WAIT_R, R_RESP = range(4)

    def __init__(self, name: str, masters: List[AxiPorts], slave: AxiPorts):
        super().__init__(name)
        self.masters = masters
        self.slave = slave
        self.wstate = self.W_IDLE
        self.rstate = self.R_IDLE
        self.wgrant = self.rgrant = 0
        self.wrr = self.rrr = 0
        self.awq = self.wq = self.bq = 0
        self.arq = self.rq = 0
        self.grants: List[int] = []
        for mp in masters:
            for w in mp.wires():
                self.adopt(w)
        for w in slave.wires():
            self.adopt(w)

    def _pick(self, rr: int, requesting) -> Optional[int]:
        n = len(self.masters)
        for k in range(n):
            i = (rr + k) % n
            if requesting(i):
                return i
        return None

    def comb_inputs(self):
        # combinational arbitration: the AW/AR acks consult every
        # master's valid
        return [w for m in self.masters for w in (m.aw.valid, m.ar.valid)]

    def comb_outputs(self):
        outs = []
        for m in self.masters:
            outs += [m.aw.ack, m.w.ack, m.b.valid, m.b.data, m.ar.ack,
                     m.r.valid, m.r.data]
        s = self.slave
        outs += [s.aw.valid, s.aw.data, s.w.valid, s.w.data, s.b.ack,
                 s.ar.valid, s.ar.data, s.r.ack]
        return outs

    def eval_comb(self):
        s = self.slave
        for i, m in enumerate(self.masters):
            m.aw.ack.set(
                1 if (self.wstate == self.W_IDLE
                      and self._pick(self.wrr,
                                     lambda j: self.masters[j].aw.valid.value)
                      == i) else 0
            )
            m.w.ack.set(
                1 if (self.wstate == self.W_DATA and self.wgrant == i) else 0
            )
            m.b.valid.set(
                1 if (self.wstate == self.W_RESP and self.wgrant == i) else 0
            )
            m.b.data.set(self.bq)
            m.ar.ack.set(
                1 if (self.rstate == self.R_IDLE
                      and self._pick(self.rrr,
                                     lambda j: self.masters[j].ar.valid.value)
                      == i) else 0
            )
            m.r.valid.set(
                1 if (self.rstate == self.R_RESP and self.rgrant == i) else 0
            )
            m.r.data.set(self.rq)
        s.aw.valid.set(1 if self.wstate == self.W_FWD_AW else 0)
        s.aw.data.set(self.awq)
        s.w.valid.set(1 if self.wstate == self.W_FWD_W else 0)
        s.w.data.set(self.wq)
        s.b.ack.set(1 if self.wstate == self.W_WAIT_B else 0)
        s.ar.valid.set(1 if self.rstate == self.R_FWD_AR else 0)
        s.ar.data.set(self.arq)
        s.r.ack.set(1 if self.rstate == self.R_WAIT_R else 0)

    def tick(self):
        if self.wstate == self.W_IDLE:
            for i, m in enumerate(self.masters):
                if m.aw.fires:
                    self.wgrant = i
                    self.grants.append(i)
                    self.awq = m.aw.data.value
                    self.wstate = self.W_DATA
                    break
        elif self.wstate == self.W_DATA and \
                self.masters[self.wgrant].w.fires:
            self.wq = self.masters[self.wgrant].w.data.value
            self.wstate = self.W_FWD_AW
        elif self.wstate == self.W_FWD_AW and self.slave.aw.fires:
            self.wstate = self.W_FWD_W
        elif self.wstate == self.W_FWD_W and self.slave.w.fires:
            self.wstate = self.W_WAIT_B
        elif self.wstate == self.W_WAIT_B and self.slave.b.fires:
            self.bq = self.slave.b.data.value
            self.wstate = self.W_RESP
        elif self.wstate == self.W_RESP and \
                self.masters[self.wgrant].b.fires:
            self.wrr = (self.wgrant + 1) % len(self.masters)
            self.wstate = self.W_IDLE

        if self.rstate == self.R_IDLE:
            for i, m in enumerate(self.masters):
                if m.ar.fires:
                    self.rgrant = i
                    self.arq = m.ar.data.value
                    self.rstate = self.R_FWD_AR
                    break
        elif self.rstate == self.R_FWD_AR and self.slave.ar.fires:
            self.rstate = self.R_WAIT_R
        elif self.rstate == self.R_WAIT_R and self.slave.r.fires:
            self.rq = self.slave.r.data.value
            self.rstate = self.R_RESP
        elif self.rstate == self.R_RESP and \
                self.masters[self.rgrant].r.fires:
            self.rrr = (self.rgrant + 1) % len(self.masters)
            self.rstate = self.R_IDLE


class AxiMasterDriver(Module):
    """Test-bench master: issues queued write/read operations in order."""

    IDLE, AW, W, B, AR, R = range(6)

    def __init__(self, name: str, ports: AxiPorts):
        super().__init__(name)
        self.ports = ports
        self.ops: List[Tuple] = []     # ("w", addr, data) | ("r", addr)
        self.responses: List[Tuple[int, str, int]] = []
        self.state = self.IDLE
        self.cycle = 0
        for w in ports.wires():
            self.adopt(w)

    def write(self, addr: int, data: int):
        self.ops.append(("w", addr, data))

    def read(self, addr: int):
        self.ops.append(("r", addr))

    @property
    def done(self) -> bool:
        return self.state == self.IDLE and not self.ops

    def comb_inputs(self):
        return ()      # drives from its op queue and FSM state

    def comb_outputs(self):
        p = self.ports
        return (p.aw.valid, p.aw.data, p.w.valid, p.w.data, p.b.ack,
                p.ar.valid, p.ar.data, p.r.ack)

    def eval_comb(self):
        p = self.ports
        op = self.ops[0] if self.ops else None
        p.aw.valid.set(1 if self.state == self.AW else 0)
        p.w.valid.set(1 if self.state == self.W else 0)
        p.b.ack.set(1 if self.state == self.B else 0)
        p.ar.valid.set(1 if self.state == self.AR else 0)
        p.r.ack.set(1 if self.state == self.R else 0)
        if op:
            if op[0] == "w":
                p.aw.data.set(op[1])
                p.w.data.set(op[2])
            else:
                p.ar.data.set(op[1])

    def tick(self):
        p = self.ports
        if self.state == self.IDLE and self.ops:
            self.state = self.AW if self.ops[0][0] == "w" else self.AR
        elif self.state == self.AW and p.aw.fires:
            self.state = self.W
        elif self.state == self.W and p.w.fires:
            self.state = self.B
        elif self.state == self.B and p.b.fires:
            self.responses.append((self.cycle, "b", p.b.data.value))
            self.ops.pop(0)
            self.state = self.IDLE
        elif self.state == self.AR and p.ar.fires:
            self.state = self.R
        elif self.state == self.R and p.r.fires:
            self.responses.append((self.cycle, "r", p.r.data.value))
            self.ops.pop(0)
            self.state = self.IDLE
        self.cycle += 1

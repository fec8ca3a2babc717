"""Y86-64 5-stage pipelined CPU (the CSAPP PIPE microarchitecture) and
the RTL memory server that backs the Anvil sequential core.

:class:`Y86PipelineCpu` is a self-contained module in the
:class:`~repro.designs.pipeline.PipelinedAlu` idiom: all sequential
logic lives in ``tick()`` (stages computed in reverse order against the
current pipeline registers, then committed together), and ``eval_comb``
only drives the observability wires from committed state -- so the
module is fully hinted and the compiled cycle kernel engages.

Microarchitecture (CSAPP figure 4.52, adapted):

* predict-taken fetch (``predPC = valC`` for jumps/calls), mispredicted
  branches detected in execute squash the two wrong-path instructions;
* full forwarding network ``e_valE > m_valM > M_valE > W_valM > W_valE``
  with Sel A routing ``valP`` for call/jXX;
* load-use hazard: one-cycle stall of fetch/decode plus an execute
  bubble;
* ``ret``: three decode bubbles while fetch stalls;
* exceptions (HLT/ADR/INS) ride the stat field; an excepting
  instruction reaching writeback freezes the machine, younger
  instructions are squashed before they commit state, and condition
  codes are gated so wrong-path/post-exception ``OPq`` never set them.

The architectural contract (fault classification order, unsigned bounds
checks, ``R[0xF]`` reads zero, popq write order) is the one spelled out
in :mod:`repro.isa.reference`; :mod:`repro.isa.fuzz` differences the two
models over random programs.
"""

from __future__ import annotations

from typing import Dict

from ..codegen.simfsm import MessagePort
from ..isa.encoding import (
    ICALL,
    IHALT,
    IIRMOVQ,
    IJXX,
    IMRMOVQ,
    INOP,
    IOPQ,
    IPOPQ,
    IPUSHQ,
    IRET,
    IRMMOVQ,
    IRRMOVQ,
    RNONE,
    RSP,
    SADR,
    SAOK,
    SHLT,
    SINS,
    U64,
    insn_size,
    needs_regids,
    needs_valc,
    valid_instruction,
)
from ..isa.reference import MEM_SIZE, ArchState, alu, cond
from ..rtl.module import Module

#: pipeline-register stat for a bubble (never escapes to ArchState)
SBUB = 0

_ERROR_STATS = (SHLT, SADR, SINS)


def _bubble() -> Dict[str, int]:
    return {"stat": SBUB, "icode": INOP, "ifun": 0, "ra": RNONE,
            "rb": RNONE, "valc": 0, "valp": 0, "vala": 0, "valb": 0,
            "vale": 0, "valm": 0, "dste": RNONE, "dstm": RNONE,
            "srca": RNONE, "srcb": RNONE, "cnd": 0, "pc": 0}


class Y86PipelineCpu(Module):
    """The 5-stage pipelined CPU with unified instruction/data memory."""

    def __init__(self, name: str, program: bytes,
                 mem_size: int = MEM_SIZE):
        super().__init__(name)
        if len(program) > mem_size:
            raise ValueError(
                f"program ({len(program)} bytes) exceeds memory "
                f"({mem_size} bytes)")
        self.mem_size = mem_size
        self._image = bytes(program)
        # observability wires (driven from committed state only)
        self.w_pc = self.wire("w_pc", 64)
        self.w_icode = self.wire("w_icode", 4)
        self.w_stat = self.wire("w_stat", 3)
        self.halted_w = self.wire("halted", 1)
        self.instret_w = self.wire("instret", 32)
        self.rax = self.wire("rax", 64)
        self.rsp = self.wire("rsp", 64)
        self.cc = self.wire("cc", 3)
        # hazard-event counters for the unit tests
        self.loaduse_stalls = 0
        self.mispredict_squashes = 0
        self.ret_bubbles = 0
        self.memory = bytearray(self.mem_size)
        self.memory[:len(self._image)] = self._image
        self.registers = [0] * 16          # index 15 = RNONE, reads 0
        self.zf, self.sf, self.of = 1, 0, 0
        self.halted = False
        self.stat = SAOK
        self.stop_pc = 0
        self.instret = 0
        self.F = {"predpc": 0}
        self.D = _bubble()
        self.E = _bubble()
        self.M = _bubble()
        self.W = _bubble()

    # -- scheduler hints ----------------------------------------------
    def comb_inputs(self):
        return ()

    def comb_outputs(self):
        return (self.w_pc, self.w_icode, self.w_stat, self.halted_w,
                self.instret_w, self.rax, self.rsp, self.cc)

    def eval_comb(self):
        self.w_pc.set(self.W["pc"])
        self.w_icode.set(self.W["icode"])
        self.w_stat.set(self.W["stat"])
        self.halted_w.set(1 if self.halted else 0)
        self.instret_w.set(self.instret & 0xFFFFFFFF)
        self.rax.set(self.registers[0])
        self.rsp.set(self.registers[RSP])
        self.cc.set((self.zf << 2) | (self.sf << 1) | self.of)

    # -- architectural helpers ----------------------------------------
    def _rd8(self, addr: int) -> int:
        return int.from_bytes(self.memory[addr:addr + 8], "little")

    def _wr8(self, addr: int, value: int) -> None:
        self.memory[addr:addr + 8] = (value & U64).to_bytes(8, "little")

    def _mem_ok(self, addr: int) -> bool:
        return addr <= self.mem_size - 8

    def _rget(self, rid: int) -> int:
        rid &= 0xF          # the register file's 4-bit read port
        return self.registers[rid] if rid != RNONE else 0

    def arch_state(self) -> ArchState:
        """Final architectural state (meaningful once ``halted``)."""
        return ArchState(
            registers=tuple(self.registers[:15]),
            zf=self.zf, sf=self.sf, of=self.of,
            pc=self.stop_pc, stat=self.stat, instret=self.instret,
            memory=bytes(self.memory),
        )

    # -- the clock edge: all five stages ------------------------------
    def tick(self):
        if self.halted:
            return
        F, D, E, M, W = self.F, self.D, self.E, self.M, self.W

        # ---- writeback (oldest first: an excepting instruction
        # reaching W freezes the machine before any younger stage runs,
        # which is exactly CSAPP's W-stall/M-bubble exception gating)
        if W["stat"] in _ERROR_STATS:
            self.halted = True
            self.stat = W["stat"]
            self.stop_pc = W["pc"]
            self.instret += 1
            return
        if W["stat"] == SAOK:
            # the 4-bit write ports see only the id's low bits (an
            # upset above them must not index past the register file)
            dste, dstm = W["dste"] & 0xF, W["dstm"] & 0xF
            if dste != RNONE:
                self.registers[dste] = W["vale"]
            if dstm != RNONE:
                self.registers[dstm] = W["valm"]   # popq %rsp: M wins
            self.instret += 1

        # ---- memory stage
        m_stat = M["stat"]
        m_valm = 0
        if m_stat == SAOK:
            micode = M["icode"]
            if micode in (IMRMOVQ, IPOPQ, IRET):
                addr = M["vala"] if micode in (IPOPQ, IRET) else M["vale"]
                if self._mem_ok(addr):
                    m_valm = self._rd8(addr)
                else:
                    m_stat = SADR
            elif micode in (IRMMOVQ, IPUSHQ, ICALL):
                addr = M["vale"]
                if self._mem_ok(addr):
                    self._wr8(addr, M["vala"])
                else:
                    m_stat = SADR
        m_err = m_stat in _ERROR_STATS

        # ---- execute stage
        eicode = E["icode"]
        alufun = E["ifun"] if eicode == IOPQ else 0
        if eicode in (IRRMOVQ,):
            alua, alub = E["vala"], 0
        elif eicode == IIRMOVQ:
            alua, alub = E["valc"], 0
        elif eicode in (IRMMOVQ, IMRMOVQ):
            alua, alub = E["valc"], E["valb"]
        elif eicode == IOPQ:
            alua, alub = E["vala"], E["valb"]
        elif eicode in (ICALL, IPUSHQ):
            alua, alub = (-8) & U64, E["valb"]
        elif eicode in (IRET, IPOPQ):
            alua, alub = 8, E["valb"]
        else:
            alua, alub = 0, 0
        e_vale, e_zf, e_sf, e_of = alu(alufun, alua, alub)
        # CC gate: only a committed-path OPq with no older exception in
        # flight may set the flags
        if eicode == IOPQ and E["stat"] == SAOK and not m_err \
                and W["stat"] not in _ERROR_STATS:
            self.zf, self.sf, self.of = e_zf, e_sf, e_of
        e_cnd = cond(E["ifun"], self.zf, self.sf, self.of) \
            if eicode in (IJXX, IRRMOVQ) else 1
        e_dste = E["dste"]
        if eicode == IRRMOVQ and not e_cnd:
            e_dste = RNONE
        mispredict = (eicode == IJXX and E["stat"] == SAOK
                      and not e_cnd)

        # ---- decode stage
        dicode = D["icode"]
        d_srca = d_srcb = d_dste = d_dstm = RNONE
        if dicode in (IRRMOVQ, IRMMOVQ, IOPQ, IPUSHQ):
            d_srca = D["ra"]
        elif dicode in (IPOPQ, IRET):
            d_srca = RSP
        if dicode in (IOPQ, IRMMOVQ, IMRMOVQ):
            d_srcb = D["rb"]
        elif dicode in (IPUSHQ, IPOPQ, ICALL, IRET):
            d_srcb = RSP
        if dicode in (IRRMOVQ, IIRMOVQ, IOPQ):
            d_dste = D["rb"]
        elif dicode in (IPUSHQ, IPOPQ, ICALL, IRET):
            d_dste = RSP
        if dicode in (IMRMOVQ, IPOPQ):
            d_dstm = D["ra"]

        def forward(src: int, fallback: int) -> int:
            if src == RNONE:
                return fallback
            if src == e_dste:
                return e_vale
            if src == M["dstm"]:
                return m_valm
            if src == M["dste"]:
                return M["vale"]
            if src == W["dstm"]:
                return W["valm"]
            if src == W["dste"]:
                return W["vale"]
            return fallback

        if dicode in (ICALL, IJXX):
            d_vala = D["valp"]                      # Sel A
        else:
            d_vala = forward(d_srca, self._rget(d_srca))
        d_valb = forward(d_srcb, self._rget(d_srcb))

        # ---- pipeline control
        load_use = (eicode in (IMRMOVQ, IPOPQ)
                    and E["dstm"] in (d_srca, d_srcb)
                    and E["dstm"] != RNONE)
        ret_in_flight = IRET in (dicode, eicode, M["icode"]) and (
            (dicode == IRET and D["stat"] == SAOK)
            or (eicode == IRET and E["stat"] == SAOK)
            or (M["icode"] == IRET and M["stat"] == SAOK))
        f_stall = load_use or ret_in_flight
        d_stall = load_use
        d_bubble = mispredict or (ret_in_flight and not load_use)
        e_bubble = mispredict or load_use
        if load_use:
            self.loaduse_stalls += 1
        if mispredict:
            self.mispredict_squashes += 1
        if ret_in_flight and not load_use:
            self.ret_bubbles += 1

        # ---- fetch stage
        if M["icode"] == IJXX and M["stat"] == SAOK and not M["cnd"]:
            f_pc = M["vala"]                       # mispredict correction
        elif W["icode"] == IRET and W["stat"] == SAOK:
            f_pc = W["valm"]
        else:
            f_pc = F["predpc"]
        f = self._fetch(f_pc)
        f_predpc = f["valc"] if f["icode"] in (IJXX, ICALL) else f["valp"]

        # ---- commit the new pipeline registers
        if not f_stall:
            F["predpc"] = f_predpc
        if d_stall:
            pass
        elif d_bubble:
            self.D = _bubble()
        else:
            self.D = f
        if e_bubble:
            self.E = _bubble()
        else:
            self.E = dict(D, vala=d_vala, valb=d_valb, dste=d_dste,
                          dstm=d_dstm, srca=d_srca, srcb=d_srcb)
        if m_err and M["stat"] == SAOK:
            # the M-stage instruction faulted on its access: it rides to
            # W with the fault; its stat travels in the new W below
            pass
        self.M = _bubble() if m_err else dict(
            E, cnd=e_cnd, vale=e_vale, dste=e_dste)
        self.W = dict(M, stat=m_stat, valm=m_valm)

    def _fetch(self, pc: int) -> Dict[str, int]:
        """Fetch + predecode at ``pc`` with the shared classification
        order (bounds, INS, encoding bounds, HLT)."""
        out = _bubble()
        out["pc"] = pc
        if pc > self.mem_size - 1:
            out["stat"] = SADR
            out["valp"] = pc + 1
            return out
        byte0 = self.memory[pc]
        icode, ifun = byte0 >> 4, byte0 & 0xF
        if not valid_instruction(icode, ifun):
            out["stat"] = SINS
            out["valp"] = pc + 1
            return out
        size = insn_size(icode)
        if pc + size > self.mem_size:
            out["stat"] = SADR
            out["valp"] = pc + 1
            return out
        out["icode"], out["ifun"] = icode, ifun
        out["valp"] = pc + size
        pos = pc + 1
        if needs_regids(icode):
            out["ra"], out["rb"] = self.memory[pos] >> 4, \
                self.memory[pos] & 0xF
            pos += 1
        if needs_valc(icode):
            out["valc"] = self._rd8(pos)
        out["stat"] = SHLT if icode == IHALT else SAOK
        return out


def run_to_halt(sim, cpu: Y86PipelineCpu, max_cycles: int = 20_000) -> int:
    """Run ``sim`` until the CPU halts; returns the exact cycle count.
    Raises if the budget is exhausted."""
    cycles = sim.run(max_cycles, stop=lambda: cpu.halted)
    if not cpu.halted:
        raise RuntimeError(
            f"{cpu.name} did not halt within {max_cycles} cycles")
    return cycles


def attach_anvil_y86(sim, image: bytes, backend: str = "interp",
                     mem_size: int = MEM_SIZE, name: str = "y86"):
    """Build the Anvil sequential core co-simulation inside ``sim``:
    compile :func:`repro.anvil_designs.y86.y86_core`, replace the
    imem/dmem test-bench externals with a :class:`Y86MemoryServer`
    holding ``image``, and drain retire events on the host side.

    Returns ``(core, server, host)`` -- the compiled process module
    (architectural registers in ``core.regs``), the memory server, and
    the host :class:`~repro.codegen.simfsm.ExternalEndpoint`."""
    from ..anvil_designs.y86 import y86_core
    from ..codegen.simfsm import build_simulation
    from ..lang.process import System

    sys_ = System(f"{name}_sys")
    inst = sys_.add(y86_core(mem_size=mem_size, name=f"{name}_core"))
    chans = {n: sys_.expose(inst, n) for n in ("imem", "dmem", "host")}
    ss = build_simulation(sys_, sim=sim, backend=backend)
    imem_ext = ss.external(chans["imem"])
    dmem_ext = ss.external(chans["dmem"])
    host = ss.external(chans["host"])
    sim.modules = [m for m in sim.modules
                   if m not in (imem_ext, dmem_ext)]
    sim.scheduler.invalidate()
    server = sim.add(Y86MemoryServer(
        f"{name}_mem", imem_ext.ports["req"], imem_ext.ports["res"],
        dmem_ext.ports["req"], dmem_ext.ports["res"], image,
        mem_size=mem_size))
    host.always_receive("ev")
    core = next(m for m in sim.modules
                if getattr(m, "name", "") == f"{name}_core")
    return core, server, host


def anvil_arch_state(core, server) -> ArchState:
    """Read the :class:`~repro.isa.reference.ArchState` out of a halted
    Anvil core (``core.regs``) and its memory server."""
    regs = core.regs
    return ArchState(
        registers=tuple(regs[f"r{i}"] for i in range(15)),
        zf=regs["zf"], sf=regs["sf"], of=regs["of"],
        pc=regs["pc"], stat=regs["stat"], instret=regs["instret"],
        memory=bytes(server.memory),
    )


class Y86MemoryServer(Module):
    """Fetch + load/store server for the Anvil sequential core.

    Serves two request/response port pairs from one flat byte image:

    * ``imem``: request = 64-bit pc, response = the 10 bytes at pc
      little-endian-packed into 80 bits (zero-padded past the end);
    * ``dmem``: request = ``write(1) . wdata(64) . addr(16)`` (concat
      order, addr in the low bits), response = the 8-byte little-endian
      quad at addr (zero for writes, which commit at the request edge).

    Both legs respond with a fixed one-cycle latency, like
    :class:`~repro.designs.memory.HandshakeMemory`.
    """

    def __init__(self, name: str, imem_req: MessagePort,
                 imem_res: MessagePort, dmem_req: MessagePort,
                 dmem_res: MessagePort, program: bytes,
                 mem_size: int = MEM_SIZE):
        super().__init__(name)
        if len(program) > mem_size:
            raise ValueError(
                f"program ({len(program)} bytes) exceeds memory "
                f"({mem_size} bytes)")
        self.mem_size = mem_size
        self._image = bytes(program)
        self.memory = bytearray(mem_size)
        self.memory[:len(program)] = program
        self.imem_req, self.imem_res = imem_req, imem_res
        self.dmem_req, self.dmem_res = dmem_req, dmem_res
        self._ihave, self._iword = False, 0
        self._dhave, self._dword = False, 0
        for w in (*imem_req.wires(), *imem_res.wires(),
                  *dmem_req.wires(), *dmem_res.wires()):
            self.adopt(w)

    def comb_inputs(self):
        return ()

    def comb_outputs(self):
        return (self.imem_req.ack, self.imem_res.valid,
                self.imem_res.data, self.dmem_req.ack,
                self.dmem_res.valid, self.dmem_res.data)

    def eval_comb(self):
        self.imem_req.ack.set(0 if self._ihave else 1)
        self.imem_res.valid.set(1 if self._ihave else 0)
        self.imem_res.data.set(self._iword)
        self.dmem_req.ack.set(0 if self._dhave else 1)
        self.dmem_res.valid.set(1 if self._dhave else 0)
        self.dmem_res.data.set(self._dword)

    def tick(self):
        if self._ihave:
            if self.imem_res.fires:
                self._ihave = False
        elif self.imem_req.fires:
            pc = self.imem_req.data.value
            blob = bytes(self.memory[pc:pc + 10])
            self._iword = int.from_bytes(blob.ljust(10, b"\0"), "little")
            self._ihave = True
        if self._dhave:
            if self.dmem_res.fires:
                self._dhave = False
        elif self.dmem_req.fires:
            req = self.dmem_req.data.value
            addr = req & 0xFFFF
            wdata = (req >> 16) & U64
            write = (req >> 80) & 1
            if write:
                self.memory[addr:addr + 8] = wdata.to_bytes(8, "little")
                self._dword = 0
            else:
                blob = bytes(self.memory[addr:addr + 8]).ljust(8, b"\0")
                self._dword = int.from_bytes(blob, "little")
            self._dhave = True

"""Structural inventories of the hand-written baseline designs.

Each function counts the registers and combinational primitives a
hand-optimized RTL implementation of the design instantiates -- the
granularity a synthesis report would show.  These feed
:func:`repro.synth.cost.estimate_inventory` for the baseline columns of
Table 1.
"""

from __future__ import annotations

from typing import Dict

from .cost import CostReport, estimate_inventory


def _adder(bits: int) -> Dict[str, int]:
    return {"xor": 2 * bits, "and": 2 * bits}


def _cmp_eq(bits: int) -> Dict[str, int]:
    return {"xor": bits, "or": max(bits - 1, 1)}


def _mux(bits: int, ways: int = 2) -> Dict[str, int]:
    return {"mux2": bits * max(ways - 1, 1)}


def _acc(*parts: Dict[str, int]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for p in parts:
        for g, n in p.items():
            out[g] = out.get(g, 0) + n
    return out


def fifo_buffer(depth: int = 4, width: int = 32) -> CostReport:
    ptr_w = max((depth - 1).bit_length(), 1)
    cnt_w = depth.bit_length()
    flops = depth * width + 2 * ptr_w + cnt_w
    gates = _acc(
        _mux(width, depth),            # read mux
        {"and": depth * width},        # write decoder enables
        _adder(ptr_w), _adder(ptr_w), _adder(cnt_w),
        _cmp_eq(cnt_w), _cmp_eq(cnt_w),
        {"and": 6, "inv": 4},          # handshake logic
    )
    depth_lv = 2 + max((depth - 1).bit_length(), 1)
    return estimate_inventory("fifo_buffer[SV]", flops, gates, depth_lv)


def spill_register(width: int = 8) -> CostReport:
    flops = 2 * width + 2
    gates = _acc(
        _mux(width),                 # output select (head vs spill)
        _mux(width),                 # fill-target steering
        {"and": 10, "or": 5, "inv": 5},   # valid/ready control
    )
    return estimate_inventory("spill_register[SV]", flops, gates, 3)


def passthrough_stream_fifo(depth: int = 4, width: int = 8) -> CostReport:
    base = fifo_buffer(depth, width)
    gates = _acc(base.gates, _mux(width), {"and": 4, "or": 3})
    return estimate_inventory(
        "stream_fifo[SV]", base.flops, gates, base.depth + 1
    )


def tlb(entries: int = 4, vpn_w: int = 12, data_w: int = 16) -> CostReport:
    flops = entries * (vpn_w + 1 + data_w) + 2 + 16 + 12 + 3
    gates = _acc(
        *[_cmp_eq(vpn_w) for _ in range(entries)],   # CAM match
        _mux(data_w, entries),
        {"and": entries * 2, "or": entries},
        {"and": 10, "inv": 6},                        # FSM
    )
    return estimate_inventory("tlb[SV]", flops, gates, 4)


def ptw(addr_w: int = 16) -> CostReport:
    flops = 12 + 12 + 16 + 16 + 3 + 2
    gates = _acc(
        _adder(addr_w),             # table address
        _mux(4, 3),                 # level-index select
        _mux(16, 4),                # result select (leaf/fault/levels)
        {"or": 32, "and": 40},      # ppn|offset merge, PTE decode
        _cmp_eq(2), _cmp_eq(3),     # level / state compare
        {"and": 26, "inv": 10, "or": 10},  # handshake + state decode
    )
    return estimate_inventory("ptw[SV]", flops, gates, 7)


def aes_core() -> CostReport:
    # state + key schedule registers + control
    flops = 128 + 256 + 5 + 4 + 3 + 2
    # 16 dual-direction S-boxes + 4 key-schedule S-boxes (LUT-mapped,
    # 128 lut4 per direction); forward+inverse MixColumns as xtime-chain
    # XOR networks with per-byte select muxes; AddRoundKey; state/key
    # path muxing for enc/dec/128/256 and the round-key recursion
    gates = _acc(
        {"lut4": 20 * 128},                   # shared S-boxes
        {"xor": 16 * 24 + 16 * 56},           # mix + inv-mix networks
        {"mux2": 16 * 40},                    # xtime/select muxes
        {"xor": 128 + 128 + 3 * 32},          # addkey + key recursion
        _mux(128, 6), _mux(128, 4),           # state / round-key muxing
        {"and": 60, "inv": 24, "or": 24},     # round control
    )
    return estimate_inventory("aes_core[SV]", flops, gates, 9)


def axi_demux(n_slaves: int = 4, addr_w: int = 12,
              data_w: int = 16) -> CostReport:
    flops = addr_w * 2 + data_w * 2 + 2 + 2 * 2 + 6
    gates = _acc(
        _mux(data_w + 2, n_slaves),          # B/R response muxes
        {"and": n_slaves * 10, "inv": n_slaves * 2},  # per-slave gating
        _cmp_eq(2), _cmp_eq(2), _cmp_eq(3),
        {"and": 22, "inv": 10, "or": 10},    # two transaction FSMs
    )
    return estimate_inventory("axi_demux[SV]", flops, gates, 5)


def axi_mux(n_masters: int = 4, addr_w: int = 12,
            data_w: int = 16) -> CostReport:
    flops = addr_w * 2 + data_w * 2 + 2 + 2 * 2 + 2 * 2 + 6
    gates = _acc(
        _mux(addr_w, n_masters), _mux(data_w, n_masters),  # AW/W muxes
        _mux(addr_w, n_masters),                           # AR mux
        {"and": n_masters * 14, "or": n_masters * 8,
         "inv": n_masters * 3},    # two rotating-priority arbiters
        {"and": n_masters * 6},    # per-master response routing (B/R)
        {"and": 22, "inv": 10, "or": 10},   # two transaction FSMs
    )
    return estimate_inventory("axi_mux[SV]", flops, gates, 6)


def pipelined_alu(width: int = 16) -> CostReport:
    flops = 8 * width + 3 + width + 2
    gates = _acc(
        _adder(width), _adder(width),          # add, sub
        {"and": width, "or": width, "xor": width},
        {"mux2": 2 * width * 4},               # two barrel shifters
        {"xor": width, "and": width},          # comparator (lt)
        _mux(width, 8),                        # stage-2 select
        _cmp_eq(3), _cmp_eq(3), _cmp_eq(3),    # opcode decode
        {"and": 10, "inv": 5},                 # valid pipeline control
    )
    return estimate_inventory("pipelined_alu[SV]", flops, gates, 8)


def systolic_array(width: int = 8) -> CostReport:
    flops = 2 * 16 + 16 + 2 * 16 + 2
    gates = _acc(
        # four 8x8 multipliers (array style) + two adders
        {"and": 4 * width * width, "xor": 4 * 2 * width * width},
        _adder(16), _adder(16),
    )
    return estimate_inventory("systolic_array[SV]", flops, gates, 8)

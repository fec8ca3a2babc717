"""SystemVerilog emission across every evaluation design: well-formedness
and interface completeness."""

import re

import pytest

from repro import to_systemverilog
from repro.anvil_designs.aes import aes_core
from repro.anvil_designs.axi import axi_demux, axi_mux
from repro.anvil_designs.memory import (
    cached_memory_process,
    memory_process,
)
from repro.anvil_designs.mmu import ptw_process, tlb_process
from repro.anvil_designs.pipeline import pipelined_alu, systolic_array
from repro.anvil_designs.streams import (
    fifo_buffer,
    passthrough_stream_fifo,
    spill_register,
)
from repro.anvil_designs.y86 import y86_core
from repro.codegen.sysverilog import structural_check

from helpers import tool_module

ALL_DESIGNS = {
    "fifo": fifo_buffer,
    "spill": spill_register,
    "stream_fifo": passthrough_stream_fifo,
    "memory": memory_process,
    "cached_memory": cached_memory_process,
    "tlb": tlb_process,
    "ptw": ptw_process,
    "aes": aes_core,
    "axi_demux": axi_demux,
    "axi_mux": axi_mux,
    "alu": pipelined_alu,
    "systolic": systolic_array,
    "y86": y86_core,
}


#: these designs and the front-end digest's processes
SELECT_DESIGNS = {f.__name__: f for f in (
    *ALL_DESIGNS.values(), *tool_module("frontend_digest").FACTORIES)}


def non_name_selects(sv: str) -> list:
    """Every part-select in ``sv`` whose operand is not an identifier
    (a parenthesized expression, a literal or another select), with
    some text before it."""
    bad = []
    for m in re.finditer(r"\S\[", sv):
        end = start = m.start() + 1
        while start and (sv[start - 1].isalnum() or sv[start - 1] in "_'"):
            start -= 1
        if not sv[start:end].isidentifier():
            bad.append(sv[max(0, end - 40):end + 8])
    return bad


@pytest.fixture(scope="module")
def emitted():
    return {name: to_systemverilog(f()) for name, f in ALL_DESIGNS.items()}


@pytest.mark.parametrize("name", sorted(ALL_DESIGNS))
def test_module_well_formed(emitted, name):
    sv = emitted[name]
    c = structural_check(sv)
    assert c["modules"] == 1
    assert c["endmodules"] == 1
    assert c["always_ff"] >= 1
    assert sv.count("(") == sv.count(")")
    assert sv.count("[") == sv.count("]")


@pytest.mark.parametrize("name", sorted(ALL_DESIGNS))
def test_every_fire_wire_driven_once(emitted, name):
    sv = emitted[name]
    declared = re.findall(r"logic (t\d+_e\d+_fire);", sv)
    assigned = re.findall(r"assign (t\d+_e\d+_fire) =", sv)
    assert sorted(declared) == sorted(assigned)
    assert len(assigned) == len(set(assigned))  # single driver


@pytest.mark.parametrize("name", sorted(ALL_DESIGNS))
def test_reset_covers_every_state_flop(emitted, name):
    sv = emitted[name]
    fired = re.findall(r"logic (t\d+_e\d+_fired_q);", sv)
    # multi-thread processes have one reset block per thread
    reset_blocks = "".join(
        part.split("end else", 1)[0]
        for part in sv.split("if (!rst_ni) begin")[1:]
    )
    for f in fired:
        assert f in reset_blocks, f


def test_handshake_ports_follow_sync_modes(emitted):
    # dynamic channels keep valid/ack...
    assert "host_req_valid" in emitted["aes"]
    assert "host_req_ack" in emitted["aes"]
    # ...fully static channels omit them
    assert "inp_data_valid" not in emitted["alu"]
    assert "inp_data_ack" not in emitted["alu"]
    assert "inp_data_data" in emitted["alu"]


def test_aes_emits_sbox_rom(emitted):
    # the LUT-mapped S-box becomes a ternary ROM chain
    assert emitted["aes"].count("?") > 500


def test_axi_demux_has_all_slave_interfaces(emitted):
    sv = emitted["axi_demux"]
    for i in range(4):
        for msg in ("aw", "w", "b", "ar", "r"):
            assert f"s{i}_{msg}_data" in sv


def test_deterministic_emission():
    a = to_systemverilog(fifo_buffer())
    b = to_systemverilog(fifo_buffer())
    assert a == b


def test_non_name_selects_are_found():
    assert non_name_selects("a <= x_q[7:0] & y[3];") == []
    assert len(non_name_selects("a <= (x & y)[7:0] | 8'd5[3] | z[7:0][1];")) \
        == 3


@pytest.mark.parametrize("name", sorted(SELECT_DESIGNS))
def test_part_selects_apply_only_to_names(name):
    sv = to_systemverilog(SELECT_DESIGNS[name]())
    assert non_name_selects(sv) == []


def repeated_hoists(sv: str) -> list:
    """Every hoisted ``t*_x*_w`` wire whose width and defining text an
    earlier hoisted wire already has."""
    wires = re.findall(r"logic (\[\d+:0\] )?(t\d+_x\d+_w);\n"
                       r"\s*assign \2 = (.*);", sv)
    seen, repeated = set(), []
    for width, name, text in wires:
        if (width, text) in seen:
            repeated.append(name)
        seen.add((width, text))
    return repeated


def test_repeated_hoists_are_found():
    sv = ("  logic [7:0] t0_x0_w;\n  assign t0_x0_w = (a & b);\n"
          "  logic [7:0] t0_x1_w;\n  assign t0_x1_w = (a & b);\n"
          "  logic [3:0] t0_x2_w;\n  assign t0_x2_w = (a & b);\n"
          "  logic t0_x3_w;\n  assign t0_x3_w = (a & b);\n")
    assert repeated_hoists(sv) == ["t0_x1_w"]


@pytest.mark.parametrize("name", sorted(SELECT_DESIGNS))
def test_equal_hoisted_expressions_share_one_wire(name):
    sv = to_systemverilog(SELECT_DESIGNS[name]())
    assert repeated_hoists(sv) == []

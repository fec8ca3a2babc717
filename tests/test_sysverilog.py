"""Structural tests for the SystemVerilog backend."""

import re

import pytest

from repro import (
    Logic,
    Process,
    Side,
    System,
    emit_system,
    to_systemverilog,
)
from repro.codegen import rexpr as rx
from repro.codegen.sysverilog import NameMap, _sv_expr, structural_check
from repro.core.fsmplan import build_process_plan
from repro.lang.channels import LifetimeSpec, MessageDef, ChannelDef, StaticSync
from repro.lang.terms import (
    if_,
    let,
    read,
    recv,
    send,
    set_reg,
    var,
)

from helpers import cache_channel, stream_channel, top_safe


@pytest.fixture
def sv_top_safe():
    return to_systemverilog(top_safe())


class TestModuleShape:
    def test_module_wrapper(self, sv_top_safe):
        assert sv_top_safe.startswith("// Generated")
        assert "module top_safe (" in sv_top_safe
        assert sv_top_safe.rstrip().endswith("endmodule")

    def test_clock_and_reset_ports(self, sv_top_safe):
        assert "input  logic clk_i" in sv_top_safe
        assert "input  logic rst_ni" in sv_top_safe

    def test_message_ports_generated(self, sv_top_safe):
        for port in ["cache_req_data", "cache_req_valid", "cache_req_ack",
                     "cache_res_data", "cache_res_valid", "cache_res_ack"]:
            assert port in sv_top_safe, port

    def test_architectural_registers_declared(self, sv_top_safe):
        assert "logic [7:0] address_q;" in sv_top_safe
        assert "logic [7:0] enq_data_q;" in sv_top_safe

    def test_one_fire_wire_per_event(self, sv_top_safe):
        fires = set(re.findall(r"t0_e(\d+)_fire\b", sv_top_safe))
        assigns = set(
            re.findall(r"assign t0_e(\d+)_fire =", sv_top_safe)
        )
        assert fires == assigns  # every referenced fire wire is driven

    def test_emits_the_plan_it_is_given(self):
        # the unoptimized plan keeps the events the optimizer merges
        p = top_safe()
        fires = {}
        for do_optimize in (True, False):
            plan = build_process_plan(p, do_optimize)
            sv = to_systemverilog(p, plan)
            fires[do_optimize] = re.findall(r"assign t0_e(\d+)_fire =", sv)
            assert len(fires[do_optimize]) == plan.threads[0].n_events
        assert fires[True] == re.findall(r"assign t0_e(\d+)_fire =",
                                         to_systemverilog(p))
        assert len(fires[False]) > len(fires[True])

    def test_balanced_module_count(self, sv_top_safe):
        c = structural_check(sv_top_safe)
        assert c["modules"] == c["endmodules"] == 1

    def test_register_writes_guarded_by_fire(self, sv_top_safe):
        # implicit clock gating: every architectural write is conditional
        for m in re.finditer(r"(\S+_q) <= ", sv_top_safe):
            line_start = sv_top_safe.rfind("\n", 0, m.start())
            line = sv_top_safe[line_start:m.end()]
            if "address_q" in line or "enq_data_q" in line:
                assert "if (" in line


class TestHandshakeOmission:
    def test_static_sync_omits_handshake_ports(self):
        """The paper: static/dependent sync modes omit valid (sender side)
        and ack (receiver side)."""
        ch = ChannelDef("st", [
            MessageDef("data", Side.RIGHT, Logic(8), LifetimeSpec.static(1),
                       StaticSync(1), StaticSync(1)),
        ])
        p = Process("static_sender")
        p.endpoint("o", ch, Side.LEFT)
        p.register("c", Logic(8))
        p.loop(send("o", "data", read("c"))
               >> set_reg("c", read("c") + 1))
        sv = to_systemverilog(p)
        assert "o_data_data" in sv
        assert "o_data_valid" not in sv
        assert "o_data_ack" not in sv

    def test_dynamic_sync_keeps_both(self):
        p = Process("dyn_sender")
        p.endpoint("o", stream_channel("s"), Side.LEFT)
        p.register("c", Logic(8))
        p.loop(send("o", "data", read("c"))
               >> set_reg("c", read("c") + 1))
        sv = to_systemverilog(p)
        assert "o_data_valid" in sv and "o_data_ack" in sv


class TestExpressions:
    def test_branch_condition_in_sv(self):
        p = Process("brancher")
        p.endpoint("inp", stream_channel("in"), Side.RIGHT)
        p.register("r", Logic(8))
        p.loop(
            let("d", recv("inp", "data"),
                if_(var("d").eq(0),
                    set_reg("r", 1),
                    set_reg("r", var("d"))))
        )
        sv = to_systemverilog(p)
        assert "== 8'd0" in sv

    def test_slot_bypass_for_recv_data(self):
        """Data received this cycle must be visible combinationally."""
        p = Process("bypass")
        p.endpoint("inp", stream_channel("in"), Side.RIGHT)
        p.register("r", Logic(8))
        p.loop(
            let("d", recv("inp", "data"),
                if_(var("d").eq(0), set_reg("r", 1), set_reg("r", 2)))
        )
        sv = to_systemverilog(p)
        assert "_w" in sv  # bypass wires present


def _sv_table(entries, index_width):
    """A table of 8-bit ``entries`` indexed by register ``i``, and its
    SystemVerilog text."""
    table = rx.RTable(rx.RReg("i", index_width), entries, 8)
    return table, _sv_expr(table, NameMap(None))


def _eval_sv_chain(text, i):
    """Evaluate a table's ternary chain at ``i_q`` = ``i``."""
    arms = re.sub(r"\d+'d(\d+)", r"\1", text)[1:-1].replace(
        "i_q", str(i)).split(" : ")
    for arm in arms[:-1]:
        cond, value = arm.split(" ? ")
        if eval(cond):
            return int(value)
    return int(arms[-1])


class TestTables:
    def test_a_short_table_reads_zero_past_its_last_entry(self):
        # as RTable.eval and the simulator backends do: the index is cut
        # to the table's 3 bits, and 5..7 name no entry
        entries = [10, 20, 30, 40, 50]
        table, sv = _sv_table(entries, 8)
        arms = "".join(f"((i_q & 8'd7) == 3'd{i}) ? 8'd{e} : "
                       for i, e in enumerate(entries))
        assert sv == f"({arms}8'd0)"
        for i in range(256):
            assert _eval_sv_chain(sv, i) \
                == table.eval(rx.REnv({"i": i}, {})), i

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_power_of_two_tables_emit_unchanged_text(self, n):
        bits = (n - 1).bit_length()
        entries = list(range(100, 100 + n))
        _, sv = _sv_table(entries, bits)
        chain = f"8'd{entries[-1]}"
        for i in range(n - 2, -1, -1):
            chain = f"((i_q) == {bits}'d{i}) ? 8'd{entries[i]} : {chain}"
        assert sv == f"({chain})"
        for i in range(n):
            assert _eval_sv_chain(sv, i) == entries[i]


class TestPartSelects:
    def test_an_expression_is_selected_through_a_wire(self):
        # SystemVerilog part-selects only a name: the masked operand is
        # hoisted to a wire of its own width, then selected from
        names = NameMap(None)
        masked = rx.RBin("and", rx.RReg("x", 16), rx.RLit(255, 16), 16)
        assert _sv_expr(rx.RSlice(masked, 7, 0), names) == "t0_x0_w[7:0]"
        assert list(names.hoisted.values()) == [
            ("t0_x0_w", 16, "(x_q & 16'd255)")]

    def test_a_select_of_a_select_is_selected_through_a_wire(self):
        names = NameMap(None)
        low = rx.RSlice(rx.RReg("x", 16), 11, 0)
        assert _sv_expr(rx.RSlice(low, 3, 3), names) == "t0_x0_w[3]"
        assert list(names.hoisted.values()) == [("t0_x0_w", 12, "x_q[11:0]")]

    def test_a_name_is_selected_directly(self):
        names = NameMap(None)
        assert _sv_expr(rx.RSlice(rx.RReg("x", 16), 7, 0), names) \
            == "x_q[7:0]"
        assert not names.hoisted


class TestHoisting:
    def test_equal_nodes_built_apart_share_one_wire(self):
        names = NameMap(None)
        a, b = (rx.RBin("and", rx.RReg("x", 16), rx.RLit(255, 16), 16)
                for _ in range(2))
        assert names.hoist(a, "(x_q & 16'd255)") == "t0_x0_w"
        assert names.hoist(b, "(x_q & 16'd255)") == "t0_x0_w"
        assert _sv_expr(b, names) == "t0_x0_w"
        assert list(names.wires.values()) == [
            ("t0_x0_w", 16, "(x_q & 16'd255)")]

    def test_equal_text_at_another_width_gets_a_wire_of_its_own(self):
        names = NameMap(None)
        wide = rx.RBin("add", rx.RReg("x", 8), rx.RReg("y", 8), 9)
        narrow = rx.RBin("add", rx.RReg("x", 8), rx.RReg("y", 8), 8)
        assert names.hoist(wide, "(x_q + y_q)") == "t0_x0_w"
        assert names.hoist(narrow, "(x_q + y_q)") == "t0_x1_w"


class TestSystemEmission:
    def test_emit_system_contains_all_modules(self):
        from helpers import cache_channel
        mem = Process("memory")
        mem.endpoint("host", cache_channel(), Side.RIGHT)
        mem.register("t", Logic(8))
        mem.loop(
            let("a", recv("host", "req"),
                var("a") >> set_reg("t", var("a"))
                >> send("host", "res", read("t")))
        )
        top = top_safe()
        s = System("pair")
        ti, mi = s.add(top), s.add(mem)
        s.connect(ti, "cache", mi, "host")
        sv = emit_system(s)
        assert "module top_safe (" in sv
        assert "module memory (" in sv
        assert "module pair_top (" in sv
        assert "u_top_safe" in sv and "u_memory" in sv

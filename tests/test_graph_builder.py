"""Tests for term -> event graph construction and lifetime inference."""

import pytest

from repro import ElaborationError, Logic, Process, Side, Thread, check_process
from repro.codegen.sysverilog import emit_process, structural_check
from repro.core.events import EventKind, SyncDir
from repro.core.graph_builder import GraphBuilder
from repro.lang.channels import ChannelDef, LifetimeSpec, MessageDef
from repro.lang.terms import (
    bundle,
    cycle,
    if_,
    let,
    lit,
    par,
    read,
    recurse,
    recv,
    send,
    set_reg,
    unit,
    var,
)
from repro.lang.types import Bundle

from helpers import branch_await_process, port_traces, stream_channel


def build(body, kind=Thread.LOOP, iterations=1, setup=None):
    p = Process("t")
    p.endpoint("s", stream_channel(), Side.RIGHT)
    p.endpoint("o", stream_channel("out"), Side.LEFT)
    p.register("r", Logic(8))
    p.register("r2", Logic(8))
    if setup:
        setup(p)
    if kind == Thread.LOOP:
        th = p.loop(body)
    else:
        th = p.recursive(body)
    return GraphBuilder(p, th).build(iterations)


class TestStructure:
    def test_cycle_creates_delay_event(self):
        res = build(cycle(3))
        delays = [e for e in res.graph.events if e.kind is EventKind.DELAY]
        assert len(delays) == 1 and delays[0].delay == 3

    def test_cycle_zero_creates_no_event(self):
        res = build(cycle(0))
        assert len(res.graph) == 1  # just the root

    def test_recv_creates_sync_event(self):
        res = build(let("x", recv("s", "data"), unit()))
        syncs = res.graph.sync_events("s", "data")
        assert len(syncs) == 1
        assert syncs[0].direction is SyncDir.RECV

    def test_send_records_obligation(self):
        res = build(send("o", "data", 1))
        assert len(res.sends) == 1
        assert res.sends[0].message == "data"

    def test_wait_sequences_events(self):
        res = build(cycle(1) >> cycle(2))
        d1, d2 = [e for e in res.graph.events if e.kind is EventKind.DELAY]
        assert res.graph.is_ancestor(d1.eid, d2.eid)

    def test_par_creates_join(self):
        res = build(par(cycle(1), cycle(2)))
        joins = [e for e in res.graph.events if e.kind is EventKind.JOIN_ALL]
        assert len(joins) == 1

    def test_if_creates_branches_and_join(self):
        res = build(if_(read("r").eq(0), cycle(1), cycle(2)))
        kinds = [e.kind for e in res.graph.events]
        assert kinds.count(EventKind.BRANCH) == 2
        assert kinds.count(EventKind.JOIN_ANY) == 1

    def test_set_reg_mutation_recorded(self):
        res = build(set_reg("r", 5))
        assert len(res.mutations) == 1
        assert res.mutations[0].register == "r"

    def test_unrolled_iterations_share_graph(self):
        res1 = build(cycle(1), iterations=1)
        res2 = build(cycle(1), iterations=2)
        assert len(res2.graph) == 2 * len(res1.graph) - 1

    def test_loop_anchor_is_completion(self):
        res = build(cycle(1) >> cycle(1), iterations=1)
        assert res.anchor == len(res.graph) - 1

    def test_recursive_anchor_is_recurse_event(self):
        res = build(
            let("x", recv("s", "data"),
                par(var("x") >> set_reg("r", var("x")),
                    cycle(1) >> recurse())),
            kind=Thread.RECURSIVE,
        )
        anchor = res.graph[res.anchor]
        assert anchor.note == "recurse"

    def test_recurse_outside_recursive_rejected(self):
        with pytest.raises(ElaborationError):
            build(recurse())

    def test_double_recurse_rejected(self):
        with pytest.raises(ElaborationError):
            build(recurse() >> recurse(), kind=Thread.RECURSIVE)


class TestValues:
    def test_literal_is_eternal(self):
        res = build(send("o", "data", lit(7, 8)))
        use = res.uses[0]
        assert use.value.end.is_eternal

    def test_recv_value_has_contract_lifetime(self):
        res = build(
            let("x", recv("s", "data"),
                var("x") >> set_reg("r", var("x")))
        )
        use = [u for u in res.uses if u.context.endswith("set r")][0]
        assert not use.value.end.is_eternal
        pattern = use.value.end.patterns[0]
        assert pattern.duration.is_static and pattern.duration.cycles == 1

    def test_reg_read_tracks_dependency(self):
        res = build(send("o", "data", read("r") + read("r2")))
        use = res.uses[0]
        regs = {r for r, _ in use.value.reg_reads}
        assert regs == {"r", "r2"}

    def test_unbound_var_rejected(self):
        with pytest.raises(ElaborationError):
            build(var("nope") >> unit())

    def test_field_on_non_bundle_rejected(self):
        with pytest.raises(ElaborationError):
            build(send("o", "data", read("r").field("x")))

    def test_slice_out_of_range_rejected(self):
        with pytest.raises(ElaborationError):
            build(send("o", "data", read("r").bits(9, 0)))

    def test_if_value_merges_lifetimes(self):
        res = build(
            let("x", recv("s", "data"),
                set_reg("r", if_(var("x").eq(0), lit(1, 8), var("x"))))
        )
        use = [u for u in res.uses if u.context.endswith("set r")][0]
        # the mux result inherits the recv'd value's 1-cycle lifetime
        assert not use.value.end.is_eternal


class TestDirectionChecks:
    def test_send_on_receiving_endpoint_rejected(self):
        with pytest.raises(ElaborationError):
            build(send("s", "data", 1))

    def test_recv_on_sending_endpoint_rejected(self):
        with pytest.raises(ElaborationError):
            build(let("x", recv("o", "data"), unit()))


class TestAwaitThroughBranches:
    """A ``let`` value is awaited unless its binding must precede the use
    point: ancestry through one arm of an ``if`` does not order them."""

    def test_value_bound_on_one_arm_is_awaited_after_the_join(self):
        p = branch_await_process("A")
        assert check_process(p).ok
        for backend in ("interp", "pycompiled"):
            traces = port_traces(p, backend)
            assert traces["out"] == [(1, 100), (7, 107), (14, 114),
                                     (21, 121), (28, 128), (35, 135),
                                     (42, 142)], backend
            for cycle_, value in traces["out"]:
                assert any(v == value and c <= cycle_
                           for c, v in traces["inp"]), (backend, cycle_)


NIBBLES = Bundle([("lo", Logic(4)), ("hi", Logic(4))])

#: per construct, the payload a loop sends built from ``*cnt`` (``None``:
#: ``Term.then`` sequences a plain send and the bump) and the value the
#: ``n``-th transfer carries
CONSTRUCTS = {
    "bundle": (lambda c: bundle(NIBBLES, lo=c.bits(3, 0), hi=0xA),
               lambda n: n & 0xF | 0xA << 4),
    "then": (None, lambda n: n),
    "radd": (lambda c: 3 + c, lambda n: 3 + n),
    "rsub": (lambda c: 20 - c, lambda n: 20 - n),
    "rmul": (lambda c: 3 * c, lambda n: 3 * n),
    "rxor": (lambda c: 0x5A ^ c, lambda n: 0x5A ^ n),
    "rand": (lambda c: 0x0F & c, lambda n: 0x0F & n),
    "ror": (lambda c: 0x30 | c, lambda n: 0x30 | n),
}


def construct_process(name: str) -> Process:
    """A loop that sends ``CONSTRUCTS[name]``'s payload on ``out.m``
    (dynamic handshake, 1-cycle lifetime), then bumps ``cnt``."""
    out = ChannelDef("out_ch", [
        MessageDef("m", Side.RIGHT, Logic(8), LifetimeSpec.static(1))])
    p = Process("construct_" + name)
    p.endpoint("out", out, Side.LEFT)
    p.register("cnt", Logic(8))
    payload, _value = CONSTRUCTS[name]
    bump = set_reg("cnt", read("cnt") + 1)
    if payload is None:
        p.loop(send("out", "m", read("cnt")).then(bump))
    else:
        p.loop(send("out", "m", payload(read("cnt"))) >> bump)
    return p


class TestConstructsNoDesignUses:
    """``lang.terms.bundle`` (built by ``_visit_BundleLit``), ``Term.then``
    and the six reflected operators, one loop each: the checker accepts
    it, both backends transfer the values the test computes, and its
    SystemVerilog is well formed."""

    @pytest.mark.parametrize("name", sorted(CONSTRUCTS))
    def test_loop_runs_and_emits(self, name):
        p = construct_process(name)
        assert check_process(p).ok
        traces = {backend: port_traces(p, backend)["out"]
                  for backend in ("interp", "pycompiled")}
        assert traces["interp"] == traces["pycompiled"]
        values = [v for _cycle, v in traces["interp"]]
        assert len(values) > 40
        _payload, value = CONSTRUCTS[name]
        assert values == [value(n) & 0xFF for n in range(len(values))]
        sv = emit_process(p)
        c = structural_check(sv)
        assert c["modules"] == c["endmodules"] == 1
        assert c["always_ff"] >= 1
        assert sv.count("(") == sv.count(")")
        assert sv.count("[") == sv.count("]")

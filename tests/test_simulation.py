"""End-to-end simulation tests: compiled Anvil processes on the simulator."""

import pytest

from repro import (
    Logic,
    Process,
    SimulationError,
    System,
    build_simulation,
    check_process,
)
from repro.lang.terms import (
    cycle,
    if_,
    let,
    par,
    read,
    recurse,
    recv,
    send,
    set_reg,
    unit,
    var,
)
from repro.rtl.simulator import ENGINES

from helpers import cache_channel, stream_channel


def counter_process(width=8):
    p = Process("counter")
    p.endpoint("out", stream_channel("out"), Side.LEFT)
    p.register("cnt", Logic(width))
    p.loop(
        send("out", "data", read("cnt"))
        >> set_reg("cnt", read("cnt") + 1)
    )
    return p


def filter_process():
    p = Process("filt")
    p.endpoint("inp", stream_channel("in"), Side.RIGHT)
    p.endpoint("out", stream_channel("out"), Side.LEFT)
    p.register("buf", Logic(8))
    p.loop(
        let("d", recv("inp", "data"),
            if_(var("d").eq(0),
                set_reg("buf", 0xAA),
                set_reg("buf", var("d") + 1))
            >> send("out", "data", read("buf")))
    )
    return p


from repro import Side  # noqa: E402  (used by helpers above)


class TestSingleProcess:
    def test_counter_streams_values(self):
        sys_ = System()
        inst = sys_.add(counter_process())
        ch = sys_.expose(inst, "out")
        ss = build_simulation(sys_)
        ext = ss.external(ch)
        ext.always_receive("data")
        ss.sim.run(10)
        values = [v for _, v in ext.received["data"]]
        assert values == list(range(10))

    def test_backpressure_stalls_counter(self):
        """The counter blocks on the unbuffered channel until the consumer
        is ready; no values are skipped."""
        sys_ = System()
        inst = sys_.add(counter_process())
        ch = sys_.expose(inst, "out")
        ss = build_simulation(sys_)
        ext = ss.external(ch)
        ss.sim.run(5)           # consumer not ready: nothing transfers
        assert "data" not in ext.received
        ext.always_receive("data")
        ss.sim.run(5)
        values = [v for _, v in ext.received["data"]]
        assert values == list(range(5))  # starts from 0, nothing lost

    def test_branching_process(self):
        p = filter_process()
        assert check_process(p).ok
        sys_ = System()
        inst = sys_.add(p)
        ci, co = sys_.expose(inst, "inp"), sys_.expose(inst, "out")
        ss = build_simulation(sys_)
        ein, eout = ss.external(ci), ss.external(co)
        eout.always_receive("data")
        for v in [0, 5, 0, 7]:
            ein.send("data", v)
        ss.sim.run(20)
        assert [v for _, v in eout.received["data"]] == [0xAA, 6, 0xAA, 8]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_send_queue_drains_then_refills(self, engine):
        """A drained send queue drives ``valid`` low until a later
        ``send`` refills it, and ``sent`` records every value in order
        (the queue keeps consumed entries; ``sent`` is its cursor)."""
        sys_ = System()
        inst = sys_.add(filter_process())
        ci, co = sys_.expose(inst, "inp"), sys_.expose(inst, "out")
        ss = build_simulation(sys_, backend="pycompiled", engine=engine)
        ein, eout = ss.external(ci), ss.external(co)
        eout.always_receive("data")
        valid = ein.ports["data"].valid
        for v in [0, 5]:
            ein.send("data", v)
        ss.sim.run(12)
        for _ in range(3):
            ss.sim.run(1)
            assert valid.value == 0
        ein.send("data", 7)
        ss.sim.run(1)
        assert valid.value == 1
        ss.sim.run(12)
        assert valid.value == 0
        sent = ein.sent["data"]
        assert [v for _, v in sent] == [0, 5, 7]
        assert sent[1][0] + 3 < sent[2][0]
        assert [v for _, v in eout.received["data"]] == [0xAA, 6, 8]

    def test_debug_print_logged(self):
        from repro.lang.terms import dprint
        p = Process("printer")
        p.register("c", Logic(4))
        p.loop(dprint("tick", read("c")) >> set_reg("c", read("c") + 1)
               >> cycle(1))
        sys_ = System()
        sys_.add(p)
        ss = build_simulation(sys_)
        ss.sim.run(6)
        mod = ss.module("printer")
        assert len(mod.debug_log) == 3
        assert [v for _, _, v in mod.debug_log] == [0, 1, 2]

    def test_zero_delay_loop_detected(self):
        p = Process("spin")
        p.loop(unit())
        sys_ = System()
        sys_.add(p)
        ss = build_simulation(sys_)
        with pytest.raises(SimulationError):
            ss.sim.run(1)


class TestTwoProcesses:
    def test_request_response_roundtrip(self):
        mem = Process("memory")
        mem.endpoint("host", cache_channel(), Side.RIGHT)
        mem.register("tmp", Logic(8))
        mem.loop(
            let("a", recv("host", "req"),
                var("a") >> set_reg("tmp", var("a") + 0x10)
                >> send("host", "res", read("tmp")))
        )
        top = Process("top")
        top.endpoint("mem", cache_channel(), Side.LEFT)
        top.endpoint("out", stream_channel("out"), Side.LEFT)
        top.register("addr", Logic(8))
        top.register("data", Logic(8))
        top.loop(
            send("mem", "req", read("addr"))
            >> let("d", recv("mem", "res"),
                   var("d")
                   >> par(set_reg("addr", read("addr") + 1),
                          set_reg("data", var("d")))
                   >> send("out", "data", read("data")))
        )
        assert check_process(mem).ok and check_process(top).ok
        sys_ = System()
        t, m = sys_.add(top), sys_.add(mem)
        sys_.connect(t, "mem", m, "host")
        co = sys_.expose(t, "out")
        ss = build_simulation(sys_)
        eout = ss.external(co)
        eout.always_receive("data")
        ss.sim.run(30)
        values = [v for _, v in eout.received["data"]]
        assert values[:5] == [0x10, 0x11, 0x12, 0x13, 0x14]


class TestRecursivePipeline:
    def test_ii1_static_pipeline(self):
        pipe = Process("spipe")
        pipe.endpoint("inp", stream_channel("in", static=True), Side.RIGHT)
        pipe.endpoint("out", stream_channel("out", static=True), Side.LEFT)
        pipe.register("s1", Logic(8))
        pipe.recursive(
            let("r", recv("inp", "data"),
                par(var("r") >> set_reg("s1", var("r") + 1)
                    >> send("out", "data", read("s1")),
                    cycle(1) >> recurse()))
        )
        assert check_process(pipe).ok
        sys_ = System()
        inst = sys_.add(pipe)
        ci, co = sys_.expose(inst, "inp"), sys_.expose(inst, "out")
        ss = build_simulation(sys_)
        ein, eout = ss.external(ci), ss.external(co)
        eout.always_receive("data")
        for v in range(1, 8):
            ein.send("data", v)
        ss.sim.run(14)
        out = eout.received["data"]
        assert [v for _, v in out] == [2, 3, 4, 5, 6, 7, 8]
        cycles = [c for c, _ in out]
        # one result per cycle after the 1-cycle latency: II = 1
        assert cycles == list(range(1, 8))


class TestWaveform:
    def test_waveform_capture_and_render(self):
        sys_ = System()
        inst = sys_.add(counter_process(width=4))
        ch = sys_.expose(inst, "out")
        ss = build_simulation(sys_)
        ext = ss.external(ch)
        ext.always_receive("data")
        port = ext.ports["data"]
        ss.sim.watch(port.data, "data")
        ss.sim.watch(port.valid, "valid")
        ss.sim.run(6)
        wf = ss.sim.waveform
        assert wf.series("data") == [0, 1, 2, 3, 4, 5]
        text = wf.render()
        assert "data" in text and "valid" in text

    def test_activity_counted(self):
        sys_ = System()
        inst = sys_.add(counter_process())
        ch = sys_.expose(inst, "out")
        ss = build_simulation(sys_)
        ss.external(ch).always_receive("data")
        ss.sim.run(8)
        assert ss.sim.total_activity() > 0

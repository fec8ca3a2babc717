"""Shared fixtures: the paper's channels and processes used across tests."""

import importlib.util
import pathlib

from repro import (
    ChannelDef,
    LifetimeSpec,
    Logic,
    MessageDef,
    Process,
    Side,
    StaticSync,
    System,
    build_simulation,
    cycle,
    if_,
    let,
    par,
    read,
    recv,
    send,
    set_reg,
    unit,
    var,
)


def memory_channel(static_cycles: int = 2) -> ChannelDef:
    """The paper's no-cache memory contract: address stable for a fixed
    number of cycles after ``req``; data stable one cycle after ``res``."""
    return ChannelDef("mem_ch", [
        MessageDef("req", Side.RIGHT, Logic(8),
                   LifetimeSpec.static(static_cycles)),
        MessageDef("res", Side.LEFT, Logic(8), LifetimeSpec.static(1)),
    ])


def cache_channel() -> ChannelDef:
    """The paper's dynamic cache contract: ``address: [req, req->res)``,
    ``data: [res, res->res+1)``."""
    return ChannelDef("cache_ch", [
        MessageDef("req", Side.RIGHT, Logic(8), LifetimeSpec.until("res")),
        MessageDef("res", Side.LEFT, Logic(8), LifetimeSpec.static(1)),
    ])


def fifo_channel(width: int = 8) -> ChannelDef:
    """FIFO enqueue contract from Figure 2: data stable 1 cycle."""
    return ChannelDef("fifo_ch", [
        MessageDef("enq_req", Side.RIGHT, Logic(width),
                   LifetimeSpec.static(1)),
    ])


def stream_channel(name: str = "stream", width: int = 8,
                   static: bool = False) -> ChannelDef:
    """One-message data stream travelling right."""
    sync = StaticSync(1) if static else None
    return ChannelDef(name, [
        MessageDef("data", Side.RIGHT, Logic(width), LifetimeSpec.static(1),
                   sync, sync),
    ])


def top_unsafe() -> Process:
    """Figure 5 (left): mutates the address while the memory still needs
    it, and issues the next request before the previous one expires."""
    p = Process("top_unsafe")
    p.endpoint("mem", memory_channel(), Side.LEFT)
    p.register("address", Logic(8))
    p.loop(
        send("mem", "req", read("address"))
        >> set_reg("address", read("address") + 1)
        >> let("d", recv("mem", "res"), var("d") >> unit())
    )
    return p


def top_safe() -> Process:
    """Figure 5 (right): dynamic contract, mutation only after ``res``."""
    p = Process("top_safe")
    p.endpoint("cache", cache_channel(), Side.LEFT)
    p.register("address", Logic(8))
    p.register("enq_data", Logic(8))
    p.loop(
        send("cache", "req", read("address"))
        >> let("d", recv("cache", "res"),
               var("d")
               >> par(set_reg("address", read("address") + 1),
                      set_reg("enq_data", var("d"))))
    )
    return p


def branch_await_process(which: str) -> Process:
    """Loops that bind a value through one arm of an ``if`` only, the
    shape where ancestry does not order events.

    ``"A"`` sends ``x`` after awaiting ``y``, which awaited ``x`` on the
    then-arm alone; ``"B"`` awaits ``x`` and ``y`` and sends ``cnt``;
    ``"C"`` binds ``x`` to nested ``if``s of unequal delays and receives
    nothing.  ``inp.m`` has a dynamic handshake and an 8-cycle lifetime;
    ``out.m`` is static on both sides in ``"A"`` and dynamic otherwise.
    """
    out_sync = StaticSync(1) if which == "A" else None
    inp = ChannelDef("inp_ch", [
        MessageDef("m", Side.RIGHT, Logic(8), LifetimeSpec.static(8))])
    out = ChannelDef("out_ch", [
        MessageDef("m", Side.RIGHT, Logic(8), LifetimeSpec.static(1),
                   out_sync, out_sync)])
    p = Process("branch_await_" + which)
    if which != "C":
        p.endpoint("inp", inp, Side.RIGHT)
    p.endpoint("out", out, Side.LEFT)
    p.register("cnt", Logic(8))
    bump = set_reg("cnt", read("cnt") + 1)
    if which == "C":
        p.loop(let("x", if_(read("cnt").bit(0),
                            if_(read("cnt").bit(1), cycle(1), cycle(2)),
                            cycle(2)),
                   var("x") >> send("out", "m", read("cnt")) >> bump))
        return p
    if which == "A":
        tail = var("y") >> send("out", "m", var("x")) >> bump
    else:
        tail = var("x") >> var("y") >> send("out", "m", read("cnt")) >> bump
    p.loop(let("x", recv("inp", "m"),
               let("y", if_(read("cnt").bit(0), var("x"), cycle(1)), tail)))
    return p


def port_traces(process: Process, backend: str, do_optimize: bool = True,
                cycles: int = 45):
    """Every transfer on ``process``'s external ports, as ``{"inp": [(cycle,
    value), ...], "out": [...]}``.  ``inp`` is offered one value, 100 plus
    the cycle, every 7 cycles; ``out`` is always received."""
    system = System()
    inst = system.add(process)
    channels = {name: system.expose(inst, name)
                for name in ("inp", "out") if name in process.endpoints}
    ss = build_simulation(system, backend=backend, do_optimize=do_optimize)
    ends = {name: ss.external(ch) for name, ch in channels.items()}
    ends["out"].always_receive("m")
    for c in range(cycles):
        if "inp" in ends and c % 7 == 0:
            ends["inp"].send("m", 100 + c)
        ss.sim.run(1)
    return {"inp": ends["inp"].sent.get("m", []) if "inp" in ends else [],
            "out": ends["out"].received.get("m", [])}


def frontend_digest_tool():
    """``tools/frontend_digest.py`` loaded as a module (``tools/`` is not
    a package)."""
    path = pathlib.Path(__file__).resolve().parent.parent / "tools" \
        / "frontend_digest.py"
    spec = importlib.util.spec_from_file_location("frontend_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

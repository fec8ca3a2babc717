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


def frontend_digest_tool():
    """``tools/frontend_digest.py`` loaded as a module (``tools/`` is not
    a package)."""
    path = pathlib.Path(__file__).resolve().parent.parent / "tools" \
        / "frontend_digest.py"
    spec = importlib.util.spec_from_file_location("frontend_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

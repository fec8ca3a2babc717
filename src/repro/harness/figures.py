"""Figure harnesses: 1 (memory hazard), 2 (BSV schedules), 4 (static vs
dynamic cache contract), 5 (compile-time checks), 6 (Encrypt lifetimes /
event graph), 8 (event-graph optimizations)."""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..bsv import Rule, RuleScheduler, RuleState, TimingContractMonitor
from ..codegen.simfsm import build_simulation
from ..core.graph_builder import GraphBuilder
from ..core.optimize import optimize
from ..core.typecheck import check_process
from ..designs.memory import NaiveTop, RawMemory
from ..lang.process import Process, System
from ..lang.terms import (
    cycle,
    let,
    par,
    read,
    recv,
    send,
    set_reg,
    unit,
    var,
)
from ..lang.types import Logic
from ..rtl.simulator import Simulator


# ---------------------------------------------------------------------------
# Figure 1
# ---------------------------------------------------------------------------
def figure1(cycles: int = 16, engine: str = "levelized") -> Dict[str, object]:
    """The motivating timing hazard: Top misreading a 2-cycle memory."""
    sim = Simulator("fig1", engine=engine)
    mem = RawMemory("mem", latency=2)
    top = NaiveTop("top", mem)
    sim.add(mem)
    sim.add(top)
    sim.watch(mem.req, "req")
    sim.watch(mem.inp, "input")
    sim.watch(mem.out, "output")
    sim.run(cycles)
    observed = [v for _, v in top.reads]
    expected = list(range(len(observed)))
    return {
        "waveform": sim.waveform.render(),
        "observed": observed,
        "expected": expected,
        "hazard": observed != expected,
    }


# ---------------------------------------------------------------------------
# Figure 2
# ---------------------------------------------------------------------------
def _bsv_top(priority: List[str]):
    """The Figure 2 BSV design: read a cache, enqueue the value to a FIFO.

    Rules specify per-cycle behaviour only; the schedule decides order.
    The cache takes 2 cycles and requires the address stable until the
    response -- an inter-cycle contract no BSV schedule can see."""
    state = RuleState(address=0, data=0, have_data=0, cache_busy=0,
                      cache_cnt=0, cache_addr=0, pending_req=0)
    monitor = TimingContractMonitor()
    fifo: List[Tuple[int, int]] = []   # (address looked up, value enqueued)
    cycle_ref = [0]

    def cache_model(state: RuleState):
        """2-cycle cache shared with the rules via registers."""
        if state.read("cache_busy"):
            if state.read("cache_cnt") == 0:
                state.write("data", state.read("cache_addr") + 0x10)
                state.write("have_data", 1)
                state.write("cache_busy", 0)
                monitor.release("address")
            else:
                state.write("cache_cnt", state.read("cache_cnt") - 1)
                monitor.observe(cycle_ref[0], "address",
                                state.read("address"))
        elif state.read("pending_req"):
            monitor.pin("address", state.read("address"),
                        "cache processing the lookup")
            state.write("cache_addr", state.read("address"))
            state.write("cache_busy", 1)
            state.write("cache_cnt", 1)
            state.write("pending_req", 0)

    rules = [
        Rule("send_cache_req",
             lambda s: not s.read("cache_busy") and not s.read("have_data")
             and not s.read("pending_req"),
             lambda s: s.write("pending_req", 1)),
        Rule("change_address",
             lambda s: s.read("pending_req") == 0 or True,
             lambda s: s.write("address", s.read("address") + 1)),
        Rule("enq_fifo",
             lambda s: bool(s.read("have_data")),
             lambda s: (s.call("fifo.enq", s.read("data")),
                        s.write("have_data", 0))),
    ]
    sched = RuleScheduler(state, rules, priority)
    sched.on_method("fifo.enq",
                    lambda v: fifo.append((state.read("cache_addr"), v)))

    def run(cycles: int):
        for _ in range(cycles):
            cache_model(state)
            state.commit()
            sched.step()
            cycle_ref[0] = sched.cycle
    return run, monitor, fifo, sched


def figure2_bsv(cycles: int = 24) -> Dict[str, object]:
    """Run the three BSV schedules of Figure 2 under the contract
    monitor.  All are conflict-free; the ones that mutate the address
    mid-lookup violate the inter-cycle contract."""
    out = {}
    schedules = {
        "schedule1": ["send_cache_req", "change_address", "enq_fifo"],
        "schedule2": ["change_address", "send_cache_req", "enq_fifo"],
        "schedule3": ["send_cache_req", "enq_fifo", "change_address"],
    }
    for name, priority in schedules.items():
        run, monitor, fifo, sched = _bsv_top(priority)
        run(cycles)
        out[name] = {
            "violations": list(monitor.violations),
            "timing_safe": monitor.ok,
            "enqueued": list(fifo),
        }
    return out


def figure2_anvil() -> Dict[str, object]:
    """The same three designs in Anvil: two rejected statically with the
    paper's exact error classes, the registered version accepted."""
    from ..lang.channels import ChannelDef, LifetimeSpec, MessageDef, Side

    cache_ch = ChannelDef("cache_ch", [
        MessageDef("req", Side.RIGHT, Logic(8), LifetimeSpec.until("res")),
        MessageDef("res", Side.LEFT, Logic(8), LifetimeSpec.static(1)),
    ])
    fifo_ch = ChannelDef("fifo_ch", [
        MessageDef("enq_req", Side.RIGHT, Logic(8), LifetimeSpec.static(1)),
    ])

    def make(body, name):
        p = Process(name)
        p.endpoint("cache", cache_ch, Side.LEFT)
        p.endpoint("fifo", fifo_ch, Side.LEFT)
        p.register("address", Logic(8))
        p.register("enq_data", Logic(8))
        p.loop(body)
        return check_process(p)

    direct = make(
        send("cache", "req", read("address"))
        >> let("d", recv("cache", "res"),
               var("d")
               >> par(set_reg("address", read("address") + 1),
                      send("fifo", "enq_req", var("d")))),
        "forward_unregistered",
    )
    early = make(
        send("cache", "req", read("address"))
        >> set_reg("address", read("address") + 1)
        >> let("d", recv("cache", "res"),
               var("d") >> set_reg("enq_data", var("d"))
               >> send("fifo", "enq_req", read("enq_data"))),
        "early_address_mutation",
    )
    safe = make(
        send("cache", "req", read("address"))
        >> let("d", recv("cache", "res"),
               var("d")
               >> par(set_reg("address", read("address") + 1),
                      set_reg("enq_data", var("d")))
               >> send("fifo", "enq_req", read("enq_data"))),
        "registered_forward",
    )
    return {
        "forward_unregistered": {
            "verdict": "rejected",
            "errors": [type(e).kind for e in direct.errors],
        },
        "early_address_mutation": {
            "verdict": "rejected",
            "errors": [type(e).kind for e in early.errors],
        },
        "registered_forward": {
            "verdict": "accepted" if safe.ok else "rejected",
            "errors": [],
        },
    }


# ---------------------------------------------------------------------------
# Figure 4
# ---------------------------------------------------------------------------
def figure4(addresses=None, cycles: int = 200,
            backend: str = "interp",
            engine: str = "levelized") -> Dict[str, object]:
    """Static vs dynamic contract on the cached memory."""
    from ..anvil_designs.memory import (
        cached_memory_process,
        cached_memory_static_process,
    )
    addresses = addresses or [5, 5, 9, 9, 5]

    def drive(factory):
        sys_ = System()
        inst = sys_.add(factory())
        ch = sys_.expose(inst, "host")
        ss = build_simulation(sys_, backend=backend, engine=engine)
        ext = ss.external(ch)
        ext.always_receive("res")
        for a in addresses:
            ext.send("req", a)
        ss.sim.run(cycles)
        reqs, ress = ext.sent.get("req", []), ext.received.get("res", [])
        return [r[0] - q[0] for q, r in zip(reqs, ress)]

    dynamic = drive(cached_memory_process)
    static = drive(cached_memory_static_process)
    return {
        "addresses": addresses,
        "dynamic_latencies": dynamic,
        "static_latencies": static,
        "dynamic_total": sum(dynamic),
        "static_total": sum(static),
        "speedup": sum(static) / max(sum(dynamic), 1),
    }


# ---------------------------------------------------------------------------
# Figure 5
# ---------------------------------------------------------------------------
def figure5() -> Dict[str, object]:
    """Derived action sequences + contract checks for Top_Unsafe/Top_Safe."""
    from ..lang.channels import ChannelDef, LifetimeSpec, MessageDef, Side

    mem_ch = ChannelDef("mem_ch", [
        MessageDef("req", Side.RIGHT, Logic(8), LifetimeSpec.static(2)),
        MessageDef("res", Side.LEFT, Logic(8), LifetimeSpec.static(1)),
    ])
    cache_ch = ChannelDef("cache_ch", [
        MessageDef("req", Side.RIGHT, Logic(8), LifetimeSpec.until("res")),
        MessageDef("res", Side.LEFT, Logic(8), LifetimeSpec.static(1)),
    ])

    unsafe = Process("Top_Unsafe")
    unsafe.endpoint("mem", mem_ch, Side.LEFT)
    unsafe.register("address", Logic(8))
    unsafe.loop(
        send("mem", "req", read("address"))
        >> set_reg("address", read("address") + 1)
        >> let("d", recv("mem", "res"), var("d") >> unit())
    )
    safe = Process("Top_Safe")
    safe.endpoint("cache", cache_ch, Side.LEFT)
    safe.register("address", Logic(8))
    safe.register("enq_data", Logic(8))
    safe.loop(
        send("cache", "req", read("address"))
        >> let("d", recv("cache", "res"),
               var("d")
               >> par(set_reg("address", read("address") + 1),
                      set_reg("enq_data", var("d"))))
    )
    r_unsafe = check_process(unsafe)
    r_safe = check_process(safe)
    return {
        "Top_Unsafe": {
            "decision": "UNSAFE" if not r_unsafe.ok else "SAFE",
            "checks": [str(e) for e in r_unsafe.errors],
        },
        "Top_Safe": {
            "decision": "SAFE" if r_safe.ok else "UNSAFE",
            "checks": [],
        },
    }


# ---------------------------------------------------------------------------
# Figure 6
# ---------------------------------------------------------------------------
def figure6() -> Dict[str, object]:
    """The Encrypt process: inferred lifetimes/loans and the event graph."""
    from ..lang.channels import ChannelDef, LifetimeSpec, MessageDef, Side
    from ..lang.terms import if_, lit

    encrypt_ch = ChannelDef("encrypt_ch", [
        MessageDef("enc_req", Side.RIGHT, Logic(8),
                   LifetimeSpec.until("enc_res")),
        MessageDef("enc_res", Side.LEFT, Logic(8),
                   LifetimeSpec.until("enc_req")),
    ])
    rng_ch = ChannelDef("rng_ch", [
        MessageDef("rng_req", Side.RIGHT, Logic(8), LifetimeSpec.static(1)),
        MessageDef("rng_res", Side.LEFT, Logic(8), LifetimeSpec.static(2)),
    ])
    p = Process("Encrypt")
    p.endpoint("ch1", encrypt_ch, Side.RIGHT)
    p.endpoint("ch2", rng_ch, Side.RIGHT)
    p.register("rd1_ctext", Logic(8))
    p.register("r2_key", Logic(8))
    p.loop(
        let("ptext", recv("ch1", "enc_req"),
        let("noise", recv("ch2", "rng_req"),
        let("r1_key", lit(25, 8),
            var("ptext")
            >> if_(var("ptext").ne(0),
                   set_reg("rd1_ctext",
                           (var("ptext") ^ var("r1_key")) + var("noise")),
                   set_reg("rd1_ctext", var("ptext")))
            >> cycle(1)
            >> par(set_reg("r2_key", var("r1_key") ^ var("noise")),
                   send("ch2", "rng_res", read("r2_key")))
            >> send("ch1", "enc_res", read("rd1_ctext"))
            >> send("ch1", "enc_res", var("r1_key")))))
    )
    report = check_process(p)
    built = GraphBuilder(p, p.threads[0]).build(1)
    lifetimes = [
        f"{u.context}: value live [e{u.value.start}, {u.value.end}); "
        f"needed [e{u.window_start}, {u.window_end})"
        for u in built.uses
    ]
    return {
        "decision": "UNSAFE" if not report.ok else "SAFE",
        "errors": [str(e) for e in report.errors],
        "lifetimes": lifetimes,
        "event_graph_dot": built.graph.to_dot(),
        "event_count": len(built.graph),
    }


# ---------------------------------------------------------------------------
# Figure 8
# ---------------------------------------------------------------------------
def figure8() -> Dict[str, object]:
    """Optimization-pass statistics over every compiled design."""
    from ..anvil_designs.aes import aes_core
    from ..anvil_designs.axi import axi_demux, axi_mux
    from ..anvil_designs.memory import cached_memory_process
    from ..anvil_designs.mmu import ptw_process, tlb_process
    from ..anvil_designs.pipeline import pipelined_alu, systolic_array
    from ..anvil_designs.streams import (
        fifo_buffer,
        passthrough_stream_fifo,
        spill_register,
    )
    out = {}
    for factory in (fifo_buffer, spill_register, passthrough_stream_fifo,
                    tlb_process, ptw_process, aes_core, axi_demux, axi_mux,
                    pipelined_alu, systolic_array, cached_memory_process):
        proc = factory()
        per_thread = []
        for thread in proc.threads:
            built = GraphBuilder(proc, thread).build(1)
            before = len(built.graph)
            opt, _, stats = optimize(built.graph)
            per_thread.append({
                "before": before,
                "after": len(opt),
                "removed": dict(stats.removed),
            })
        out[proc.name] = per_thread
    return out


# ---------------------------------------------------------------------------
# every figure
# ---------------------------------------------------------------------------
def generate_figures(config=None) -> Dict[str, object]:
    """Every figure harness, computed in this process.  ``config`` (a
    :class:`~repro.api.SimConfig` or :class:`~repro.api.Session`)
    supplies the settle engine of the simulated figures (1 and 4) and
    the FSM execution backend of the compiled process in figure 4."""
    from ..api import resolve_config

    cfg = resolve_config(config)
    return {
        "figure1": figure1(engine=cfg.engine),
        "figure2_bsv": figure2_bsv(),
        "figure2_anvil": figure2_anvil(),
        "figure4": figure4(backend=cfg.backend, engine=cfg.engine),
        "figure5": figure5(),
        "figure6": figure6(),
        "figure8": figure8(),
    }

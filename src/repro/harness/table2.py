"""Table 2 + Section 7.2: real-world timing-hazard case studies.

Each case distils one of the paper's open-source issues into a minimal
design and shows (a) the hazard manifesting dynamically in the baseline
and/or (b) Anvil rejecting the unsafe formulation statically while
accepting the contract-respecting one.
"""

from __future__ import annotations

from typing import Dict

from ..core.typecheck import check_process
from ..lang.channels import ChannelDef, LifetimeSpec, MessageDef, Side
from ..lang.process import Process
from ..lang.terms import (
    cycle,
    let,
    read,
    recv,
    send,
    set_reg,
    unit,
    var,
)
from ..lang.types import Logic
from ..rtl.executors import JobSpec, job_kind, run_batch


def _req_res(name="ch", until=True):
    return ChannelDef(name, [
        MessageDef("req", Side.RIGHT, Logic(8),
                   LifetimeSpec.until("res") if until
                   else LifetimeSpec.static(1)),
        MessageDef("res", Side.LEFT, Logic(8), LifetimeSpec.static(1)),
    ])


def case_opentitan_entropy() -> Dict[str, object]:
    """OpenTitan issue 10983: firmware writes entropy while the pipeline
    state machine is not ready.  In Anvil the write is a message whose
    synchronization *is* the ready handshake -- the unsafe fire-and-forget
    formulation (mutating the staging register before the pipeline
    consumed it) is rejected."""
    ch = _req_res("entropy_ch")
    unsafe = Process("fw_entropy_unsafe")
    unsafe.endpoint("rng", ch, Side.LEFT)
    unsafe.register("entropy", Logic(8))
    # fires the data then immediately overwrites the staging register,
    # without waiting for the pipeline to acknowledge the previous word
    unsafe.loop(
        send("rng", "req", read("entropy"))
        >> set_reg("entropy", read("entropy") + 1)
        >> let("a", recv("rng", "res"), var("a") >> unit())
    )
    safe = Process("fw_entropy_safe")
    safe.endpoint("rng", ch, Side.LEFT)
    safe.register("entropy", Logic(8))
    safe.loop(
        send("rng", "req", read("entropy"))
        >> let("a", recv("rng", "res"),
               var("a") >> set_reg("entropy", read("entropy") + 1))
    )
    ru, rs = check_process(unsafe), check_process(safe)
    return {
        "issue": "OpenTitan entropy source (issue 10983)",
        "unsafe_rejected": not ru.ok,
        "error_kinds": sorted({type(e).kind for e in ru.errors}),
        "safe_accepted": rs.ok,
    }


def case_coyote_two_cycle_valid() -> Dict[str, object]:
    """Coyote issue 78: the completion-queue valid pulses for 2 cycles.
    In Anvil the send's required window is exactly one transfer; sending
    the same message again while the first window is live is a static
    error; the correctly spaced version passes."""
    ch = ChannelDef("cq", [
        MessageDef("cq_wr", Side.RIGHT, Logic(8), LifetimeSpec.static(2)),
    ])
    unsafe = Process("coyote_unsafe")
    unsafe.endpoint("cq", ch, Side.LEFT)
    unsafe.register("v", Logic(8))
    unsafe.loop(
        send("cq", "cq_wr", read("v"))
        >> send("cq", "cq_wr", read("v"))   # double pulse, window overlap
        >> set_reg("v", read("v") + 1)
    )
    safe = Process("coyote_safe")
    safe.endpoint("cq", ch, Side.LEFT)
    safe.register("v", Logic(8))
    safe.loop(
        send("cq", "cq_wr", read("v"))
        >> cycle(2)
        >> set_reg("v", read("v") + 1)
    )
    ru, rs = check_process(unsafe), check_process(safe)
    return {
        "issue": "Coyote 2-cycle cq valid burst (issue 78)",
        "unsafe_rejected": not ru.ok,
        "error_kinds": sorted({type(e).kind for e in ru.errors}),
        "safe_accepted": rs.ok,
    }


def case_ibex_instr_valid() -> Dict[str, object]:
    """ibex commit f5d408d: a missing instr_valid_id signal coupled the
    pipeline stages.  In Anvil the stage-to-stage transfer is a message;
    the handshake cannot be forgotten because it *is* the language
    construct (compare the compiled FSM's handshake ports)."""
    from ..codegen.sysverilog import emit_process

    ch = ChannelDef("stage_ch", [
        MessageDef("instr", Side.RIGHT, Logic(8), LifetimeSpec.static(1)),
    ])
    stage = Process("ibex_if_stage")
    stage.endpoint("id", ch, Side.LEFT)
    stage.register("fetched", Logic(8))
    stage.loop(
        set_reg("fetched", read("fetched") + 1)
        >> send("id", "instr", read("fetched"))
    )
    report = check_process(stage)
    sv = emit_process(stage)
    return {
        "issue": "ibex decoupled pipeline stages (commit f5d408d)",
        "safe_accepted": report.ok,
        "valid_generated": "id_instr_valid" in sv,
        "ack_generated": "id_instr_ack" in sv,
    }


def case_snax_alu_handshake() -> Dict[str, object]:
    """snax-cluster PR 163: ALU ready asserted without consulting the
    operand valids.  Anvil's compiled handshake asserts readiness exactly
    at the receiving event -- the generated ack port is driven by the
    FSM, not hand-written."""
    from ..codegen.sysverilog import emit_process

    ch_a = ChannelDef("op_a", [
        MessageDef("data", Side.RIGHT, Logic(8), LifetimeSpec.static(1)),
    ])
    ch_b = ChannelDef("op_b", [
        MessageDef("data", Side.RIGHT, Logic(8), LifetimeSpec.static(1)),
    ])
    ch_o = ChannelDef("acc", [
        MessageDef("data", Side.RIGHT, Logic(8), LifetimeSpec.static(1)),
    ])
    alu = Process("snax_alu")
    alu.endpoint("a", ch_a, Side.RIGHT)
    alu.endpoint("b", ch_b, Side.RIGHT)
    alu.endpoint("o", ch_o, Side.LEFT)
    alu.register("xq", Logic(8))
    alu.register("r", Logic(8))
    # each operand is registered the cycle it arrives: its 1-cycle
    # contract cannot cover waiting for the *other* operand, and the
    # checker enforces exactly that
    alu.loop(
        let("x", recv("a", "data"),
            var("x") >> set_reg("xq", var("x"))
            >> let("y", recv("b", "data"),
                   var("y")
                   >> set_reg("r", read("xq") + var("y"))
                   >> send("o", "data", read("r"))))
    )
    report = check_process(alu)
    sv = emit_process(alu)
    return {
        "issue": "snax-cluster ALU valid-ready fix (PR 163)",
        "safe_accepted": report.ok,
        "both_operand_acks_generated":
            "a_data_ack" in sv and "b_data_ack" in sv,
    }


def case_core2axi_w_valid() -> Dict[str, object]:
    """core2axi commit 25eba94: a missing w_valid assertion.  The Anvil
    AW/W sends *are* the valid assertions; nothing to forget."""
    from ..anvil_designs.axi import axi_demux
    from ..codegen.sysverilog import emit_process

    p = axi_demux(2, name="core2axi_bridge")
    report = check_process(p)
    sv = emit_process(p)
    return {
        "issue": "core2axi missing w_valid (commit 25eba94)",
        "safe_accepted": report.ok,
        "w_valid_generated": "s0_w_valid" in sv and "s1_w_valid" in sv,
    }


#: the Table 2 case studies by name -- the declarative surface the
#: ``table2_case`` job kind dispatches on (``stream_fifo`` is special:
#: it simulates and therefore consumes the config's backend)
CASES = {
    "opentitan": case_opentitan_entropy,
    "coyote": case_coyote_two_cycle_valid,
    "ibex": case_ibex_instr_valid,
    "snax": case_snax_alu_handshake,
    "core2axi": case_core2axi_w_valid,
}


@job_kind("table2_case")
def _table2_case_job(spec: JobSpec) -> Dict[str, object]:
    """Run one named case study (any executor; nothing to pickle but
    the name and the config)."""
    case = spec.param("case")
    if case == "stream_fifo":
        return stream_fifo_safety(backend=spec.config.backend,
                                  engine=spec.config.engine)
    return CASES[case]()


def generate_table2(config=None) -> Dict[str, Dict[str, object]]:
    """All five case studies plus the Section 7.2 stream-FIFO dynamic
    comparison; independent, so each runs as one declarative
    ``table2_case`` :class:`~repro.rtl.executors.JobSpec` on the
    configured executor.  ``config`` (a :class:`~repro.api.SimConfig`
    or :class:`~repro.api.Session`) supplies the FSM execution backend
    of the dynamic case, the executor and the pool size."""
    from ..api import resolve_config

    cfg = resolve_config(config)
    return run_batch(
        [JobSpec(kind="table2_case", name=name, config=cfg,
                 params=(("case", name),))
         for name in [*CASES, "stream_fifo"]],
        cfg.executor, cfg.jobs,
    )


def stream_fifo_safety(backend: str = "interp",
                       engine: str = "levelized") -> Dict[str, object]:
    """Section 7.2: the stream FIFO's documented-but-unenforced write
    guard -- the baseline overflows dynamically, the compiled Anvil
    twin (run on ``backend``/``engine``) never acknowledges an
    overflowing push, so the same traffic arrives intact."""
    from ..codegen.simfsm import MessagePort, build_simulation
    from ..designs.streams import PassthroughStreamFifo
    from ..lang.process import System
    from ..rtl.simulator import Simulator
    from ..rtl.testing import PortSink, PortSource

    sim = Simulator(engine=engine)
    inp, out = MessagePort("in", 8), MessagePort("out", 8)
    dut = PassthroughStreamFifo("fifo", inp, out, depth=2,
                                guard_writes=False)
    src, sink = PortSource("src", inp), PortSink("sink", out,
                                                 lambda c: c > 10)
    src.push(*range(1, 9))
    for m in (src, dut, sink):
        sim.add(m)
    sim.run(60)
    from ..anvil_designs.streams import passthrough_stream_fifo
    anvil_report = check_process(passthrough_stream_fifo(depth=2))
    # the dynamic side of the comparison: same stall, no data loss
    sys_ = System()
    inst = sys_.add(passthrough_stream_fifo(depth=2))
    in_ch = sys_.expose(inst, "inp")
    out_ch = sys_.expose(inst, "out")
    ss = build_simulation(sys_, backend=backend, engine=engine)
    ext_in, ext_out = ss.external(in_ch), ss.external(out_ch)
    for v in range(1, 9):
        ext_in.send("data", v)
    ss.sim.on_cycle(lambda c: ext_out.always_receive("data", c > 10))
    ss.sim.run(60)
    anvil_received = [v for _, v in ext_out.received.get("data", [])]
    return {
        "baseline_overflows": dut.overflows,
        "baseline_assertions": list(dut.assertions),
        "baseline_data_lost":
            [v for _, v in sink.received] != list(range(1, 9)),
        "anvil_guard_enforced_by_construction": anvil_report.ok,
        "anvil_data_lost": anvil_received != list(range(1, 9)),
        "anvil_backend": backend,
    }

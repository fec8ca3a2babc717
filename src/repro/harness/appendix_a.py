"""Appendix A: language-based vs verification-based hazard detection.

Listing 1 (grandchild/child/Top): the child forwards ``*r & d`` whose
lifetime is one cycle, but the Top-facing contract requires it to live
until the response -- Anvil rejects it in milliseconds, modularly (the
child alone).

Listing 2 (the SystemVerilog formulation with an assertion): bounded
model checking must chase the concrete state space, which the 32-bit
counter makes astronomically large; the checker exhausts its budget
without finding the violation.
"""

from __future__ import annotations

import time
from typing import Dict

from ..core.typecheck import check_process
from ..errors import ValueNotLiveError
from ..lang.channels import ChannelDef, LifetimeSpec, MessageDef, Side
from ..lang.process import Process
from ..lang.terms import (
    let,
    read,
    recv,
    send,
    set_reg,
    unit,
    var,
)
from ..lang.types import Logic
from ..verif import Assertion, BoundedModelChecker, TransitionSystem


def listing1_channels():
    ch = ChannelDef("ch", [
        MessageDef("data", Side.RIGHT, Logic(1), LifetimeSpec.until("res")),
        MessageDef("res", Side.LEFT, Logic(1), LifetimeSpec.static(1)),
    ])
    ch_s = ChannelDef("ch_s", [
        MessageDef("data", Side.RIGHT, Logic(1), LifetimeSpec.static(1)),
    ])
    return ch, ch_s


def listing1_child() -> Process:
    """The paper's ``child``: sends ``*r & d`` where ``d`` only lives one
    cycle but the contract demands liveness until ``res``."""
    ch, ch_s = listing1_channels()
    child = Process("child")
    child.endpoint("ep", ch, Side.LEFT)        # towards Top
    child.endpoint("ep_s", ch_s, Side.RIGHT)   # from grandchild
    child.register("r", Logic(1))
    child.loop(
        set_reg("r", ~read("r"))
        >> let("d", recv("ep_s", "data"),
               var("d")
               >> send("ep", "data", read("r") & var("d"))
               >> let("_", recv("ep", "res"), unit()))
    )
    return child


def listing1_child_safe() -> Process:
    """The contract-respecting repair: register ``d`` on arrival, send
    the registered copy -- register reads live until the next mutation,
    which the loop structure puts after the response."""
    ch, ch_s = listing1_channels()
    child = Process("child_safe")
    child.endpoint("ep", ch, Side.LEFT)
    child.endpoint("ep_s", ch_s, Side.RIGHT)
    child.register("r", Logic(1))
    child.register("dq", Logic(1))
    child.loop(
        let("d", recv("ep_s", "data"),
            var("d") >> set_reg("dq", var("d")))
        >> send("ep", "data", read("r") & read("dq"))
        >> let("_", recv("ep", "res"),
               var("_") >> set_reg("r", ~read("r")))
    )
    return child


def anvil_side(backend: str = "interp",
               engine: str = "levelized") -> Dict[str, object]:
    t0 = time.time()
    report = check_process(listing1_child())
    elapsed = time.time() - t0
    safe = listing1_child_safe()
    safe_report = check_process(safe)
    # the accepted repair also *runs*: simulate it end-to-end on the
    # selected FSM execution backend
    from ..codegen.simfsm import build_simulation
    from ..lang.process import System

    sys_ = System()
    inst = sys_.add(safe)
    top_ch = sys_.expose(inst, "ep")
    gc_ch = sys_.expose(inst, "ep_s")
    ss = build_simulation(sys_, backend=backend, engine=engine)
    gc = ss.external(gc_ch)
    top = ss.external(top_ch)
    for i in range(16):
        gc.send("data", i & 1)
    top.always_receive("data")
    for _ in range(16):
        top.send("res", 0)
    ss.sim.run(80)
    transfers = len(top.received.get("data", []))
    return {
        "verdict": "rejected" if not report.ok else "accepted",
        "error": str(report.errors[0]) if report.errors else "",
        "value_not_live": any(
            isinstance(e, ValueNotLiveError) for e in report.errors
        ),
        "seconds": elapsed,
        "modular": True,   # only `child` was examined
        "safe_variant_accepted": safe_report.ok,
        "safe_variant_transfers": transfers,
        "backend": backend,
    }


def listing2_system(counter_bits: int = 32) -> TransitionSystem:
    """Listing 2 as a transition system: grandchild counts; its data bit
    flips once the counter passes 0x100000; child forwards ``r & d`` while
    Top holds the value for three cycles and asserts stability."""
    threshold = 0x100000 if counter_bits >= 21 else (1 << (counter_bits - 2))
    mask = (1 << counter_bits) - 1

    def step(state: dict, inputs: dict) -> dict:
        cnt = (state["cnt"] + 1) & mask
        d = 1 if cnt > threshold else 0
        r = state["r"] ^ 1
        phase = (state["phase"] + 1) % 4
        out = dict(state)
        out.update(cnt=cnt, r=r, d=d, phase=phase)
        if phase == 0:
            out["held"] = state["r"] & state["d"]   # Top samples the value
            out["held_age"] = 0
        else:
            out["held_age"] = state["held_age"] + 1
            out["sampled_now"] = state["r"] & state["d"]
        return out

    initial = dict(cnt=0, r=0, d=0, phase=0, held=0, held_age=0,
                   sampled_now=0)
    return TransitionSystem(initial, step)


def verification_side(max_depth: int = 2000, max_states: int = 60_000,
                      time_budget: float = 5.0,
                      counter_bits: int = 32) -> Dict[str, object]:
    """Bounded model checking of the stability assertion."""
    system = listing2_system(counter_bits)

    def stable(prev, state):
        # the value Top holds must equal what the wires now carry
        if prev is None or state["phase"] == 0 or state["held_age"] > 2:
            return True
        return state["sampled_now"] == state["held"]

    bmc = BoundedModelChecker(
        system,
        [Assertion("data == $past(data)", stable)],
        max_depth=max_depth,
        max_states=max_states,
        time_budget=time_budget,
    )
    result = bmc.run()
    return {
        "verdict": result.verdict,
        "found_violation": result.found_violation,
        "depth_reached": result.depth,
        "states_explored": result.states,
        "seconds": result.elapsed,
        "counter_bits": counter_bits,
    }


def appendix_a(config=None, fast: bool = False) -> Dict[str, object]:
    """The full comparison.

    ``config`` (a :class:`~repro.api.SimConfig` or
    :class:`~repro.api.Session`) supplies the settle engine and FSM
    execution backend of the simulated Anvil side.

    The three sides always run one after another in this process,
    whatever the config's executor: the BMC sides run against
    *wall-clock* time budgets, so anything that shares a core with them
    starves them of explored states per second and can flip the
    budget-bounded verdicts themselves (e.g. the reduced-width case
    failing to reach its violation on a slow runner), not just skew the
    reported seconds.

    ``fast=True`` shrinks the BMC budgets for CI/CLI smoke runs while
    preserving the qualitative outcome (full width exhausts its budget
    without the violation; reduced width reaches it)."""
    from ..api import resolve_config

    cfg = resolve_config(config)
    full_kw = dict(counter_bits=32)
    reduced_kw = dict(counter_bits=8, time_budget=10.0,
                      max_states=2_000_000, max_depth=400)
    if fast:
        full_kw.update(time_budget=0.5, max_states=8_000, max_depth=300)
        reduced_kw.update(time_budget=2.0, max_states=200_000)
    return {
        "anvil": anvil_side(backend=cfg.backend, engine=cfg.engine),
        # full-size counter: the BMC burns its budget without the
        # violation
        "bmc_full_width": verification_side(**full_kw),
        # shrunk counter (what a verification engineer must do by
        # hand): now the violation is reachable within budget
        "bmc_reduced_width": verification_side(**reduced_kw),
    }

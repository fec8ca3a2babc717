"""Synthesis cost estimation.

Two front ends feed one cost model:

* :func:`estimate_compiled` introspects a compiled Anvil process, its
  :class:`~repro.core.fsmplan.ProcessPlan` (the artifact the simulators
  run and the SystemVerilog emitter prints): every runtime expression
  decomposes into gates, every architectural register, value slot and
  FSM state bit becomes a flop.  This automatically charges Anvil for
  its generated FSM -- the source of the small area overheads Table 1
  reports.
* Hand-written baselines supply a structural inventory (see
  :mod:`repro.synth.baselines`), the way a designer would count a
  hand-optimized RTL module.

Power = leakage (area-proportional) + dynamic (simulated switching
activity at the operating frequency).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..codegen import rexpr as rx
from ..core.events import (CommitReg, EventGraph, EventKind, LatchExpr,
                           LatchRecv)
from ..core.fsmplan import ProcessPlan
from ..semantics.log import concrete_times
from .gates import LIBRARY, fmax_mhz, gate_area, gate_leakage


class CostReport:
    def __init__(self, name: str, gates: Dict[str, int], flops: int,
                 depth: int):
        self.name = name
        self.gates = dict(gates)
        self.flops = flops
        self.depth = depth

    @property
    def comb_area(self) -> float:
        return gate_area(self.gates)

    @property
    def noncomb_area(self) -> float:
        return self.flops * LIBRARY["flop"].area

    @property
    def area(self) -> float:
        return self.comb_area + self.noncomb_area

    @property
    def fmax(self) -> float:
        return fmax_mhz(self.depth)

    def power(self, toggles_per_cycle: float, freq_mhz: float) -> float:
        """Total power (mW) at the given activity and frequency."""
        leak = gate_leakage(self.gates) / 1000.0
        leak += self.flops * LIBRARY["flop"].leakage / 1000.0
        # each toggle costs the average gate energy through a small fanout
        energy_fj = 0.9
        dynamic = toggles_per_cycle * energy_fj * freq_mhz * 1e-6
        return leak + dynamic

    def __repr__(self):
        return (
            f"CostReport({self.name}: {self.area:.0f} um2, "
            f"{self.flops} flops, depth {self.depth})"
        )


def _merge(total: Dict[str, int], extra: Dict[str, int]):
    for g, n in extra.items():
        total[g] = total.get(g, 0) + n


def _co_cyclic(g: EventGraph, a: int, b: int) -> bool:
    """Heuristic (cost model only): two events fire in the same cycle if
    their concrete times agree under several slack/branch samples."""
    conds = {ev.cond_id for ev in g.events if ev.kind is EventKind.BRANCH}
    for slack in (0, 1, 2):
        for taken in (True, False):
            slacks = {
                ev.eid: slack for ev in g.events
                if ev.kind is EventKind.SYNC and ev.static_slack is None
            }
            times = concrete_times(g, slacks, {c: taken for c in conds})
            ta, tb = times[a], times[b]
            if ta is not None and tb is not None and ta != tb:
                return False
    return True


def estimate_compiled(plan: ProcessPlan, name: str = "") -> CostReport:
    """Cost a compiled Anvil process from its FSM plan.

    Mirrors what synthesis does to the generated SystemVerilog:

    * combinational logic is costed once per unique expression node
      (common subexpressions are shared);
    * FSM state registers exist only where the FSM actually waits --
      dynamic handshakes, cycle counters, multi-predecessor joins; the
      purely combinational ``fire`` wires of zero-time events synthesize
      to wires, not flops;
    * a value slot needs a register only when it is read outside the
      cycle it is latched in (same-cycle uses go through the bypass
      wire and the flop is pruned as dead).
    """
    gates: Dict[str, int] = {}
    flops = 0

    for reg in plan.process.registers.values():
        flops += reg.dtype.width

    # expressions are DAGs, hash-consed per thread where the graph
    # builder makes them (constructors set width and bits, and nothing
    # changes a node once interned): equal logic of a thread is one
    # node, so every memo below is keyed by node identity, each node
    # is visited once and charged once
    depth_memo: Dict[int, int] = {}
    slots_memo: Dict[int, frozenset] = {}
    max_depth = 0
    gathered: set = set()

    def gather(expr: rx.RExpr) -> Dict[str, int]:
        """Gate demand of a subtree with two synthesis optimizations:
        common-subexpression elimination (a node costs nothing the
        second time) and operator sharing across mux alternatives (the
        two arms are mutually exclusive, so their operators merge
        elementwise).
        """
        if id(expr) in gathered:
            return {}
        gathered.add(id(expr))
        out: Dict[str, int] = dict(expr.gate_count())
        if isinstance(expr, rx.RMux):
            _merge(out, gather(expr.cond))
            arm_a = gather(expr.a)
            arm_b = gather(expr.b)
            # sorted: the float area summed over these gates must not
            # follow string-hash order
            for gk in sorted(set(arm_a) | set(arm_b)):
                out[gk] = out.get(gk, 0) + max(
                    arm_a.get(gk, 0), arm_b.get(gk, 0)
                )
        else:
            for c in expr.children():
                _merge(out, gather(c))
        return out

    def charge_depth(expr: rx.RExpr) -> int:
        nonlocal max_depth
        ik = id(expr)
        if ik in depth_memo:
            return depth_memo[ik]
        kid = max((charge_depth(c) for c in expr.children()), default=0)
        d = expr.depth() + kid
        depth_memo[ik] = d
        max_depth = max(max_depth, d)
        return d

    def slots_read(expr: rx.RExpr) -> frozenset:
        """The value slots an expression reads."""
        cached = slots_memo.get(id(expr))
        if cached is None:
            own = (expr.slot,) if isinstance(expr, rx.RSlot) else ()
            cached = frozenset(own).union(
                *(slots_read(c) for c in expr.children()))
            slots_memo[id(expr)] = cached
        return cached

    def charge(expr: Optional[rx.RExpr]) -> int:
        if expr is None:
            return 0
        _merge(gates, gather(expr))
        return charge_depth(expr)

    for tp in plan.threads:
        g = tp.graph

        # which slots are read outside their latch cycle?
        slot_readers: Dict[int, set] = {}   # slot -> event ids reading it
        slot_latch: Dict[int, Tuple[int, int]] = {}  # slot -> (event, width)

        def note_reads(expr: Optional[rx.RExpr], eid: int):
            if expr is None:
                return
            for slot in slots_read(expr):
                slot_readers.setdefault(slot, set()).add(eid)

        # FSM state: a hand-encoded FSM needs log2(#control states) bits;
        # the control states are the distinct time offsets the thread's
        # events occupy within an iteration, plus one wait flag per
        # dynamic handshake.  A steady one-cycle loop costs no state.
        conds = {
            ev.cond_id for ev in tp.events
            if ev.kind is EventKind.BRANCH
        }
        offsets = set()
        for taken in (True, False):
            times = concrete_times(g, {}, {c: taken for c in conds})
            offsets.update(t for t in times if t is not None)
        if len(offsets) > 1:
            flops += max((len(offsets) - 1).bit_length(), 1)
        # sources that drive the same register or the same message data
        # port from different events are active in different cycles: a
        # resource-sharing synthesizer merges their operators behind the
        # existing select logic, so they are costed elementwise-max.
        shared_groups: Dict[tuple, list] = {}
        for ev in tp.events:
            if ev.kind is EventKind.SYNC and ev.static_slack is None:
                flops += 1          # in-flight handshake state
            _merge(gates, {"and": 1})   # fire wire
            for latch in ev.latches:
                if type(latch) is LatchExpr:
                    charge(latch.source)
                    note_reads(latch.source, ev.eid)
                    slot_latch[latch.slot] = (ev.eid,
                                              latch.source.width or 1)
                elif type(latch) is LatchRecv:
                    slot_latch[latch.slot] = (ev.eid,
                                              plan.ports[ev.port].width)
            if ev.payload is not None:
                shared_groups.setdefault(
                    ("send",) + ev.sync_key, []
                ).append(ev.payload)
                note_reads(ev.payload, ev.eid)
            for c in ev.commits:
                if type(c) is CommitReg:
                    shared_groups.setdefault(
                        ("reg", c.reg), []
                    ).append(c.source)
                    note_reads(c.source, ev.eid)
                    _merge(gates, {"and": 1})   # write enable
        for key, sources in shared_groups.items():
            demands = []
            for s in sources:
                demands.append(gather(s))
                charge_depth(s)
            merged: Dict[str, int] = {}
            for d in demands:
                for gk, n in d.items():
                    merged[gk] = max(merged.get(gk, 0), n)
            _merge(gates, merged)
            if len(sources) > 1:
                width = max(s.width or 1 for s in sources)
                _merge(gates, {"mux2": width * (len(sources) - 1)})
        for slot, (latch_eid, width) in slot_latch.items():
            readers = slot_readers.get(slot, set())
            if any(not _co_cyclic(g, latch_eid, r) for r in readers):
                flops += width
        flops += 1  # boot flag
    return CostReport(name or plan.name, gates, flops, max_depth)


def estimate_inventory(name: str, flops: int, gates: Dict[str, int],
                       depth: int) -> CostReport:
    """Cost a hand-written baseline from its structural inventory."""
    return CostReport(name, gates, flops, depth)

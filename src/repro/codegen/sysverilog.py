"""SystemVerilog emission (Section 6.2).

Each Anvil process becomes one synthesizable SystemVerilog module:

* channel messages lower to ``data``/``valid``/``ack`` ports with the
  handshake ports omitted for static/dependent sync modes
  (:mod:`repro.codegen.lowering`);
* the process's FSM plan (:mod:`repro.core.fsmplan`, the artifact both
  simulators run) lowers to an FSM with a one-bit ``fire`` wire per
  event, plus state registers for joins, cycle delays and in-flight
  handshakes; each event's latches become slot registers with bypass
  wires, its register commits guarded register writes;
* register assignments are guarded by their event's ``fire`` wire, which is
  the implicit clock gating the paper credits for leakage savings;
* no lifetime bookkeeping is emitted -- timing safety was discharged
  statically.

The emitted text is deterministic, which the test-suite exploits with
structural golden checks (balanced ``module``/``endmodule``, port presence,
one ``fire`` wire per event).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.events import (
    CommitReg,
    EventKind,
    LatchExpr,
    LatchFlag,
    LatchRecv,
    SyncDir,
)
from ..core.fsmplan import ProcessPlan, ThreadPlan, build_process_plan
from ..lang.channels import Side
from ..lang.process import Process, System
from .lowering import endpoint_ports
from . import rexpr as rx

_BINOP_SV = {
    "add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^",
    "eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
    "shl": "<<", "shr": ">>",
}


def _count_refs(e: rx.RExpr, names: "NameMap", seen=None):
    """DAG-aware reference counting: shared nodes get hoisted to wires."""
    if seen is None:
        seen = set()
    names.refcount[id(e)] = names.refcount.get(id(e), 0) + 1
    if id(e) in seen:
        return
    seen.add(id(e))
    for c in e.children():
        _count_refs(c, names, seen)


def _sv_expr(e: rx.RExpr, names: "NameMap") -> str:
    hoisted = names.hoisted.get(id(e))
    if hoisted is not None:
        return hoisted[0]
    text = _sv_expr_raw(e, names)
    if names.refcount.get(id(e), 0) > 1 and not isinstance(
        e, (rx.RLit, rx.RReg, rx.RSlot, rx.RReady, rx.RUnit,
            rx.RSlice, rx.RField)
    ):
        return names.hoist(e, text)
    return text


def _sv_expr_raw(e: rx.RExpr, names: "NameMap") -> str:
    if isinstance(e, rx.RLit):
        return f"{e.width}'d{e.value}"
    if isinstance(e, rx.RUnit):
        return "1'b0"
    if isinstance(e, rx.RReg):
        return names.reg(e.name)
    if isinstance(e, rx.RSlot):
        return names.slot(e.slot)
    if isinstance(e, rx.RBin):
        if e.op == "concat":
            return f"{{{_sv_expr(e.a, names)}, {_sv_expr(e.b, names)}}}"
        return f"({_sv_expr(e.a, names)} {_BINOP_SV[e.op]} {_sv_expr(e.b, names)})"
    if isinstance(e, rx.RUn):
        op = {"not": "~", "neg": "-", "redor": "|", "redand": "&",
              "redxor": "^"}[e.op]
        return f"({op}{_sv_expr(e.a, names)})"
    if isinstance(e, rx.RMux):
        return (
            f"({_sv_expr(e.cond, names)} ? {_sv_expr(e.a, names)} : "
            f"{_sv_expr(e.b, names)})"
        )
    if isinstance(e, (rx.RSlice, rx.RField)):
        inner = _sv_expr(e.a, names)
        if not inner.isidentifier():
            # SystemVerilog part-selects only a name
            inner = names.hoist(e.a, inner)
        if isinstance(e, rx.RSlice):
            hi, lo = e.hi, e.lo
        else:
            lo, hi = e.lo, e.lo + e.width - 1
        if hi == lo:
            return f"{inner}[{hi}]"
        return f"{inner}[{hi}:{lo}]"
    if isinstance(e, rx.RBundle):
        parts = [
            _sv_expr(e.fields[n], names)
            for n, _ in reversed(e.dtype.fields)
        ]
        return "{" + ", ".join(parts) + "}"
    if isinstance(e, rx.RReady):
        return names.ready(e.endpoint, e.message)
    if isinstance(e, rx.RTable):
        # ROM-style case expression folded into a nested ternary chain
        # on the index's low table bits, 0 past the last entry
        bits, n = e._idx_bits, len(e.entries)
        idx = _sv_expr(e.index, names)
        if e.index.width > bits:
            idx = f"{idx} & {e.index.width}'d{(1 << bits) - 1}"
        full = n == 1 << bits
        chain = f"{e.width}'d{e.entries[-1] if full else 0}"
        for i in range(n - 2 if full else n - 1, -1, -1):
            chain = (
                f"(({idx}) == {bits}'d{i}) ? "
                f"{e.width}'d{e.entries[i]} : {chain}"
            )
        return f"({chain})"
    raise AssertionError(f"unhandled rexpr {e!r}")


class NameMap:
    """Maps IR entities to SystemVerilog identifiers for one module."""

    def __init__(self, process: Process, thread_idx: int = 0):
        self.process = process
        self.thread_idx = thread_idx
        self.refcount = {}
        # id(expr) -> (wire name, width, defining text), in declaration
        # order
        self.hoisted = {}

    def hoist(self, e: rx.RExpr, text: str) -> str:
        """Name ``e``'s value ``text`` by a wire of ``e``'s width.  Wires
        are kept by node: the graph builder hash-conses each thread's
        expressions (see :mod:`repro.codegen.rexpr`), so equal logic is
        one node and gets one wire."""
        name = f"t{self.thread_idx}_x{len(self.hoisted)}_w"
        self.hoisted[id(e)] = (name, max(e.width, 1), text)
        return name

    def reg(self, name: str) -> str:
        return f"{name}_q"

    def slot(self, slot: int) -> str:
        # references go through the bypass wire so same-cycle latches are
        # combinationally visible (as a simulator pass reads its slot copy)
        return f"t{self.thread_idx}_slot{slot}_w"

    def slot_q(self, slot: int) -> str:
        return f"t{self.thread_idx}_slot{slot}_q"

    def fire(self, eid: int) -> str:
        return f"t{self.thread_idx}_e{eid}_fire"

    def done(self, eid: int) -> str:
        return f"t{self.thread_idx}_e{eid}_done"

    def fired_q(self, eid: int) -> str:
        return f"t{self.thread_idx}_e{eid}_fired_q"

    def cnt(self, eid: int) -> str:
        return f"t{self.thread_idx}_e{eid}_cnt_q"

    def port(self, endpoint: str, message: str, role: str) -> str:
        return f"{endpoint}_{message}_{role}"

    def ready(self, endpoint: str, message: str) -> str:
        ep = self.process.get_endpoint(endpoint)
        role = "ack" if ep.sends(message) else "valid"
        return self.port(endpoint, message, role)


def _slot_widths(tp: ThreadPlan, plan: ProcessPlan) -> Dict[int, int]:
    widths: Dict[int, int] = {}
    for ev in tp.events:
        for latch in ev.latches:
            if type(latch) is LatchExpr:
                width = latch.source.width or 1
            elif type(latch) is LatchRecv:
                width = plan.ports[ev.port].width
            else:   # LatchFlag
                width = 1
            widths[latch.slot] = max(widths.get(latch.slot, 1), width)
    return widths


def _latched_value(latch, ev, plan: ProcessPlan, names: NameMap) -> str:
    """What a latch record writes into its slot when its event ``ev``
    fires (a recv or flag latches ``ev``'s own handshake)."""
    if type(latch) is LatchExpr:
        return _sv_expr(latch.source, names)
    pp = plan.ports[ev.port]
    if type(latch) is LatchRecv:
        return names.port(pp.endpoint, pp.message, "data")
    valid = names.port(pp.endpoint, pp.message, "valid")
    return f"{valid} & {names.port(pp.endpoint, pp.message, 'ack')}"


def emit_process(process: Process, plan: Optional[ProcessPlan] = None
                 ) -> str:
    """Emit one SystemVerilog module for ``process`` from its FSM plan
    (``plan``, or the plan :func:`build_process_plan` returns)."""
    plan = plan or build_process_plan(process)
    lines: List[str] = []
    w = lines.append

    # -- ports -------------------------------------------------------------
    port_decls = ["input  logic clk_i", "input  logic rst_ni"]
    for ep in process.endpoints.values():
        for spec in endpoint_ports(ep.name, ep.channel, ep.side):
            direction = "output" if spec.direction == "output" else "input "
            rng = f"[{spec.width - 1}:0] " if spec.width > 1 else ""
            port_decls.append(f"{direction} logic {rng}{spec.name}")
    w("// Generated by the Anvil reproduction compiler")
    w(f"module {process.name} (")
    w(",\n".join(f"  {p}" for p in port_decls))
    w(");")
    w("")

    # -- architectural registers -------------------------------------------
    names0 = NameMap(process, 0)
    for reg in process.registers.values():
        rng = f"[{reg.dtype.width - 1}:0] " if reg.dtype.width > 1 else ""
        w(f"  logic {rng}{names0.reg(reg.name)};")
    w("")

    send_drivers: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
    recv_acks: Dict[Tuple[str, str], List[str]] = {}

    for ti, tp in enumerate(plan.threads):
        names = NameMap(process, ti)
        events = tp.events
        # reference-count the thread's expression DAG so shared
        # subexpressions are hoisted to wires instead of pasted repeatedly
        ref_seen: set = set()
        for ev in events:
            for spec in ev.latches + ev.commits:
                if getattr(spec, "source", None) is not None:
                    _count_refs(spec.source, names, ref_seen)
            for expr in (ev.payload, ev.guard):
                if expr is not None:
                    _count_refs(expr, names, ref_seen)
        w(f"  // ------- thread {ti} ({tp.kind}): "
          f"{tp.n_events} events -------")
        for slot, width in sorted(_slot_widths(tp, plan).items()):
            rng = f"[{width - 1}:0] " if width > 1 else ""
            w(f"  logic {rng}{names.slot_q(slot)};")
            w(f"  logic {rng}{names.slot(slot)};")
        for ev in events:
            w(f"  logic {names.fire(ev.eid)};")
            w(f"  logic {names.fired_q(ev.eid)};")
            if ev.kind is EventKind.DELAY and ev.delay > 1:
                width = max(ev.delay.bit_length(), 1)
                w(f"  logic [{width - 1}:0] {names.cnt(ev.eid)};")
        w("")

        def done(eid: int) -> str:
            return f"({names.fired_q(eid)} | {names.fire(eid)})"

        # fire logic -------------------------------------------------------
        anchor_fire = names.fire(tp.anchor)
        w(f"  logic t{ti}_boot_q;")
        for ev in events:
            preds_done = (
                " & ".join(done(p) for p in ev.preds) if ev.preds else "1'b1"
            )
            pending = f"~{names.fired_q(ev.eid)}"
            if ev.kind is EventKind.ROOT:
                expr = f"t{ti}_boot_q | {anchor_fire}"
            elif ev.kind is EventKind.DELAY:
                if ev.delay == 0:
                    expr = f"{preds_done} & {pending}"
                elif ev.delay == 1:
                    preds_fired = " & ".join(
                        names.fired_q(p) for p in ev.preds
                    ) or "1'b1"
                    expr = f"{preds_fired} & {pending}"
                else:
                    expr = (
                        f"({names.cnt(ev.eid)} == "
                        f"{ev.delay.bit_length()}'d{ev.delay - 1}) & {pending}"
                    )
            elif ev.kind is EventKind.SYNC:
                endpoint, message = ev.sync_key
                valid = names.port(endpoint, message, "valid")
                ack = names.port(endpoint, message, "ack")
                msg = process.get_endpoint(endpoint).message(message)
                sender_dyn = msg.sync_of(msg.sender_side()).is_dynamic
                recv_dyn = msg.sync_of(msg.sender_side().other).is_dynamic
                valid_term = valid if sender_dyn else "1'b1"
                ack_term = ack if recv_dyn else "1'b1"
                if ev.conditional:
                    expr = f"{preds_done} & {pending}"
                else:
                    expr = (
                        f"{preds_done} & {pending} & {valid_term} & "
                        f"{ack_term}"
                    )
                active = f"{preds_done} & {pending}"
                if ev.guard is not None:
                    active = f"{active} & ({_sv_expr(ev.guard, names)})"
                if ev.direction is SyncDir.SEND:
                    if ev.payload is not None:
                        send_drivers.setdefault(ev.sync_key, []).append(
                            (active, _sv_expr(ev.payload, names)))
                else:
                    recv_acks.setdefault(ev.sync_key, []).append(active)
            elif ev.kind is EventKind.BRANCH:
                cond = ev.cond_expr
                cond_sv = _sv_expr(cond, names) if cond is not None else "1'b0"
                if not ev.polarity:
                    cond_sv = f"~({cond_sv})"
                parent_fire = " & ".join(
                    names.fire(p) for p in ev.preds
                ) or "1'b1"
                expr = f"{parent_fire} & ({cond_sv})"
            elif ev.kind is EventKind.JOIN_ANY:
                expr = " | ".join(names.fire(p) for p in ev.preds) or "1'b0"
            else:  # JOIN_ALL
                expr = f"{preds_done} & {pending}"
            w(f"  assign {names.fire(ev.eid)} = {expr};")
        w("")

        # sequential state ---------------------------------------------------
        w("  always_ff @(posedge clk_i or negedge rst_ni) begin")
        w("    if (!rst_ni) begin")
        w(f"      t{ti}_boot_q <= 1'b1;")
        for ev in events:
            w(f"      {names.fired_q(ev.eid)} <= 1'b0;")
            if ev.kind is EventKind.DELAY and ev.delay > 1:
                w(f"      {names.cnt(ev.eid)} <= '0;")
        w("    end else begin")
        w(f"      t{ti}_boot_q <= 1'b0;")
        w(f"      if ({anchor_fire}) begin")
        for ev in events:
            w(f"        {names.fired_q(ev.eid)} <= 1'b0;")
        w("      end else begin")
        for ev in events:
            w(
                f"        if ({names.fire(ev.eid)}) "
                f"{names.fired_q(ev.eid)} <= 1'b1;"
            )
        w("      end")
        for ev in events:
            if ev.kind is EventKind.DELAY and ev.delay > 1:
                preds_done2 = " & ".join(
                    names.fired_q(p) for p in ev.preds
                ) or "1'b1"
                cnt = names.cnt(ev.eid)
                w(f"      if ({names.fire(ev.eid)}) {cnt} <= '0;")
                w(f"      else if ({preds_done2}) {cnt} <= {cnt} + 1'b1;")
        w("    end")
        w("  end")
        w("")

        # slot and register writes of each event: its latches, then its
        # register writes, in plan (action) order
        bypass: List[str] = []
        w("  always_ff @(posedge clk_i) begin")
        for ev in events:
            fire = names.fire(ev.eid)
            for latch in ev.latches:
                slot = latch.slot
                value = _latched_value(latch, ev, plan, names)
                w(f"    if ({fire}) {names.slot_q(slot)} <= {value};")
                if type(latch) is LatchFlag:
                    value = f"({value})"
                bypass.append(f"  assign {names.slot(slot)} = {fire} ? "
                              f"{value} : {names.slot_q(slot)};")
            for c in ev.commits:
                if type(c) is CommitReg:
                    w(f"    if ({fire}) {names.reg(c.reg)} <= "
                      f"{_sv_expr(c.source, names)};")
        w("  end")
        w("")

        # slot bypass wires: same-cycle visibility of latched data
        lines.extend(bypass)
        w("")

        # hoisted shared subexpressions (children precede parents)
        for hname, hwidth, htext in names.hoisted.values():
            rng = f"[{hwidth - 1}:0] " if hwidth > 1 else ""
            w(f"  logic {rng}{hname};")
            w(f"  assign {hname} = {htext};")
        w("")

    # -- output port drivers -------------------------------------------------
    for ep in process.endpoints.values():
        for msg in ep.channel:
            key = (ep.name, msg.name)
            names = NameMap(process, 0)
            if ep.sends(msg.name):
                drivers = send_drivers.get(key, [])
                data_port = names.port(ep.name, msg.name, "data")
                valid_port = names.port(ep.name, msg.name, "valid")
                if drivers:
                    mux = f"{msg.dtype.width}'d0"
                    for active, value in drivers:
                        mux = f"({active}) ? ({value}) : {mux}"
                    w(f"  assign {data_port} = {mux};")
                    valid_expr = " | ".join(
                        f"({active})" for active, _ in drivers
                    )
                else:
                    w(f"  assign {data_port} = '0;")
                    valid_expr = "1'b0"
                if msg.sync_of(msg.sender_side()).is_dynamic:
                    w(f"  assign {valid_port} = {valid_expr};")
            else:
                acks = recv_acks.get(key, [])
                ack_port = names.port(ep.name, msg.name, "ack")
                if msg.sync_of(msg.sender_side().other).is_dynamic:
                    expr = " | ".join(f"({a})" for a in acks) or "1'b0"
                    w(f"  assign {ack_port} = {expr};")
    w("")
    w("endmodule")
    return "\n".join(lines) + "\n"


def emit_system(system: System) -> str:
    """Emit all process modules plus a top-level wiring module."""
    chunks: List[str] = []
    seen = set()
    for inst in system.instances.values():
        if inst.process.name not in seen:
            seen.add(inst.process.name)
            chunks.append(emit_process(inst.process))
    # top-level
    lines: List[str] = []
    w = lines.append
    w(f"module {system.name}_top (")
    ext_ports = ["  input  logic clk_i", "  input  logic rst_ni"]
    for chan in system.channels:
        for side in (Side.LEFT, Side.RIGHT):
            if side not in chan.ends:
                for msg in chan.channel:
                    width = msg.dtype.width
                    rng = f"[{width - 1}:0] " if width > 1 else ""
                    sender_ext = msg.sender_side() is side
                    d = "input " if sender_ext else "output"
                    ext_ports.append(
                        f"  {d} logic {rng}ch{chan.cid}_{msg.name}_data"
                    )
                    ext_ports.append(
                        f"  {d} logic ch{chan.cid}_{msg.name}_valid"
                    )
                    nd = "output" if sender_ext else "input "
                    ext_ports.append(
                        f"  {nd} logic ch{chan.cid}_{msg.name}_ack"
                    )
    w(",\n".join(ext_ports))
    w(");")
    for chan in system.channels:
        for msg in chan.channel:
            width = msg.dtype.width
            rng = f"[{width - 1}:0] " if width > 1 else ""
            w(f"  logic {rng}ch{chan.cid}_{msg.name}_data_w;")
            w(f"  logic ch{chan.cid}_{msg.name}_valid_w;")
            w(f"  logic ch{chan.cid}_{msg.name}_ack_w;")
    for inst in system.instances.values():
        w(f"  {inst.process.name} u_{inst.name} (")
        conns = ["    .clk_i(clk_i)", "    .rst_ni(rst_ni)"]
        for ep_name, (cid, side) in inst.bindings.items():
            ep = inst.process.get_endpoint(ep_name)
            for spec in endpoint_ports(ep_name, ep.channel, ep.side):
                conns.append(
                    f"    .{spec.name}(ch{cid}_{spec.message}_{spec.role}_w)"
                )
        w(",\n".join(conns))
        w("  );")
    w("endmodule")
    chunks.append("\n".join(lines) + "\n")
    return "\n\n".join(chunks)


def structural_check(sv_text: str) -> Dict[str, int]:
    """Cheap well-formedness metrics used by tests."""
    return {
        "modules": sv_text.count("\nmodule ") + sv_text.startswith("module"),
        "endmodules": sv_text.count("endmodule"),
        "always_ff": sv_text.count("always_ff"),
        "assigns": sv_text.count("assign "),
        "begins": sv_text.count("begin"),
        "ends": sv_text.count("end"),
    }

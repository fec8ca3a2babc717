"""Executable FSMs: compiled Anvil processes on the RTL simulator.

The paper's compiler lowers the event graph to an FSM with one ``current``
wire per event plus state registers for joins, cycle delays and dynamic
sends/receives (Section 6.2).  This module is the executable analogue,
split into three layers:

1. :func:`compile_process` lowers a process through
   :func:`repro.core.fsmplan.build_process_plan` into a backend-neutral
   **FSM plan** (per-thread firing order, latch/commit specs, the exact
   handshake sensitivity sets);
2. :class:`AnvilProcessModule` owns the run-time state -- activations,
   per-activation slots, the register file, handshake ports -- and the
   **reference interpreter** that walks the plan cycle by cycle;
3. ``backend="pycompiled"`` swaps the interpreter's per-thread fire and
   commit steps for functions generated, ``compile()``d and ``exec``'d
   from the same plan by :mod:`repro.codegen.pysim` -- semantically
   identical, several times faster.

Execution semantics (identical across backends):

* event firing is computed *combinationally* each settle iteration (the
  ``current`` wires), monotonically within a cycle;
* actions (register writes, data latching, debug prints) commit at the
  clock edge;
* ``loop`` threads respawn an activation at the loop-back anchor; a
  ``recursive`` thread respawns at its ``recurse`` event, so iterations
  overlap exactly as the language semantics prescribe.

Because the type checker has already guaranteed timing safety, the
backends need no value buffering beyond what the FSM itself has --
which is why the generated hardware carries no lifetime bookkeeping.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Dict, List, Optional, Tuple

from ..core.events import EventGraph, EventKind, SyncDir
from ..core.fsmplan import (
    CommitExpr,
    CommitFlag,
    CommitRecv,
    CommitReg,
    LatchFlag,
    LatchRecv,
    ProcessPlan,
    ThreadPlan,
    build_process_plan,
    port_reads,
    port_writes,
)
from ..errors import ContractViolationError, SimulationError
from ..lang.channels import Side
from ..lang.process import Process, System
from ..rtl.module import Module
from ..rtl.signal import Wire
from . import rexpr as rx

#: execution backends an :class:`AnvilProcessModule` can run on
BACKENDS = ("interp", "pycompiled")


class CompiledThread:
    """Legacy view of one thread's compiled graph (the SystemVerilog
    backend and the synthesis cost model consume this shape)."""

    def __init__(self, graph: EventGraph, root: int, anchor: int, kind: str,
                 cond_exprs: Dict[int, rx.RExpr]):
        self.graph = graph
        self.root = root
        self.anchor = anchor
        self.kind = kind
        self.cond_exprs = cond_exprs  # cond_id -> condition expression


class CompiledProcess:
    """A type-check-free compilation artifact: the FSM plan, ready to
    execute, plus the per-thread graph view other backends consume."""

    def __init__(self, process: Process, plan: ProcessPlan):
        self.process = process
        self.plan = plan
        self.optimize_stats = plan.optimize_stats
        self.threads: List[CompiledThread] = [
            CompiledThread(tp.graph, 0, tp.anchor, tp.kind, tp.cond_exprs)
            for tp in plan.threads
        ]
        #: register name -> width mask applied to every committed write
        self.reg_masks: Dict[str, int] = {
            name: (1 << r.dtype.width) - 1
            for name, r in process.registers.items()
        }


def compile_process(process: Process, do_optimize: bool = True
                    ) -> CompiledProcess:
    """Compile each thread to a single-iteration event graph + plan."""
    return CompiledProcess(process, build_process_plan(process, do_optimize))


class MessagePort:
    """The wire triplet of one message on one channel instance."""

    def __init__(self, name: str, width: int):
        self.data = Wire(f"{name}.data", width)
        self.valid = Wire(f"{name}.valid", 1)
        self.ack = Wire(f"{name}.ack", 1)

    def wires(self):
        return (self.data, self.valid, self.ack)

    @property
    def fires(self) -> bool:
        return bool(self.valid.value and self.ack.value)

    def __repr__(self):
        return (
            f"MessagePort(data={self.data.value:#x} "
            f"v={self.valid.value} a={self.ack.value})"
        )


class _SlotView:
    """Committed slots with a same-cycle overlay (the hardware's bypass
    path: data latched this cycle is combinationally visible)."""

    __slots__ = ("base", "overlay")

    def __init__(self, base: Dict[int, int], overlay: Dict[int, int]):
        self.base = base
        self.overlay = overlay

    def get(self, key, default=0):
        if key in self.overlay:
            return self.overlay[key]
        return self.base.get(key, default)


class Activation:
    """One in-flight iteration of a thread."""

    __slots__ = ("start", "fired", "dead", "slots", "spawned", "cache")

    def __init__(self, start: int):
        self.start = start
        self.fired: Dict[int, int] = {}  # eid -> cycle
        self.dead: set = set()
        self.slots: Dict[int, int] = {}
        self.spawned = False
        # (cycle, fired_now, dead_now, overlay) from the last settled
        # fire pass; consumed by tick() so the clock edge does not
        # recompute the fire set the settle phase already produced
        self.cache: Optional[Tuple] = None


class AnvilProcessModule(Module):
    """Run-time instance of a compiled process.

    ``backend`` selects how the per-thread fire (settle pass) and commit
    (clock edge) steps execute: ``"interp"`` walks the plan with the
    reference interpreter; ``"pycompiled"`` calls the generated-Python
    functions from :mod:`repro.codegen.pysim`.  Everything else --
    activation bookkeeping, spawning, deduplication, retirement -- is
    shared, so the two backends are observationally identical.  The
    choice lives only in the installed dispatch, never in module state,
    so snapshots, prefix keys and campaign digests do not depend on it.
    """

    MAX_ACTIVATIONS = 64
    MAX_SPAWNS_PER_CYCLE = 16

    def __init__(self, compiled: CompiledProcess, name: str = "",
                 backend: str = "interp"):
        super().__init__(name or compiled.process.name)
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (use 'interp' or 'pycompiled')"
            )
        self.compiled = compiled
        self.plan: ProcessPlan = compiled.plan
        self.process = compiled.process
        self.regs: Dict[str, int] = {
            r.name: r.init for r in self.process.registers.values()
        }
        # endpoint -> message -> MessagePort (shared with the counterpart)
        self.ports: Dict[str, Dict[str, MessagePort]] = {}
        self.sides: Dict[str, Side] = {}
        self.cycle = 0
        self.debug_log: List[Tuple[int, str, Optional[int]]] = []
        self.print_debug = False
        self._threads_rt: List[List[Activation]] = [
            [] for _ in self.plan.threads
        ]
        self._tentative: List[List[Activation]] = [
            [] for _ in self.plan.threads
        ]
        self._reg_writes: List[Tuple[str, int]] = []
        self._started = False
        # flat port-wire table: [data, valid, ack] per plan port, filled
        # by bind_endpoint (None until the endpoint is wired)
        self._pw: List[Optional[Wire]] = [None] * (3 * len(self.plan.ports))
        self._ready_wires: Dict[Tuple[str, str], Wire] = {}
        self._release_wires: List[Wire] = []   # handshake outputs to drop
        if backend == "pycompiled":
            from .pysim import backend_for

            be = backend_for(self.plan)
            self._fire = [partial(f, self) for f in be.fire]
            self._commit = [partial(c, self) for c in be.commit]
        else:
            self._fire = [partial(self._interp_fire, tp)
                          for tp in self.plan.threads]
            self._commit = [partial(self._interp_commit, tp)
                            for tp in self.plan.threads]

    # -- wiring -----------------------------------------------------------
    def bind_endpoint(self, endpoint: str, side: Side,
                      ports: Dict[str, MessagePort]):
        self.ports[endpoint] = ports
        self.sides[endpoint] = side
        for m, p in ports.items():
            self.adopt(p.data)
            self.adopt(p.valid)
            self.adopt(p.ack)
        for pp in self.plan.ports:
            if pp.endpoint != endpoint:
                continue
            port = ports[pp.message]
            base = 3 * pp.index
            self._pw[base] = port.data
            self._pw[base + 1] = port.valid
            self._pw[base + 2] = port.ack
            self._ready_wires[pp.key] = (
                port.ack if pp.is_sender else port.valid
            )
            if pp.drives:
                self._release_wires.append(
                    port.valid if pp.is_sender else port.ack
                )

    def _ready(self, endpoint: str, message: str) -> int:
        return self._ready_wires[(endpoint, message)].value

    # -- scheduler registration --------------------------------------------
    # The compiled FSM's combinational block is exactly its handshake
    # logic, and the plan's port table records precisely which messages
    # the process synchronizes on or observes: as a sender it drives
    # valid/data and reacts to the ack, as a receiver it drives the ack
    # and reacts to valid/data, and a readiness query reads the
    # counterpart's handshake bit.  Registers, slots and activation
    # state only change at the clock edge, so they need no sensitivity
    # edges.  Wires of messages the process is bound to but never uses
    # appear in neither set -- the levelized scheduler gets the exact
    # dependency surface of the generated hardware.
    _ROLE = {"data": 0, "valid": 1, "ack": 2}

    def comb_inputs(self):
        ins = []
        for pp in self.plan.ports:
            base = 3 * pp.index
            for role in port_reads(pp):
                w = self._pw[base + self._ROLE[role]]
                if w is not None:
                    ins.append(w)
        return ins

    def comb_outputs(self):
        outs = []
        for pp in self.plan.ports:
            base = 3 * pp.index
            for role in port_writes(pp):
                w = self._pw[base + self._ROLE[role]]
                if w is not None:
                    outs.append(w)
        return outs

    # -- combinational phase ---------------------------------------------
    # Between ticks a thread's list holds only live activations (tick
    # drops retired ones), so a settle pass walks it as is, then the
    # activations it spawns: the walk over ``tentative`` sees the
    # children appended while it runs.
    def eval_comb(self):
        if not self._started:
            for ti in range(len(self.plan.threads)):
                if not self._threads_rt[ti]:
                    self._threads_rt[ti].append(Activation(0))
            self._started = True
        # release our handshake outputs, then re-drive below
        for w in self._release_wires:
            w.value = 0
        now = self.cycle
        for ti, tp in enumerate(self.plan.threads):
            acts = self._threads_rt[ti]
            tentative = self._tentative[ti]
            tentative.clear()
            fire = self._fire[ti]
            anchor = tp.anchor
            busy: set = set()
            spawns = 0
            for act in chain(acts, tentative):
                fired_now, dead_now, overlay = fire(act, busy)
                act.cache = (now, fired_now, dead_now, overlay)
                if act.spawned or not (anchor in fired_now
                                       or anchor in act.fired):
                    continue
                spawns += 1
                if spawns > self.MAX_SPAWNS_PER_CYCLE:
                    raise SimulationError(
                        f"{self.name}: zero-delay loop detected (thread "
                        f"anchored at e{anchor})"
                    )
                if len(acts) + len(tentative) >= self.MAX_ACTIVATIONS:
                    raise SimulationError(
                        f"{self.name}: too many concurrent activations"
                    )
                tentative.append(Activation(now))

    # -- the reference interpreter ----------------------------------------
    def _apply_latches(self, latches, overlay, env):
        pw = self._pw
        for latch in latches:
            t = type(latch)
            if t is LatchRecv:
                overlay[latch.target] = pw[3 * latch.port].value
            elif t is LatchFlag:
                base = 3 * latch.port
                overlay[latch.target] = (
                    1 if (pw[base + 1].value and pw[base + 2].value) else 0
                )
            else:   # LatchExpr
                overlay[latch.slot] = latch.source.eval(env)

    def _interp_fire(self, tp: ThreadPlan, act: Activation, busy: set):
        """Compute events firing *this* cycle for one activation and drive
        handshake wires for active syncs.  Pure function of settled state;
        re-run every settle iteration (permanent state only commits at the
        clock edge)."""
        now = self.cycle
        fired_now: Dict[int, int] = {}
        dead_now: set = set()
        overlay: Dict[int, int] = {}
        env = rx.REnv(self.regs, _SlotView(act.slots, overlay), self._ready)
        af = act.fired
        ad = act.dead
        af_get = af.get
        fn_get = fired_now.get
        pw = self._pw
        start = act.start

        for epl in tp.events:
            eid = epl.eid
            if eid in af or eid in ad or eid in fired_now \
                    or eid in dead_now:
                continue
            kind = epl.kind
            if kind is EventKind.ROOT:
                if start == now:
                    fired_now[eid] = now
                    if epl.latches:
                        self._apply_latches(epl.latches, overlay, env)
                continue
            preds = epl.preds
            if kind is EventKind.JOIN_ANY:
                ready = False
                alive = False
                for p in preds:
                    c = af_get(p)
                    if c is None:
                        c = fn_get(p)
                    if c is not None:
                        ready = alive = True
                        break
                    if not (p in ad or p in dead_now):
                        alive = True
                if ready:
                    fired_now[eid] = now
                    if epl.latches:
                        self._apply_latches(epl.latches, overlay, env)
                elif not alive:
                    dead_now.add(eid)
                continue
            # all other kinds require every predecessor
            dead = False
            for p in preds:
                if p in ad or p in dead_now:
                    dead = True
                    break
            if dead:
                dead_now.add(eid)
                continue
            base = start
            blocked = False
            for p in preds:
                c = af_get(p)
                if c is None:
                    c = fn_get(p)
                    if c is None:
                        blocked = True
                        break
                if c > base:
                    base = c
            if blocked:
                continue
            if kind is EventKind.DELAY:
                if base + epl.delay == now:
                    fired_now[eid] = now
                    if epl.latches:
                        self._apply_latches(epl.latches, overlay, env)
                continue
            if kind is EventKind.JOIN_ALL:
                fired_now[eid] = now
                if epl.latches:
                    self._apply_latches(epl.latches, overlay, env)
                continue
            if kind is EventKind.BRANCH:
                expr = epl.cond_expr
                cond = expr.eval(env) & 1 if expr is not None else 0
                if bool(cond) == epl.polarity:
                    fired_now[eid] = now
                    if epl.latches:
                        self._apply_latches(epl.latches, overlay, env)
                else:
                    dead_now.add(eid)
                continue
            # SYNC
            key = epl.sync_key
            if key in busy:
                continue  # an older activation owns the handshake
            busy.add(key)
            base3 = 3 * epl.port
            guard = 1 if epl.guard is None else epl.guard.eval(env) & 1
            if epl.direction is SyncDir.SEND:
                if guard:
                    pw[base3 + 1].value = 1
                    dw = pw[base3]
                    payload = (
                        epl.payload.eval(env)
                        if epl.payload is not None else 0
                    )
                    dw.value = payload & dw.mask
            else:
                if guard:
                    pw[base3 + 2].value = 1
            if epl.conditional or (pw[base3 + 1].value
                                   and pw[base3 + 2].value):
                fired_now[eid] = now
                if epl.latches:
                    self._apply_latches(epl.latches, overlay, env)
        return fired_now, dead_now, overlay

    def _interp_commit(self, tp: ThreadPlan, act: Activation,
                       fired_now: Dict[int, int], overlay: Dict[int, int]):
        act.fired.update(fired_now)
        env = rx.REnv(self.regs, _SlotView(act.slots, overlay), self._ready)
        now = self.cycle
        pw = self._pw
        slots = act.slots
        events = tp.events
        for eid in fired_now:
            for c in events[eid].commits:
                t = type(c)
                if t is CommitReg:
                    self._reg_writes.append((c.reg, c.source.eval(env)))
                elif t is CommitRecv:
                    slots[c.target] = overlay.get(
                        c.target, pw[3 * c.port].value
                    )
                elif t is CommitFlag:
                    base = 3 * c.port
                    slots[c.target] = overlay.get(
                        c.target,
                        1 if (pw[base + 1].value and pw[base + 2].value)
                        else 0,
                    )
                elif t is CommitExpr:
                    slots[c.slot] = overlay.get(
                        c.slot, c.source.eval(env)
                    )
                else:   # CommitPrint
                    value = (
                        c.source.eval(env)
                        if c.source is not None else None
                    )
                    self.debug_log.append((now, c.fmt, value))
                    if self.print_debug:
                        suffix = "" if value is None else f" {value:#x}"
                        print(f"[{now}] {self.name}: {c.fmt}{suffix}")

    # -- clock edge ---------------------------------------------------------
    def tick(self):
        now = self.cycle
        for ti, tp in enumerate(self.plan.threads):
            acts = self._threads_rt[ti]
            tentative = self._tentative[ti]
            if tentative:
                acts.extend(tentative)
                tentative.clear()
            fire = self._fire[ti]
            commit = self._commit[ti]
            n_events = tp.n_events
            anchor = tp.anchor
            busy: set = set()
            live = []
            for act in acts:
                cache = act.cache
                act.cache = None
                if cache is not None and cache[0] == now:
                    # the settle phase already computed this activation's
                    # fire set on the settled wires; reuse it
                    _cyc, fired_now, dead_now, overlay = cache
                else:
                    fired_now, dead_now, overlay = fire(act, busy)
                if dead_now:
                    act.dead.update(dead_now)
                if fired_now:
                    commit(act, fired_now, overlay)
                    if anchor in fired_now:
                        act.spawned = True
                if len(act.fired) + len(act.dead) != n_events:
                    live.append(act)
            self._threads_rt[ti] = (
                self._dedup(tp, live) if len(live) > 1 else live
            )
        if self._reg_writes:
            masks = self.compiled.reg_masks
            regs = self.regs
            for reg, value in self._reg_writes:
                regs[reg] = value & masks[reg]
            self._reg_writes = []
        self.cycle = now + 1

    def _dedup(self, tp: ThreadPlan, live: List[Activation]
               ) -> List[Activation]:
        """Activations with identical FSM state are indistinguishable
        (the generated hardware holds one copy of that state); keep only
        the oldest of each equivalence class.  This is what stops
        stalled ``recursive`` iterations from piling up.

        Equal states have equal fired/dead/slot counts and ``spawned``
        flags, so the full state key is built only for activations that
        share that cheap signature with an earlier one."""
        first: Dict[Tuple, Activation] = {}
        keys: Dict[Tuple, set] = {}
        kept = []
        for a in live:
            sig = (len(a.fired), len(a.dead), len(a.slots), a.spawned)
            other = first.setdefault(sig, a)
            if other is not a:
                seen = keys.get(sig)
                if seen is None:
                    seen = keys[sig] = {self._state_key(tp, other)}
                key = self._state_key(tp, a)
                if key in seen:
                    continue
                seen.add(key)
            kept.append(a)
        return kept

    def _state_key(self, tp: ThreadPlan, a: Activation) -> Tuple:
        dues = []
        for eid, preds, delay in tp.delays:
            if eid not in a.fired and eid not in a.dead and preds \
                    and all(p in a.fired for p in preds):
                base = max(a.fired[p] for p in preds)
                dues.append((eid, base + delay - self.cycle))
        return (
            frozenset(a.fired),
            frozenset(a.dead),
            tuple(sorted(a.slots.items())),
            tuple(sorted(dues)),
            a.spawned,
        )

    def reset(self):
        self.regs = {
            r.name: r.init for r in self.process.registers.values()
        }
        self._threads_rt = [[] for _ in self.plan.threads]
        self._tentative = [[] for _ in self.plan.threads]
        self._reg_writes = []
        self.cycle = 0
        self._started = False
        self.debug_log = []


class ExternalEndpoint(Module):
    """Test-bench driver for the far side of an exposed channel.

    Provides queue-based ``send``/``always_receive`` so tests and
    baseline co-simulations can interact with Anvil modules through
    ordinary valid/ack handshakes.

    A send queue keeps every value ever queued: the ones already
    handed over are exactly those recorded in ``sent``, so
    ``len(sent[m])`` is the queue's read cursor."""

    def __init__(self, name: str, channel, side: Side,
                 ports: Dict[str, MessagePort]):
        super().__init__(name)
        self.channel = channel
        self.side = side
        self.ports = ports
        for p in ports.values():
            self.adopt(p.data)
            self.adopt(p.valid)
            self.adopt(p.ack)
        self._send_queues: Dict[str, List[int]] = {}
        self._recv_enabled: Dict[str, bool] = {}
        self.received: Dict[str, List[Tuple[int, int]]] = {}
        self.sent: Dict[str, List[Tuple[int, int]]] = {}
        self.cycle = 0
        self._sender_memo: Dict[str, bool] = {
            m: channel.message(m).sender_side() is side for m in ports
        }
        # each message's (name, valid, ack, data), split by role in port
        # order so eval_comb/tick never look the role up.  Kept as one
        # attribute that always holds wires: snapshots and state
        # signatures skip it as structural (an empty plain tuple would
        # enter them).
        entries = [(m, p.valid, p.ack, p.data) for m, p in ports.items()]
        self._roles = (
            tuple(e for e in entries if self._sender_memo[e[0]]),
            tuple(e for e in entries if not self._sender_memo[e[0]]),
        )

    def _is_sender(self, message: str) -> bool:
        hit = self._sender_memo.get(message)
        if hit is None:
            hit = self.channel.message(message).sender_side() is self.side
            self._sender_memo[message] = hit
        return hit

    def send(self, message: str, value: int):
        if not self._is_sender(message):
            raise ContractViolationError(
                f"{self.name} is not the sender of {message!r}"
            )
        self._send_queues.setdefault(message, []).append(value)

    def always_receive(self, message: str, enabled: bool = True):
        if self._is_sender(message):
            raise ContractViolationError(
                f"{self.name} is the sender of {message!r}"
            )
        self._recv_enabled[message] = enabled

    def comb_inputs(self):
        return ()      # drives from queues/flags; reads no wires

    def comb_outputs(self):
        outs = []
        for m, port in self.ports.items():
            if self._is_sender(m):
                outs.append(port.valid)
                outs.append(port.data)
            else:
                outs.append(port.ack)
        return outs

    def eval_comb(self):
        sends, receives = self._roles
        queues = self._send_queues
        sent = self.sent
        for m, valid, _ack, data in sends:
            queue = queues.get(m)
            if queue:
                k = len(sent.get(m, ()))
                if k < len(queue):
                    valid.value = 1
                    data.value = queue[k] & data.mask
                    continue
            valid.value = 0
        enabled = self._recv_enabled
        for m, _valid, ack, _data in receives:
            ack.value = 1 if enabled.get(m) else 0

    def tick(self):
        sends, receives = self._roles
        cycle = self.cycle
        queues = self._send_queues
        sent = self.sent
        for m, valid, ack, _data in sends:
            if valid.value and ack.value:
                queue = queues.get(m)
                if queue:
                    k = len(sent.get(m, ()))
                    if k < len(queue):
                        sent.setdefault(m, []).append((cycle, queue[k]))
        received = self.received
        for m, valid, ack, data in receives:
            if valid.value and ack.value:
                received.setdefault(m, []).append((cycle, data.value))
        self.cycle = cycle + 1


class SimulatedSystem:
    """A :class:`~repro.lang.process.System` elaborated onto the simulator."""

    def __init__(self, system: System, sim, modules, externals,
                 backend: str = "interp"):
        self.system = system
        self.sim = sim
        self.backend = backend
        self.modules: Dict[str, AnvilProcessModule] = modules
        self.externals: Dict[int, ExternalEndpoint] = externals

    def module(self, name: str) -> AnvilProcessModule:
        return self.modules[name]

    def external(self, chan) -> ExternalEndpoint:
        cid = chan.cid if hasattr(chan, "cid") else chan
        return self.externals[cid]


def build_simulation(system: System, sim=None, do_optimize: bool = True,
                     backend: str = "interp",
                     engine: str = "levelized") -> SimulatedSystem:
    """Elaborate a system: compile every process, create channel wires and
    external drivers for exposed endpoints.

    ``backend`` selects the execution backend of every compiled process
    module (``"interp"`` or ``"pycompiled"``); ``engine`` the settle
    engine of the simulator created when ``sim`` is not supplied (an
    existing ``sim`` keeps its own engine).  All combinations are
    observationally identical."""
    from ..rtl.simulator import Simulator

    sim = sim or Simulator(system.name, engine=engine)
    compiled: Dict[str, CompiledProcess] = {}
    modules: Dict[str, AnvilProcessModule] = {}
    for inst in system.instances.values():
        if inst.process.name not in compiled:
            compiled[inst.process.name] = compile_process(
                inst.process, do_optimize
            )
        modules[inst.name] = AnvilProcessModule(
            compiled[inst.process.name], inst.name, backend=backend
        )
    externals: Dict[int, ExternalEndpoint] = {}
    for chan in system.channels:
        ports = {
            m.name: MessagePort(
                f"ch{chan.cid}.{m.name}", m.dtype.width
            )
            for m in chan.channel
        }
        for side in (Side.LEFT, Side.RIGHT):
            bound = chan.ends.get(side)
            if bound is not None:
                inst_name, ep_name = bound
                modules[inst_name].bind_endpoint(ep_name, side, ports)
            else:
                ext = ExternalEndpoint(
                    f"ext_ch{chan.cid}", chan.channel, side, ports
                )
                externals[chan.cid] = ext
    for m in modules.values():
        sim.add(m)
    for e in externals.values():
        sim.add(e)
    return SimulatedSystem(system, sim, modules, externals, backend=backend)
